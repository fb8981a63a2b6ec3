"""Output checks written independently of forecast_rl.

Nothing here imports the package under test: each statistic is recomputed
from the files a run leaves behind (test split, oracle sidecar, forecast
files) and compared with what the program wrote.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FEE = 0.01
ABSENT_LOSS = 0.25  # soft-Brier charge for an absent forecast
STAT_TOL = 1e-12  # soft-Brier, ECE, ensemble mean
TRADE_TOL = 1e-9  # trade totals


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_forecasts(path: Path) -> dict[str, float | None]:
    return {r["question_id"]: r["probability"] for r in read_jsonl(path)}


def read_test(path: Path) -> list[dict]:
    """Test questions in the program's chronological order."""
    return sorted(read_jsonl(path), key=lambda r: (r["prediction_ts"], r["id"]))


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def soft_brier(probs: list[float | None], ys: list[int]) -> float:
    losses = [ABSENT_LOSS if p is None else (p - y) ** 2 for p, y in zip(probs, ys)]
    return float(np.mean(losses))


def ece_equal_mass(probs: list[float | None], ids: list[str], ys: list[int], n_bins: int = 10) -> float:
    """Equal-mass ECE: present forecasts sorted by (probability, id), split
    into n_bins contiguous bins with the larger bins first."""
    rows = sorted((p, q, y) for p, q, y in zip(probs, ids, ys) if p is not None)
    p = np.array([r[0] for r in rows], dtype=np.float64)
    y = np.array([r[2] for r in rows], dtype=np.float64)
    n = p.size
    base, extra = divmod(n, n_bins)
    ece, start = 0.0, 0
    for b in range(n_bins):
        size = base + 1 if b < extra else base
        sel = slice(start, start + size)
        ece += (size / n) * abs(float(y[sel].mean()) - float(p[sel].mean()))
        start += size
    return ece


def edge_above_zero(probs: dict[str, float | None], window: list[dict]) -> tuple[int, float]:
    """Count and total profit of one-share trades with positive expected
    edge.  A tie (p == price) has edge -FEE, so it never passes."""
    count, total = 0, 0.0
    for q in window:
        m, p = q.get("market_price"), probs.get(q["id"])
        if m is None or p is None or (q.get("volume") is not None and q["volume"] <= 0):
            continue
        y = q["outcome"]
        if p > m:
            cost = m + FEE
            edge, profit = p - cost, y - cost
        elif p < m:
            cost = (1.0 - m) + FEE
            edge, profit = (1.0 - p) - cost, (1 - y) - cost
        else:
            continue
        if edge > 0.0:
            count += 1
            total += profit
    return count, total


def check_evaluation(doc: dict, models: dict[str, dict], test: list[dict], n_bins: int = 10) -> list[str]:
    """Soft-Brier and ECE of every model in evaluation.json."""
    errors = []
    ids = [q["id"] for q in test]
    ys = [q["outcome"] for q in test]
    if sorted(doc.get("models", {})) != sorted(models):
        return [f"evaluation.json models {sorted(doc.get('models', {}))} != {sorted(models)}"]
    for name, by_id in models.items():
        probs = [by_id[q] for q in ids]
        got = doc["models"][name]
        for key, want in (
            ("soft_brier_mean", soft_brier(probs, ys)),
            ("ece", ece_equal_mass(probs, ids, ys, n_bins)),
        ):
            if abs(got[key] - want) > STAT_TOL:
                errors.append(f"{name}.{key}: program {got[key]!r}, recomputed {want!r}")
    return errors


def check_trades(doc: dict, models: dict[str, dict], test: list[dict], calibration_fraction: float = 0.5) -> list[str]:
    """edge_above_zero count and total of every model in trades.json, over
    the trading window that follows the calibration split."""
    window = test[int(len(test) * calibration_fraction):]
    errors = []
    for name, by_id in models.items():
        rule = doc["models"][name]["rules"]["edge_above_zero"]
        count, total = edge_above_zero(by_id, window)
        if rule["n_trades"] != count:
            errors.append(f"{name}: edge_above_zero n_trades {rule['n_trades']} != recomputed {count}")
        if abs(rule["total_profit"] - total) > TRADE_TOL:
            errors.append(f"{name}: edge_above_zero total {rule['total_profit']!r} != recomputed {total!r}")
    return errors


def check_ensemble(members: list[dict], ensemble: dict) -> list[str]:
    """Each ensemble forecast is the mean of the members that did not
    abstain, or absent when all abstained."""
    errors = []
    for qid, got in ensemble.items():
        present = [m[qid] for m in members if m[qid] is not None]
        want = sum(present) / len(present) if present else None
        if (got is None) != (want is None) or (want is not None and abs(got - want) > STAT_TOL):
            errors.append(f"ensemble {qid}: {got!r} != member mean {want!r}")
            if len(errors) >= 5:
                break
    return errors


def oracle_brier(p_star: dict[str, float], test: list[dict]) -> float:
    return float(np.mean([(p_star[q["id"]] - q["outcome"]) ** 2 for q in test]))
