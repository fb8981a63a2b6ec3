import json

import numpy as np
import pytest

from perfbench import checks


def _test_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {
            "id": f"q{i:04d}",
            "prediction_ts": 1000 + i,
            "outcome": int(rng.random() < 0.5),
            "market_price": float(rng.uniform(0.05, 0.95)),
            "volume": None,
        }
        for i in range(n)
    ]


def test_soft_brier_charges_absent_forecasts_a_quarter():
    assert checks.soft_brier([1.0, None, 0.5], [1, 0, 0]) == pytest.approx((0.0 + 0.25 + 0.25) / 3)


def test_ece_by_hand_with_larger_bins_first():
    # 5 forecasts, 2 bins: sizes 3 then 2.
    probs = [0.1, 0.2, 0.3, 0.8, 0.9]
    ys = [0, 0, 1, 1, 1]
    ids = ["a", "b", "c", "d", "e"]
    want = 3 / 5 * abs(1 / 3 - 0.2) + 2 / 5 * abs(1.0 - 0.85)
    assert checks.ece_equal_mass(probs, ids, ys, n_bins=2) == pytest.approx(want, abs=1e-15)


def test_ece_breaks_probability_ties_by_id():
    # Equal probabilities straddle the bin edge; the id order decides which
    # outcome lands in which bin.
    probs, ys = [0.5, 0.5], [1, 0]
    assert checks.ece_equal_mass(probs, ["b", "a"], ys, n_bins=2) == pytest.approx(0.5)
    assert checks.ece_equal_mass(probs, ["a", "b"], ys, n_bins=2) == pytest.approx(0.5)


def test_ece_and_soft_brier_match_the_program():
    evaluation = pytest.importorskip("forecast_rl.evaluation")
    rng = np.random.default_rng(3)
    ids = [f"q{i}" for i in range(503)]
    probs = [None if rng.random() < 0.05 else float(np.round(rng.random(), 2)) for _ in ids]
    ys = [int(rng.random() < 0.4) for _ in ids]
    forecasts = [evaluation.Forecast(q, p) for q, p in zip(ids, probs)]
    outcomes = dict(zip(ids, ys))
    assert checks.ece_equal_mass(probs, ids, ys) == pytest.approx(evaluation.ece_equal_mass(forecasts, outcomes), abs=1e-12)
    assert checks.soft_brier(probs, ys) == pytest.approx(evaluation.soft_brier(forecasts, outcomes), abs=1e-12)


def test_edge_above_zero_by_hand():
    window = [
        {"id": "long", "market_price": 0.5, "outcome": 1},  # p 0.7: edge 0.19, profit 0.49
        {"id": "short", "market_price": 0.5, "outcome": 1},  # p 0.2: edge 0.29, profit -0.51
        {"id": "tie", "market_price": 0.5, "outcome": 1},  # p == m never passes
        {"id": "thin", "market_price": 0.5, "outcome": 1},  # edge below the fee
        {"id": "absent", "market_price": 0.5, "outcome": 1},
        {"id": "unpriced", "market_price": None, "outcome": 1},
    ]
    probs = {"long": 0.7, "short": 0.2, "tie": 0.5, "thin": 0.505, "absent": None, "unpriced": 0.9}
    count, total = checks.edge_above_zero(probs, window)
    assert count == 2
    assert total == pytest.approx(0.49 - 0.51, abs=1e-12)


def test_edge_above_zero_matches_the_program():
    trading = pytest.importorskip("forecast_rl.trading")
    from forecast_rl.data import Dataset, Question
    from forecast_rl.rng import substream

    rows = _test_rows(400, seed=5)
    rng = np.random.default_rng(6)
    probs = {r["id"]: (r["market_price"] if i % 7 == 0 else float(np.round(rng.random(), 2))) for i, r in enumerate(rows)}
    ds = Dataset([
        Question(r["id"], r["prediction_ts"] - 1, r["prediction_ts"] + 1, r["prediction_ts"] + 1, r["prediction_ts"],
                 r["outcome"], np.zeros(1), market_price=r["market_price"])
        for r in rows
    ], "test")
    result = trading.run_strategy(probs, ds, trading.GatingRule("edge_above_zero"), substream(0, "ties"))
    count, total = checks.edge_above_zero(probs, rows)
    assert count == result.n_trades
    assert total == pytest.approx(result.total_profit, abs=1e-9)


def test_check_trades_uses_the_window_after_the_calibration_split():
    rows = _test_rows(10)
    probs = {r["id"]: 0.99 for r in rows}
    count, total = checks.edge_above_zero(probs, rows[5:])
    doc = {"models": {"m": {"rules": {"edge_above_zero": {"n_trades": count, "total_profit": total}}}}}
    assert checks.check_trades(doc, {"m": probs}, rows) == []
    doc["models"]["m"]["rules"]["edge_above_zero"]["n_trades"] += 1
    assert len(checks.check_trades(doc, {"m": probs}, rows)) == 1


def test_check_evaluation_flags_a_perturbed_statistic():
    rows = _test_rows(40)
    ids = [r["id"] for r in rows]
    ys = [r["outcome"] for r in rows]
    probs = {q: 0.3 for q in ids}
    p = [probs[q] for q in ids]
    doc = {"models": {"m": {"soft_brier_mean": checks.soft_brier(p, ys), "ece": checks.ece_equal_mass(p, ids, ys)}}}
    assert checks.check_evaluation(doc, {"m": probs}, rows) == []
    doc["models"]["m"]["ece"] += 1e-9
    assert checks.check_evaluation(doc, {"m": probs}, rows) != []


def test_check_ensemble():
    members = [{"a": 0.2, "b": None, "c": None}, {"a": 0.4, "b": 0.6, "c": None}]
    assert checks.check_ensemble(members, {"a": 0.30000000000000004, "b": 0.6, "c": None}) == []
    assert checks.check_ensemble(members, {"a": 0.3, "b": 0.3, "c": None}) != []
    assert checks.check_ensemble(members, {"a": 0.3, "b": 0.6, "c": 0.5}) != []


def test_read_test_sorts_chronologically(tmp_path):
    path = tmp_path / "test.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [
        {"id": "b", "prediction_ts": 2}, {"id": "c", "prediction_ts": 1}, {"id": "a", "prediction_ts": 2},
    ]) + "\n")
    assert [r["id"] for r in checks.read_test(path)] == ["c", "a", "b"]


def test_digest_depends_on_content(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text("1")
    b.write_text("2")
    first = checks.digest([a, b])
    assert checks.digest([b, a]) == first
    b.write_text("3")
    assert checks.digest([a, b]) != first
