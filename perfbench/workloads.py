"""Benchmark workloads: run configs, stage command lines, generated inputs.

Each workload is a synthetic stream (feature_dim 4, market_noise 0.5,
train_fraction 0.5) pushed through the CLI stages a user runs.  Sizes are
scaled so that one pass over every stage takes about fifteen seconds on a
2-core machine, six to eight of them inside the program rather than in
interpreter start-up, which lets each benchmark run repeat the pass and
check that repeats are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_questions: int
    bootstrap_reps: int
    algorithm: str | None = None  # None: no train / predict stages
    ensemble_size: int = 1
    evaluate_members: bool = False  # evaluate/trade the member files, not the ensemble

    @property
    def n_train(self) -> int:
        return int(self.n_questions * TRAIN_FRACTION)


TRAIN_FRACTION = 0.5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-remax-k2",
            "the north-star run: ReMax with 2 members, then a two-model evaluate and "
            "trade with bootstrap tests, then report",
            n_questions=4400,
            bootstrap_reps=999,
            algorithm="remax",
            ensemble_size=2,
            evaluate_members=True,
        ),
        Workload(
            "train-grpo-k4",
            "GRPO with 4 members (sigma-normalised advantages, no baseline); "
            "evaluates only the ensemble, so no bootstrap runs",
            n_questions=2600,
            bootstrap_reps=1999,
            algorithm="grpo",
            ensemble_size=4,
        ),
        Workload(
            "compare-3",
            "no training: evaluate and trade three generated forecast files, "
            "so the bootstrap statistics and trade building dominate",
            n_questions=6000,
            bootstrap_reps=3999,
        ),
    )
}

# Model names (file stems) of the generated forecast files in compare-3.
GENERATED = ("oracle_rounded", "oracle_noisy", "market_echo")
NOISE_SD = 0.1
ABSTAIN_SHARE = 0.05


def config(w: Workload, seed: int, out_dir: Path) -> dict:
    doc = {
        "schema_version": 1,
        "seed": seed,
        "output_dir": str(out_dir),
        "ensemble_size": w.ensemble_size,
        "backend": "auto",
        "data": {
            "train_fraction": TRAIN_FRACTION,
            "synthetic": {"n_questions": w.n_questions, "feature_dim": 4, "market_noise": 0.5},
        },
        "evaluation": {"bootstrap_reps": w.bootstrap_reps},
    }
    if w.algorithm is not None:
        doc["train"] = {"algorithm": w.algorithm}
    return doc


def model_files(w: Workload, out_dir: Path, inputs_dir: Path) -> dict[str, Path]:
    """Forecast files given to evaluate and trade, keyed by model name."""
    if w.algorithm is None:
        return {name: inputs_dir / f"{name}.jsonl" for name in GENERATED}
    if w.evaluate_members:
        return {f"forecasts_m{k}": out_dir / f"forecasts_m{k}.jsonl" for k in range(w.ensemble_size)}
    return {"forecasts": out_dir / "forecasts.jsonl"}


def stage_names(w: Workload) -> list[str]:
    middle = ["train", "predict"] if w.algorithm is not None else []
    return ["synth", *middle, "evaluate", "trade", "report"]


def stages(w: Workload, config_path: Path, out_dir: Path, inputs_dir: Path) -> list[tuple[str, list[str]]]:
    """(stage, CLI arguments) in run order."""
    common = ["--config", str(config_path), "--jobs", "1"]
    files = [str(p) for p in model_files(w, out_dir, inputs_dir).values()]
    return [(s, [s, *common, *(files if s in ("evaluate", "trade") else [])]) for s in stage_names(w)]


def write_generated_forecasts(seed: int, out_dir: Path, inputs_dir: Path) -> None:
    """Write the compare-3 forecast files from the oracle and the quotes.

    - oracle_rounded: p* on the 0.01 grid;
    - oracle_noisy: p* plus N(0, 0.1^2) noise, clipped and rounded, with a
      5% share of null abstentions;
    - market_echo: the market price itself, so every trade is a tie.
    Deterministic in `seed`.
    """
    test = checks.read_jsonl(out_dir / "test.jsonl")
    p_star = {r["id"]: r["p_star"] for r in checks.read_jsonl(out_dir / "oracle.jsonl")}
    ids = [r["id"] for r in test]
    p = np.array([p_star[q] for q in ids])
    rng = np.random.default_rng([seed, 3])
    noisy = np.round(np.clip(p + NOISE_SD * rng.standard_normal(p.size), 0.0, 1.0), 2)
    abstain = rng.random(p.size) < ABSTAIN_SHARE
    columns = {
        "oracle_rounded": [float(v) for v in np.round(p, 2)],
        "oracle_noisy": [None if a else float(v) for v, a in zip(noisy, abstain)],
        "market_echo": [r["market_price"] for r in test],
    }
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, probs in columns.items():
        with open(inputs_dir / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for qid, prob in zip(ids, probs):
                fh.write(json.dumps({"question_id": qid, "probability": prob}) + "\n")
