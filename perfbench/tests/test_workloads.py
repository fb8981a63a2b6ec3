import json

import numpy as np

from perfbench import checks
from perfbench.workloads import GENERATED, WORKLOADS, config, stages, write_generated_forecasts


def _synth_outputs(out, n=400):
    rng = np.random.default_rng(1)
    out.mkdir(parents=True)
    with open(out / "test.jsonl", "w") as t, open(out / "oracle.jsonl", "w") as o:
        for i in range(n):
            qid = f"syn-{i:06d}"
            p = float(rng.random())
            t.write(json.dumps({"id": qid, "prediction_ts": i, "outcome": int(rng.random() < p),
                                "market_price": float(rng.uniform(0.01, 0.99))}) + "\n")
            o.write(json.dumps({"id": qid, "p_star": p}) + "\n")


def test_generated_forecasts_are_deterministic_in_the_seed(tmp_path):
    out = tmp_path / "run"
    _synth_outputs(out)
    write_generated_forecasts(7, out, tmp_path / "a")
    write_generated_forecasts(7, out, tmp_path / "b")
    write_generated_forecasts(8, out, tmp_path / "c")
    for name in GENERATED:
        assert (tmp_path / "a" / f"{name}.jsonl").read_bytes() == (tmp_path / "b" / f"{name}.jsonl").read_bytes()
    assert (tmp_path / "a" / "oracle_noisy.jsonl").read_bytes() != (tmp_path / "c" / "oracle_noisy.jsonl").read_bytes()


def test_generated_forecasts_content(tmp_path):
    out = tmp_path / "run"
    _synth_outputs(out)
    write_generated_forecasts(0, out, tmp_path / "in")
    test = checks.read_test(out / "test.jsonl")
    p_star = {r["id"]: r["p_star"] for r in checks.read_jsonl(out / "oracle.jsonl")}
    files = {name: checks.read_forecasts(tmp_path / "in" / f"{name}.jsonl") for name in GENERATED}
    for f in files.values():
        assert set(f) == {q["id"] for q in test}
    for q in test:
        assert files["oracle_rounded"][q["id"]] == round(p_star[q["id"]], 2)
        assert files["market_echo"][q["id"]] == q["market_price"]
    noisy = list(files["oracle_noisy"].values())
    abstained = sum(p is None for p in noisy)
    assert 0 < abstained < 0.12 * len(noisy)
    assert all(p is None or 0.0 <= p <= 1.0 for p in noisy)
    # Every market_echo trade is a tie, so none passes edge_above_zero.
    assert checks.edge_above_zero(files["market_echo"], test) == (0, 0.0)


def test_stage_command_lines(tmp_path):
    for w in WORKLOADS.values():
        cmds = stages(w, tmp_path / "c.json", tmp_path / "run", tmp_path / "in")
        names = [s for s, _ in cmds]
        assert names[0] == "synth" and names[-3:] == ["evaluate", "trade", "report"]
        assert ("train" in names) == (w.algorithm is not None)
        for _, args in cmds:
            assert args[args.index("--jobs") + 1] == "1"
        doc = config(w, 5, tmp_path / "run")
        assert doc["backend"] == "auto" and doc["seed"] == 5
        assert doc["data"]["synthetic"] == {"n_questions": w.n_questions, "feature_dim": 4, "market_noise": 0.5}
