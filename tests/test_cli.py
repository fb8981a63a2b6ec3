import csv
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import make_dataset, make_question, poison_baseline

from forecast_rl import cli
from forecast_rl.algorithms import HyperParams
from forecast_rl.cli import (
    EXIT_EARLY_STOP,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    Manifest,
    main,
)
from forecast_rl.config import load_config
from forecast_rl.data import load_questions, save_questions
from forecast_rl.evaluation import Z_95, load_forecasts, paired_bootstrap, save_forecasts
from forecast_rl.policy import PolicyParams, load_checkpoint, save_checkpoint
from forecast_rl.rng import substream
from forecast_rl.trading import GATES, gating_ece, per_question_profits, run_strategies
from forecast_rl.trainer import train_members

BASE = {
    "schema_version": 1,
    "seed": 3,
    "ensemble_size": 1,
    "backend": "numpy",
    "data": {
        "train_fraction": 0.5,
        "synthetic": {"n_questions": 60, "feature_dim": 2, "market_noise": 0.5},
    },
    "train": {"algorithm": "remax"},
    "evaluation": {"bootstrap_reps": 99},
}


def write_config(tmp_path, **overrides):
    raw = json.loads(json.dumps(BASE))
    raw["output_dir"] = str(tmp_path / "out")
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def run(cmd, cfg_path, *extra):
    return main([cmd, "--config", str(cfg_path), *extra])


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"

        assert run("synth", cfg) == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "oracle.jsonl"):
            assert (out / name).exists()

        assert run("train", cfg) == EXIT_OK
        final = out / "seed3_m0_q000030"
        assert (final / "params.json").exists()
        assert (final / "config.json").exists()
        assert (final / "runlog.jsonl").exists()

        assert run("predict", cfg) == EXIT_OK
        assert (out / "forecasts.jsonl").exists()
        assert (out / "forecasts_m0.jsonl").exists()

        assert run("evaluate", cfg) == EXIT_OK
        doc = json.loads((out / "evaluation.json").read_text())
        assert set(doc["models"]) == {"forecasts"}
        assert doc["comparisons"] == []  # single model, nothing to compare
        assert 0.0 <= doc["models"]["forecasts"]["ece"] <= 1.0
        assert (out / "bins_forecasts.csv").exists()

        assert run("trade", cfg) == EXIT_OK
        trades = json.loads((out / "trades.json").read_text())
        rules = trades["models"]["forecasts"]["rules"]
        assert set(rules) == {"edge_above_ece", "edge_above_zero", "all_markets"}
        assert rules["edge_above_ece"]["n_trades"] <= rules["edge_above_zero"]["n_trades"]
        assert rules["edge_above_zero"]["n_trades"] <= rules["all_markets"]["n_trades"]
        assert len(trades["models"]["forecasts"]["confidence_bands"]) == 3

        assert run("report", cfg) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "unregistered_files" not in report
        assert (out / "report.md").read_text().startswith("# Run report")

        manifest = Manifest(out)
        assert set(manifest.doc["stages"]) == {
            "synth", "train", "predict", "evaluate", "trade", "report",
        }
        assert manifest.unregistered_files() == []
        assert "trained 30 questions" in capsys.readouterr().out

    def test_two_model_comparison(self, tmp_path):
        cfg = write_config(tmp_path, ensemble_size=2,
                           data={"synthetic": {"n_questions": 40, "feature_dim": 2,
                                               "market_noise": 0.5}})
        out = tmp_path / "out"
        for cmd in ("synth", "train", "predict"):
            assert run(cmd, cfg) == EXIT_OK
        m0, m1 = str(out / "forecasts_m0.jsonl"), str(out / "forecasts_m1.jsonl")

        assert run("evaluate", cfg, m0, m1) == EXIT_OK
        doc = json.loads((out / "evaluation.json").read_text())
        assert set(doc["models"]) == {"forecasts_m0", "forecasts_m1"}
        assert len(doc["comparisons"]) == 1
        cmp = doc["comparisons"][0]
        assert cmp["model_a"] == "forecasts_m0" and cmp["model_b"] == "forecasts_m1"
        for block in (cmp["soft_brier"], cmp["ece"]):
            assert set(block) >= {"delta_mean", "p_value", "ci_low", "ci_high"}

        assert run("trade", cfg, m0, m1) == EXIT_OK
        trades = json.loads((out / "trades.json").read_text())
        assert len(trades["comparisons"]) == 3  # one per gating rule
        assert {c["rule"] for c in trades["comparisons"]} == {
            "edge_above_ece", "edge_above_zero", "all_markets",
        }

    def test_sparse_model_evaluates(self, tmp_path, capsys):
        """A model present on 15 of 100 test questions: some bootstrap
        replicates draw fewer than 10 of its forecasts and have no ECE.
        They are dropped and counted instead of failing the stage."""
        cfg = write_config(tmp_path, data={"synthetic": {"n_questions": 200, "feature_dim": 2,
                                                         "market_noise": 0.5}})
        out = tmp_path / "out"
        assert run("synth", cfg) == EXIT_OK
        ids = load_questions(out / "test.jsonl").ids
        dense, sparse = tmp_path / "dense.jsonl", tmp_path / "sparse.jsonl"
        save_forecasts(dense, ids, np.full(len(ids), 0.5))
        save_forecasts(sparse, ids, np.array([(i % 15) / 15 if i < 15 else np.nan for i in range(len(ids))]))
        capsys.readouterr()

        assert run("evaluate", cfg, str(dense), str(sparse)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "dense vs sparse: ECE bootstrap dropped" in printed
        dropped = int(printed.split("ECE bootstrap dropped ")[1].split()[0])
        assert 0 < dropped < 99
        ece = json.loads((out / "evaluation.json").read_text())["comparisons"][0]["ece"]
        assert 1 / 99 <= ece["p_value"] <= 1 and ece["ci_low"] <= ece["ci_high"]

    def test_parallel_training_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, ensemble_size=2,
                           data={"synthetic": {"n_questions": 16, "feature_dim": 2,
                                               "market_noise": 0.5}})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg, "--jobs", "2") == EXIT_OK
        serial_out = tmp_path / "serial"
        assert run("train", cfg, "--out", str(serial_out)) == EXIT_VALIDATION  # no data there

        # re-synth into the serial dir, then compare member params byte for byte
        assert run("synth", cfg, "--out", str(serial_out)) == EXIT_OK
        assert run("train", cfg, "--out", str(serial_out)) == EXIT_OK
        for member in (0, 1):
            name = f"seed3_m{member}_q000008/params.json"
            assert (tmp_path / "out" / name).read_bytes() == (serial_out / name).read_bytes()

    def test_predict_loads_the_highest_question_index(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        out = tmp_path / "out"
        paths = []
        for index, answer in ((999999, 20), (1000000, 70)):
            params = PolicyParams.zeros(2)
            params.answer_weights[0, answer] = 5.0
            paths.append(out / f"seed3_m0_q{index:06d}" / "params.json")
            save_checkpoint(params, paths[-1])
        Manifest(out).register("train", "hash", paths, 0.0)
        assert run("predict", cfg) == EXIT_OK
        rows = [json.loads(line) for line in (out / "forecasts.jsonl").read_text().splitlines()]
        assert rows and {r["probability"] for r in rows} == {0.7}

    def test_predict_reads_the_checkpoints_of_the_last_train(self, tmp_path, capsys):
        """A second train on a shorter stream in the same directory leaves
        the first train's later checkpoint on disk; predict reads the
        second train's checkpoint, as in a fresh directory, and without a
        registered checkpoint it exits 2."""
        def config(n, out):
            return write_config(tmp_path, output_dir=str(tmp_path / out),
                                data={"synthetic": {"n_questions": n, "feature_dim": 2, "market_noise": 0.5}})

        for n in (60, 40):
            for cmd in ("synth", "train"):
                assert run(cmd, config(n, "out")) == EXIT_OK
        assert (tmp_path / "out" / "seed3_m0_q000030").exists()
        assert run("predict", config(40, "out")) == EXIT_OK
        for cmd in ("synth", "train", "predict"):
            assert run(cmd, config(40, "fresh")) == EXIT_OK
        for name in ("forecasts.jsonl", "forecasts_m0.jsonl"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

        manifest = Manifest(tmp_path / "out")
        del manifest.doc["stages"]["train"]
        manifest.save()
        assert run("predict", config(40, "out")) == EXIT_VALIDATION
        assert "no checkpoint seed3_m0_q*/params.json of member 0 registered by train" in capsys.readouterr().err

    def test_checkpoint_cadence(self, tmp_path):
        cfg = write_config(tmp_path, train={"checkpoint_every": 10})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_OK
        dirs = sorted(p.name for p in (tmp_path / "out").glob("seed3_m0_q*"))
        assert dirs == ["seed3_m0_q000010", "seed3_m0_q000020", "seed3_m0_q000030"]
        partial = (tmp_path / "out" / "seed3_m0_q000010" / "runlog.jsonl").read_text()
        assert len(partial.strip().split("\n")) == 10

    @staticmethod
    def _runlogs(tmp_path, every: int) -> list[list[str]]:
        """The lines of member 0's runlog.jsonl files, in question order."""
        cfg = write_config(tmp_path, train={"checkpoint_every": every})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_OK
        dirs = sorted((tmp_path / "out").glob("seed3_m0_q*"))
        assert len(dirs) == -(-30 // every)  # the intermediate checkpoints and the final one
        return [(d / "runlog.jsonl").read_text().splitlines() for d in dirs]

    @pytest.mark.parametrize("every", [1, 7, 30])
    def test_checkpoint_runlogs_are_linear_in_the_stream(self, tmp_path, every):
        """A run of n questions writes at most 2n runlog lines, whatever
        the checkpoint cadence."""
        logs = self._runlogs(tmp_path, every)
        assert len(logs[-1]) == 30
        assert sum(map(len, logs)) <= 2 * 30

    @pytest.mark.parametrize("every", [1, 7])
    def test_intermediate_runlogs_concatenate_to_the_final_one(self, tmp_path, every):
        *partial, final = self._runlogs(tmp_path, every)
        lines = [line for log in partial for line in log]
        assert [len(log) for log in partial] == [every] * len(partial)
        assert lines == final[: len(lines)]

    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo"])
    def test_checkpoints_without_a_baseline_save_null(self, tmp_path, algorithm):
        """Intermediate and final checkpoints of algorithms without a
        baseline both record baseline_weights as null."""
        cfg = write_config(tmp_path, train={"algorithm": algorithm, "checkpoint_every": 10})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_OK
        dirs = sorted((tmp_path / "out").glob("seed3_m0_q*"))
        assert [d.name for d in dirs] == ["seed3_m0_q000010", "seed3_m0_q000020", "seed3_m0_q000030"]
        for d in dirs:
            assert json.loads((d / "params.json").read_text())["baseline_weights"] is None, d.name


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        paths = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            for cmd in ("synth", "train", "predict"):
                assert run(cmd, cfg, "--out", str(out)) == EXIT_OK
            paths.append(out)
        a, b = paths
        assert (a / "forecasts.jsonl").read_bytes() == (b / "forecasts.jsonl").read_bytes()
        assert (a / "seed3_m0_q000030" / "params.json").read_bytes() == \
            (b / "seed3_m0_q000030" / "params.json").read_bytes()

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((out_a, "3"), (out_b, "11")):
            for cmd in ("synth", "train"):
                assert run(cmd, cfg, "--out", str(out), "--seed", seed) == EXIT_OK
        assert (out_a / "seed3_m0_q000030").exists()
        assert (out_b / "seed11_m0_q000030").exists()
        assert (out_a / "train.jsonl").read_bytes() != (out_b / "train.jsonl").read_bytes()


class TestExitCodes:
    def test_validation_failures_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run("synth", missing) == EXIT_VALIDATION

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{oops")
        assert run("synth", bad_json) == EXIT_VALIDATION

        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"schema_version": 1, "learning_rate": 1e-3}))
        assert run("train", unknown) == EXIT_VALIDATION

        no_synth = write_config(tmp_path)
        raw = json.loads(no_synth.read_text())
        raw["data"].pop("synthetic")
        no_synth.write_text(json.dumps(raw))
        assert run("synth", no_synth) == EXIT_VALIDATION

        cfg = write_config(tmp_path)
        assert run("train", cfg) == EXIT_VALIDATION  # no dataset yet
        err = capsys.readouterr().err
        assert "not found" in err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"train": {"guardrails_enabled": "false"}}, "train.guardrails_enabled"),
            ({"seed": "abc"}, "seed"),
            ({"seed": -3}, "seed"),
            ({"seed": 7.9}, "seed"),
            ({"seed": True}, "seed"),
            ({"data": {"synthetic": {"n_questions": 20.7, "feature_dim": 2}}}, "data.synthetic.n_questions"),
            ({"data": {"synthetic": {}}}, "data.synthetic.n_questions"),
            ({"data": {"synthetic": {"n_questions": 20}}}, "data.synthetic.feature_dim"),
        ],
    )
    def test_miscast_config_values_exit_2(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        assert run("synth", cfg) == EXIT_VALIDATION
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_must_be_nonnegative(self, tmp_path, capsys):
        assert run("synth", write_config(tmp_path), "--seed", "-3") == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    def test_numba_backend_without_numba_exit_2(self, tmp_path):
        """numba is no longer a backend: the config is refused, naming the
        key, whether or not numba is installed."""
        import forecast_rl

        cfg = write_config(tmp_path, backend="numba")
        env = {**os.environ, "PYTHONPATH": str(Path(forecast_rl.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "forecast_rl.cli", "synth", "--config", str(cfg)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == EXIT_VALIDATION
        assert "backend" in done.stderr and "Traceback" not in done.stderr

    def test_misaligned_forecasts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("synth", "train", "predict"):
            assert run(cmd, cfg) == EXIT_OK
        rogue = tmp_path / "rogue.jsonl"
        save_forecasts(rogue, ["no-such-question"], np.array([0.5]))
        assert run("evaluate", cfg, str(rogue)) == EXIT_VALIDATION
        assert "align" in capsys.readouterr().err

    def test_early_stop_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            train={"early_stop": {"window": 5, "gibberish_threshold": 0.001}},
        )
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_EARLY_STOP
        assert "early stop (gibberish)" in capsys.readouterr().out
        assert (tmp_path / "out" / "seed3_m0_q000005" / "params.json").exists()
        runlog = (tmp_path / "out" / "seed3_m0_q000005" / "runlog.jsonl").read_bytes()
        assert hashlib.sha256(runlog).hexdigest() == "7ba322ad9c3deeeef4b8134c939fc00fd52031706973dc7306c045018c6bd3d8"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hyperparams={"actor_lr": 1e308})  # the weights overflow
        assert run("synth", cfg) == EXIT_OK

        assert run("train", cfg) == EXIT_NUMERIC
        assert "member 0: numeric abort: non-finite gradient at question" in capsys.readouterr().err
        lastgood = tmp_path / "out" / "seed3_m0_lastgood"
        assert (lastgood / "params.json").exists()
        log = (lastgood / "runlog.jsonl").read_text().strip()
        assert len(log.split("\n")) == 2  # questions before the one that overflowed
        digest = hashlib.sha256((lastgood / "runlog.jsonl").read_bytes()).hexdigest()
        assert digest == "c8577ecbd5a60024f46eed05450acc855c3add207dd5f3e5e6e9ebc8e1e6e822"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dpo_numeric_abort_stops_each_member_alone(self, tmp_path, capsys):
        """A DPO learning rate of 1e308 overflows each member's weights:
        each member leaves its last good weights and its run log in a
        registered lastgood checkpoint, and train exits 4."""
        cfg = write_config(tmp_path, ensemble_size=2, train={"algorithm": "dpo"}, hyperparams={"dpo_lr": 1e308})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_NUMERIC
        err = capsys.readouterr().err
        out = tmp_path / "out"
        registered = Manifest(out).doc["stages"]["train"]["files"]
        for member in (0, 1):
            assert f"member {member}: numeric abort: non-finite DPO gradient" in err
            lastgood = f"seed3_m{member}_lastgood"
            assert {f"{lastgood}/{name}" for name in ("params.json", "config.json", "runlog.jsonl")} <= set(registered)
            params, baseline = load_checkpoint(out / lastgood / "params.json")  # finite, or it would not load
            assert baseline is None
            assert len((out / lastgood / "runlog.jsonl").read_text().splitlines()) == 30
        assert Manifest(out).unregistered_files() == []

    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo", "remax"])
    def test_huge_feature_trains_on(self, tmp_path, capsys, algorithm):
        """x.x of a 1.3e154 feature is finite but x.x * |g|^2 is not; the
        clip norm |x| * |g| is finite, so the member trains to the end."""
        cfg = write_config(tmp_path, train={"algorithm": algorithm})
        assert run("synth", cfg) == EXIT_OK
        train_path = tmp_path / "out" / "train.jsonl"
        lines = train_path.read_text().strip().split("\n")
        doc = json.loads(lines[4])
        doc["features"][0] = 1.3e154
        lines[4] = json.dumps(doc)
        train_path.write_text("\n".join(lines) + "\n")

        assert run("train", cfg) == EXIT_OK
        assert "trained 30 questions" in capsys.readouterr().out
        params, _ = load_checkpoint(tmp_path / "out" / "seed3_m0_q000030" / "params.json")
        params.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e200])
    def test_non_finite_features_exit_2(self, tmp_path, capsys, value):
        """NaN and Infinity parse from JSON, and 1e200 squares to inf: each
        is rejected at load, naming the question, before training starts."""
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        train_path = tmp_path / "out" / "train.jsonl"
        lines = train_path.read_text().strip().split("\n")
        doc = json.loads(lines[4])
        doc["features"][1] = value
        lines[4] = json.dumps(doc)
        train_path.write_text("\n".join(lines) + "\n")

        assert run("train", cfg) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"question {doc['id']!r}: features" in err
        assert not list((tmp_path / "out").glob("seed3_m0_*"))

    def test_non_finite_volume_exit_2(self, tmp_path, capsys):
        """NaN stands for null in a dataset's columns, so a NaN volume would
        make its question tradeable; it is refused at load, naming the
        file, the line and the field."""
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        test_path = tmp_path / "out" / "test.jsonl"
        lines = test_path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "volume": float("nan")})
        test_path.write_text("\n".join(lines) + "\n")
        assert run("trade", cfg) == EXIT_VALIDATION
        assert f"{test_path}: line 3: field 'volume': expected a finite number, got nan" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_member_outcomes_are_independent(self, tmp_path, capsys, monkeypatch):
        """In one ensemble, a member that aborts and a member that stops
        early leave the same files and exit code as when trained alone,
        and the other members train on."""
        cfg = write_config(
            tmp_path, ensemble_size=4, hyperparams={"actor_lr": 0.01},
            train={"algorithm": "remax", "outer_iteration_len": 4,
                   "early_stop": {"window": 5, "gibberish_threshold": 0.38}},
        )
        assert run("synth", cfg) == EXIT_OK
        out = tmp_path / "out"
        poison_baseline(monkeypatch, member=3, index=15)

        assert run("train", cfg) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "member 3: numeric abort" in captured.err
        assert "member 0: early stop (gibberish) after 15 questions" in captured.out
        assert "member 1: trained 30 questions" in captured.out
        assert "member 2: early stop (gibberish) after 14 questions" in captured.out
        dirs = {"seed3_m0_q000015": 0, "seed3_m1_q000030": 1, "seed3_m2_q000014": 2, "seed3_m3_lastgood": 3}
        assert sorted(p.name for p in out.glob("seed3_m*")) == sorted(dirs)
        assert Manifest(out).unregistered_files() == []

        run_cfg = load_config(cfg)
        for name, member in dirs.items():
            (alone,) = train_members(load_questions(out / "train.jsonl"), run_cfg.train, run_cfg.hyperparams,
                                     run_cfg.penalties, [member])
            params, baseline = load_checkpoint(out / name / "params.json")
            assert params.answer_weights.tobytes() == alone.params.answer_weights.tobytes()
            assert params.content_weights.tobytes() == alone.params.content_weights.tobytes()
            assert baseline.tobytes() == alone.baseline.tobytes()
            log = (out / name / "runlog.jsonl").read_text().splitlines()
            assert [json.loads(line)["id"] for line in log] == alone.run_log.question_ids

    def test_chronology_violation_reports_the_pair_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        out = tmp_path / "out"
        train_ds, test_ds = load_questions(out / "train.jsonl"), load_questions(out / "test.jsonl", split="test")
        # the two halves swapped: every train question resolves after every test prediction
        save_questions(test_ds, out / "train.jsonl")
        save_questions(train_ds, out / "test.jsonl")
        assert run("train", cfg) == EXIT_VALIDATION
        assert f"chronology violation: {30 * 30} (train, test) pairs" in capsys.readouterr().err

    def test_missing_configured_test_path_exit_2(self, tmp_path, capsys):
        """A configured data.test_path that does not exist is refused,
        naming the key, rather than skipping the chronology check; the
        default test path may be absent."""
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        out = tmp_path / "out"
        train_ds, test_ds = load_questions(out / "train.jsonl"), load_questions(out / "test.jsonl", split="test")
        save_questions(test_ds, out / "train.jsonl")  # violates chronology against the real test split
        save_questions(train_ds, out / "test.jsonl")
        misspelled = write_config(tmp_path, data={"test_path": str(out / "tset.jsonl")})
        assert run("train", misspelled) == EXIT_VALIDATION
        assert f"data.test_path {out / 'tset.jsonl'} not found" in capsys.readouterr().err
        assert not list(out.glob("seed3_m0_*"))

        (out / "test.jsonl").unlink()
        assert run("train", write_config(tmp_path)) == EXIT_OK

    def test_test_split_is_freed_before_training(self, tmp_path, monkeypatch):
        """The test split is read only for the chronology check, so the
        test Dataset that train loads is gone while the members train."""
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        loaded, alive = [], []

        def load(*args, **kwargs):
            dataset = load_questions(*args, **kwargs)
            loaded.append(weakref.ref(dataset))
            return dataset

        def traced(*args, **kwargs):
            alive.extend(ref() for ref in loaded if ref() is not None and ref().split == "test")
            return train_members(*args, **kwargs)

        monkeypatch.setattr(cli, "load_questions", load)
        monkeypatch.setattr(cli, "train_members", traced)
        assert run("train", cfg) == EXIT_OK
        assert len(loaded) == 2 and alive == []

    def test_empty_stream_synth_then_train(self, tmp_path):
        cfg = write_config(
            tmp_path,
            data={"synthetic": {"n_questions": 0, "feature_dim": 2, "market_noise": 0.5}},
        )
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_VALIDATION


    def test_trade_with_every_priced_question_in_the_calibration_half(self, tmp_path):
        """A CSV test set priced only in its calibration half leaves no row
        to trade: the comparisons have p = 1 and zero CIs, and trade exits 0."""
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        test_ds = load_questions(tmp_path / "out" / "test.jsonl", split="test")
        test_ds.market_price[len(test_ds) // 2 :] = np.nan
        save_questions(test_ds, tmp_path / "test.csv")
        cfg = write_config(tmp_path, data={"test_path": str(tmp_path / "test.csv")})
        paths = []
        for name, probs in (("a", 0.3), ("b", 0.7)):
            paths.append(str(tmp_path / f"{name}.jsonl"))
            save_forecasts(paths[-1], test_ds.ids, np.full(len(test_ds), probs))
        assert run("trade", cfg, *paths) == EXIT_OK
        comparisons = json.loads((tmp_path / "out" / "trades.json").read_text())["comparisons"]
        assert len(comparisons) == 3
        for c in comparisons:
            delta = c["total_profit_delta"]
            assert (delta["delta_mean"], delta["ci_low"], delta["ci_high"], delta["p_value"]) == (0.0, 0.0, 0.0, 1.0)


class TestReportAndManifest:
    def test_unregistered_files_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        stray = tmp_path / "out" / "stray.txt"
        stray.write_text("debris")
        assert run("report", cfg) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["unregistered_files"] == ["stray.txt"]
        assert "unregistered" in capsys.readouterr().out

    def test_manifest_accumulates_stages(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        m = Manifest(tmp_path / "out")
        assert set(m.doc["stages"]) == {"synth"}
        assert m.doc["config_hash"] is not None
        assert {"train.jsonl", "test.jsonl", "oracle.jsonl"} <= m.registered_files()

    def test_report_before_any_stage(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("report", cfg) == EXIT_OK
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["stages_run"] == []


class TestStatisticsOutputs:
    # sha256 of the files that the per-replicate bootstrap loop, with trades
    # rebuilt for every gate, wrote for this fixture.  The chunked bootstrap
    # and the single trade build must reproduce them byte for byte.  The
    # p-values of evaluation.json and trades.json come from the package's own
    # normal and Student-t tails; they differ from scipy's by at most 4.1e-15
    # here (the scipy-era digests were 56743d11... and 1b951fc5...), and the
    # test checks each of them against scipy below.  evaluation.json and
    # trades.json were re-pinned when the ECE bootstrap began to order tied
    # probabilities by row index and the trade gates began to share one
    # replicate set (they were f9c92d01... and bf019496...).  The bins_*.csv
    # files, evaluation.json and trades.json were re-pinned when the report's
    # ECE and bins became the one-row call of the bootstrap's count-matrix
    # ECE, whose bin means are sequential sums: they moved in the last bits
    # of the bin means, the ECEs and the gating_ece values (bins were
    # 2ca09a61..., 275f67c2..., d0a0b902...; evaluation.json e7bca65a...;
    # trades.json 738ea9f5...).  trades.json was re-pinned when the profit
    # totals became count-weighted sums in row order rather than sums in
    # resampled order: only comparison ci_low / ci_high values moved, by
    # 1-4 ulps (it was 2293d7d8...).
    DIGESTS = {
        "bins_echo.csv": "c596a2941a6d2068fd37b31573a7a3e8229e98817178fefb625e810abdd88512",
        "bins_grid.csv": "551c71a88a58c3aa0d530c8ae3d0f7002700c9c530c03719975b416886b8bd10",
        "bins_smooth.csv": "b1a60428f8c27ba75f5ea633cca0cfc807427067a463268449317c1a8eea005f",
        "curve_echo_all_markets.csv": "8ffe689dc7664e808c1c3469f3a77acf8d7911341184bb305c40b30551d6a3c8",
        "curve_echo_edge_above_ece.csv": "70139497930092241372c5122a7236a48ebd51a04d75bfcf4b6941bc2bc9e661",
        "curve_echo_edge_above_zero.csv": "70139497930092241372c5122a7236a48ebd51a04d75bfcf4b6941bc2bc9e661",
        "curve_grid_all_markets.csv": "499b04d4ffb19c0d242b26cc884e5e4c904ca467f299a82bb9fb898439e8495a",
        "curve_grid_edge_above_ece.csv": "258390f8af411187373e71c38786b402843904bca536c475156deca49a371853",
        "curve_grid_edge_above_zero.csv": "499b04d4ffb19c0d242b26cc884e5e4c904ca467f299a82bb9fb898439e8495a",
        "curve_smooth_all_markets.csv": "420467b49371ab5f415f65440b4755c1bdf2b7183d86ec396c1e82d4bd3c17d1",
        "curve_smooth_edge_above_ece.csv": "6209eb00421bf47b8b14157e03033bfee1e2969144ac2879c64a6df7371e610f",
        "curve_smooth_edge_above_zero.csv": "9256e4ffd92be5cbbeab1dca5772b6d6b48c622984b19e860581a9908ee1c687",
        "evaluation.json": "8460d1b9c4626993be537d60d76bdf8ba2395e984efb6e162bf12db3a0536af5",
        "trades.json": "596cca7831497f0d9ef4cfa8a5414d560bcb7eba0ffcffa0d85497ee713eb6f7",
    }

    @staticmethod
    def _models(tmp_path):
        """Three models: a 0.01 grid with 20% abstentions, continuous
        probabilities, and the market price itself (every trade a tie)."""
        cfg = write_config(tmp_path, data={"synthetic": {"n_questions": 400, "feature_dim": 2,
                                                         "market_noise": 0.5}},
                           evaluation={"bootstrap_reps": 199})
        out = tmp_path / "out"
        assert run("synth", cfg) == EXIT_OK
        test_ds = load_questions(out / "test.jsonl", split="test")
        rng = np.random.default_rng(21)
        columns = {
            "grid": [None if rng.random() < 0.2 else float(np.round(rng.random(), 2)) for _ in test_ds],
            "smooth": [float(rng.random()) for _ in test_ds],
            "echo": [q.market_price for q in test_ds],
        }
        paths = []
        for name, probs in columns.items():
            paths.append(str(tmp_path / f"{name}.jsonl"))
            save_forecasts(paths[-1], test_ds.ids, np.array(probs, dtype=np.float64))
        return cfg, out, paths

    def test_evaluate_and_trade_outputs_are_unchanged(self, tmp_path):
        cfg, out, paths = self._models(tmp_path)
        assert run("evaluate", cfg, *paths) == EXIT_OK
        assert run("trade", cfg, *paths) == EXIT_OK
        files = sorted(p for p in out.iterdir() if p.name.startswith(("evaluation", "trades", "bins_", "curve_")))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert got == self.DIGESTS

        from scipy.special import ndtr, stdtr

        wald = [c["soft_brier"] for c in json.loads((out / "evaluation.json").read_text())["comparisons"]]
        assert len(wald) == 3
        for c in wald:
            se = (c["ci_high"] - c["ci_low"]) / (2 * Z_95)
            assert c["p_value"] == pytest.approx(2 * ndtr(-abs(c["delta_mean"] / se)), rel=0, abs=1e-12)
        bands = [b for m in json.loads((out / "trades.json").read_text())["models"].values()
                 for b in m["confidence_bands"] if b["t_stat"] is not None]
        assert len(bands) >= 6
        for b in bands:
            assert b["p_value"] == pytest.approx(2 * stdtr(b["count"] - 1, -abs(b["t_stat"])), rel=0, abs=1e-12)

    def test_reported_ece_is_the_compared_ece_and_its_bin_sum(self, tmp_path):
        """Each comparison's ECE delta is exactly the difference of the two
        reported ECEs, and each reported ECE is exactly the left-to-right
        sum of (count / n) * |frequency - confidence| over its bin rows."""
        cfg, out, paths = self._models(tmp_path)
        assert run("evaluate", cfg, *paths) == EXIT_OK
        doc = json.loads((out / "evaluation.json").read_text())
        models = doc["models"]
        assert len(doc["comparisons"]) == 3
        for c in doc["comparisons"]:
            assert c["ece"]["delta_mean"] == models[c["model_a"]]["ece"] - models[c["model_b"]]["ece"]
        for name, m in models.items():
            with open(out / f"bins_{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            ece = 0.0
            for r in rows:
                gap = abs(float(r["empirical_frequency"]) - float(r["mean_confidence"]))
                ece += (int(r["count"]) / m["n_questions"]) * gap
            assert m["ece"] == ece

    def test_each_gate_compares_on_one_shared_replicate_set(self, tmp_path):
        """Every gate's comparisons equal a bootstrap of that gate's profit
        matrix alone, started from a fresh trade substream."""
        cfg, out, paths = self._models(tmp_path)
        assert run("trade", cfg, *paths) == EXIT_OK
        config = load_config(cfg)
        test_ds = load_questions(out / "test.jsonl", split="test")
        names, probs = load_forecasts(paths, test_ds.ids)
        ece, trade_ds, probs = gating_ece(probs, test_ds, config.trading.ece_source,
                                          config.trading.calibration_fraction, config.evaluation.n_bins)
        results = [run_strategies(probs[:, j], trade_ds, ece[j], substream(config.seed, "ties", name))
                   for j, name in enumerate(names)]
        want = []
        for rule in GATES:
            values, _ = per_question_profits([r[rule] for r in results], trade_ds)
            boot = paired_bootstrap(values, config.evaluation.bootstrap_reps,
                                    substream(config.seed, "bootstrap", "trade"))
            want += [{"rule": rule, "model_a": names[i], "model_b": names[j], "total_profit_delta": asdict(cmp)}
                     for (i, j), cmp in sorted(boot.items())]
        assert len(want) == 9
        assert json.loads((out / "trades.json").read_text())["comparisons"] == json.loads(json.dumps(want))

    def test_forked_workers_print_nothing_and_change_no_file(self, tmp_path):
        """evaluate, then trade, in one process whose stdout is a pipe, with
        the bootstraps on two forked workers and many chunks: evaluate's
        lines are still buffered when trade forks, and each appears once.
        The files are those of the pinned digests."""
        cfg, out, paths = self._models(tmp_path)
        code = (
            "import sys\n"
            "from forecast_rl import cli, evaluation\n"
            "evaluation._bootstrap_workers = lambda n_rows: 2\n"
            "evaluation.BOOTSTRAP_CHUNK_ELEMENTS = 2**12\n"
            "for stage in ('evaluate', 'trade'):\n"
            "    assert cli.main([stage, '--config', sys.argv[1], *sys.argv[2:]]) == 0, stage\n"
        )
        lines = _python(code, str(cfg), *paths).splitlines()
        assert len(lines) == 6 and len(set(lines)) == 6, lines
        assert [line.split(":")[0] for line in lines] == ["echo", "grid", "smooth"] * 2
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert got == self.DIGESTS


class TestSynthAndPredictOutputs:
    # sha256 of the files that synth, train and predict wrote for this
    # fixture (a 2-member ReMax run, checkpointed after 20 questions) while
    # datasets were lists of per-question objects and every JSONL line was
    # one json.dumps of a record.  The columnar dataset and the column
    # writer must reproduce them byte for byte.  test.csv is the test set
    # written by save_questions as CSV; read back and written as JSONL it
    # must give test.jsonl again.
    DIGESTS = {
        "forecasts.jsonl": "c4c47abac8b9876fc62253a7020e7633bf6eb6e8f86e63743bfa2536c123c835",
        "forecasts_m0.jsonl": "087582a09ccdba8d7b158e3329d171cd5f22f7667e13adfd389da62a3d6e8931",
        "forecasts_m1.jsonl": "7ad587c2f18438b6888cc62c5aef804017891b8286289e79e9e7fa5e13af4731",
        "oracle.jsonl": "b1de67ef4e5f7ac082c6049beff716528a82a027381d111a120b9f181c641ae4",
        "test.csv": "d1f0166a738a3240e2ac1095ef4239337374ffc1a2cfe29a1dadc84d5ba3f15a",
        "test.jsonl": "7b099c2fd9244c6b9a5a89f003e8d0faa79fecb398e53c44a565b21cfd8d5357",
        "train.jsonl": "81d5de84bd3aaf1e291abf74829a8b78a21fbbde8eadfb18662e59b8140003e8",
        "seed3_m0_q000020/runlog.jsonl": "a2b2752d90de822b8927c6a9235c4f49ca0701e380caa77bdaa11b4ac5378a63",
        "seed3_m0_q000030/params.json": "50878165fe6bfff5dcb3cbb49d169f79f20f6b80db26fbd50389318575e5e704",
        "seed3_m0_q000030/runlog.jsonl": "d0cf6c4cc39d1773e409f0c7f10a559f4b6f1974c32bff2c95bf46a6fe40d869",
        "seed3_m1_q000030/params.json": "90ae8a23044e87faac3ec3576b88be3525319e6e54f6703f5eda4f9110432436",
        "seed3_m1_q000030/runlog.jsonl": "0c9524beee630cbe9662f1ad2ff3077f95ca320f151582f65b1271211753eaa5",
    }

    def test_synth_and_predict_outputs_are_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, ensemble_size=2, evaluation={"bootstrap_reps": 9}, train={"checkpoint_every": 20})
        out = tmp_path / "out"
        for cmd in ("synth", "train", "predict"):
            assert run(cmd, cfg) == EXIT_OK
        save_questions(load_questions(out / "test.jsonl", split="test"), out / "test.csv")
        save_questions(load_questions(out / "test.csv", split="test"), tmp_path / "from_csv.jsonl")
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert got == self.DIGESTS
        assert (tmp_path / "from_csv.jsonl").read_bytes() == (out / "test.jsonl").read_bytes()


class TestTieRule:
    def test_report_and_bootstrap_order_ties_by_row(self, tmp_path):
        """Row order is not id order here: ids descend while prediction_ts
        ascends, and one model forecasts 0.5 everywhere, so tied
        probabilities with different outcomes straddle every bin edge.
        The report's ECE difference equals the bootstrap's observed one."""
        cfg = write_config(tmp_path, evaluation={"bootstrap_reps": 19})
        out = tmp_path / "out"
        n = 25  # bins of 3, 3, 3, 3, 3, 2, 2, 2, 2, 2
        ys = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
        test_ds = make_dataset([make_question(f"q{n - i:03d}", pred_ts=100 + i, outcome=ys[i]) for i in range(n)])
        save_questions(test_ds, out / "test.jsonl")
        assert test_ds.ids == sorted(test_ds.ids, reverse=True)
        smooth = np.random.default_rng(4).random(n)
        paths = [str(tmp_path / "tied.jsonl"), str(tmp_path / "smooth.jsonl")]
        save_forecasts(paths[0], test_ds.ids, np.full(n, 0.5))
        save_forecasts(paths[1], test_ds.ids, smooth)
        assert run("evaluate", cfg, *paths) == EXIT_OK
        doc = json.loads((out / "evaluation.json").read_text())
        (cmp,) = doc["comparisons"]
        report_delta = doc["models"][cmp["model_a"]]["ece"] - doc["models"][cmp["model_b"]]["ece"]
        assert report_delta == pytest.approx(cmp["ece"]["delta_mean"], rel=0, abs=1e-12)


def _python(code, *args):
    """stdout of `python -c code *args`, run with its stdout a pipe and
    block-buffered, as by default (PYTHONUNBUFFERED is not passed on)."""
    import forecast_rl

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(forecast_rl.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                          timeout=120, env=env).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy costs about half the start-up time of every stage; the
    logistic, the tails and the t quantile are computed with `math`."""
    code = "import sys, forecast_rl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python(code).split() == ["[]"]


def test_stages_import_no_module_inside_main(tmp_path):
    """numpy loads some sub-modules on first use, and argparse loads
    locale; a stage that loaded one inside cli.main would count its import
    as work.  numpy.ma (about 1 MB, which np.percentile and np.unique
    import) is loaded by no stage at all."""
    cfg = write_config(tmp_path, ensemble_size=2, evaluation={"bootstrap_reps": 9})
    members = [str(tmp_path / "out" / f"forecasts_m{k}.jsonl") for k in range(2)]
    code = (
        "import sys, forecast_rl.cli as cli\n"
        "before = set(sys.modules)\n"
        f"for stage, files in [('synth', []), ('train', []), ('predict', []), ('evaluate', {members!r}),\n"
        f"                     ('trade', {members!r}), ('report', [])]:\n"
        f"    assert cli.main([stage, '--config', {str(cfg)!r}, *files]) == 0, stage\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert _python(code).splitlines()[-2:] == ["[]", "[]"]
