import json
from pathlib import Path

import numpy as np
import pytest

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
from forecast_rl.errors import NumericAbort
from forecast_rl.evaluation import Forecast, save_forecasts
from forecast_rl.policy import PolicyParams, load_checkpoint, save_checkpoint
from forecast_rl.trainer import train_online

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
        for index, answer in ((999999, 20), (1000000, 70)):
            params = PolicyParams.zeros(2)
            params.answer_weights[0, answer] = 5.0
            save_checkpoint(params, out / f"seed3_m0_q{index:06d}" / "params.json")
        assert run("predict", cfg) == EXIT_OK
        rows = [json.loads(line) for line in (out / "forecasts.jsonl").read_text().splitlines()]
        assert rows and {r["probability"] for r in rows} == {0.7}

    def test_checkpoint_cadence(self, tmp_path):
        cfg = write_config(tmp_path, train={"checkpoint_every": 10})
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_OK
        dirs = sorted(p.name for p in (tmp_path / "out").glob("seed3_m0_q*"))
        assert dirs == ["seed3_m0_q000010", "seed3_m0_q000020", "seed3_m0_q000030"]
        partial = (tmp_path / "out" / "seed3_m0_q000010" / "runlog.jsonl").read_text()
        assert len(partial.strip().split("\n")) == 10


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

    def test_misaligned_forecasts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for cmd in ("synth", "train", "predict"):
            assert run(cmd, cfg) == EXIT_OK
        rogue = tmp_path / "rogue.jsonl"
        save_forecasts([Forecast("no-such-question", 0.5)], rogue)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("synth", cfg) == EXIT_OK
        train_path = tmp_path / "out" / "train.jsonl"
        lines = train_path.read_text().strip().split("\n")
        doc = json.loads(lines[4])
        doc["features"][0] = 1e999  # parses to inf
        lines[4] = json.dumps(doc)
        train_path.write_text("\n".join(lines) + "\n")

        assert run("train", cfg) == EXIT_NUMERIC
        assert "numeric abort" in capsys.readouterr().err
        lastgood = tmp_path / "out" / "seed3_m0_lastgood"
        assert (lastgood / "params.json").exists()
        log = (lastgood / "runlog.jsonl").read_text().strip()
        assert len(log.split("\n")) == 4  # questions before the poisoned one

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_member_outcomes_are_independent(self, tmp_path, capsys):
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
        train_ds = load_questions(out / "train.jsonl")
        train_ds.questions[15].features[0] = 1e152
        save_questions(train_ds, out / "train.jsonl")

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
            run_cfg.train.member = member
            try:
                alone = train_online(load_questions(out / "train.jsonl"), run_cfg.train, run_cfg.hyperparams,
                                     run_cfg.penalties, backend="numpy")
            except NumericAbort as exc:
                alone = exc
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

    def test_empty_stream_synth_then_train(self, tmp_path):
        cfg = write_config(
            tmp_path,
            data={"synthetic": {"n_questions": 0, "feature_dim": 2, "market_noise": 0.5}},
        )
        assert run("synth", cfg) == EXIT_OK
        assert run("train", cfg) == EXIT_VALIDATION


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
