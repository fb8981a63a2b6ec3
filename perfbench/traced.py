"""Traced in-process run: per-layer metrics from spans.

The workload's stages run in this process through `forecast_rl.cli.main`,
plain and with the public functions of each module wrapped at the names
their callers resolve (e.g. `forecast_rl.trainer.sample_response`,
`forecast_rl.trading.build_trades`).  An untimed pass over a small copy
of the workload comes first, so lazy imports and any JIT compilation are
billed to neither; the plain and the traced pass then swap order each
round, and the gap between their times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import pipeline
from perfbench.spans import Patcher, Tracer
from perfbench.workloads import Workload, model_files, stages

MAX_MEASURE_S = 120.0
MIN_ROUNDS = 2  # one in each order, so a steady drift in CPU speed cancels out of the overhead
WARMUP_QUESTIONS = 200
WARMUP_REPS = 19


def _len_into(tracer: Tracer, key: str):
    def hook(args, kwargs, result):
        tracer.counts[key] += len(result)

    return hook


def _reps_into(tracer: Tracer, key: str):
    def hook(args, kwargs, result):
        tracer.counts[key] += args[2] if len(args) > 2 else kwargs.get("reps", 9999)

    return hook


def _zero_advantages_into(tracer: Tracer):
    def hook(args, kwargs, result):
        tracer.counts["algorithms.group_advantage_calls"] += 1
        tracer.counts["algorithms.zero_advantage_groups"] += not np.any(result)

    return hook


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced boundary.  Span names are layer.function."""
    spans = {
        "forecast_rl.cli:generate_synthetic_stream": ("data.generate_synthetic_stream", None),
        "forecast_rl.cli:save_questions": ("data.save_questions", None),
        "forecast_rl.cli:load_questions": ("data.load_questions", _len_into(tracer, "data.questions_loaded")),
        "forecast_rl.cli:validate_chronology": ("data.validate_chronology", None),
        "forecast_rl.cli:train": ("trainer.train", lambda a, k, r: tracer.counts.update({"trainer.member_questions": len(r.run_log)})),
        "forecast_rl.cli:predict_dataset": ("trainer.predict_dataset", None),
        "forecast_rl.cli:ensemble_predict_dataset": ("trainer.ensemble_predict_dataset", None),
        "forecast_rl.cli:save_checkpoint": ("policy.save_checkpoint", None),
        "forecast_rl.cli:load_checkpoint": ("policy.load_checkpoint", None),
        "forecast_rl.trainer:sample_response": ("policy.sample_response", None),
        "forecast_rl.trainer:assess_guardrails": ("reward.assess_guardrails", None),
        "forecast_rl.trainer:total_reward": ("reward.total_reward", None),
        "forecast_rl.trainer:grpo_advantages": ("algorithms.advantages", _zero_advantages_into(tracer)),
        "forecast_rl.trainer:modified_grpo_advantages": ("algorithms.advantages", _zero_advantages_into(tracer)),
        "forecast_rl.trainer:remax_advantages": ("algorithms.advantages", None),
        "forecast_rl.algorithms:GroupRollout.from_sampling": ("algorithms.rollout", None),
        "forecast_rl.trainer:grpo_objective_and_grad": ("algorithms.objective_grad", None),
        "forecast_rl.trainer:remax_objective_and_grad": ("algorithms.objective_grad", None),
        "forecast_rl.trainer:adamw_step": ("algorithms.adamw_step", None),
        "forecast_rl.trainer:baseline_predict": ("algorithms.baseline", None),
        "forecast_rl.trainer:baseline_loss_and_grad": ("algorithms.baseline", None),
        "forecast_rl.cli:evaluation_report": ("evaluation.evaluation_report", None),
        "forecast_rl.cli:paired_brier_test": ("evaluation.paired_brier_test", None),
        "forecast_rl.cli:paired_bootstrap_stat": ("evaluation.ece_bootstrap", _reps_into(tracer, "evaluation.ece_bootstrap_reps")),
        "forecast_rl.cli:ece_equal_mass_arrays": ("evaluation.ece_equal_mass_arrays", None),
        "forecast_rl.cli:paired_bootstrap": ("evaluation.profit_bootstrap", _reps_into(tracer, "evaluation.profit_bootstrap_reps")),
        "forecast_rl.cli:load_forecasts": ("evaluation.load_forecasts", None),
        "forecast_rl.cli:save_forecasts": ("evaluation.save_forecasts", None),
        "forecast_rl.cli:gating_ece": ("trading.gating_ece", None),
        "forecast_rl.cli:run_strategy": ("trading.run_strategy", None),
        "forecast_rl.trading:run_strategy": ("trading.run_strategy", None),
        "forecast_rl.trading:build_trades": ("trading.build_trades", None),
        "forecast_rl.cli:per_question_profits": ("trading.per_question_profits", None),
        "forecast_rl.cli:confidence_band_edges": ("trading.confidence_band_edges", None),
        "forecast_rl.cli:Manifest.register": ("cli.manifest_register", None),
    }
    for target, (name, hook) in spans.items():
        patcher.patch(target, lambda fn, name=name, hook=hook: tracer.wrap(fn, name, hook))
    # Hot, tiny calls: counted without a span.
    for target, name in {
        "forecast_rl.trainer:check_early_stop": "trainer.check_early_stop",
        "forecast_rl.trainer:predict": "trainer.predict",
    }.items():
        patcher.patch(target, lambda fn, name=name: tracer.counter(fn, name))


def run_inprocess_pass(w: Workload, seed: int, dirs: pipeline.PassDirs, log: Path, tracer: Tracer | None) -> tuple[float, list[pipeline.StageRun]]:
    """All stages through cli.main in this process: (wall seconds, stages)."""
    from forecast_rl import cli

    runs = []
    t_pass = time.perf_counter()
    with open(log, "a", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        for stage, args in stages(w, dirs.config, dirs.out, dirs.inputs):
            t0 = time.perf_counter()
            scope = tracer.stage(stage) if tracer is not None else contextlib.nullcontext()
            try:
                with scope:
                    code = cli.main(args)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - t0
            runs.append(pipeline.StageRun(stage, wall, wall, 0, code))
            if code != 0:
                break
            pipeline.after_stage(w, seed, stage, dirs)
    return time.perf_counter() - t_pass, runs


def layer_metrics(tracer: Tracer, w: Workload) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    s = tracer.summary()
    c = tracer.counts

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    member_q = c["trainer.member_questions"]
    predict_s = total("trainer.predict_dataset") + total("trainer.ensemble_predict_dataset")
    ece_evals = c["evaluation.ece_bootstrap_reps"] + calls("evaluation.ece_bootstrap")  # replicates + observed
    n_models = len(model_files(w, Path(), Path()))
    return {
        "data.generate_synthetic_stream_s": total("data.generate_synthetic_stream"),
        "data.save_questions_s": total("data.save_questions"),
        "data.load_questions_s": total("data.load_questions"),
        "data.load_questions_calls": calls("data.load_questions"),
        "data.load_questions_qps": ratio(c["data.questions_loaded"], total("data.load_questions")),
        "data.validate_chronology_s": total("data.validate_chronology"),
        "trainer.train_s": total("trainer.train"),
        "trainer.member_qps": ratio(member_q, total("trainer.train")),
        "trainer.check_early_stop_calls": ratio(c["trainer.check_early_stop"], member_q),
        "trainer.step_other_self_s": self_s("trainer.train"),
        "trainer.predict_dataset_s": total("trainer.predict_dataset"),
        "trainer.ensemble_predict_dataset_s": total("trainer.ensemble_predict_dataset"),
        "trainer.predict_qps": ratio(c["trainer.predict"], predict_s),
        "policy.sample_response_calls": calls("policy.sample_response"),
        "policy.sample_response_self_s": self_s("policy.sample_response"),
        "reward.score_calls": calls("reward.total_reward"),
        "reward.score_self_s": self_s("reward.assess_guardrails") + self_s("reward.total_reward"),
        "algorithms.advantages_self_s": self_s("algorithms.advantages"),
        "algorithms.grpo_zero_sigma_share": ratio(c["algorithms.zero_advantage_groups"], c["algorithms.group_advantage_calls"]),
        "algorithms.rollout_self_s": self_s("algorithms.rollout"),
        "algorithms.objective_grad_self_s": self_s("algorithms.objective_grad"),
        "algorithms.adamw_step_calls": calls("algorithms.adamw_step"),
        "algorithms.adamw_step_self_s": self_s("algorithms.adamw_step"),
        "algorithms.baseline_self_s": self_s("algorithms.baseline"),
        "policy.save_checkpoint_s": total("policy.save_checkpoint"),
        "policy.load_checkpoint_s": total("policy.load_checkpoint"),
        "evaluation.evaluation_report_s": total("evaluation.evaluation_report"),
        "evaluation.paired_brier_test_s": total("evaluation.paired_brier_test"),
        "evaluation.ece_bootstrap_s": total("evaluation.ece_bootstrap"),
        "evaluation.ece_bootstrap_rep_ms": 1000.0 * ratio(total("evaluation.ece_bootstrap"), c["evaluation.ece_bootstrap_reps"]),
        "evaluation.ece_calls": ratio(calls("evaluation.ece_equal_mass_arrays"), ece_evals),
        "evaluation.profit_bootstrap_s": total("evaluation.profit_bootstrap"),
        "evaluation.profit_bootstrap_rep_ms": 1000.0 * ratio(total("evaluation.profit_bootstrap"), c["evaluation.profit_bootstrap_reps"]),
        "evaluation.load_forecasts_s": total("evaluation.load_forecasts"),
        "evaluation.save_forecasts_s": total("evaluation.save_forecasts"),
        "trading.gating_ece_s": total("trading.gating_ece"),
        "trading.build_trades_calls": calls("trading.build_trades"),
        "trading.build_trades_s": total("trading.build_trades"),
        "trading.trade_builds_per_model": ratio(calls("trading.build_trades"), n_models),
        "trading.run_strategy_s": total("trading.run_strategy"),
        "trading.per_question_profits_s": total("trading.per_question_profits"),
        "trading.confidence_band_edges_s": total("trading.confidence_band_edges"),
        "cli.manifest_register_s": total("cli.manifest_register"),
    }


def run_traced(w: Workload, seed: int, seconds: int, root: Path, work: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(root / "src"))
    from forecast_rl.trainer import resolve_backend

    log = work / "stages.log"
    warm = dataclasses.replace(w, n_questions=WARMUP_QUESTIONS, bootstrap_reps=WARMUP_REPS)
    dirs = pipeline.PassDirs.fresh(warm, seed, work / "warmup")
    _, runs = run_inprocess_pass(warm, seed, dirs, log, None)
    passes: list[list[pipeline.StageRun]] = [runs]

    per_pass: list[dict] = []
    missing: list[str] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls = {}
        for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            dirs = pipeline.PassDirs.fresh(w, seed, work / ("traced" if traced else "plain"))
            if traced:
                tracer = Tracer()
                with Patcher() as patcher:
                    install(tracer, patcher)
                    walls[traced], runs = run_inprocess_pass(w, seed, dirs, log, tracer)
                    missing = patcher.missing
            else:
                walls[traced], runs = run_inprocess_pass(w, seed, dirs, log, None)
            pipeline.check_pass(w, runs, dirs)
            passes.append(runs)
        per_pass.append({**layer_metrics(tracer, w), "trace.overhead_s": walls[True] - walls[False]})

        elapsed = time.perf_counter() - t_start
        failed = any(r.failed for r in passes[-1] + passes[-2])
        if failed or elapsed > MAX_MEASURE_S or (
            len(per_pass) >= MIN_ROUNDS and elapsed + (time.perf_counter() - t0) > seconds
        ):
            break
    pipeline.mark_digest_mismatches(passes[1:])
    tracer.write(work.parent / f"spans-{w.name}.tsv")

    ops = [r for runs in passes for r in runs]
    detail = {
        "mode": "traced",
        "backend": resolve_backend("auto"),
        "passes": len(per_pass),
        "metrics": {
            name: {**pipeline.summarize([p[name] for p in per_pass]), "unit": unit_of(name)} for name in per_pass[0]
        },
        "missing_targets": missing,
        "errors": [f"{r.stage}: {e}" for r in ops for e in r.errors] + [f"{r.stage}: exit code {r.exit_code}" for r in ops if r.exit_code],
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
    }
    return detail, {name: {"value": m["median"], "unit": m["unit"]} for name, m in detail["metrics"].items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith("_share"):
        return "ratio"
    return "count"
