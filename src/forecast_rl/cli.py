"""Command-line entry point.

One JSON config drives six subcommands: synth, train, predict, evaluate,
trade, report.  Every output lands in the config's output directory and
is registered in manifest.json there.  Exit codes: 0 success, 2
validation failure, 3 early stop, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from forecast_rl import __version__
from forecast_rl.config import RunConfig, load_config
from forecast_rl.data import (
    Dataset,
    generate_synthetic_stream,
    load_oracle,
    load_questions,
    save_questions,
    split_dataset,
    validate_chronology,
    write_oracle,
)
from forecast_rl.errors import DataFormatError, NumericAbort, ValidationError
from forecast_rl.evaluation import (
    Forecast,
    ece_equal_mass_arrays,
    evaluation_report,
    forecasts_from_map,
    load_forecasts,
    paired_bootstrap,
    paired_bootstrap_stat,
    paired_brier_test,
    save_forecasts,
)
from forecast_rl.policy import PolicyParams, load_checkpoint, save_checkpoint
from forecast_rl.rng import substream
from forecast_rl.trading import (
    GATES,
    GatingRule,
    confidence_band_edges,
    eligible,
    gating_ece,
    per_question_profits,
    run_strategy,
)
from forecast_rl.trainer import EnsembleSpec, ensemble_predict_dataset, predict_dataset, train_members

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EARLY_STOP = 3
EXIT_NUMERIC = 4


class Manifest:
    """Registry of every file a run has produced, plus stage timings."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.path = out_dir / "manifest.json"
        self.doc = {"version": __version__, "config_hash": None, "stages": {}}
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                self.doc = json.load(fh)

    def _rel(self, f: Path) -> str:
        try:
            return str(f.relative_to(self.out_dir))
        except ValueError:  # configured path outside the run directory
            return str(f)

    def register(self, stage: str, cfg_hash: str, files: list[Path], elapsed: float) -> None:
        rel = sorted(self._rel(f) for f in files)
        self.doc["version"] = __version__
        self.doc["config_hash"] = cfg_hash
        self.doc["stages"][stage] = {"files": rel, "elapsed_seconds": round(elapsed, 3)}
        self.save()

    def save(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def registered_files(self) -> set[str]:
        out = set()
        for stage in self.doc["stages"].values():
            out.update(stage["files"])
        return out

    def unregistered_files(self) -> list[str]:
        if not self.out_dir.exists():
            return []
        actual = {
            str(p.relative_to(self.out_dir))
            for p in self.out_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        return sorted(actual - self.registered_files())


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.output_dir)


def _data_path(cfg: RunConfig, which: str) -> Path:
    configured = getattr(cfg.data, f"{which}_path")
    if configured is not None:
        return Path(configured)
    suffix = "jsonl"
    return _out_dir(cfg) / f"{which}.{suffix}"


def _load_split(cfg: RunConfig, which: str, split: str) -> Dataset:
    path = _data_path(cfg, which)
    if not path.exists():
        raise ValidationError(f"{which} dataset not found at {path}; run synth or point data.{which}_path at a file")
    return load_questions(path, split=split)


def cmd_synth(cfg: RunConfig, args) -> int:
    if cfg.data.synthetic is None:
        raise ValidationError("synth needs a data.synthetic block in the config")
    t0 = time.monotonic()
    out = _out_dir(cfg)
    synth = cfg.data.synthetic
    synth.seed = cfg.seed
    stream, oracle = generate_synthetic_stream(synth)
    train_ds, test_ds = split_dataset(stream, cfg.data.train_fraction) if len(stream) else (stream, Dataset([], "test"))
    train_path = _data_path(cfg, "train")
    test_path = _data_path(cfg, "test")
    oracle_path = _data_path(cfg, "oracle")
    save_questions(train_ds, train_path)
    save_questions(test_ds, test_path)
    write_oracle(oracle, oracle_path)
    Manifest(out).register(
        "synth", cfg.config_hash(), [train_path, test_path, oracle_path], time.monotonic() - t0
    )
    print(f"synth: {len(train_ds)} train / {len(test_ds)} test questions -> {out}")
    return EXIT_OK


def _checkpoint_name(seed: int, member: int, index: int) -> str:
    return f"seed{seed}_m{member}_q{index:06d}"


def _write_checkpoint(dirpath: Path, cfg: RunConfig, params: PolicyParams, baseline, run_log) -> list[Path]:
    files = [dirpath / "params.json", dirpath / "config.json"]
    save_checkpoint(params, files[0], baseline_weights=baseline)
    cfg.save(files[1])
    if run_log is not None:
        run_log.to_jsonl(dirpath / "runlog.jsonl")
        files.append(dirpath / "runlog.jsonl")
    return files


def cmd_train(cfg: RunConfig, args) -> int:
    t0 = time.monotonic()
    out = _out_dir(cfg)
    train_ds = _load_split(cfg, "train", "train")
    test_path = _data_path(cfg, "test")
    if test_path.exists():
        test_ds = load_questions(test_path, split="test")
        if len(test_ds):
            report = validate_chronology(train_ds, test_ds)
            if not report.passed:
                raise ValidationError(
                    f"chronology violation: {report.n_violations} (train, test) pairs where the train "
                    f"question resolves at or after the test prediction, e.g. {report.violations}"
                )

    files: list[Path] = []

    def checkpoint_cb(member, params, baseline, index, run_log):
        d = out / _checkpoint_name(cfg.seed, member, index)
        files.extend(_write_checkpoint(d, cfg, params, baseline, run_log))

    members = list(range(cfg.ensemble_size))
    results = train_members(
        train_ds,
        cfg.train,
        cfg.hyperparams,
        cfg.penalties,
        members,
        backend=cfg.backend,
        checkpoint_cb=checkpoint_cb,
    )
    code = EXIT_OK
    for member, result in zip(members, results):
        if isinstance(result, NumericAbort):
            d = out / f"seed{cfg.seed}_m{member}_lastgood"
            files.extend(_write_checkpoint(d, cfg, result.params, result.baseline, result.run_log))
            print(f"member {member}: numeric abort: {result}", file=sys.stderr)
            code = max(code, EXIT_NUMERIC)
            continue
        d = out / _checkpoint_name(cfg.seed, member, len(result.run_log))
        files.extend(_write_checkpoint(d, cfg, result.params, result.baseline, result.run_log))
        s = result.run_log.summary()
        if result.stopped:
            print(f"member {member}: early stop ({result.stop_reason}) after {s['n_questions']} questions")
            code = max(code, EXIT_EARLY_STOP)
        else:
            print(f"member {member}: trained {s['n_questions']} questions, mean reward {s['mean_reward']:.4f}")
    Manifest(out).register("train", cfg.config_hash(), files, time.monotonic() - t0)
    return code


def _find_member_params(cfg: RunConfig, member: int) -> tuple[PolicyParams, np.ndarray | None]:
    """Load the member's checkpoint with the highest question index."""
    out = _out_dir(cfg)
    prefix = f"seed{cfg.seed}_m{member}_q"
    indexed = [(int(p.name[len(prefix):]), p) for p in out.glob(prefix + "*") if p.name[len(prefix):].isdigit()]
    if not indexed:
        raise ValidationError(f"no checkpoint for member {member} under {out} (expected {prefix}*)")
    return load_checkpoint(max(indexed)[1] / "params.json")


def cmd_predict(cfg: RunConfig, args) -> int:
    t0 = time.monotonic()
    out = _out_dir(cfg)
    test_ds = _load_split(cfg, "test", "test")
    members = [_find_member_params(cfg, k)[0] for k in range(cfg.ensemble_size)]
    files = []
    for k, params in enumerate(members):
        probs = predict_dataset(params, test_ds)
        path = out / f"forecasts_m{k}.jsonl"
        save_forecasts(forecasts_from_map(probs), path)
        files.append(path)
    spec = EnsembleSpec(members)
    ens = ensemble_predict_dataset(spec, test_ds)
    ens_path = out / "forecasts.jsonl"
    save_forecasts(forecasts_from_map(ens), ens_path)
    files.append(ens_path)
    Manifest(out).register("predict", cfg.config_hash(), files, time.monotonic() - t0)
    n_present = sum(1 for p in ens.values() if p is not None)
    print(f"predict: {len(ens)} questions, {n_present} with forecasts -> {ens_path}")
    return EXIT_OK


def _forecast_inputs(cfg: RunConfig, args) -> dict[str, list[Forecast]]:
    paths = [Path(p) for p in args.forecasts] if args.forecasts else [_out_dir(cfg) / "forecasts.jsonl"]
    models = {}
    for p in paths:
        if not p.exists():
            raise ValidationError(f"forecast file {p} not found")
        name = p.stem
        if name in models:
            raise ValidationError(f"duplicate model name {name!r} among forecast files")
        models[name] = load_forecasts(p)
    return models


def _check_alignment(models: dict[str, list[Forecast]], test_ds: Dataset) -> None:
    test_ids = set(test_ds.ids())
    for name, fs in models.items():
        got = {f.question_id for f in fs}
        if got != test_ids:
            missing = sorted(test_ids - got)[:10]
            extra = sorted(got - test_ids)[:10]
            raise ValidationError(
                f"model {name!r} does not align with the test set; "
                f"missing {missing or 'none'}, unknown {extra or 'none'}"
            )


def cmd_evaluate(cfg: RunConfig, args) -> int:
    t0 = time.monotonic()
    out = _out_dir(cfg)
    test_ds = _load_split(cfg, "test", "test")
    outcomes = test_ds.outcome_by_id()
    models = _forecast_inputs(cfg, args)
    _check_alignment(models, test_ds)
    names = sorted(models)
    files = []

    reports = {}
    for name in names:
        report = evaluation_report(models[name], outcomes, cfg.evaluation.n_bins)
        reports[name] = report.to_dict()
        bins_path = out / f"bins_{name}.csv"
        bins_path.parent.mkdir(parents=True, exist_ok=True)
        with open(bins_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lo", "hi", "count", "mean_confidence", "empirical_frequency"])
            for b in report.bins:
                writer.writerow([b.lo, b.hi, b.count, b.mean_confidence, b.empirical_frequency])
        files.append(bins_path)

    # Pairwise: Wald on per-question soft-Brier, bootstrap on ECE.
    order = test_ds.ids()
    ys = test_ds.outcomes()
    prob_arrays = {}
    for name in names:
        by_id = {f.question_id: f.probability for f in models[name]}
        prob_arrays[name] = np.array(
            [np.nan if by_id[q] is None else by_id[q] for q in order], dtype=np.float64
        )
    comparisons = []
    if len(names) >= 2:
        rng = substream(cfg.seed, "bootstrap", "evaluate")
        stacked = np.stack([prob_arrays[n] for n in names], axis=1)

        def ece_stat(idx):
            return np.array(
                [
                    ece_equal_mass_arrays(stacked[idx, j], ys[idx], cfg.evaluation.n_bins)
                    for j in range(len(names))
                ]
            )

        ece_boot = paired_bootstrap_stat(len(order), ece_stat, cfg.evaluation.bootstrap_reps, rng)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                brier_cmp = paired_brier_test(models[names[i]], models[names[j]], outcomes)
                comparisons.append(
                    {
                        "model_a": names[i],
                        "model_b": names[j],
                        "soft_brier": brier_cmp.to_dict(),
                        "ece": ece_boot[(i, j)].to_dict(),
                    }
                )

    eval_path = out / "evaluation.json"
    _write_json(eval_path, {"models": reports, "comparisons": comparisons})
    files.append(eval_path)
    Manifest(out).register("evaluate", cfg.config_hash(), files, time.monotonic() - t0)
    for name in names:
        r = reports[name]
        print(f"{name}: soft-Brier {r['soft_brier_mean']:.4f}, ECE {r['ece']:.4f} (n={r['n_questions']})")
    return EXIT_OK


def cmd_trade(cfg: RunConfig, args) -> int:
    t0 = time.monotonic()
    out = _out_dir(cfg)
    test_ds = _load_split(cfg, "test", "test")
    models = _forecast_inputs(cfg, args)
    _check_alignment(models, test_ds)
    names = sorted(models)
    n_priced = sum(1 for q in test_ds if eligible(q))
    files = []
    if n_priced == 0:
        trade_path = out / "trades.json"
        _write_json(trade_path, {"models": {}, "comparisons": [], "note": "no priced questions"})
        Manifest(out).register("trade", cfg.config_hash(), [trade_path], time.monotonic() - t0)
        print("trade: no priced questions in the test set; empty result written")
        return EXIT_OK

    prob_maps = {n: {f.question_id: f.probability for f in fs} for n, fs in models.items()}
    ece_values = {}
    trade_sets = {}
    for name in names:
        ece_values[name], trade_sets[name] = gating_ece(
            prob_maps[name],
            test_ds,
            cfg.trading.ece_source,
            cfg.trading.calibration_fraction,
            cfg.evaluation.n_bins,
        )
    # All models share the same trading window by construction (the split
    # is chronological, not forecast-dependent).
    trade_ds = trade_sets[names[0]]

    per_model = {}
    for name in names:
        rules = {
            GATES[0]: GatingRule(GATES[0], ece_values[name]),
            GATES[1]: GatingRule(GATES[1]),
            GATES[2]: GatingRule(GATES[2]),
        }
        model_out = {"gating_ece": ece_values[name], "rules": {}}
        for rule_name, rule in rules.items():
            result = run_strategy(prob_maps[name], trade_ds, rule, substream(cfg.seed, "ties", name))
            summary = result.to_dict()
            curve_path = out / f"curve_{name}_{rule_name}.csv"
            with open(curve_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["trade_index", "question_id", "expected_edge", "profit", "cumulative_profit"])
                for i, t in enumerate(result.trades):
                    writer.writerow([i, t.question_id, t.expected_edge, t.profit, float(result.cumulative_profit[i])])
            files.append(curve_path)
            summary["trades"] = summary["trades"][:20]  # head only; the full curve is in the CSV
            model_out["rules"][rule_name] = summary
        all_trades = run_strategy(
            prob_maps[name], trade_ds, GatingRule(GATES[2]), substream(cfg.seed, "ties", name)
        ).trades
        model_out["confidence_bands"] = [b.to_dict() for b in confidence_band_edges(all_trades)]
        per_model[name] = model_out

    comparisons = []
    if len(names) >= 2:
        rng = substream(cfg.seed, "bootstrap", "trade")
        for rule_name in GATES:
            values, _, ordered = per_question_profits(
                prob_maps,
                trade_ds,
                rule_name,
                ece_values if rule_name == GATES[0] else None,
                lambda name: substream(cfg.seed, "ties", name),
            )
            boot = paired_bootstrap(values, "total", cfg.evaluation.bootstrap_reps, rng)
            for (i, j), cmp in sorted(boot.items()):
                comparisons.append(
                    {
                        "rule": rule_name,
                        "model_a": ordered[i],
                        "model_b": ordered[j],
                        "total_profit_delta": cmp.to_dict(),
                    }
                )

    trade_path = out / "trades.json"
    _write_json(trade_path, {"models": per_model, "comparisons": comparisons})
    files.append(trade_path)
    Manifest(out).register("trade", cfg.config_hash(), files, time.monotonic() - t0)
    for name in names:
        totals = {r: per_model[name]["rules"][r]["total_profit"] for r in GATES}
        print(
            f"{name}: edge>ECE ${totals[GATES[0]]:.2f} ({per_model[name]['rules'][GATES[0]]['n_trades']} trades), "
            f"edge>0 ${totals[GATES[1]]:.2f}, all ${totals[GATES[2]]:.2f}"
        )
    return EXIT_OK


def cmd_report(cfg: RunConfig, args) -> int:
    t0 = time.monotonic()
    out = _out_dir(cfg)
    manifest = Manifest(out)
    unregistered = manifest.unregistered_files()
    doc: dict = {"config_hash": cfg.config_hash(), "stages_run": sorted(manifest.doc["stages"])}

    eval_path = out / "evaluation.json"
    if eval_path.exists():
        with open(eval_path, encoding="utf-8") as fh:
            doc["evaluation"] = json.load(fh)
    trades_path = out / "trades.json"
    if trades_path.exists():
        with open(trades_path, encoding="utf-8") as fh:
            trades = json.load(fh)
        doc["trading"] = {
            name: {
                rule: {
                    "total_profit": entry["rules"][rule]["total_profit"],
                    "n_trades": entry["rules"][rule]["n_trades"],
                }
                for rule in entry.get("rules", {})
            }
            for name, entry in trades.get("models", {}).items()
        }
        doc["trading_comparisons"] = trades.get("comparisons", [])

    lines = ["# Run report", "", f"Config hash: `{doc['config_hash']}`", ""]
    if "evaluation" in doc:
        lines += ["| model | soft-Brier | ECE | n | malformed |", "| --- | --- | --- | --- | --- |"]
        for name, r in sorted(doc["evaluation"]["models"].items()):
            lines.append(
                f"| {name} | {r['soft_brier_mean']:.4f} | {r['ece']:.4f} "
                f"| {r['n_questions']} | {r['n_malformed']} |"
            )
        lines.append("")
        for cmp in doc["evaluation"].get("comparisons", []):
            sb = cmp["soft_brier"]
            ec = cmp["ece"]
            lines.append(
                f"- {cmp['model_a']} vs {cmp['model_b']}: "
                f"dBrier {sb['delta_mean']:+.4f} (p={sb['p_value']:.4g}), "
                f"dECE {ec['delta_mean']:+.4f} (p={ec['p_value']:.4g})"
            )
        lines.append("")
    if "trading" in doc:
        lines += ["| model | rule | trades | total profit |", "| --- | --- | --- | --- |"]
        for name, rules in sorted(doc["trading"].items()):
            for rule in GATES:
                if rule in rules:
                    lines.append(
                        f"| {name} | {rule} | {rules[rule]['n_trades']} | {rules[rule]['total_profit']:.2f} |"
                    )
        lines.append("")
    if unregistered:
        doc["unregistered_files"] = unregistered
        lines.append(f"WARNING: unregistered files present: {unregistered}")

    report_json = out / "report.json"
    report_md = out / "report.md"
    _write_json(report_json, doc)
    with open(report_md, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    manifest.register("report", cfg.config_hash(), [report_json, report_md], time.monotonic() - t0)
    print(f"report -> {report_md}" + (f" ({len(unregistered)} unregistered files!)" if unregistered else ""))
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "trade": cmd_trade,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forecast-rl",
        description="Outcome-only RL for probabilistic forecasting on synthetic event streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="accepted for compatibility; training runs every member in this process and no longer forks",
        )
        if name in ("evaluate", "trade"):
            p.add_argument("forecasts", nargs="*", help="forecast JSONL files (default: <out>/forecasts.jsonl)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.train.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        cfg.validate()
        return COMMANDS[args.command](cfg, args)
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
