"""Command-line entry point.

One JSON config drives six subcommands: synth, train, predict, evaluate,
trade, report.  Every output lands in the config's output directory and
is registered in manifest.json there.  A stage is
`cmd_x(cfg, args, manifest) -> (exit code, files written)`: `main` opens
the manifest before the stage (so a malformed one exits 2 before any file
is written), times the call, and registers the files it returns with the
elapsed time.  A stage that raises registers nothing.  Exit codes: 0
success, 2 validation failure, 3 early stop, 4 numeric abort.
"""

from __future__ import annotations

import gc

# A stage is a short process that keeps nearly all of its import-time
# objects until it exits.  The cyclic collector would scan that growing
# heap again and again while numpy and the package import, and once more
# at interpreter exit, so it is off while they import and the heap they
# leave is then frozen: no later collection visits it, and forked
# bootstrap workers inherit it as it is.  The importer's collector state
# is restored even when an import fails.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import csv
    import locale  # noqa: F401  argparse's gettext imports it lazily in parse_args; load it at start-up
    import os
    import sys
    import time
    from dataclasses import asdict
    from pathlib import Path

    # One BLAS thread, unless the user's environment names a count.  Every
    # matrix product here is small, so numpy's OpenBLAS thread pool (one
    # thread per CPU, started at import) made no stage faster but spent
    # CPU, and it would be alive while a stage forks its bootstrap workers.
    # A fixed count also keeps the host's CPU count out of every product.
    # It must be set before numpy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

    import numpy as np

    from forecast_rl import __version__
    from forecast_rl.config import RunConfig, load_config
    from forecast_rl.data import (
        Dataset,
        generate_synthetic_stream,
        load_questions,
        save_questions,
        split_dataset,
        validate_chronology,
        write_oracle,
    )
    from forecast_rl.errors import DataFormatError, ValidationError
    from forecast_rl.evaluation import (
        equal_mass_ece_stat,
        evaluation_report,
        load_forecasts,
        paired_bootstrap,
        paired_bootstrap_stat,
        paired_brier_test,
        save_forecasts,
    )
    from forecast_rl.files import atomic_write, read_json, write_json
    from forecast_rl.policy import PolicyParams, load_checkpoint, save_checkpoint
    from forecast_rl.rng import substream
    from forecast_rl.trading import (
        GATES,
        confidence_band_edges,
        gating_ece,
        per_question_profits,
        run_strategies,
        tradeable,
    )
    from forecast_rl.trainer import ensemble_predict_dataset, predict_dataset, train_members

    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EARLY_STOP = 3
EXIT_NUMERIC = 4


# The keys and types that each reader of a run file uses (see files.check_shape).
MANIFEST_SHAPE = {"stages": {str: {"files": [str]}}}
EVALUATION_SHAPE = {
    "models": {str: {"soft_brier_mean": float, "ece": float, "n_questions": int, "n_malformed": int}},
    "comparisons": [
        {
            "model_a": str,
            "model_b": str,
            "soft_brier": {"delta_mean": float, "p_value": float},
            "ece": {"delta_mean": float, "p_value": float},
        }
    ],
}
TRADES_SHAPE = {"models": {str: {"rules": {str: {"total_profit": float, "n_trades": int}}}}, "comparisons": list}


class Manifest:
    """Registry of every file a run has produced, plus stage timings."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.path = out_dir / "manifest.json"
        self.doc = {"version": __version__, "config_hash": None, "stages": {}}
        if self.path.exists():
            self.doc = read_json(self.path, MANIFEST_SHAPE)

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
        write_json(self.path, self.doc)

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


def _data_path(cfg: RunConfig, which: str) -> Path:
    configured = getattr(cfg.data, f"{which}_path")
    if configured is not None:
        return Path(configured)
    return Path(cfg.output_dir) / f"{which}.jsonl"


def _load_split(cfg: RunConfig, which: str, split: str) -> Dataset:
    path = _data_path(cfg, which)
    if not path.exists():
        raise ValidationError(f"{which} dataset not found at {path}; run synth or point data.{which}_path at a file")
    return load_questions(path, split=split)


def cmd_synth(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    if cfg.data.synthetic is None:
        raise ValidationError("synth needs a data.synthetic block in the config")
    stream, oracle = generate_synthetic_stream(cfg.data.synthetic, cfg.seed)
    train_ds, test_ds = split_dataset(stream, cfg.data.train_fraction)
    if not len(train_ds):
        raise ValidationError(
            f"data.synthetic.n_questions {cfg.data.synthetic.n_questions} and data.train_fraction "
            f"{cfg.data.train_fraction} leave no train question"
        )
    oracle_path = _data_path(cfg, "oracle")
    files = [*save_questions(train_ds, _data_path(cfg, "train")), *save_questions(test_ds, _data_path(cfg, "test"))]
    write_oracle(oracle, oracle_path)
    print(f"synth: {len(train_ds)} train / {len(test_ds)} test questions -> {manifest.out_dir}")
    return EXIT_OK, [*files, oracle_path]


def _checkpoint_name(seed: int, member: int, index: int) -> str:
    return f"seed{seed}_m{member}_q{index:06d}"


def _write_checkpoint(dirpath: Path, cfg: RunConfig, params: PolicyParams, run_log) -> list[Path]:
    files = [dirpath / "params.json", dirpath / "config.json", dirpath / "runlog.jsonl"]
    save_checkpoint(params, files[0])
    cfg.save(files[1])
    run_log.to_jsonl(files[2])
    return files


def _check_chronology(cfg: RunConfig, train_ds: Dataset) -> None:
    """Refuse a train split that resolves at or after a prediction of the
    test split, when there is one: the default test file may be absent,
    a configured data.test_path may not.  The test split is read only for
    this, so it is freed before training."""
    test_path = _data_path(cfg, "test")
    if not test_path.exists():
        if cfg.data.test_path is not None:
            raise ValidationError(f"data.test_path {test_path} not found; the chronology check needs the test split")
        return
    test_ds = load_questions(test_path, split="test")
    if len(test_ds):
        report = validate_chronology(train_ds, test_ds)
        if not report.passed:
            raise ValidationError(
                f"chronology violation: {report.n_violations} (train, test) pairs where the train "
                f"question resolves at or after the test prediction, e.g. {report.violations}"
            )


def cmd_train(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    out = manifest.out_dir
    train_ds = _load_split(cfg, "train", "train")
    if not len(train_ds):
        raise ValidationError(f"train dataset {_data_path(cfg, 'train')} holds no questions")
    _check_chronology(cfg, train_ds)

    files: list[Path] = []

    def checkpoint_cb(member, params, index, run_log):
        d = out / _checkpoint_name(cfg.seed, member, index)
        files.extend(_write_checkpoint(d, cfg, params, run_log))

    members = list(range(cfg.ensemble_size))
    results = train_members(
        train_ds,
        cfg.train,
        cfg.hyperparams,
        cfg.penalties,
        members,
        checkpoint_cb=checkpoint_cb,
        seed=cfg.seed,
    )
    code = EXIT_OK
    for member, result in zip(members, results):
        s = result.run_log.summary()
        name = _checkpoint_name(cfg.seed, member, s["n_questions"])
        collapse = (
            f"mean gibberish {s['mean_gibberish']:.4f}, abstain rate {s['abstain_rate']:.4f}, "
            f"extreme bucket mass {s['extreme_bucket_mass']:.4f}"
        )
        if result.numeric_error is not None:
            name = f"seed{cfg.seed}_m{member}_lastgood"
            print(f"member {member}: numeric abort: {result.numeric_error}", file=sys.stderr)
            code = max(code, EXIT_NUMERIC)
        elif result.stop_reason is not None:
            print(f"member {member}: early stop ({result.stop_reason}) after {s['n_questions']} questions, {collapse}")
            code = max(code, EXIT_EARLY_STOP)
        else:
            print(
                f"member {member}: trained {s['n_questions']} questions, mean reward {s['mean_reward']:.4f}, {collapse}"
            )
        files.extend(_write_checkpoint(out / name, cfg, result.params, result.run_log))
    return code, files


def _find_member_params(manifest: Manifest, seed: int, member: int) -> Path:
    """The path of the member's checkpoint with the highest question index
    among those the last train stage registered in manifest.json, so
    checkpoints left by an earlier train in the same directory are not read."""
    out = manifest.out_dir
    prefix, suffix = f"seed{seed}_m{member}_q", "/params.json"
    registered = manifest.doc["stages"].get("train", {"files": []})["files"]
    indexed = [
        (int(f[len(prefix) : -len(suffix)]), f)
        for f in registered
        if f.startswith(prefix) and f.endswith(suffix) and f[len(prefix) : -len(suffix)].isdigit()
    ]
    if not indexed:
        raise ValidationError(f"no checkpoint {prefix}*{suffix} of member {member} registered by train in {out}")
    return out / max(indexed)[1]


def cmd_predict(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    out = manifest.out_dir
    test_ds = _load_split(cfg, "test", "test")
    paths = [_find_member_params(manifest, cfg.seed, k) for k in range(cfg.ensemble_size)]
    members = [load_checkpoint(path) for path in paths]
    files = []
    member_probs = np.empty((len(members), len(test_ds)))
    for k, (ckpt, params) in enumerate(zip(paths, members)):
        try:
            member_probs[k] = predict_dataset(params, test_ds)
        except ValidationError as exc:  # the checkpoint was trained on other data
            sources = f"checkpoint {ckpt} and test split {_data_path(cfg, 'test')}"
            raise ValidationError(f"{sources}: {exc}; re-run train on this data") from None
        path = out / f"forecasts_m{k}.jsonl"
        save_forecasts(path, test_ds.ids, member_probs[k])
        files.append(path)
    ens = ensemble_predict_dataset(member_probs)
    ens_path = out / "forecasts.jsonl"
    save_forecasts(ens_path, test_ds.ids, ens)
    files.append(ens_path)
    n_present = int(np.count_nonzero(~np.isnan(ens)))
    print(f"predict: {len(ens)} questions, {n_present} with forecasts -> {ens_path}")
    return EXIT_OK, files


def _load_forecasts(out: Path, args, test_ds: Dataset) -> tuple[list[str], np.ndarray]:
    """The model names and their (test rows x models) probability matrix."""
    paths = [Path(p) for p in args.forecasts] if args.forecasts else [out / "forecasts.jsonl"]
    return load_forecasts(paths, test_ds.ids)


def cmd_evaluate(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    out = manifest.out_dir
    test_ds = _load_split(cfg, "test", "test")
    names, probs = _load_forecasts(out, args, test_ds)
    y = test_ds.outcome
    n_bins = cfg.evaluation.n_bins
    files = []

    reports = {}
    for j, name in enumerate(names):
        try:
            report = evaluation_report(probs[:, j], y, n_bins)
        except ValidationError as exc:  # too few present forecasts for n_bins bins
            raise ValidationError(f"model {name}: {exc}; evaluation.n_bins sets the minimum") from None
        reports[name] = asdict(report)
        bins_path = out / f"bins_{name}.csv"
        with atomic_write(bins_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lo", "hi", "count", "mean_confidence", "empirical_frequency"])
            for b in report.bins:
                writer.writerow([b.lo, b.hi, b.count, b.mean_confidence, b.empirical_frequency])
        files.append(bins_path)

    # Pairwise: Wald on per-question soft-Brier, bootstrap on ECE.
    comparisons = []
    if len(names) >= 2:
        rng = substream(cfg.seed, "bootstrap", "evaluate")
        brier = paired_brier_test(probs, y)
        ece_stat = equal_mass_ece_stat(probs, y, n_bins)
        ece_boot = paired_bootstrap_stat(len(y), ece_stat, cfg.evaluation.bootstrap_reps, rng)
        for (i, j), ece_cmp in ece_boot.items():
            if ece_cmp.n_dropped:
                print(
                    f"{names[i]} vs {names[j]}: ECE bootstrap dropped {ece_cmp.n_dropped} of "
                    f"{cfg.evaluation.bootstrap_reps} replicates with fewer than {n_bins} present forecasts"
                )
            comparisons.append(
                {"model_a": names[i], "model_b": names[j], "soft_brier": asdict(brier[(i, j)]), "ece": asdict(ece_cmp)}
            )

    eval_path = out / "evaluation.json"
    write_json(eval_path, {"models": reports, "comparisons": comparisons})
    files.append(eval_path)
    for name in names:
        r = reports[name]
        print(f"{name}: soft-Brier {r['soft_brier_mean']:.4f}, ECE {r['ece']:.4f} (n={r['n_questions']})")
    return EXIT_OK, files


def cmd_trade(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    out = manifest.out_dir
    test_ds = _load_split(cfg, "test", "test")
    names, probs = _load_forecasts(out, args, test_ds)
    n_priced = int(np.count_nonzero(tradeable(test_ds)))
    trade_path = out / "trades.json"
    if n_priced == 0:
        write_json(trade_path, {"models": {}, "comparisons": [], "note": "no priced questions"})
        print("trade: no priced questions in the test set; empty result written")
        return EXIT_OK, [trade_path]

    try:
        ece_values, trade_ds, trade_probs = gating_ece(
            probs, test_ds, cfg.trading.ece_source, cfg.trading.calibration_fraction, cfg.evaluation.n_bins, names
        )
    except ValidationError as exc:  # too few present forecasts for n_bins bins
        keys = "evaluation.n_bins sets the minimum"
        if cfg.trading.ece_source == "calibration_split":
            keys = "trading.calibration_fraction sets the rows and " + keys
        raise ValidationError(f"{exc}; {keys}") from None

    files = []
    per_model = {}
    gated = []  # each model's StrategyResult per gate
    for j, name in enumerate(names):
        results = run_strategies(trade_probs[:, j], trade_ds, ece_values[j], substream(cfg.seed, "ties", name))
        gated.append(results)
        model_out = {"gating_ece": ece_values[j], "rules": {}}
        for rule_name, result in results.items():
            curve_path = out / f"curve_{name}_{rule_name}.csv"
            with atomic_write(curve_path, newline="") as fh:
                csv.writer(fh).writerows(result.curve_rows())
            files.append(curve_path)
            model_out["rules"][rule_name] = result.to_dict()
        # The bands read the all-markets trades in that rule's (edge) order.
        model_out["confidence_bands"] = [asdict(b) for b in confidence_band_edges(results[GATES[2]].trades)]
        per_model[name] = model_out

    comparisons = []
    if len(names) >= 2:
        # One replicate set serves every gate: the gates' profit matrices
        # (columns in `names` order) stand side by side, and only pairs
        # within a gate are compared.
        values = [per_question_profits([results[rule] for results in gated], trade_ds)[0] for rule in GATES]
        M = len(names)
        pairs = [(g * M + a, g * M + b) for g in range(len(GATES)) for a in range(M) for b in range(a + 1, M)]
        rng = substream(cfg.seed, "bootstrap", "trade")
        # By keyword: perfbench's span hook takes reps from the third
        # positional argument or from the keywords.
        reps = cfg.evaluation.bootstrap_reps
        boot = paired_bootstrap(np.concatenate(values, axis=1), reps=reps, rng=rng, pairs=pairs)
        for (i, j), cmp in boot.items():
            (gate, a), b = divmod(i, M), j % M
            comparisons.append(
                {"rule": GATES[gate], "model_a": names[a], "model_b": names[b], "total_profit_delta": asdict(cmp)}
            )

    write_json(trade_path, {"models": per_model, "comparisons": comparisons})
    files.append(trade_path)
    for name in names:
        totals = {r: per_model[name]["rules"][r]["total_profit"] for r in GATES}
        print(
            f"{name}: edge>ECE ${totals[GATES[0]]:.2f} ({per_model[name]['rules'][GATES[0]]['n_trades']} trades), "
            f"edge>0 ${totals[GATES[1]]:.2f}, all ${totals[GATES[2]]:.2f}"
        )
    return EXIT_OK, files


def cmd_report(cfg: RunConfig, args, manifest: Manifest) -> tuple[int, list[Path]]:
    out = manifest.out_dir
    unregistered = manifest.unregistered_files()
    doc: dict = {"config_hash": cfg.config_hash(), "stages_run": sorted(manifest.doc["stages"])}

    eval_path = out / "evaluation.json"
    if eval_path.exists():
        doc["evaluation"] = read_json(eval_path, EVALUATION_SHAPE)
    trades_path = out / "trades.json"
    if trades_path.exists():
        trades = read_json(trades_path, TRADES_SHAPE)
        doc["trading"] = {
            name: {
                rule: {"total_profit": result["total_profit"], "n_trades": result["n_trades"]}
                for rule, result in entry["rules"].items()
            }
            for name, entry in trades["models"].items()
        }
        doc["trading_comparisons"] = trades["comparisons"]

    lines = ["# Run report", "", f"Config hash: `{doc['config_hash']}`", ""]
    if "evaluation" in doc:
        lines += ["| model | soft-Brier | ECE | n | malformed |", "| --- | --- | --- | --- | --- |"]
        for name, r in sorted(doc["evaluation"]["models"].items()):
            lines.append(
                f"| {name} | {r['soft_brier_mean']:.4f} | {r['ece']:.4f} "
                f"| {r['n_questions']} | {r['n_malformed']} |"
            )
        lines.append("")
        for cmp in doc["evaluation"]["comparisons"]:
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
    write_json(report_json, doc)
    with atomic_write(report_md) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"report -> {report_md}" + (f" ({len(unregistered)} unregistered files!)" if unregistered else ""))
    return EXIT_OK, [report_json, report_md]


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
            help="accepted for compatibility and sets nothing; the README's Evaluation and trading section says "
                 "how the bootstrap workers are chosen",
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
        if args.out is not None:
            cfg.output_dir = args.out
        cfg.validate()
        manifest = Manifest(Path(cfg.output_dir))
        t0 = time.monotonic()
        code, files = COMMANDS[args.command](cfg, args, manifest)
        manifest.register(args.command, cfg.config_hash(), files, time.monotonic() - t0)
        return code
    except (ValidationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
