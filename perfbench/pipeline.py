"""One pass of a workload through the CLI, and the checks on its outputs.

A pass runs every stage in a fresh output directory.  `check_pass`
recomputes the reported statistics from the pass's files with
`perfbench.checks` and digests each stage's outputs, so the caller can
require that repeated passes of one seed are byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks
from perfbench.workloads import (
    Workload,
    config,
    model_files,
    stage_names,
    stages,
    write_generated_forecasts,
)

STAGE_TIMEOUT_S = 120.0

# A stage process: `python -m forecast_rl.cli <args>`, except that it also
# writes the seconds spent in cli.main (everything after interpreter start-up
# and imports, before exit) to the file named by its first argument.
STAGE_CODE = (
    "import sys, time\n"
    "from forecast_rl import cli\n"
    "t0 = time.perf_counter()\n"
    "code = cli.main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(repr(time.perf_counter() - t0))\n"
    "sys.exit(code)\n"
)


def summarize(values: list[float]) -> dict:
    """Median and quartiles with the sample count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class PassDirs:
    config: Path
    out: Path
    inputs: Path

    @classmethod
    def fresh(cls, w: Workload, seed: int, root: Path) -> "PassDirs":
        if root.exists():
            shutil.rmtree(root)
        dirs = cls(root / "config.json", root / "run", root / "inputs")
        root.mkdir(parents=True)
        dirs.config.write_text(json.dumps(config(w, seed, dirs.out), indent=2))
        return dirs


@dataclass
class StageRun:
    stage: str
    wall_s: float  # the whole process
    work_s: float  # inside cli.main
    maxrss_kb: int
    exit_code: int
    errors: list[str] = field(default_factory=list)
    digest: str | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.errors)


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict, log_path: Path, timeout: float = STAGE_TIMEOUT_S) -> tuple[float, int, int]:
    """Run argv to completion: (wall seconds, child ru_maxrss in KB, exit
    code).  A process that outlives `timeout` is killed and reported with
    exit code -9."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def run_cli_pass(w: Workload, seed: int, dirs: PassDirs, env: dict) -> list[StageRun]:
    """Every stage as its own forecast_rl.cli process."""
    runs = []
    for stage, args in stages(w, dirs.config, dirs.out, dirs.inputs):
        timing = dirs.config.parent / f"{stage}.work_s"
        wall, rss, code = run_process(
            [sys.executable, "-c", STAGE_CODE, str(timing), *args], env, dirs.config.parent / "stages.log"
        )
        work = float(timing.read_text()) if timing.is_file() else float("nan")
        runs.append(StageRun(stage, wall, work, rss, code))
        if code != 0:
            break
        after_stage(w, seed, stage, dirs)
    return runs


def after_stage(w: Workload, seed: int, stage: str, dirs: PassDirs) -> None:
    """Benchmark-side work between stages (not timed as a stage)."""
    if stage == "synth" and w.algorithm is None:
        write_generated_forecasts(seed, dirs.out, dirs.inputs)


def stage_outputs(stage: str, out: Path) -> list[Path]:
    patterns = {
        "synth": ["train.jsonl", "test.jsonl", "oracle.jsonl"],
        "train": ["seed*_m*_q*/params.json"],
        "predict": ["forecasts*.jsonl"],
        "evaluate": ["evaluation.json"],
        "trade": ["trades.json"],
        "report": ["report.json"],
    }[stage]
    return sorted(p for pattern in patterns for p in out.glob(pattern))


@dataclass
class PassQuality:
    unregistered_files: int
    soft_brier: float | None = None  # of the trained ensemble; None without training
    excess_brier: float | None = None


def check_pass(w: Workload, runs: list[StageRun], dirs: PassDirs) -> PassQuality | None:
    """Attach digests and check errors to each completed stage; return the
    pass's forecast quality, or None when a stage did not finish."""
    for r in runs:
        paths = stage_outputs(r.stage, dirs.out)
        if not paths:
            r.errors.append(f"{r.stage} wrote none of its outputs")
        else:
            r.digest = checks.digest(paths)
    if any(r.exit_code != 0 for r in runs) or len(runs) < len(stage_names(w)):
        return None
    by_stage = {r.stage: r for r in runs}
    test = checks.read_test(dirs.out / "test.jsonl")
    models = {name: checks.read_forecasts(p) for name, p in model_files(w, dirs.out, dirs.inputs).items()}
    try:
        if "predict" in by_stage:
            members = [checks.read_forecasts(dirs.out / f"forecasts_m{k}.jsonl") for k in range(w.ensemble_size)]
            by_stage["predict"].errors += checks.check_ensemble(members, checks.read_forecasts(dirs.out / "forecasts.jsonl"))
        with open(dirs.out / "evaluation.json", encoding="utf-8") as fh:
            by_stage["evaluate"].errors += checks.check_evaluation(json.load(fh), models, test)
        with open(dirs.out / "trades.json", encoding="utf-8") as fh:
            by_stage["trade"].errors += checks.check_trades(json.load(fh), models, test)
        with open(dirs.out / "report.json", encoding="utf-8") as fh:
            unregistered = len(json.load(fh).get("unregistered_files", []))
    except (OSError, KeyError, ValueError) as exc:
        by_stage["report"].errors.append(f"cannot check outputs: {exc!r}")
        return None
    if unregistered:
        by_stage["report"].errors.append(f"{unregistered} unregistered files in the run directory")
    if w.algorithm is None:
        return PassQuality(unregistered)

    probs = checks.read_forecasts(dirs.out / "forecasts.jsonl")
    p_star = {r["id"]: r["p_star"] for r in checks.read_jsonl(dirs.out / "oracle.jsonl")}
    ys = [q["outcome"] for q in test]
    sb = checks.soft_brier([probs[q["id"]] for q in test], ys)
    return PassQuality(unregistered, sb, sb - checks.oracle_brier(p_star, test))


def mark_digest_mismatches(passes: list[list[StageRun]]) -> None:
    """Within one set of passes, a stage whose output digest differs from
    the other passes fails in every pass."""
    for stage in {r.stage for runs in passes for r in runs}:
        rows = [r for runs in passes for r in runs if r.stage == stage and r.digest is not None]
        if len({r.digest for r in rows}) > 1:
            for r in rows:
                r.errors.append(f"{stage} outputs differ between passes of one seed")
