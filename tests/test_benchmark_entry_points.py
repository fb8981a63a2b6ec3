"""The benchmark harness under perfbench/ reaches the package at fixed
names: its warm start imports the CLI and loads a workload's config, and its
traced run wraps functions at the names their callers resolve.  These tests
run those entry points against the package as it is, so a change to src/
that breaks a benchmark run, or zeroes another per-layer metric, fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Span targets of `perfbench.traced.install` whose functions the package no
# longer has at those names; their metrics read zero calls.  The list may
# only shrink.
UNRESOLVED_TARGETS = {
    "forecast_rl.cli:train",
    "forecast_rl.cli:ece_equal_mass_arrays",
    "forecast_rl.cli:run_strategy",
    "forecast_rl.algorithms:GroupRollout.from_sampling",
    *(
        f"forecast_rl.trainer:{name}"
        for name in (
            "sample_response", "assess_guardrails", "total_reward", "grpo_advantages", "modified_grpo_advantages",
            "remax_advantages", "grpo_objective_and_grad", "remax_objective_and_grad", "adamw_step",
            "baseline_predict", "baseline_loss_and_grad", "check_early_stop", "predict",
        )
    ),
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    import perfbench.run
    import perfbench.spans
    import perfbench.traced
    import perfbench.workloads

    return perfbench


@pytest.mark.parametrize("workload", ["pipeline-remax-k2", "train-grpo-k4", "compare-3"])
def test_warm_start_loads_each_workload_config(perfbench, tmp_path, workload):
    doc = perfbench.workloads.config(perfbench.workloads.WORKLOADS[workload], 0, tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", perfbench.run.WARM_START_CODE, str(path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "numpy"), proc.stderr


def test_traced_span_targets_resolve(perfbench):
    with perfbench.spans.Patcher() as patcher:
        perfbench.traced.install(perfbench.spans.Tracer(), patcher)
    assert len(UNRESOLVED_TARGETS) == 17
    assert set(patcher.missing) <= UNRESOLVED_TARGETS
