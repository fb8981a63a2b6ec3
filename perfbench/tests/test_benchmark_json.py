import json
from pathlib import Path

import pytest

from perfbench import run, traced
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def spec():
    if not SPEC.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    return json.loads(SPEC.read_text())


def test_end_to_end_metrics_match_the_final_json_line(spec):
    units = dict(run.END_TO_END)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED)
    for m in spec["end_to_end"]:
        assert m["unit"] == units[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]


def test_per_layer_metrics_match_the_traced_run(spec):
    names = set(traced.layer_metrics(Tracer(), WORKLOADS["compare-3"])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == traced.unit_of(m["name"])


def test_workloads_exist_with_their_reasons(spec):
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
