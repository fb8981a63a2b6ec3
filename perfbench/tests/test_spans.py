import math

import pytest

from perfbench.spans import Patcher, Tracer, self_times


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap -> cover [1, 5].
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 3.0, 5.0]
    assert self_times(starts, ends, [-1, 0, 0]) == pytest.approx([6.0, 2.0, 3.0])


def test_self_time_clips_children_to_the_parent_and_ignores_grandchildren():
    # child [8, 12] sticks out of parent [0, 10]; grandchild [1, 2] sits
    # inside child [0.5, 4] and does not count against the root.
    starts = [0.0, 8.0, 0.5, 1.0]
    ends = [10.0, 12.0, 4.0, 2.0]
    parents = [-1, 0, 0, 2]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10.0 - 2.0 - 3.5, 4.0, 3.5 - 1.0, 1.0])


def test_tracer_records_nesting_stage_ids_and_counts():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "layer.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "layer.outer", lambda a, k, r: tracer.counts.update({"seen": r}))
    with tracer.stage("synth"):
        assert outer(1) == 4
    with tracer.stage("train"):
        inner(0)
    assert tracer.names == ["cli.synth", "layer.outer", "layer.inner", "cli.train", "layer.inner"]
    assert tracer.parents == [-1, 0, 1, -1, 3]
    assert tracer.stages == [0, 0, 0, 1, 1]
    assert tracer.counts["seen"] == 4
    assert not any(math.isnan(e) for e in tracer.ends)
    summary = tracer.summary()
    assert summary["layer.inner"]["calls"] == 2
    outer_row = summary["layer.outer"]
    assert outer_row["self_s"] <= outer_row["total_s"]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "layer.boom")()
    assert tracer._open == [] and not math.isnan(tracer.ends[0])


def test_patcher_wraps_functions_methods_and_classmethods_and_restores(tmp_path):
    import types
    import sys

    mod = types.ModuleType("pb_fake_mod")

    def f(x):
        return x

    class K:
        def m(self):
            return 1

        @classmethod
        def c(cls):
            return cls.__name__

    mod.f, mod.K = f, K
    sys.modules["pb_fake_mod"] = mod
    tracer = Tracer()
    try:
        with Patcher() as p:
            for target in ("pb_fake_mod:f", "pb_fake_mod:K.m", "pb_fake_mod:K.c", "pb_fake_mod:gone"):
                p.patch(target, lambda fn, t=target: tracer.wrap(fn, t))
            assert mod.f(3) == 3 and K().m() == 1 and K.c() == "K"
            assert p.missing == ["pb_fake_mod:gone"]
        assert tracer.names == ["pb_fake_mod:f", "pb_fake_mod:K.m", "pb_fake_mod:K.c"]
        assert mod.f is f and K.__dict__["c"].__func__.__name__ == "c" and K.m.__name__ == "m"
        K.c()
        assert len(tracer.names) == 3
    finally:
        del sys.modules["pb_fake_mod"]
