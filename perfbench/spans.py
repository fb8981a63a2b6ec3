"""In-memory span tracer that wraps functions at the names callers resolve.

A span is (name, start, end, parent, stage): `parent` is the index of the
span that was open when this one started (-1 for none) and `stage` is the
id shared by every span of one CLI stage.  Spans stay in memory until
`write` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stages: list[int] = []
        self.counts: Counter = Counter()
        self.stage_id = -1
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.stages.append(self.stage_id)
        self.ends.append(float("nan"))
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    @contextmanager
    def stage(self, name: str):
        """Open a root span for one CLI stage; its spans share a new id."""
        self.stage_id += 1
        with self.span(f"cli.{name}"):
            yield

    def wrap(self, fn, name: str, on_result=None):
        """Record a span around each call of fn; on_result(args, kwargs,
        result) may add counts."""

        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(i)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def counter(self, fn, name: str):
        """Count calls of fn without a span (for very hot, tiny calls)."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as TSV: index, name, start, end, parent, stage."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tstage\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\t{self.stages[i]}\n")


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its child spans covers."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


class Patcher:
    """Replace attributes named "module:attr" or "module:Class.attr" and
    restore them on exit.  A target the program no longer has is skipped
    and listed in `missing`, so its metrics read as zero calls."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, target: str, make_wrapper) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
