"""Accuracy, calibration, and statistical comparison of forecast sets.

`load_forecasts` reads each model's forecast file into one column of a
(test rows x models) matrix in test-row order, NaN where the model
produced no usable forecast; every statistic here is a function of those
columns and the outcome column.  Soft-Brier charges absences 0.25,
calibration metrics exclude them, and every comparison is paired across
the identical rows.  Equal-mass ECE orders tied probabilities by row.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from forecast_rl.errors import ValidationError
from forecast_rl.files import cgroup_cpus, json_number, json_string, read_jsonl_columns, write_jsonl_columns
from forecast_rl.rng import replicate_seeds

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

# Bootstrap replicates go to the statistic in chunks of
# max(1, BOOTSTRAP_CHUNK_ELEMENTS // (workers * n)) replicates, so the (R, n)
# count matrices in flight on all the worker processes together hold at most
# this many entries, or one replicate per worker once n exceeds
# BOOTSTRAP_CHUNK_ELEMENTS / workers.  This bounds the working memory, and at
# 1 MB per int64 work array a chunk's counts and cumulative sums stay in a
# core's L2 cache; 2**18 measured about a fifth slower on a 3000-question ECE
# bootstrap.
BOOTSTRAP_CHUNK_ELEMENTS = 2**17

# At most this many forked processes share the bootstrap's chunks: two
# workers on two CPUs is the only setting measured end to end.  More
# workers than the process can really use cost time (on 2 CPUs, a
# 3000-row, 3-model ECE bootstrap took 0.99 s on one thread, 0.57 s on two
# and 1.41 s on eight), so the count is also held to the CPUs of the
# affinity mask and of the cgroup CPU quota, which the mask does not show.
# Processes, not threads: drawing a replicate's generator and counting its
# draws hold the interpreter lock, and two threads ran the profit-total
# bootstrap slower than one.
BOOTSTRAP_MAX_WORKERS = 2

# Lentz's continued fraction for the incomplete beta function stops when a
# step changes the value by less than _CF_EPS relative (about one rounding
# error); _CF_TINY stands in for a zero denominator.
_CF_EPS = 3e-16
_CF_TINY = 1e-300
_CF_MAX_STEPS = 10_000
_LGAMMA_HALF = math.lgamma(0.5)


def normal_two_sided_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (Numerical Recipes' betacf, modified
    Lentz); it converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) minus its Stirling approximation, to the z^-7 term."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2).  For large a, lgamma(a) and lgamma(a + 1/2) are large
    and nearly equal, and their difference would keep only
    |lgamma(a)| * 2^-52 absolute accuracy (1e-11 at a = 5000), so it is
    taken from Stirling's series instead."""
    if a < 20.0:
        return math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)
    # ln Gamma(a + 1/2) - ln Gamma(a), with ln(a + 1/2) = ln a + log1p(1/(2a))
    diff = a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a) + _stirling_tail(a + 0.5) - _stirling_tail(a)
    return _LGAMMA_HALF - diff


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with `df` degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2); 1 - x = t^2 / (df + t^2) is formed directly, not
    by subtraction, so small tails keep their digits.
    """
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:  # 1 - p is of order sqrt(y), below half an ulp of 1
        return 1.0
    front = math.exp(-a * math.log1p(t2 / df) + b * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


@dataclass
class Forecast:
    question_id: str
    probability: float | None

    def validate(self) -> None:
        p = self.probability
        if p is not None and not (0.0 <= p <= 1.0):
            raise ValidationError(f"forecast {self.question_id!r}: probability must lie in [0, 1], got {p}")


@dataclass
class BinRow:
    """One equal-mass calibration bin."""

    lo: float
    hi: float
    count: int
    mean_confidence: float
    empirical_frequency: float


@dataclass
class EvalReport:
    """Per-model metrics.  n_questions counts the binned (present)
    forecasts; malformed ones are tallied separately and enter only the
    soft-Brier mean."""

    soft_brier_mean: float
    ece: float
    bins: list[BinRow]
    n_questions: int
    n_malformed: int


@dataclass
class PairedComparison:
    delta_mean: float
    ci_low: float
    ci_high: float
    p_value: float
    method: str  # wald | bootstrap
    # Bootstrap replicates left out for a statistic that is not finite on
    # them; a class attribute, not a field, so it stays out of the record.
    n_dropped = 0


def _probability(value) -> float | None:
    """`probability`: null, or a JSON number in [0, 1]."""
    if value is None:
        return None
    p = json_number(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {p}")
    return p


_FORECAST_CASTS = {"question_id": json_string, "probability": _probability}


def load_forecasts(paths: list[str | Path], ids: list[str]) -> tuple[list[str], np.ndarray]:
    """Model names (file stems, sorted) and their (len(ids), models)
    probability matrix: row i holds the forecasts for question ids[i], NaN
    where the probability is null.

    Each file is JSONL, one {question_id, probability|null} per line, and
    must hold exactly one forecast for every id and none for another.  A
    missing file, a repeated model name, a bad or repeated record, or a
    file that does not align with `ids` is a ValidationError.
    """
    row = {qid: i for i, qid in enumerate(ids)}
    columns: dict[str, tuple[np.ndarray, np.ndarray, list[str]]] = {}
    for path in map(Path, paths):
        if not path.exists():
            raise ValidationError(f"forecast file {path} not found")
        if path.stem in columns:
            raise ValidationError(f"duplicate model name {path.stem!r} among forecast files")
        col = np.full(len(ids), math.nan)
        got = np.zeros(len(ids), dtype=bool)
        unknown = []
        blocks = read_jsonl_columns(path, _FORECAST_CASTS, required=_FORECAST_CASTS, unique="question_id")
        for qids, probs in blocks:
            rows = np.fromiter(map(row.get, qids, itertools.repeat(-1)), dtype=np.intp, count=len(qids))
            known = rows >= 0
            unknown += [qids[k] for k in np.flatnonzero(~known).tolist()]
            col[rows[known]] = np.array(probs, dtype=np.float64)[known]  # None becomes NaN
            got[rows[known]] = True
        columns[path.stem] = col, got, unknown
    for name, (_, got, unknown) in columns.items():
        if unknown or not got.all():
            missing = sorted(ids[i] for i in np.flatnonzero(~got))[:10]
            raise ValidationError(
                f"model {name!r} does not align with the test set; "
                f"missing {missing or 'none'}, unknown {sorted(unknown)[:10] or 'none'}"
            )
    names = sorted(columns)
    return names, np.stack([columns[n][0] for n in names], axis=1)


def save_forecasts(path: str | Path, ids: list[str], probs: np.ndarray) -> None:
    """One {question_id, probability} record per id, in order; the
    probability is null where `probs` holds NaN."""
    columns = {"question_id": ids, "probability": np.asarray(probs, dtype=np.float64)}
    write_jsonl_columns(path, columns, null=("probability",))


def soft_brier_losses(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row soft-Brier loss, (p - y)^2, or 0.25 where p is NaN.  The
    square is `float_power`, the C library's pow, as Python's ** takes it."""
    return np.where(np.isnan(probs), 0.25, np.float_power(probs - y, 2))


def _forecast_column(forecasts: list[Forecast], outcomes: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The probability column (NaN = absent) and outcome column of a
    forecast list, in question-id order."""
    forecasts = sorted(forecasts, key=lambda f: f.question_id)
    for f in forecasts:
        if f.question_id not in outcomes:
            raise ValidationError(f"no outcome for forecast {f.question_id!r}")
    probs = np.array([f.probability for f in forecasts], dtype=np.float64)  # None becomes NaN
    return probs, np.array([outcomes[f.question_id] for f in forecasts], dtype=np.float64)


def soft_brier(forecasts: list[Forecast], outcomes: dict[str, int]) -> float:
    """Mean soft-Brier loss over the forecast set."""
    if not forecasts:
        raise ValidationError("soft_brier needs at least one forecast")
    return float(soft_brier_losses(*_forecast_column(forecasts, outcomes)).mean())


def _present_order(probs: np.ndarray) -> np.ndarray:
    """Rows of the present (non-NaN) probabilities in ascending order, tied
    probabilities by row (a stable sort of ascending rows)."""
    rows = np.flatnonzero(~np.isnan(probs))
    return rows[np.argsort(probs[rows], kind="stable")]


def ece_bins(probs: np.ndarray, y: np.ndarray, n_bins: int = 10) -> tuple[float, list[BinRow], int, int]:
    """Equal-mass ECE of one probability column (NaN = absent) with its bin
    table, the number of present forecasts and the number absent.

    The present forecasts, sorted by (probability, row), are partitioned
    into n_bins contiguous groups with the larger groups first.  This is
    `_ece_from_counts` of one all-ones count row, so the ECE and the bins
    are those of the bootstrap's observed statistic, bit for bit.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    order = _present_order(probs)
    n = order.size
    if n < n_bins:
        raise ValidationError(f"ece needs at least {n_bins} present forecasts, got {n}")
    p = probs[order]
    ones = np.ones((1, n), dtype=np.int64)
    ece, size, sum_p, sum_y = (a[0] for a in _ece_from_counts(ones, p, y[order], n_bins, {}))
    first = np.cumsum(size) - size
    rows = [
        BinRow(float(p[a]), float(p[a + k - 1]), k, float(conf), float(freq))
        for a, k, conf, freq in zip(first.tolist(), size.tolist(), sum_p / size, sum_y / size)
    ]
    return float(ece), rows, n, probs.size - n


def ece_equal_mass(forecasts: list[Forecast], outcomes: dict[str, int], n_bins: int = 10) -> float:
    """Equal-mass ECE of a forecast list; tied probabilities are ordered by
    question id, so the result does not depend on the list's order."""
    return ece_bins(*_forecast_column(forecasts, outcomes), n_bins)[0]


def _reused(store: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised `shape` array on the memory of store[name], which is
    replaced when it is too small.  A bootstrap worker reuses its chunk
    arrays from chunk to chunk: fresh arrays in a forked process fault in
    new pages for every chunk."""
    size = math.prod(shape)
    a = store.get(name)
    if a is None or a.size < size or a.dtype != dtype:
        a = store[name] = np.empty(size, dtype)
    return a[:size].reshape(shape)


def _ece_from_counts(c: np.ndarray, p: np.ndarray, y: np.ndarray, n_bins: int, store: dict) -> np.ndarray:
    """Equal-mass ECE of every row of a count matrix.

    `c` (R, m) holds how often each of a model's m present forecasts was
    drawn, in (probability, row index) order, with `p` and `y` in that
    order.  Expanding each row by its counts gives the sorted sample; its
    k = sum(c) draws split into n_bins contiguous bins, the larger bins
    first.  The bin edges are found on the cumulative counts, the bin sums
    of c*p and c*y come from one `reduceat` over the forecasts whose first
    draw lies in the bin, and a forecast whose draws straddle an edge is
    split by count.  Per bin the mean confidence and frequency are
    sum / size, and the ECE adds (size / k) * |freq - conf| in bin order.
    A row with fewer than n_bins draws has no ECE: it gets NaN.

    Returns the (R,) ECEs and the (R, n_bins) bin sizes and bin sums of
    c*p and c*y.  The running counts and the products c*p and c*y are
    worked out in `store`'s arrays (see `_reused`).
    """
    R, m = c.shape
    out = np.full(R, np.nan)
    if m == 0:
        return out, *np.zeros((3, R, n_bins))
    flat = c.ravel()
    # The running count runs on across rows, so that one search serves every row.
    cum = np.cumsum(flat, out=_reused(store, "cum", flat.shape, flat.dtype))
    row0 = np.arange(0, R * m, m)
    before = cum[row0] - flat[row0]  # draws in earlier rows
    k = cum[row0 + m - 1] - before
    q, r = np.divmod(k, n_bins)
    b = np.arange(n_bins)
    size = q[:, None] + (b < r[:, None])
    lo = before[:, None] + b * q[:, None] + np.minimum(b, r[:, None])  # each bin's first draw
    # The forecast holding it is the first whose running count passes it
    # (clipped to its row where k < n_bins).  Its draws before the edge
    # belong to the bin before: `head` of them.
    first = np.searchsorted(cum, lo.ravel(), side="right").reshape(R, n_bins)
    first = np.clip(first, row0[:, None], row0[:, None] + m - 1)
    head = lo - (cum[first] - flat[first])
    # reduceat sums the forecasts from a bin's first up to the next bin's
    # first (from the row start for the first bin: the forecasts before it
    # were not drawn); a bin inside a single forecast has none of its own.
    starts = first.copy()
    starts[:, 0] = row0
    whole = np.ones((R, n_bins), dtype=bool)
    whole[:, :-1] = first[:, :-1] < first[:, 1:]
    j = first - row0[:, None]
    sums = []
    prod = _reused(store, "prod", (R, m), np.float64)
    for v in (p, y):
        split = head * v[j]
        np.multiply(c, v, out=prod)
        s = np.where(whole, np.add.reduceat(prod.ravel(), starts.ravel()).reshape(R, n_bins), 0.0) - split
        s[:, :-1] += split[:, 1:]
        sums.append(s)
    ok = k >= n_bins
    conf, freq = sums[0][ok] / size[ok], sums[1][ok] / size[ok]
    # cumsum adds strictly left to right, as sum() over the bins does.
    out[ok] = np.cumsum((size[ok] / k[ok, None]) * np.abs(freq - conf), axis=1)[:, -1]
    return out, size, sums[0], sums[1]


def equal_mass_ece_stat(probs: np.ndarray, ys: np.ndarray, n_bins: int = 10):
    """Bootstrap statistic for paired_bootstrap_stat: maps an (R, n) count
    matrix to the (R, models) equal-mass ECE of each column of `probs`
    (questions x models, NaN = absent) on each resampled row set, NaN
    where a row set holds fewer than n_bins present forecasts.

    Every model reads the same count matrix, its columns taken in that
    model's (probability, row index) order.  Tied probabilities are
    ordered by row index, so a replicate's ECE depends only on how often
    each row was drawn.  The statistic works in arrays it reuses from call
    to call, so one process must not call it from two threads at once.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    models = []
    for j in range(probs.shape[1]):
        order = _present_order(probs[:, j])
        models.append((order, probs[order, j], ys[order]))
    store: dict[str, np.ndarray] = {}

    def ece(counts: np.ndarray, order: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
        # mode="clip" (the order holds valid rows): with the default "raise",
        # take writes through a fresh buffer instead of into `out`.
        c = _reused(store, "gathered", (len(counts), order.size), counts.dtype)
        return _ece_from_counts(np.take(counts, order, axis=1, out=c, mode="clip"), p, y, n_bins, store)[0]

    def stat(counts: np.ndarray) -> np.ndarray:
        return np.stack([ece(counts, *model) for model in models], axis=1)

    return stat


def evaluation_report(probs: np.ndarray, y: np.ndarray, n_bins: int = 10) -> EvalReport:
    """Soft-Brier mean, ECE and bins of one probability column (NaN = absent)."""
    ece, rows, n, n_malformed = ece_bins(probs, y, n_bins)
    return EvalReport(
        soft_brier_mean=float(soft_brier_losses(probs, y).mean()),
        ece=ece,
        bins=rows,
        n_questions=n,
        n_malformed=n_malformed,
    )


def _mean_se(d: np.ndarray) -> tuple[float, float | None]:
    """Mean of the non-empty d and its standard error, sd / sqrt(n) with
    the sample sd; None where that sd is 0 (or d holds one value)."""
    mean = float(d.mean())
    sd = float(d.std(ddof=1)) if d.size > 1 else 0.0
    return mean, (sd / np.sqrt(d.size) if sd != 0.0 else None)


def _wald(d: np.ndarray) -> PairedComparison:
    """Wald test of the mean of the per-question differences d."""
    mean, se = _mean_se(d)
    if se is None:
        # Degenerate differences: flat CI; p hits the machine floor unless
        # the difference is exactly zero.
        p = 1.0 if mean == 0.0 else float(np.finfo(np.float64).tiny)
        return PairedComparison(mean, mean, mean, p, "wald")
    p = normal_two_sided_p(float(mean / se))
    return PairedComparison(mean, mean - Z_95 * se, mean + Z_95 * se, p, "wald")


def paired_brier_test(probs: np.ndarray, y: np.ndarray) -> dict[tuple[int, int], PairedComparison]:
    """Wald test on per-question soft-Brier loss differences (column i minus
    column j) for every pair i < j of a questions x models probability
    matrix (NaN = absent); each column's losses are computed once."""
    if probs.ndim != 2 or probs.shape[0] != len(y):
        raise ValidationError(f"forecast columns {probs.shape} cover different questions than {len(y)} outcomes")
    losses = [soft_brier_losses(probs[:, j], y) for j in range(probs.shape[1])]
    return {(i, j): _wald(losses[i] - losses[j]) for i in range(len(losses)) for j in range(i + 1, len(losses))}


def _replicate_counts(seeds: np.ndarray, n_rows: int, idx: np.ndarray) -> np.ndarray:
    """(len(seeds), n_rows) count matrix, one generator per seed: row r
    counts the draws `np.random.default_rng(seeds[r]).integers(0, n_rows,
    n_rows)` (default_rng of an integer is Generator(PCG64(seed)), built
    here without its argument dispatch).  The draws go into `idx`, a
    (len(seeds), n_rows) int64 array, shifted by r * n_rows so that one
    bincount counts the whole chunk."""
    for r, seed in enumerate(seeds):
        idx[r] = np.random.Generator(np.random.PCG64(seed)).integers(0, n_rows, size=n_rows)
    idx += np.arange(len(seeds))[:, None] * n_rows
    return np.bincount(idx.ravel(), minlength=idx.size).reshape(idx.shape)


def _bootstrap_workers() -> int:
    """Worker processes for the bootstrap's replicate chunks: the CPUs this
    process may run on (its affinity mask, which `taskset` narrows, and its
    cgroup's CPU quota, rounded up), at most BOOTSTRAP_MAX_WORKERS.  One on
    a platform without `os.fork`.  The count does not depend on the rows:
    the chunk size holds the count matrices in flight to one chunk, or to
    one replicate per worker once a replicate is larger than a worker's
    share of BOOTSTRAP_CHUNK_ELEMENTS."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    cpus = math.ceil(min(cpus, cgroup_cpus()))
    return max(1, min(cpus, BOOTSTRAP_MAX_WORKERS))


def _fill_chunks(boot: np.ndarray, seeds: np.ndarray, n_rows: int, stat_fn, step: int, first: int, stride: int):
    """Chunks first, first + stride, ... of `step` replicates each: draw a
    chunk's counts and write stat_fn of them into its rows of `boot`.  The
    draws go into one array that every chunk reuses."""
    store: dict[str, np.ndarray] = {}
    for start in range(first * step, len(seeds), stride * step):
        chunk = seeds[start : start + step]
        idx = _reused(store, "draws", (len(chunk), n_rows), np.int64)
        boot[start : start + len(chunk)] = stat_fn(_replicate_counts(chunk, n_rows, idx))


def _worker_report(exc: BaseException) -> bytes:
    """`exc` pickled for the parent, or, where it does not pickle or
    unpickle (both can raise almost any exception), a RuntimeError that
    names it."""
    try:
        report = pickle.dumps(exc)
        pickle.loads(report)
    except Exception:
        report = pickle.dumps(RuntimeError(f"a bootstrap worker failed with {exc!r}"))
    return report


def _read_to_end(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 65536):
        parts.append(part)
    return b"".join(parts)


def _next_finished(fd: int, children: dict) -> int:
    """The worker that finished next: the index it wrote to the shared pipe
    `fd`, or, once every worker has exited, the lowest of `children` (one
    that left without writing it)."""
    index = os.read(fd, 4)
    return int.from_bytes(index, "little") if index else min(children)


def _run_forked(workers: int, work) -> None:
    """work(w) for each w < workers, each in a child process of its own
    started with `os.fork`; returns once every child has exited.

    A child leaves with `os._exit`, so it runs no exit handler and flushes
    no buffer it inherited (the caller's buffered stdout, say).  When work
    returns or raises, the child writes its index to one shared pipe and
    then, for an exception, the pickled exception to a pipe of its own.
    The children are handled in the order they finish: each one's report
    is read and the child reaped.  At the first failure, the children
    still running are killed and reaped and the exception is raised here.
    A child that exits otherwise than with status 0 without reporting is
    a RuntimeError that names its status.  If this process fails while it
    waits (KeyboardInterrupt included), it kills and reaps the children
    before the exception goes on.
    """
    children: dict[int, tuple[int, int]] = {}  # worker: (pid, read end of its report pipe)
    done_r, done_w = os.pipe()
    try:
        for w in range(workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    os.close(done_r)
                    try:
                        work(w)
                        code, report = 0, b""
                    except BaseException as exc:
                        report = _worker_report(exc)
                    os.write(done_w, w.to_bytes(4, "little"))
                    view = memoryview(report)
                    while view:
                        view = view[os.write(wr, view) :]
                finally:
                    os._exit(code)
            children[w] = (pid, r)
            os.close(wr)
        os.close(done_w)
        done_w = -1
        while children:
            w = _next_finished(done_r, children)
            pid, r = children[w]
            report = _read_to_end(r)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            os.close(r)
            if report:
                raise pickle.loads(report)
            if status != 0:
                raise RuntimeError(f"a bootstrap worker exited with status {status} and reported no error")
    except BaseException:
        if children:
            import signal  # here, not at module level: importing it costs every stage about 1 ms

            for pid, r in children.values():
                os.close(r)
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped just before this process failed
                    pass
        raise
    finally:
        os.close(done_r)
        if done_w >= 0:
            os.close(done_w)


def _ci95(d: np.ndarray) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the non-empty `d`, bit for bit
    `np.percentile(d, [2.5, 97.5])`.  np.percentile, and np.unique inside
    it, import numpy.ma (about 1 MB in every stage process).

    As numpy does: the virtual index x = (n - 1) q, its neighbours after a
    partition of `d` on the same sorted kth (a full sort can order tied
    zeros of opposite sign differently), and numpy's two interpolation
    branches.  Where x reaches the last index, which happens only at
    n = 1, both neighbours are the last value at weight x + 1."""
    n = d.size
    xs = [(n - 1) * q for q in (0.025, 0.975)]
    lows = [math.floor(x) if x < n - 1 else -1 for x in xs]
    s = np.partition(d, sorted({0, -1, *lows, *(i + 1 for i in lows)}))
    bounds = []
    for x, i in zip(xs, lows):
        t = x - i
        a, b = s[i], s[i + 1]
        diff = b - a
        bounds.append(float(b - diff * (1 - t) if t >= 0.5 else a + diff * t))
    return bounds[0], bounds[1]


def paired_bootstrap_stat(
    n_rows: int,
    stat_fn,
    reps: int,
    rng: np.random.Generator,
    pairs=None,
) -> dict[tuple[int, int], PairedComparison]:
    """Question-level paired bootstrap over an arbitrary row statistic.

    stat_fn maps an (R, n_rows) count matrix to an (R, models) array of
    per-model statistics.  Row r counts how often replicate r drew each
    row when it resampled n_rows rows with replacement, whole rows at a
    time so cross-model pairing is preserved.  The observed statistic is
    the call on one all-ones row, in the calling process.
    The replicates are shared out to `_bootstrap_workers` worker processes
    (up to one per CPU the process may use, at most BOOTSTRAP_MAX_WORKERS,
    and no more than there are chunks), in chunks of
    max(1, BOOTSTRAP_CHUNK_ELEMENTS // (workers * n_rows)) replicates, so
    the count matrices in flight together hold at most one chunk, or one
    replicate per worker once n_rows exceeds BOOTSTRAP_CHUNK_ELEMENTS /
    workers.  Worker w draws the counts of chunks w, w + workers, ... and
    calls stat_fn on them in a process forked for the call (see
    `_run_forked`), whose only output is the statistics it writes into
    their rows of one shared result array.  With one worker the chunks run
    in the calling process.  Each replicate uses its own generator derived
    from a drawn seed and fills its own row, so every result is the same
    whatever the worker count, chunking or execution order.  An exception
    stat_fn raises in a worker reaches the caller as a copy (same type and
    arguments), once every worker has stopped.  Two-sided p-values come
    from the zero-centered difference distribution with an add-one
    correction.
    `pairs` lists the (i, j) model pairs to compare; by default every
    pair with i < j.

    A pair's CI and p-value use the replicates where both statistics are
    finite (an ECE of a replicate with too few present forecasts is NaN);
    the others are counted in its `n_dropped`.  A statistic that is not
    finite on the observed rows, or a pair with no replicate left, is a
    ValidationError.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    observed = np.asarray(stat_fn(np.ones((1, n_rows), dtype=np.int64)), dtype=np.float64)[0]
    if not np.isfinite(observed).all():
        raise ValidationError(f"the bootstrap statistic is not finite on the observed rows: {observed.tolist()}")
    n_models = observed.shape[0]
    seeds = replicate_seeds(rng, reps)
    workers = _bootstrap_workers()
    step = max(1, BOOTSTRAP_CHUNK_ELEMENTS // (workers * max(n_rows, 1)))
    workers = min(workers, -(-reps // step))
    if workers == 1:
        boot = np.empty((reps, n_models))
        _fill_chunks(boot, seeds, n_rows, stat_fn, step, 0, 1)
    else:  # the workers write their rows into one shared anonymous mapping
        shared = mmap.mmap(-1, max(1, reps * n_models) * 8)
        boot = np.frombuffer(shared, dtype=np.float64, count=reps * n_models).reshape(reps, n_models)
        _run_forked(workers, lambda w: _fill_chunks(boot, seeds, n_rows, stat_fn, step, w, workers))

    if pairs is None:
        pairs = [(i, j) for i in range(n_models) for j in range(i + 1, n_models)]
    out: dict[tuple[int, int], PairedComparison] = {}
    for i, j in pairs:
        d_hat = float(observed[i] - observed[j])
        d_boot = boot[:, i] - boot[:, j]
        kept = np.isfinite(boot[:, i]) & np.isfinite(boot[:, j])
        if not kept.all():
            d_boot = d_boot[kept]
        if d_boot.size == 0:
            raise ValidationError(f"no bootstrap replicate has a finite statistic for models {i} and {j}")
        lo, hi = _ci95(d_boot)
        centered = d_boot - d_hat
        p = float((1 + np.sum(np.abs(centered) >= abs(d_hat))) / (d_boot.size + 1))
        out[(i, j)] = PairedComparison(d_hat, lo, hi, p, "bootstrap")
        out[(i, j)].n_dropped = reps - d_boot.size
    return out


def paired_bootstrap(
    values: np.ndarray,
    reps: int,
    rng: np.random.Generator,
    pairs=None,
) -> dict[tuple[int, int], PairedComparison]:
    """Paired bootstrap of the column totals of a questions-by-models
    matrix, comparing `pairs` of columns (see `paired_bootstrap_stat`).

    A replicate's totals are its count row times the values, each row
    weighted by how often it was drawn and added in row order, so they can
    differ in the last bits from the resampled rows added in resampled
    order.  `einsum`, not `@`: a BLAS product may round a row differently
    with the number of rows in its chunk, and no result may depend on that.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("values must be a questions x models matrix")

    store: dict[str, np.ndarray] = {}

    def stat_fn(counts: np.ndarray) -> np.ndarray:
        weights = _reused(store, "weights", counts.shape, np.float64)
        np.copyto(weights, counts)
        return np.einsum("rn,nm->rm", weights, values)

    return paired_bootstrap_stat(values.shape[0], stat_fn, reps, rng, pairs)
