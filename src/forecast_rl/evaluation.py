"""Accuracy, calibration, and statistical comparison of forecast sets.

Forecasts are point probabilities keyed by question id; an absent
probability means the model produced no usable forecast.  Soft-Brier
charges absences 0.25, calibration metrics exclude them, and every
comparison here is paired across the identical question set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  np.percentile loads it lazily; load it at start-up, not inside a stage's work

from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.files import read_jsonl, record_field, write_jsonl
from forecast_rl.reward import soft_brier_loss
from forecast_rl.rng import replicate_seeds

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

# Bootstrap replicates go to the statistic in chunks whose (R, n) index
# matrix holds about this many entries.  This bounds the working memory, and
# at 1 MB per int64 work array the sort and gathers stay in a core's L2
# cache; 2**18 measured about a fifth slower on a 3000-question ECE bootstrap.
BOOTSTRAP_CHUNK_ELEMENTS = 2**17

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
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValidationError(
                f"forecast {self.question_id!r}: probability must lie in [0, 1], "
                f"got {self.probability}"
            )


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


def forecasts_from_map(probabilities: dict[str, float | None]) -> list[Forecast]:
    return [Forecast(qid, p) for qid, p in probabilities.items()]


def load_forecasts(path: str | Path) -> list[Forecast]:
    """Read forecast JSONL ({question_id, probability|null} per line)."""
    seen: set[str] = set()

    def parse(record) -> Forecast:
        f = Forecast(
            question_id=record_field(record, "question_id", str),
            probability=record_field(record, "probability", lambda p: None if p is None else float(p)),
        )
        f.validate()
        if f.question_id in seen:
            raise DataFormatError(f"duplicate question_id {f.question_id!r}")
        seen.add(f.question_id)
        return f

    return list(read_jsonl(path, parse))


def save_forecasts(forecasts: list[Forecast], path: str | Path) -> None:
    write_jsonl(path, ({"question_id": f.question_id, "probability": f.probability} for f in forecasts))


def _aligned_losses(forecasts: list[Forecast], outcomes: dict[str, int]) -> np.ndarray:
    losses = np.empty(len(forecasts))
    for i, f in enumerate(forecasts):
        if f.question_id not in outcomes:
            raise ValidationError(f"no outcome for forecast {f.question_id!r}")
        losses[i] = soft_brier_loss(f.probability, outcomes[f.question_id])
    return losses


def soft_brier(forecasts: list[Forecast], outcomes: dict[str, int]) -> float:
    """Mean soft-Brier loss over the forecast set."""
    if not forecasts:
        raise ValidationError("soft_brier needs at least one forecast")
    return float(_aligned_losses(forecasts, outcomes).mean())


def _equal_mass_bins(probs: np.ndarray, ys: np.ndarray, n_bins: int) -> list[BinRow]:
    n = probs.shape[0]
    q, r = divmod(n, n_bins)
    rows = []
    start = 0
    for b in range(n_bins):
        size = q + 1 if b < r else q
        sel_p = probs[start : start + size]
        sel_y = ys[start : start + size]
        rows.append(
            BinRow(
                lo=float(sel_p[0]),
                hi=float(sel_p[-1]),
                count=size,
                mean_confidence=float(sel_p.mean()),
                empirical_frequency=float(sel_y.mean()),
            )
        )
        start += size
    return rows


def ece_bins(
    forecasts: list[Forecast], outcomes: dict[str, int], n_bins: int = 10
) -> tuple[float, list[BinRow], int, int]:
    """Equal-mass ECE with its bin table.

    Present forecasts are sorted by (probability, question_id) — the id
    tie-break makes the split of identical probabilities across a bin
    boundary independent of input order — then partitioned into n_bins
    contiguous groups with the larger groups first.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    present = [f for f in forecasts if f.probability is not None]
    n_malformed = len(forecasts) - len(present)
    if len(present) < n_bins:
        raise ValidationError(
            f"ece needs at least {n_bins} present forecasts, got {len(present)}"
        )
    for f in present:
        if f.question_id not in outcomes:
            raise ValidationError(f"no outcome for forecast {f.question_id!r}")
    present.sort(key=lambda f: (f.probability, f.question_id))
    probs = np.array([f.probability for f in present])
    ys = np.array([outcomes[f.question_id] for f in present], dtype=np.float64)
    rows = _equal_mass_bins(probs, ys, n_bins)
    n = len(present)
    ece = sum((row.count / n) * abs(row.empirical_frequency - row.mean_confidence) for row in rows)
    return float(ece), rows, n, n_malformed


def ece_equal_mass(
    forecasts: list[Forecast], outcomes: dict[str, int], n_bins: int = 10
) -> float:
    return ece_bins(forecasts, outcomes, n_bins)[0]


def _ece_from_counts(c: np.ndarray, p: np.ndarray, y: np.ndarray, n_bins: int) -> np.ndarray:
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
    """
    R, m = c.shape
    out = np.full(R, np.nan)
    if m == 0:
        return out
    flat = c.ravel()
    cum = np.cumsum(flat)  # runs on across rows, so that one search serves every row
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
    for v in (p, y):
        split = head * v[j]
        s = np.where(whole, np.add.reduceat((c * v).ravel(), starts.ravel()).reshape(R, n_bins), 0.0) - split
        s[:, :-1] += split[:, 1:]
        sums.append(s)
    ok = k >= n_bins
    conf, freq = sums[0][ok] / size[ok], sums[1][ok] / size[ok]
    # cumsum adds strictly left to right, as sum() over the bins does.
    out[ok] = np.cumsum((size[ok] / k[ok, None]) * np.abs(freq - conf), axis=1)[:, -1]
    return out


def equal_mass_ece_stat(probs: np.ndarray, ys: np.ndarray, n_bins: int = 10):
    """Bootstrap statistic for paired_bootstrap_stat: maps an (R, n) index
    matrix to the (R, models) equal-mass ECE of each column of `probs`
    (questions x models, NaN = absent) on each resampled row set, NaN
    where a row set holds fewer than n_bins present forecasts.

    Each chunk's index matrix becomes one (R, n) count matrix, shared by
    every model.  Tied probabilities are ordered by row index, so a
    replicate's ECE depends only on which rows were drawn, not on the
    order of the draws.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = probs.shape[0]
    models = []
    for j in range(probs.shape[1]):
        rows = np.flatnonzero(~np.isnan(probs[:, j]))
        # a stable sort of ascending rows breaks ties by row index
        order = rows[np.argsort(probs[rows, j], kind="stable")]
        models.append((order, probs[order, j], ys[order]))

    def stat(idx: np.ndarray) -> np.ndarray:
        R = idx.shape[0]
        counts = np.bincount((idx + np.arange(0, R * n, n)[:, None]).ravel(), minlength=R * n).reshape(R, n)
        return np.stack(
            [_ece_from_counts(np.take(counts, order, axis=1), p, y, n_bins) for order, p, y in models], axis=1
        )

    return stat


def ece_equal_mass_arrays(probs: np.ndarray, ys: np.ndarray, n_bins: int = 10) -> float:
    """Equal-mass ECE of one array of probabilities (NaN = absent); the
    one-row call of `equal_mass_ece_stat`."""
    probs = np.asarray(probs, dtype=np.float64)
    k = int(np.count_nonzero(~np.isnan(probs)))
    if k < n_bins:
        raise ValidationError(f"ece needs at least {n_bins} present forecasts, got {k}")
    return float(equal_mass_ece_stat(probs[:, None], ys, n_bins)(np.arange(probs.size)[None, :])[0, 0])


def evaluation_report(
    forecasts: list[Forecast], outcomes: dict[str, int], n_bins: int = 10
) -> EvalReport:
    ece, rows, n, n_malformed = ece_bins(forecasts, outcomes, n_bins)
    return EvalReport(
        soft_brier_mean=soft_brier(forecasts, outcomes),
        ece=ece,
        bins=rows,
        n_questions=n,
        n_malformed=n_malformed,
    )


def paired_brier_test(
    a: list[Forecast], b: list[Forecast], outcomes: dict[str, int]
) -> PairedComparison:
    """Wald test on per-question soft-Brier loss differences (a minus b)."""
    ids_a = {f.question_id for f in a}
    ids_b = {f.question_id for f in b}
    if ids_a != ids_b:
        missing = sorted(ids_a ^ ids_b)[:5]
        raise ValidationError(f"forecast sets cover different questions, e.g. {missing}")
    order = sorted(ids_a)
    loss_a = dict(zip([f.question_id for f in a], _aligned_losses(a, outcomes)))
    loss_b = dict(zip([f.question_id for f in b], _aligned_losses(b, outcomes)))
    d = np.array([loss_a[q] - loss_b[q] for q in order])
    mean = float(d.mean())
    sd = float(d.std(ddof=1)) if d.size > 1 else 0.0
    if sd == 0.0:
        # Degenerate differences: flat CI; p hits the machine floor unless
        # the difference is exactly zero.
        p = 1.0 if mean == 0.0 else float(np.finfo(np.float64).tiny)
        return PairedComparison(mean, mean, mean, p, "wald")
    se = sd / np.sqrt(d.size)
    z = mean / se
    p = normal_two_sided_p(float(z))
    return PairedComparison(mean, mean - Z_95 * se, mean + Z_95 * se, p, "wald")


def _replicate_indices(seeds: np.ndarray, n_rows: int) -> np.ndarray:
    """(len(seeds), n_rows) resampled row indices, one generator per seed:
    row r is `np.random.default_rng(seeds[r]).integers(0, n_rows, n_rows)`
    (default_rng of an integer is Generator(PCG64(seed)), built here
    without its argument dispatch)."""
    idx = np.empty((len(seeds), n_rows), dtype=np.int64)
    for r, seed in enumerate(seeds):
        idx[r] = np.random.Generator(np.random.PCG64(seed)).integers(0, n_rows, size=n_rows)
    return idx


def paired_bootstrap_stat(
    n_rows: int,
    stat_fn,
    reps: int = 9999,
    rng: np.random.Generator | None = None,
    pairs=None,
) -> dict[tuple[int, int], PairedComparison]:
    """Question-level paired bootstrap over an arbitrary row statistic.

    stat_fn maps an (R, n_rows) index matrix (each row one replicate's
    rows resampled with replacement, whole rows at a time so cross-model
    pairing is preserved) to an (R, models) array of per-model
    statistics.  Replicates are passed in chunks of about
    BOOTSTRAP_CHUNK_ELEMENTS indices.  Each replicate uses its own
    generator derived from a drawn seed, so results do not depend on
    execution order or chunking.  Two-sided p-values come from the
    zero-centered difference distribution with an add-one correction.
    `pairs` lists the (i, j) model pairs to compare; by default every
    pair with i < j.

    A pair's CI and p-value use the replicates where both statistics are
    finite (an ECE of a replicate with too few present forecasts is NaN);
    the others are counted in its `n_dropped`.  A statistic that is not
    finite on the observed rows, or a pair with no replicate left, is a
    ValidationError.
    """
    if rng is None:
        raise ValidationError("paired_bootstrap needs a generator")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    observed = np.asarray(stat_fn(np.arange(n_rows)[None, :]), dtype=np.float64)[0]
    if not np.isfinite(observed).all():
        raise ValidationError(f"the bootstrap statistic is not finite on the observed rows: {observed.tolist()}")
    n_models = observed.shape[0]
    seeds = replicate_seeds(rng, reps)
    step = max(1, BOOTSTRAP_CHUNK_ELEMENTS // max(n_rows, 1))
    boot = np.concatenate(
        [
            np.asarray(stat_fn(_replicate_indices(seeds[lo : lo + step], n_rows)), dtype=np.float64)
            for lo in range(0, reps, step)
        ]
    )

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
        lo, hi = np.percentile(d_boot, [2.5, 97.5])
        centered = d_boot - d_hat
        p = float((1 + np.sum(np.abs(centered) >= abs(d_hat))) / (d_boot.size + 1))
        out[(i, j)] = PairedComparison(d_hat, float(lo), float(hi), p, "bootstrap")
        out[(i, j)].n_dropped = reps - d_boot.size
    return out


def paired_bootstrap(
    values: np.ndarray,
    statistic: str = "mean",
    reps: int = 9999,
    rng: np.random.Generator | None = None,
    pairs=None,
) -> dict[tuple[int, int], PairedComparison]:
    """Paired bootstrap of column means or totals of a questions-by-models
    matrix, comparing `pairs` of columns (see `paired_bootstrap_stat`).

    The resampled rows are gathered as (n, R, models) and reduced over the
    first axis, which adds rows one after another in resampled order, as
    `values[idx].sum(axis=0)` does for a single replicate.  (That needs
    two or more models; with one, numpy would sum the contiguous first
    axis pairwise, but one model has no pairs to compare.)  A chunk's
    replicates are gathered in ceil(models / 2) parts, so that the gathered
    array holds about two models' worth of values however many columns
    come in.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("values must be a questions x models matrix")
    if statistic not in ("mean", "total"):
        raise ValidationError(f"unknown statistic {statistic!r}")
    n_parts = -(-values.shape[1] // 2)

    def stat_fn(idx: np.ndarray) -> np.ndarray:
        out = []
        for part in np.array_split(idx, n_parts):
            gathered = np.take(values, part.T, axis=0)
            out.append(gathered.mean(axis=0) if statistic == "mean" else gathered.sum(axis=0))
        return np.concatenate(out)

    return paired_bootstrap_stat(values.shape[0], stat_fn, reps, rng, pairs)


def welch_statistic(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Welch's two-sample t statistic with Satterthwaite degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx = x.var(ddof=1) / x.size
    sy = y.var(ddof=1) / y.size
    t = (x.mean() - y.mean()) / np.sqrt(sx + sy)
    df = (sx + sy) ** 2 / (sx**2 / (x.size - 1) + sy**2 / (y.size - 1))
    return float(t), float(df)


def extreme_bucket_mass(forecasts: list[Forecast]) -> float:
    """Fraction of present forecasts at or below 10% or at or above 90%.

    Boundaries are inclusive; absent forecasts are excluded from both
    numerator and denominator, and an all-absent set scores 0.
    """
    present = np.array([f.probability for f in forecasts if f.probability is not None])
    if present.size == 0:
        return 0.0
    return float(np.mean((present <= 0.10) | (present >= 0.90)))
