"""The chunked paired bootstrap against the per-replicate loop it replaced,
and the count-matrix statistics against brute-force oracles.

The product's statistics read an (R, n) count matrix; the oracles read
each replicate's drawn indices, and `counts` turns those into the count
rows.  The bootstrap machinery (replicate streams, chunking, CIs,
p-values, dropped replicates) is compared exactly, bit for bit, with the
index loop run on the product's own row statistic.  The ECE is compared
with the oracle to 1e-12: it expands every drawn row by how often it was
drawn, sorts by (probability, row index) and takes per-bin means, so it
adds in a different order than the product.  Profit totals are compared
with the resampled rows added in resampled order to a relative 1e-12.
The chunks run in forked worker processes, and their number changes no
result.
"""

import math
import os
import threading
import time
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_rl import evaluation
from forecast_rl.errors import ValidationError
from forecast_rl.evaluation import (
    PairedComparison,
    ece_bins,
    equal_mass_ece_stat,
    paired_bootstrap,
    paired_bootstrap_stat,
)
from forecast_rl.files import cgroup_cpus
from forecast_rl.rng import replicate_seeds, substream


def _binned_ece(p, y, n_bins):
    """Equal-mass ECE of sorted arrays: larger bins first, sum of
    (size / k) * |freq - conf| in bin order; NaN below n_bins entries."""
    if p.size < n_bins:
        return np.nan
    q, r = divmod(p.size, n_bins)
    terms, start = [], 0
    for b in range(n_bins):
        size = q + 1 if b < r else q
        conf = float(p[start : start + size].mean())
        freq = float(y[start : start + size].mean())
        terms.append((size / p.size) * abs(freq - conf))
        start += size
    return float(sum(terms))


def counts(idx, n):
    """The (R, n) count matrix of (R, n) index rows: how often each row
    drew each of the n rows."""
    return np.stack([np.bincount(i, minlength=n) for i in idx])


def row_stat_of(stat, n):
    """The product's statistic `stat` (count matrix -> (R, models)) as a
    row statistic of one index array, for the oracle loop."""
    return lambda idx: stat(counts(idx[None, :], n))[0]


def totals_stat(values):
    """The statistic `paired_bootstrap` hands to `paired_bootstrap_stat`
    for `values`."""
    got = []
    with mock.patch.object(evaluation, "paired_bootstrap_stat", lambda n, stat_fn, *rest, **kw: got.append(stat_fn)):
        paired_bootstrap(values, 9, substream(0, "s"))
    return got[0]


def oracle_ece(probs, ys, idx, n_bins):
    """Equal-mass ECE of the rows `idx` drew: each present row repeated as
    often as it was drawn, sorted by (probability, row index)."""
    counts = np.bincount(idx, minlength=probs.size)
    rows = sorted((p, i) for i, p in enumerate(probs.tolist()) if not math.isnan(p))
    drawn = np.array([i for _, i in rows for _ in range(counts[i])], dtype=np.int64)
    return _binned_ece(probs[drawn], ys[drawn], n_bins)


def position_ece(probs, ys, idx, n_bins):
    """The draw-order ECE: drawn rows in draw order, a float stable
    argsort, so tied probabilities keep draw order."""
    p, y = probs[idx], ys[idx]
    mask = ~np.isnan(p)
    order = np.argsort(p[mask], kind="stable")
    return _binned_ece(p[mask][order], y[mask][order], n_bins)


def oracle_bootstrap(n_rows, row_stat, reps, rng):
    """The per-replicate loop: row_stat maps one index array to a vector.
    Each pair keeps the replicates where both statistics are finite."""
    observed = np.asarray(row_stat(np.arange(n_rows)), dtype=np.float64)
    if not np.isfinite(observed).all():
        raise ValidationError("statistic not finite on the observed rows")
    seeds = replicate_seeds(rng, reps)
    boot = np.empty((reps, observed.shape[0]))
    for r in range(reps):
        boot[r] = row_stat(np.random.default_rng(seeds[r]).integers(0, n_rows, size=n_rows))
    out = {}
    for i in range(observed.shape[0]):
        for j in range(i + 1, observed.shape[0]):
            d_hat = float(observed[i] - observed[j])
            kept = np.isfinite(boot[:, i]) & np.isfinite(boot[:, j])
            if not kept.any():
                raise ValidationError("no bootstrap replicate kept")
            d_boot = boot[kept, i] - boot[kept, j]
            lo, hi = np.percentile(d_boot, [2.5, 97.5])
            p = float((1 + np.sum(np.abs(d_boot - d_hat) >= abs(d_hat))) / (d_boot.size + 1))
            out[(i, j)] = PairedComparison(d_hat, float(lo), float(hi), p, "bootstrap")
            out[(i, j)].n_dropped = reps - d_boot.size
    return out


def workers(w):
    """Run the bootstrap's chunks in w worker processes.  With one, a
    patched BOOTSTRAP_CHUNK_ELEMENTS of chunk_rows * n makes chunks of
    exactly chunk_rows replicates."""
    return mock.patch.object(evaluation, "_bootstrap_workers", return_value=w)


def run_bounded(fn, seconds=120):
    """fn() on its own thread: returns its result or the exception it
    raised, and fails if it still runs after `seconds`."""
    out = []

    def target():
        try:
            out.append(fn())
        except BaseException as exc:
            out.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the bootstrap still runs after {seconds} s"
    return out[0]


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def same(a: dict, b: dict) -> bool:
    return {k: (asdict(v), v.n_dropped) for k, v in a.items()} == {k: (asdict(v), v.n_dropped) for k, v in b.items()}


def assert_close(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _forecasts(seed, n, models, grid, nan_share):
    rng = np.random.default_rng(seed)
    probs = rng.random((n, models))
    if grid:
        probs = np.round(probs, 2)  # heavy ties on the 0.01 grid
    probs[rng.random((n, models)) < nan_share] = np.nan
    ys = rng.integers(0, 2, n).astype(np.float64)
    return probs, ys


@st.composite
def forecast_matrices(draw):
    n_bins = draw(st.integers(1, 12))
    n = draw(st.integers(n_bins, 160))
    seed = draw(st.integers(0, 2**32 - 1))
    probs, ys = _forecasts(
        seed, n, draw(st.integers(1, 3)), draw(st.booleans()), draw(st.sampled_from([0.0, 0.05, 0.3]))
    )
    return probs, ys, n_bins, seed


def _wide():
    """70,000 rows: a continuous column with more than 65,535 distinct
    probabilities and a 0.001-grid column with fewer."""
    probs, ys = _forecasts(5, 70_000, 2, False, 0.05)
    probs[:, 1] = np.round(probs[:, 1], 3)
    return probs, ys, 10, 5


@st.composite
def percentile_samples(draw):
    """1 to 300 values: ties on a scaled 0.01 grid, one repeated value,
    signed zeros among few values, or magnitudes from 1e-300 to 1e300."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["grid", "equal", "zeros", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    if kind == "grid":
        return np.round(rng.normal(size=n), 2) * scale
    if kind == "equal":
        return np.full(n, rng.normal() * scale)
    if kind == "zeros":
        return rng.choice([0.0, -0.0, scale, -scale], n)
    return rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n)


class TestPercentiles:
    @settings(max_examples=400, deadline=None)
    @given(d=percentile_samples())
    @example(d=np.array([-0.0]))
    @example(d=np.array([0.0, -0.0]))
    @example(d=np.array([-0.0, -0.0]))
    @example(d=np.array([1.5, -2.0]))
    def test_bit_equal_to_np_percentile(self, d):
        """The CI bounds are np.percentile's, bit for bit, with the sign
        of every zero."""
        assert np.array(evaluation._ci95(d)).tobytes() == np.percentile(d, [2.5, 97.5]).tobytes()


class TestBatchedEce:
    @settings(max_examples=60, deadline=None)
    @given(data=forecast_matrices(), reps=st.integers(1, 40), chunk_rows=st.integers(1, 7))
    @example(data=_wide(), reps=3, chunk_rows=2)
    def test_matches_the_per_replicate_loop(self, data, reps, chunk_rows):
        probs, ys, n_bins, seed = data
        n, models = probs.shape
        stat = equal_mass_ece_stat(probs, ys, n_bins)
        idx = np.random.default_rng(seed).integers(0, n, size=(chunk_rows, n))
        want = [[oracle_ece(probs[:, j], ys, i, n_bins) for j in range(models)] for i in idx]
        assert_close(stat(counts(idx, n)), np.array(want))

        # The bootstrap around it is exact: the per-replicate loop on the
        # product's own row statistic, with chunks of chunk_rows replicates
        # so reps is rarely a multiple.
        row_stat = row_stat_of(stat, n)
        with workers(1), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", chunk_rows * n):
            try:
                want = oracle_bootstrap(n, row_stat, reps, substream(seed, "b"))
            except ValidationError:  # the observed ECE or every replicate's is undefined
                with pytest.raises(ValidationError, match="observed rows|no bootstrap replicate"):
                    paired_bootstrap_stat(n, stat, reps, substream(seed, "b"))
                return
            got = paired_bootstrap_stat(n, stat, reps, substream(seed, "b"))
        assert same(got, want)

    def test_ties_follow_row_index_not_draw_order(self):
        """A replicate's ECE is the draw-order ECE of its indices sorted
        ascending; on untied probabilities it is the draw-order ECE of the
        indices as drawn."""
        probs, ys = _forecasts(9, 500, 2, False, 0.05)
        probs[:, 1] = np.round(probs[:, 1], 2)
        idx = np.random.default_rng(9).integers(0, 500, size=(6, 500))
        got = equal_mass_ece_stat(probs, ys, 10)(counts(idx, 500))
        assert_close(got[:, 0], [position_ece(probs[:, 0], ys, i, 10) for i in idx])
        assert_close(got[:, 1], [position_ece(probs[:, 1], ys, np.sort(i), 10) for i in idx])
        assert not np.allclose(got[:, 1], [position_ece(probs[:, 1], ys, i, 10) for i in idx], rtol=0, atol=1e-12)

    def test_more_than_65535_distinct_probabilities(self):
        """More than 2**16 distinct probabilities in one column and fewer in
        the other, on the observed rows and on two resamples."""
        probs, ys, n_bins, seed = _wide()
        n = probs.shape[0]
        distinct = [np.unique(probs[~np.isnan(probs[:, j]), j]).size for j in range(2)]
        assert distinct[0] > 2**16 > distinct[1]
        idx = np.vstack([np.arange(n), np.random.default_rng(seed).integers(0, n, size=(2, n))])
        got = equal_mass_ece_stat(probs, ys, n_bins)(counts(idx, n))
        want = np.array([[oracle_ece(probs[:, j], ys, i, n_bins) for j in range(2)] for i in idx])
        assert_close(got, want)

    def test_one_row_call(self, rng):
        """The observed rows drawn once each: the count-matrix ECE equals
        the oracle, and the report's ECE is that very number."""
        probs = np.round(rng.random(101), 2)
        probs[::7] = np.nan
        ys = rng.integers(0, 2, 101).astype(np.float64)
        for n_bins in (1, 3, 10, 13):
            want = oracle_ece(probs, ys, np.arange(101), n_bins)
            got = equal_mass_ece_stat(probs[:, None], ys, n_bins)(np.ones((1, 101), dtype=np.int64))[0, 0]
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            assert ece_bins(probs, ys, n_bins)[0] == got

    def test_too_few_present_rejected(self):
        """A row set with fewer than n_bins present forecasts has no ECE;
        on the observed rows that fails the bootstrap."""
        probs = np.array([[0.5, 0.5]] * 2 + [[np.nan, 0.5]] * 9)
        ys = np.ones(11)
        stat = equal_mass_ece_stat(probs, ys, 10)
        got = stat(np.ones((1, 11), dtype=np.int64))
        assert np.isnan(got[0, 0])
        assert got[0, 1] == pytest.approx(oracle_ece(probs[:, 1], ys, np.arange(11), 10), rel=0, abs=1e-12)
        with pytest.raises(ValidationError, match="observed rows"):
            paired_bootstrap_stat(11, stat, 9, substream(0, "s"))
        with pytest.raises(ValidationError, match="n_bins"):
            equal_mass_ece_stat(probs, ys, 0)

    def test_short_replicates_are_dropped_and_counted(self):
        """Replicates that resample fewer than n_bins present forecasts
        leave the CI and p-value; the others decide them."""
        rng = np.random.default_rng(11)
        probs = np.round(rng.random((60, 2)), 2)
        probs[12:, 0] = np.nan  # 12 present: many replicates draw fewer than 10
        ys = rng.integers(0, 2, 60).astype(np.float64)
        stat = equal_mass_ece_stat(probs, ys, 10)
        got = paired_bootstrap_stat(60, stat, 199, substream(3, "s"))
        want = oracle_bootstrap(60, row_stat_of(stat, 60), 199, substream(3, "s"))
        assert same(got, want)
        assert 0 < got[(0, 1)].n_dropped < 199

    def test_identical_columns_give_an_exact_zero(self, rng):
        col = np.round(rng.random(90), 2)
        col[::9] = np.nan
        ys = rng.integers(0, 2, 90).astype(np.float64)
        stat = equal_mass_ece_stat(np.stack([col, col], axis=1), ys, 10)
        cmp = paired_bootstrap_stat(90, stat, 199, substream(0, "z"))[(0, 1)]
        assert (cmp.delta_mean, cmp.ci_low, cmp.ci_high, cmp.p_value) == (0.0, 0.0, 0.0, 1.0)


def _values_for(statistic: str, values: np.ndarray) -> np.ndarray:
    """The matrix whose column totals give `statistic`: the values for
    "total", the values over their row count for "mean" (the column means,
    up to rounding)."""
    return values / values.shape[0] if statistic == "mean" else values


class TestBatchedTotals:
    @pytest.mark.parametrize("statistic", ["mean", "total"])
    @pytest.mark.parametrize(
        "n, models, reps, chunk_rows",
        [(1, 2, 9, 1), (37, 2, 101, 8), (400, 3, 57, 5), (150, 7, 41, 3), (90, 9, 23, 2), (60, 9, 17, 1),
         (45, 4, 13, 1)],
    )
    def test_matches_the_per_replicate_loop(self, statistic, n, models, reps, chunk_rows):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, models)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        values[rng.random((n, models)) < 0.3] = 0.0  # untraded questions
        values = _values_for(statistic, values)
        with workers(1), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", chunk_rows * n):
            got = paired_bootstrap(values, reps, substream(1, "t"))
        want = oracle_bootstrap(n, row_stat_of(totals_stat(values), n), reps, substream(1, "t"))
        assert same(got, want)

    @pytest.mark.parametrize("n, models", [(1, 2), (37, 2), (400, 3), (150, 7), (1500, 9)])
    def test_totals_match_the_resampled_order_sums(self, n, models):
        """Each replicate's totals, summed in row order weighted by count,
        equal its resampled rows added in resampled order to a relative
        1e-12 of the absolute values they add."""
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, models)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        values[rng.random((n, models)) < 0.3] = 0.0
        idx = rng.integers(0, n, size=(25, n))
        got = totals_stat(values)(counts(idx, n))
        for r, i in enumerate(idx):
            want, scale = np.sum(values[i], axis=0), np.sum(np.abs(values[i]), axis=0)
            assert np.all(np.abs(got[r] - want) <= 1e-12 * scale), r

    @pytest.mark.parametrize("n, models", [(7, 2), (333, 3), (1500, 9), (3001, 9)])
    def test_a_row_does_not_depend_on_its_chunk(self, n, models):
        """Each row of a multi-row chunk's totals is bit-identical to that
        row's own one-row call, so chunking and worker count change no
        total (a BLAS matrix product breaks this)."""
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, models)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        stat = totals_stat(values)
        c = counts(rng.integers(0, n, size=(40, n)), n)
        for rows in (2, 5, 17, 40):
            chunk = stat(c[:rows])
            for r in range(rows):
                assert chunk[r].tobytes() == stat(c[r : r + 1])[0].tobytes(), (rows, r)

    def test_no_rows(self):
        """A matrix with no rows compares equal totals: p = 1, zero CIs."""
        got = paired_bootstrap(np.zeros((0, 3)), 99, substream(0, "e"))
        assert list(got) == [(0, 1), (0, 2), (1, 2)]
        for cmp in got.values():
            assert (cmp.delta_mean, cmp.ci_low, cmp.ci_high, cmp.p_value, cmp.n_dropped) == (0.0, 0.0, 0.0, 1.0, 0)

    @pytest.mark.parametrize("statistic", ["mean", "total"])
    def test_identical_columns_give_an_exact_zero(self, statistic):
        col = np.random.default_rng(8).normal(size=300)
        values = _values_for(statistic, np.stack([col, col, col + 1.0], axis=1))
        cmp = paired_bootstrap(values, 999, substream(2, "z"))[(0, 1)]
        assert (cmp.delta_mean, cmp.ci_low, cmp.ci_high, cmp.p_value) == (0.0, 0.0, 0.0, 1.0)

    def test_listed_pairs_only(self):
        """Given pairs, only those are compared, in the order given, each
        exactly as in the all-pairs call."""
        values = np.random.default_rng(5).normal(size=(120, 6))
        every = paired_bootstrap(values, 199, substream(4, "p"))
        pairs = [(3, 5), (0, 1), (3, 4)]
        got = paired_bootstrap(values, 199, substream(4, "p"), pairs)
        assert list(got) == pairs
        assert same(got, {pair: every[pair] for pair in pairs})


class TestWorkerThreads:
    """The chunks run in forked worker processes (the class keeps the name
    it had when they ran on threads); their number changes no result, and
    no process outlives the call."""

    def test_ece_is_the_same_on_any_worker_count(self):
        probs, ys = _forecasts(21, 300, 3, True, 0.3)
        stat = equal_mass_ece_stat(probs, ys, 10)
        want = oracle_bootstrap(300, row_stat_of(stat, 300), 199, substream(6, "w"))
        for w in (1, 2, 5):  # 5: more workers than the host has cores
            # 10 replicates a chunk on one worker, 2 on five: 20 to 100 chunks
            with workers(w), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 10 * 300):
                got = run_bounded(lambda: paired_bootstrap_stat(300, stat, 199, substream(6, "w")))
            assert same(got, want), w
        assert_no_child_left()

    @pytest.mark.parametrize("statistic", ["mean", "total"])
    def test_totals_are_the_same_on_any_worker_count(self, statistic):
        values = _values_for(statistic, np.random.default_rng(22).normal(size=(200, 4)))
        every = oracle_bootstrap(200, row_stat_of(totals_stat(values), 200), 301, substream(7, "w"))
        pairs = [(0, 1), (2, 3), (0, 3)]
        for w in (1, 2, 5):
            with workers(w), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 10 * 200):
                got = run_bounded(lambda: paired_bootstrap(values, 301, substream(7, "w"), pairs))
            assert same(got, {pair: every[pair] for pair in pairs}), w

    @staticmethod
    def _replicate_row(r):
        """The count row of replicate r of 97 drawn from substream(8, "x").
        Replicate 60 lies past the first chunk on any worker count."""
        idx = np.random.default_rng(replicate_seeds(substream(8, "x"), 97)[r]).integers(0, 50, size=50)
        return np.bincount(idx, minlength=50)

    @pytest.mark.parametrize("w", [1, 2, 5])
    def test_an_exception_on_a_later_chunk_reaches_the_caller(self, w):
        """A statistic that fails on the chunk holding replicate 60 of 97,
        while the other workers are busy with later chunks: the caller gets
        an exception of that type with those arguments, after every worker
        was reaped."""
        values = np.random.default_rng(23).normal(size=(50, 2))
        bad = self._replicate_row(60)

        def stat_fn(c):
            if any(np.array_equal(row, bad) for row in c):
                raise RuntimeError("the statistic failed on a later chunk", 60)
            time.sleep(0.001 * (c[0, 0] % 10))  # uneven chunks keep the other workers busy when one fails
            return c @ values

        with workers(w), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 6 * 50):
            got = run_bounded(lambda: paired_bootstrap_stat(50, stat_fn, 97, substream(8, "x")))
        assert type(got) is RuntimeError
        assert got.args == ("the statistic failed on a later chunk", 60)
        assert_no_child_left()

    @pytest.mark.parametrize("w", [2, 5])
    def test_a_worker_that_dies_is_an_error(self, w):
        """A worker that leaves with os._exit(3) on the chunk holding
        replicate 60: the call raises an error naming status 3 and returns
        no result, and no child is left."""
        bad = self._replicate_row(60)

        def stat_fn(c):
            if any(np.array_equal(row, bad) for row in c):
                os._exit(3)
            return np.zeros((len(c), 2))

        with workers(w), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 6 * 50):
            got = run_bounded(lambda: paired_bootstrap_stat(50, stat_fn, 97, substream(8, "x")))
        assert isinstance(got, RuntimeError)
        assert "exited with status 3" in str(got)
        assert_no_child_left()

    def test_the_first_failure_stops_the_other_workers(self):
        """Worker 1 fails on its first chunk while worker 0's chunk sleeps
        for 5 s: the exception reaches the caller long before worker 0
        would finish, and no child is left."""
        bad = self._replicate_row(49)  # the first replicate of worker 1's chunk

        def stat_fn(c):
            if os.getpid() != parent:
                if any(np.array_equal(row, bad) for row in c):
                    raise RuntimeError("worker 1 failed")
                time.sleep(5)
            return np.zeros((len(c), 2))

        parent = os.getpid()
        t0 = time.monotonic()
        # 49 replicates a chunk: one chunk for each worker
        with workers(2), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 2 * 49 * 50):
            got = run_bounded(lambda: paired_bootstrap_stat(50, stat_fn, 97, substream(8, "x")), seconds=10)
        elapsed = time.monotonic() - t0
        assert type(got) is RuntimeError and got.args == ("worker 1 failed",)
        assert elapsed < 2.5
        assert_no_child_left()

    def test_an_interrupted_caller_kills_its_workers(self):
        """A KeyboardInterrupt while the caller waits for two workers that
        would each run for 20 s: it reaches the caller at once, and no child
        is left."""

        def stat_fn(c):
            if os.getpid() != parent:
                time.sleep(20)
            return np.zeros((len(c), 2))

        def interrupted(fd, children):
            raise KeyboardInterrupt

        parent = os.getpid()
        t0 = time.monotonic()
        # 49 replicates a chunk: one chunk for each worker
        with workers(2), mock.patch.object(evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 2 * 49 * 50), mock.patch.object(
            evaluation, "_next_finished", interrupted
        ):
            got = run_bounded(lambda: paired_bootstrap_stat(50, stat_fn, 97, substream(8, "x")), seconds=10)
        assert type(got) is KeyboardInterrupt
        assert time.monotonic() - t0 < 10
        assert_no_child_left()

    def test_worker_count_is_capped(self, monkeypatch):
        """One process per CPU the process may use (its affinity mask and
        its CPU quota, rounded up), at most BOOTSTRAP_MAX_WORKERS, and one
        where os.fork is missing."""
        cap = evaluation.BOOTSTRAP_MAX_WORKERS
        assert cap == 2
        monkeypatch.setattr(evaluation, "cgroup_cpus", lambda: math.inf)
        with mock.patch.object(os, "sched_getaffinity", return_value=set(range(64))):
            assert evaluation._bootstrap_workers() == cap
            for quota, want in [(0.5, 1), (1.0, 1), (1.5, 2), (8.0, cap)]:
                with mock.patch.object(evaluation, "cgroup_cpus", return_value=quota):
                    assert evaluation._bootstrap_workers() == want, quota
            with monkeypatch.context() as m:
                m.delattr(os, "fork")
                assert evaluation._bootstrap_workers() == 1
        with mock.patch.object(os, "sched_getaffinity", return_value={3}):
            assert evaluation._bootstrap_workers() == 1
        with mock.patch.object(os, "sched_getaffinity", side_effect=AttributeError):
            with mock.patch.object(os, "cpu_count", return_value=8):
                assert evaluation._bootstrap_workers() == cap
            with mock.patch.object(os, "cpu_count", return_value=None):
                assert evaluation._bootstrap_workers() == 1

    @pytest.mark.parametrize("n", [evaluation.BOOTSTRAP_CHUNK_ELEMENTS // 2 + 1, 70_000, 110_000])
    def test_worker_count_does_not_depend_on_the_rows(self, n, tmp_path, monkeypatch):
        """With the default chunk size and two CPUs, a bootstrap over more
        rows than half a chunk still runs in two worker processes, one
        replicate a chunk, and gives one worker's results."""
        values = np.random.default_rng(24).normal(size=(n, 2))
        log = tmp_path / "pids"

        def stat_fn(c):
            with open(log, "a") as fh:  # one short append: atomic across processes
                fh.write(f"{os.getpid()}\n")
            return np.einsum("rn,nm->rm", c.astype(np.float64), values)

        monkeypatch.setattr(evaluation, "cgroup_cpus", lambda: math.inf)
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
            got = run_bounded(lambda: paired_bootstrap_stat(n, stat_fn, 6, substream(10, "n")))
        pids = log.read_text().split()
        assert pids[0] == str(os.getpid()) and len(pids) == 7  # the observed rows, then one call per replicate
        assert len(set(pids[1:])) == 2 and str(os.getpid()) not in pids[1:]
        assert_no_child_left()
        with workers(1):
            assert same(got, paired_bootstrap_stat(n, stat_fn, 6, substream(10, "n")))

    @pytest.mark.parametrize(
        "files, want",
        [
            ({"cpu.max": "max 100000\n"}, math.inf),
            ({"cpu.max": "150000 100000\n"}, 1.5),
            ({"cpu.max": "50000 100000\n"}, 0.5),
            ({"cpu.max": "200000 100000\n", "cpu/cpu.cfs_quota_us": "50000\n"}, 2.0),  # v2 comes first
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, math.inf),
            ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1.0),
            ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "50000\n"}, 5.0),
            ({"cpu/cpu.cfs_quota_us": "100000\n"}, math.inf),  # no period
            ({"cpu.max": "garbage\n"}, math.inf),
            ({"cpu.max": "lots 100000\n"}, math.inf),
            ({}, math.inf),
        ],
    )
    def test_cgroup_cpu_quota(self, tmp_path, files, want):
        """The quota read from fake cgroup v2 and v1 files."""
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        assert cgroup_cpus(tmp_path) == want

    @pytest.mark.parametrize("n", [100, 400, 500, 501, 1001])
    def test_chunks_in_flight_hold_at_most_one_chunk(self, n, tmp_path):
        """With 64 CPUs in the affinity mask and 1000-entry chunks, each
        worker's count matrices times the number of workers never exceed
        1000 entries, or one replicate per worker when n is larger than a
        worker's share; every worker is a process of its own."""
        log = tmp_path / "calls"

        def stat_fn(c):
            assert c.size * w <= max(1000, n * w), (c.size, w)
            with open(log, "a") as fh:  # one short append: atomic across processes
                fh.write(f"{os.getpid()} {c.size}\n")
            return np.zeros((c.shape[0], 2))

        with mock.patch.object(os, "sched_getaffinity", return_value=set(range(64))), mock.patch.object(
            evaluation, "BOOTSTRAP_CHUNK_ELEMENTS", 1000
        ):
            w = evaluation._bootstrap_workers()
            got = run_bounded(lambda: paired_bootstrap_stat(n, stat_fn, 40, substream(9, "m")))
        assert isinstance(got, dict), got
        calls = [line.split() for line in log.read_text().splitlines()]
        assert calls[0] == [str(os.getpid()), str(n)]  # the observed rows
        assert sum(int(size) for _, size in calls[1:]) == 40 * n
        pids = {pid for pid, _ in calls[1:]}
        assert len(pids) == w and (w == 1 or str(os.getpid()) not in pids)
        assert_no_child_left()
