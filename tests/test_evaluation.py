import json
import math
import re
import statistics
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import ndtr, stdtr

from oracle import extreme_bucket_mass, welch_statistic

from forecast_rl import evaluation
from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.evaluation import (
    Forecast,
    Z_95,
    ece_bins,
    ece_equal_mass,
    evaluation_report,
    load_forecasts,
    normal_two_sided_p,
    paired_bootstrap,
    paired_brier_test,
    save_forecasts,
    soft_brier,
    t_two_sided_p,
)
from forecast_rl.rng import replicate_seeds, substream


def fixture(pairs):
    """pairs: list of (probability|None, outcome) -> (forecasts, outcomes)."""
    fs = [Forecast(f"q{i:03d}", p) for i, (p, _) in enumerate(pairs)]
    ys = {f"q{i:03d}": y for i, (_, y) in enumerate(pairs)}
    return fs, ys


def columns(pairs):
    """pairs: list of (probability|None, outcome) -> (probability column
    with NaN for None, outcome column)."""
    probs = np.array([np.nan if p is None else p for p, _ in pairs], dtype=np.float64)
    return probs, np.array([y for _, y in pairs], dtype=np.float64)


class TestForecastIO:
    def test_validation(self):
        Forecast("a", None).validate()
        Forecast("a", 1.0).validate()
        with pytest.raises(ValidationError):
            Forecast("a", 1.2).validate()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.jsonl"
        save_forecasts(path, ["a", "b", "c"], np.array([0.25, np.nan, 1.0]))
        names, probs = load_forecasts([path], ["c", "a", "b"])
        assert names == ["f"]
        np.testing.assert_array_equal(probs, [[1.0], [0.25], [np.nan]])

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            json.dumps({"question_id": "a", "probability": 0.5}) + "\n"
            + json.dumps({"question_id": "a", "probability": 0.6}) + "\n"
        )
        with pytest.raises(DataFormatError, match="line 2"):
            load_forecasts([path], ["a"])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"question_id": "a"}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_forecasts([path], ["a"])

    def test_bad_probability_names_the_file_the_line_and_the_field(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(
            json.dumps({"question_id": "a", "probability": 0.5}) + "\n"
            + json.dumps({"question_id": "b", "probability": "abc"}) + "\n"
        )
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 2: field 'probability': "):
            load_forecasts([path], ["a", "b"])

    def test_alignment_errors(self, tmp_path):
        """Each file must cover the ids exactly; a missing file and a
        repeated model name are refused before any alignment check."""
        (tmp_path / "b").mkdir()
        good, twin, odd = tmp_path / "m.jsonl", tmp_path / "b" / "m.jsonl", tmp_path / "odd.jsonl"
        save_forecasts(good, ["a", "b"], np.array([0.5, np.nan]))
        save_forecasts(twin, ["a", "b"], np.array([0.5, np.nan]))
        save_forecasts(odd, ["a", "z", "y"], np.array([0.5, 0.1, 0.2]))
        with pytest.raises(ValidationError, match=r"forecast file .*nope\.jsonl not found"):
            load_forecasts([odd, tmp_path / "nope.jsonl"], ["a", "b"])
        with pytest.raises(ValidationError, match="duplicate model name 'm' among forecast files"):
            load_forecasts([good, twin], ["a", "b"])
        message = "model 'odd' does not align with the test set; missing ['b'], unknown ['y', 'z']"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_forecasts([good, odd], ["a", "b"])

    def test_columns_follow_sorted_names_and_the_given_rows(self, tmp_path):
        paths = [tmp_path / "zeta.jsonl", tmp_path / "alpha.jsonl"]
        save_forecasts(paths[0], ["b", "a"], np.array([0.2, np.nan]))
        save_forecasts(paths[1], ["a", "b"], np.array([0.7, 0.1]))
        names, probs = load_forecasts(paths, ["b", "a"])
        assert names == ["alpha", "zeta"]
        np.testing.assert_array_equal(probs, [[0.1, 0.2], [0.7, np.nan]])

    @pytest.mark.parametrize(
        "field, value, got",
        [("question_id", 1, "expected a string, got 1"), ("probability", True, "expected a number, got true")],
        ids=["question_id", "probability"],
    )
    def test_values_are_not_coerced(self, tmp_path, field, value, got):
        """An id must be a JSON string and a probability a number (or
        null): 1 is not the id "1", and true is not the probability 1."""
        path = tmp_path / "f.jsonl"
        path.write_text(
            json.dumps({"question_id": "a", "probability": 0.5}) + "\n"
            + json.dumps({"question_id": "1", "probability": 0.5, field: value}) + "\n"
        )
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 2: field '{field}': {got}$"):
            load_forecasts([path], ["a", "1"])


class TestSoftBrier:
    def test_perfect_forecasts(self):
        fs, ys = fixture([(1.0, 1), (0.0, 0), (1.0, 1)])
        assert soft_brier(fs, ys) == 0.0

    def test_all_absent_scores_the_flat_penalty(self):
        fs, ys = fixture([(None, 1), (None, 0), (None, 1)])
        assert soft_brier(fs, ys) == 0.25

    def test_four_point_fixture(self):
        fs, ys = fixture([(1.0, 1), (0.0, 1), (0.5, 0), (None, 1)])
        assert soft_brier(fs, ys) == pytest.approx(0.375)

    def test_constant_half_is_quarter_for_any_outcomes(self, rng):
        for _ in range(20):
            pairs = [(0.5, int(y)) for y in rng.integers(0, 2, size=17)]
            fs, ys = fixture(pairs)
            assert soft_brier(fs, ys) == 0.25

    def test_alignment_error(self):
        with pytest.raises(ValidationError, match="no outcome"):
            soft_brier([Forecast("zz", 0.5)], {"a": 1})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            soft_brier([], {})


def brute_force_ece(pairs, n_bins=10):
    """Independent bin-and-average oracle.  pairs: (id, p, y), p present."""
    ordered = sorted(pairs, key=lambda t: (t[1], t[0]))
    n = len(ordered)
    q, r = divmod(n, n_bins)
    total = 0.0
    start = 0
    for b in range(n_bins):
        size = q + 1 if b < r else q
        chunk = ordered[start : start + size]
        start += size
        conf = sum(t[1] for t in chunk) / size
        freq = sum(t[2] for t in chunk) / size
        total += (size / n) * abs(freq - conf)
    return total


class TestEce:
    def test_perfectly_calibrated_pairs(self):
        # every bin holds one 0-outcome and one 1-outcome at p = 0.5
        pairs = [(0.5, i % 2) for i in range(20)]
        fs, ys = fixture(pairs)
        assert ece_equal_mass(fs, ys) == 0.0

    def test_maximal_miscalibration(self):
        fs, ys = fixture([(1.0, 0)] * 30)
        assert ece_equal_mass(fs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 60))
            probs = rng.random(n)
            ys = rng.integers(0, 2, size=n)
            fs = [Forecast(f"q{i:03d}", float(probs[i])) for i in range(n)]
            out = {f"q{i:03d}": int(ys[i]) for i in range(n)}
            triples = [(f"q{i:03d}", float(probs[i]), int(ys[i])) for i in range(n)]
            assert ece_equal_mass(fs, out) == pytest.approx(brute_force_ece(triples), abs=1e-12)

    def test_bin_sizes_larger_first(self):
        _, rows, n, _ = ece_bins(*columns([(i / 23, i % 2) for i in range(23)]))
        counts = [r.count for r in rows]
        assert counts == [3, 3, 3] + [2] * 7
        assert sum(counts) == n == 23
        assert max(counts) - min(counts) <= 1

    def test_permutation_invariance(self, rng):
        pairs = [(float(p), int(y)) for p, y in zip(rng.random(40), rng.integers(0, 2, 40))]
        pairs += [(0.5, 0), (0.5, 1), (0.5, 1)]  # ties across a boundary
        fs, ys = fixture(pairs)
        base = ece_equal_mass(fs, ys)
        for _ in range(5):
            shuffled = list(fs)
            rng.shuffle(shuffled)
            assert ece_equal_mass(shuffled, ys) == base

    def test_insufficient_present_forecasts(self):
        fs, ys = fixture([(0.5, 1)] * 9 + [(None, 1)] * 5)
        with pytest.raises(ValidationError, match="at least 10"):
            ece_equal_mass(fs, ys)

    def test_malformed_excluded_but_counted(self):
        pairs = [(i / 10, 1) for i in range(10)] + [(None, 0), (None, 1)]
        ece, rows, n, n_malformed = ece_bins(*columns(pairs))
        assert n == 10 and n_malformed == 2
        assert sum(r.count for r in rows) == 10

    def test_array_variant_agrees_with_list_variant(self, rng):
        n = 37
        probs = rng.random(n)
        ys = rng.integers(0, 2, size=n).astype(np.float64)
        fs = [Forecast(f"q{i:03d}", float(probs[i])) for i in range(n)]
        out = {f"q{i:03d}": int(ys[i]) for i in range(n)}
        assert ece_bins(probs, ys)[0] == ece_equal_mass(fs, out)

    def test_array_variant_nan_handling(self):
        probs = np.array([0.1] * 12 + [np.nan] * 3)
        ys = np.array([0.0] * 15)
        assert ece_bins(probs, ys)[0] == pytest.approx(0.1)
        with pytest.raises(ValidationError):
            ece_bins(np.array([0.5, np.nan]), np.array([1.0, 1.0]), n_bins=2)

    def test_report_consistency(self, rng):
        pairs = [(float(p), int(y)) for p, y in zip(rng.random(30), rng.integers(0, 2, 30))]
        pairs.append((None, 1))
        fs, ys = fixture(pairs)
        report = evaluation_report(*columns(pairs))
        assert report.soft_brier_mean == soft_brier(fs, ys)
        assert report.ece == ece_equal_mass(fs, ys)
        assert report.n_questions == 30 and report.n_malformed == 1
        d = asdict(report)
        assert set(d) == {"soft_brier_mean", "ece", "n_questions", "n_malformed", "bins"}
        assert len(d["bins"]) == 10


class TestPairedBrierTest:
    def test_identical_sets(self):
        probs, ys = columns([(0.3, 1), (0.8, 0), (0.5, 1)])
        cmp = paired_brier_test(np.stack([probs, probs], axis=1), ys)[(0, 1)]
        assert cmp.delta_mean == 0.0 and cmp.p_value == 1.0
        assert cmp.ci_low == cmp.ci_high == 0.0
        assert cmp.method == "wald"

    def test_constant_difference_hits_machine_floor(self):
        probs = np.tile([0.6, 0.5], (100, 1))
        cmp = paired_brier_test(probs, np.ones(100))[(0, 1)]
        # every d_i = 0.16 - 0.25 = -0.09, sd = 0
        assert cmp.delta_mean == pytest.approx(-0.09)
        assert cmp.ci_low == cmp.ci_high == cmp.delta_mean
        assert cmp.p_value == float(np.finfo(np.float64).tiny)

    def test_matches_brute_force_recomputation(self, rng):
        n = 50
        pa = rng.random(n)
        pb = rng.random(n)
        ys_arr = rng.integers(0, 2, size=n)
        cmp = paired_brier_test(np.stack([pa, pb], axis=1), ys_arr.astype(np.float64))[(0, 1)]

        d = [(pa[i] - ys_arr[i]) ** 2 - (pb[i] - ys_arr[i]) ** 2 for i in range(n)]
        mean = sum(d) / n
        sd = statistics.stdev(d)
        se = sd / math.sqrt(n)
        assert cmp.delta_mean == pytest.approx(mean, abs=1e-12)
        assert cmp.ci_low == pytest.approx(mean - Z_95 * se, abs=1e-12)
        assert cmp.ci_high == pytest.approx(mean + Z_95 * se, abs=1e-12)
        assert cmp.p_value == pytest.approx(math.erfc(abs(mean / se) / math.sqrt(2)), abs=1e-12)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValidationError, match="different questions"):
            paired_brier_test(np.full((2, 2), 0.5), np.array([1.0, 0.0, 1.0]))

    def test_ci_contains_estimate(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            probs = rng.random((n, 2))
            cmp = paired_brier_test(probs, rng.integers(0, 2, n).astype(np.float64))[(0, 1)]
            assert cmp.ci_low <= cmp.delta_mean <= cmp.ci_high
            assert 0.0 <= cmp.p_value <= 1.0


class TestPairedBootstrap:
    def test_identical_columns(self):
        values = np.tile(np.linspace(0, 1, 20)[:, None], (1, 2))
        cmp = paired_bootstrap(values, reps=199, rng=substream(0, "t"))[(0, 1)]
        assert cmp.delta_mean == 0.0
        assert cmp.ci_low == cmp.ci_high == 0.0
        assert cmp.p_value == 1.0

    def test_constant_shift_column(self):
        n, reps = 15, 199
        a = np.linspace(-1, 1, n)
        values = np.stack([a, a + 1.0], axis=1)
        cmp = paired_bootstrap(values, reps=reps, rng=substream(0, "t"))[(0, 1)]
        assert cmp.delta_mean == pytest.approx(-float(n))
        assert cmp.ci_low == pytest.approx(-float(n)) and cmp.ci_high == pytest.approx(-float(n))
        assert cmp.p_value == pytest.approx(1.0 / (reps + 1))

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(44)
        values = rng.normal(size=(12, 2))
        reps = 200
        got = paired_bootstrap(values, reps=reps, rng=substream(9, "boot"))[(0, 1)]

        seeds = replicate_seeds(substream(9, "boot"), reps)
        diffs = np.empty(reps)
        for r in range(reps):
            idx = np.random.default_rng(seeds[r]).integers(0, 12, size=12)
            diffs[r] = sum(values[idx, 0]) - sum(values[idx, 1])  # totals in resampled order
        d_hat = sum(values[:, 0]) - sum(values[:, 1])
        lo, hi = np.percentile(diffs, [2.5, 97.5])
        p = (1 + np.sum(np.abs(diffs - d_hat) >= abs(d_hat))) / (reps + 1)
        assert got.delta_mean == pytest.approx(d_hat, abs=1e-15)
        assert got.ci_low == pytest.approx(lo, abs=1e-15)
        assert got.ci_high == pytest.approx(hi, abs=1e-15)
        assert got.p_value == pytest.approx(p, abs=1e-15)

    def test_row_pairing_preserved(self):
        """Shifting one row's entries jointly leaves every paired
        difference untouched, replicate by replicate.  The values lie on a
        1/64 grid, so every total is exact and so is the shift."""
        rng = np.random.default_rng(45)
        values = rng.integers(-640, 640, size=(10, 3)) / 64.0
        shifted = values.copy()
        shifted[4] += 100.0
        a = paired_bootstrap(values, reps=150, rng=substream(2, "p"))
        b = paired_bootstrap(shifted, reps=150, rng=substream(2, "p"))
        assert list(a) == list(b) == [(0, 1), (0, 2), (1, 2)]
        for key in a:
            assert asdict(a[key]) == asdict(b[key])

    def test_determinism_and_validation(self):
        values = np.random.default_rng(46).normal(size=(8, 2))
        a = paired_bootstrap(values, reps=99, rng=substream(3, "d"))[(0, 1)]
        b = paired_bootstrap(values, reps=99, rng=substream(3, "d"))[(0, 1)]
        assert (a.ci_low, a.ci_high, a.p_value) == (b.ci_low, b.ci_high, b.p_value)
        with pytest.raises(ValidationError, match="reps must be >= 1"):
            paired_bootstrap(values, reps=0, rng=substream(0, "t"))
        with pytest.raises(ValidationError, match="questions x models"):
            paired_bootstrap(np.zeros(5), reps=9, rng=substream(0, "t"))

    def test_three_models_all_pairs(self):
        values = np.random.default_rng(47).normal(size=(9, 3))
        out = paired_bootstrap(values, reps=49, rng=substream(4, "m"))
        assert set(out) == {(0, 1), (0, 2), (1, 2)}
        for cmp in out.values():
            assert 0.0 <= cmp.p_value <= 1.0
            assert cmp.method == "bootstrap"


class TestWelch:
    def test_textbook_fixture(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        t, df = welch_statistic(x, y)
        # hand computation: vx=2.5, vy=20/3, se^2 = 0.5 + 5/3
        se2 = 2.5 / 5 + (20 / 3) / 4
        assert t == pytest.approx((3.0 - 5.0) / math.sqrt(se2), abs=1e-12)
        assert df == pytest.approx(se2**2 / (0.5**2 / 4 + (5 / 3) ** 2 / 3), abs=1e-12)
        assert t == pytest.approx(-1.358732, abs=1e-6)
        assert df == pytest.approx(4.749415, abs=1e-6)

    def test_agrees_with_scipy(self, rng):
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(2, 30)))
            y = rng.normal(loc=0.3, size=int(rng.integers(2, 30)))
            ref = sps.ttest_ind(x, y, equal_var=False)
            t, _ = welch_statistic(x, y)
            assert t == pytest.approx(ref.statistic, abs=1e-12)

    def test_scale_equivariance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        t1, df1 = welch_statistic(x, y)
        t2, df2 = welch_statistic(3.7 * x, 3.7 * y)
        assert t2 == pytest.approx(t1, abs=1e-12)
        assert df2 == pytest.approx(df1, abs=1e-12)


def t_tail_reference(t, df):
    """Two-sided t tail from scipy; for df = 1 the Cauchy closed form, since
    scipy's stdtr(1, t) is off by up to 5e-9 for |t| near 1e-8."""
    if df == 1.0:
        return 2 / math.pi * math.atan2(1.0, abs(t))
    return 2 * stdtr(df, -abs(t))


class TestTails:
    """The normal and Student-t tails against scipy.special.

    A 20k-question run puts at most 1e4 trades in a confidence band, so the
    band t-tests see df <= 1e4.  With ln B(a, 1/2) from lgamma differences
    alone the t tail would be off by up to 1.1e-11 there."""

    @settings(max_examples=400, deadline=None)
    @given(t=st.floats(-1e3, 1e3), df=st.floats(0.5, 1000.0) | st.sampled_from([1.0, 2.0]))
    def test_t_tail_to_df_1000(self, t, df):
        assert t_two_sided_p(t, df) == pytest.approx(t_tail_reference(t, df), rel=0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-1e3, 1e3), df=st.floats(1000.0, 1e4))
    def test_t_tail_to_df_1e4(self, t, df):
        assert t_two_sided_p(t, df) == pytest.approx(t_tail_reference(t, df), rel=0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.0, 5e-324, 6.5e-162, 1e-150, 1e200, -1e200, math.inf, -math.inf])
    @pytest.mark.parametrize("df", [1.0, 7.5, 5000.0])
    def test_t_tail_limits(self, t, df):
        assert t_two_sided_p(t, df) == pytest.approx(2 * stdtr(df, -abs(t)), rel=0, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(z=st.floats(-40.0, 40.0))
    def test_normal_tail(self, z):
        assert normal_two_sided_p(z) == pytest.approx(2 * ndtr(-abs(z)), rel=0, abs=1e-15)

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_CF_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            t_two_sided_p(2.0, 50.0)


class TestExtremeBucketMass:
    def test_fixtures(self):
        assert extreme_bucket_mass([0.5] * 4) == 0.0
        assert extreme_bucket_mass([0.0, 1.0, 0.5, 0.95]) == 0.75

    def test_boundaries_inclusive(self):
        assert extreme_bucket_mass([0.10, 0.90]) == 1.0
        assert extreme_bucket_mass([0.11, 0.89]) == 0.0

    def test_absent_excluded(self):
        assert extreme_bucket_mass([None, 0.5]) == 0.0
        assert extreme_bucket_mass([None]) == 0.0
        assert extreme_bucket_mass([]) == 0.0
        assert extreme_bucket_mass([None, 0.05]) == 1.0


class TestConstants:
    def test_z95_is_the_normal_quantile(self):
        assert 2 * sps.norm.sf(Z_95) == pytest.approx(0.05, abs=1e-12)
