import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    Response,
    assess_guardrails,
    brier_reward,
    reward_for_response,
    strict_reward,
    total_reward,
)

from forecast_rl import trainer
from forecast_rl.algorithms import count_rewards, reward_table
from forecast_rl.errors import ValidationError
from forecast_rl.policy import ABSTAIN, GIBBERISH, N_ANSWER, N_CONTENT, NONENGLISH, RATIONALE
from forecast_rl.evaluation import soft_brier_losses
from forecast_rl.reward import PenaltyConfig


def response_of(tokens, answer=50, schema_valid=True) -> Response:
    return Response(np.array(tokens, dtype=np.int64), answer, schema_valid)


class TestBrierReward:
    def test_fixtures(self):
        assert brier_reward(0.7, 1) == pytest.approx(-0.09)
        assert brier_reward(1.0, 1) == 0.0
        assert brier_reward(0.0, 1) == -1.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            brier_reward(1.2, 1)
        with pytest.raises(ValidationError):
            brier_reward(-0.1, 0)
        with pytest.raises(ValidationError):
            brier_reward(0.5, 2)

    @given(st.floats(0.0, 1.0), st.integers(0, 1))
    def test_range(self, p, y):
        assert -1.0 <= brier_reward(p, y) <= 0.0


class TestStrictAndSoft:
    def test_strict_fixtures(self):
        assert strict_reward(None, 0) == -1.0
        assert strict_reward(0.5, 1) == -0.25
        assert strict_reward(0.9, 0) == pytest.approx(-0.81)

    def test_soft_fixtures(self):
        got = soft_brier_losses(np.array([np.nan, 0.5, 0.5, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]))
        assert got.tolist() == [0.25, 0.25, 0.25, 1.0]

    @given(st.one_of(st.none(), st.floats(0.0, 1.0)), st.integers(0, 1))
    def test_bounds(self, p, y):
        assert strict_reward(p, y) <= 0.0
        loss = soft_brier_losses(np.array([np.nan if p is None else p]), np.array([float(y)]))[0]
        assert 0.0 <= loss <= 1.0
        assert loss == (0.25 if p is None else (p - y) ** 2)


class TestStrictPropriety:
    def test_expected_reward_maximized_at_nearest_grid_point(self):
        """Brute-force over the 101-point grid for 1,000 random true
        probabilities: the argmax must be the nearest grid point (both
        neighbors allowed at exact midpoints)."""
        grid = np.arange(101) / 100.0
        rng = np.random.default_rng(17)
        for p in rng.random(1000):
            expected = np.array([p * brier_reward(g, 1) + (1 - p) * brier_reward(g, 0) for g in grid])
            best = np.flatnonzero(expected == expected.max())
            nearest = np.flatnonzero(np.abs(grid - p) == np.abs(grid - p).min())
            assert set(best) == set(nearest)


class TestGuardrails:
    def test_all_rationale(self):
        g = assess_guardrails(response_of([RATIONALE] * 8))
        assert g.explanation_quality == 1.0
        assert g.non_english_proportion == 0.0 and g.gibberish_proportion == 0.0
        assert g.explains_answer and not g.contains_gibberish and not g.contains_non_english

    def test_all_gibberish(self):
        g = assess_guardrails(response_of([GIBBERISH] * 8))
        assert g.gibberish_proportion == 1.0
        assert not g.explains_answer

    def test_mixed_counts(self):
        tokens = [NONENGLISH, NONENGLISH, GIBBERISH] + [RATIONALE] * 5
        g = assess_guardrails(response_of(tokens))
        assert g.non_english_proportion == 0.25
        assert g.gibberish_proportion == 0.125
        assert g.explanation_quality == 0.625

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=16))
    def test_booleans_consistent_with_proportions(self, tokens):
        g = assess_guardrails(response_of(tokens))
        assert g.contains_non_english == (g.non_english_proportion > 0)
        assert g.contains_gibberish == (g.gibberish_proportion > 0)
        assert g.explains_answer == (g.explanation_quality > 0)
        assert g.non_english_proportion + g.gibberish_proportion + g.explanation_quality == pytest.approx(1.0)


class TestTotalReward:
    def test_schema_invalid_zeroes_everything(self):
        g = assess_guardrails(response_of([GIBBERISH] * 8))
        b = total_reward(0.9, 0, g, PenaltyConfig(), schema_valid=False)
        assert b.zeroed and b.total == 0.0
        assert b.brier_reward == b.gib_penalty == 0.0

    def test_zero_lambdas_reduce_to_strict(self):
        g = assess_guardrails(response_of([RATIONALE] * 8))
        cfg = PenaltyConfig(0.0, 0.0, 0.0, 0.0)
        assert total_reward(0.7, 1, g, cfg).total == pytest.approx(-0.09)

    def test_gibberish_arithmetic(self):
        # lambda_gib=0.5 against half-gibberish content, perfect forecast
        tokens = [GIBBERISH] * 4 + [RATIONALE] * 4
        g = assess_guardrails(response_of(tokens))
        cfg = PenaltyConfig(lambda_lang=0.0, lambda_gib=0.5, lambda_miss=0.0, lambda_exp=0.0)
        assert total_reward(1.0, 1, g, cfg).total == pytest.approx(-0.25)

    def test_miss_penalty_applies_without_rationale(self):
        g = assess_guardrails(response_of([GIBBERISH] * 8))
        cfg = PenaltyConfig(lambda_lang=0.0, lambda_gib=0.0, lambda_miss=0.1, lambda_exp=0.0)
        assert total_reward(1.0, 1, g, cfg).total == pytest.approx(-0.1)

    def test_breakdown_sums_to_total(self):
        tokens = [NONENGLISH, GIBBERISH] + [RATIONALE] * 6
        g = assess_guardrails(response_of(tokens))
        b = total_reward(0.4, 1, g, PenaltyConfig())
        assert b.total == pytest.approx(
            b.brier_reward + b.lang_penalty + b.gib_penalty + b.miss_penalty + b.exp_bonus
        )

    @settings(max_examples=200)
    @given(
        st.integers(0, 8), st.integers(0, 8),
        st.floats(0.0, 1.0), st.integers(0, 1),
    )
    def test_monotonicity(self, n_gib, n_nep, p, y):
        """More gibberish or non-English never raises the reward; more
        rationale never lowers it."""
        L = 16
        n_gib = min(n_gib, L)
        n_nep = min(n_nep, L - n_gib)
        base = [GIBBERISH] * n_gib + [NONENGLISH] * n_nep + [RATIONALE] * (L - n_gib - n_nep)
        worse = [GIBBERISH] * min(n_gib + 1, L) + [NONENGLISH] * min(n_nep, L - min(n_gib + 1, L))
        worse += [RATIONALE] * (L - len(worse))
        cfg = PenaltyConfig()
        t_base = total_reward(p, y, assess_guardrails(response_of(base)), cfg).total
        t_worse = total_reward(p, y, assess_guardrails(response_of(worse)), cfg).total
        assert t_worse <= t_base + 1e-12


class TestGuardrailRewards:
    def test_matches_the_per_response_scorer(self):
        """The trainer's token-count rewards equal the per-object audit and
        total, on random groups including abstentions."""
        rng = np.random.default_rng(19)
        for pen in (PenaltyConfig(), PenaltyConfig(0.7, 0.2, 0.4, 0.3), PenaltyConfig(0.0, 0.0, 0.0, 0.0)):
            content = rng.integers(0, N_CONTENT, size=(50, 4, 6))
            content[:5] = RATIONALE
            content[5:10] = GIBBERISH
            answers = rng.integers(0, N_ANSWER, size=(50, 4))
            answers[:, 0] = ABSTAIN
            y = rng.integers(0, 2, size=(50, 1))
            counts = trainer._response_counts(content)
            gib_ct, nep_ct = counts[..., 0], counts[..., 1]
            rewards = reward_table(6, pen)[y, answers, gib_ct, nep_ct]
            for r in range(50):
                for g in range(4):
                    resp = Response(content[r, g], int(answers[r, g]))
                    a = assess_guardrails(resp)
                    assert rewards[r, g] == total_reward(resp.parse_probability(), int(y[r, 0]), a, pen).total
                    assert gib_ct[r, g] == np.count_nonzero(content[r, g] == GIBBERISH)
                    assert nep_ct[r, g] == np.count_nonzero(content[r, g] == NONENGLISH)
                    assert (gib_ct[r, g] / 6, nep_ct[r, g] / 6, (6 - gib_ct[r, g] - nep_ct[r, g]) / 6) == (
                        a.gibberish_proportion, a.non_english_proportion, a.explanation_quality
                    )

    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_table_equals_the_reward_function_on_every_cell(self, L):
        """Each (outcome, answer, gibberish, non-English) cell of the
        trainer's lookup table holds `count_rewards` of that cell, bit for
        bit, and on every reachable cell the per-object total."""
        for pen in (PenaltyConfig(), PenaltyConfig(0.7, 0.2, 0.4, 0.3), PenaltyConfig(0.0, 0.0, 0.0, 0.0)):
            table = reward_table(L, pen)
            assert table.shape == (2, N_ANSWER, L + 1, L + 1)
            y, answer, gib, nep = np.indices(table.shape).reshape(4, -1)
            cells = count_rewards(answer, y.astype(np.float64), gib, nep, L, pen)
            assert table.ravel().tobytes() == cells.tobytes()
            for k in np.flatnonzero(gib + nep <= L):
                tokens = [GIBBERISH] * gib[k] + [NONENGLISH] * nep[k] + [RATIONALE] * (L - gib[k] - nep[k])
                resp = Response(np.array(tokens), int(answer[k]))
                total = total_reward(resp.parse_probability(), int(y[k]), assess_guardrails(resp), pen).total
                assert table[y[k], answer[k], gib[k], nep[k]] == total


class TestRewardForResponse:
    def test_guardrails_disabled_keeps_assessment(self):
        r = response_of([GIBBERISH] * 8, answer=70)
        b_on = reward_for_response(r, 1, PenaltyConfig(), guardrails_enabled=True)
        b_off = reward_for_response(r, 1, PenaltyConfig(), guardrails_enabled=False)
        assert b_off.total == pytest.approx(-0.09)  # pure strict reward
        assert b_on.total < b_off.total

    def test_penalty_config_validation(self):
        with pytest.raises(ValidationError):
            PenaltyConfig(lambda_gib=-0.1).validate()
        with pytest.raises(ValidationError):
            PenaltyConfig(input_truncation_chars=0).validate()
