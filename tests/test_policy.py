import json

import numpy as np
import pytest

from oracle import (
    Response,
    augment,
    entropy,
    head_distributions,
    head_log_distributions,
    kl_divergence,
    predict_probability,
    response_logprob,
    sample_response,
    snapshot_reference,
)

from forecast_rl.algorithms import policy_log_probs, sample_tokens
from forecast_rl.errors import ValidationError
from forecast_rl.policy import (
    ABSTAIN,
    N_ANSWER,
    N_CONTENT,
    PolicyParams,
    load_checkpoint,
    save_checkpoint,
)


def random_params(rng, d=3, L=8, scale=0.5) -> PolicyParams:
    heads = (rng.normal(0, scale, (d + 1, N_CONTENT)), rng.normal(0, scale, (d + 1, N_ANSWER)))
    return PolicyParams(np.hstack(heads), L)


def brute_softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestDistributions:
    def test_zero_weights_uniform(self, rng):
        p = PolicyParams.zeros(4)
        x = rng.normal(size=4)
        pc, pa = head_distributions(p, x)
        assert np.allclose(pc, 1.0 / 3.0, atol=1e-15)
        assert np.allclose(pa, 1.0 / 102.0, atol=1e-15)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            p = random_params(rng, scale=2.0)
            x = rng.normal(size=3)
            pc, pa = head_distributions(p, x)
            assert abs(pc.sum() - 1.0) < 1e-12
            assert abs(pa.sum() - 1.0) < 1e-12

    def test_matches_brute_force_softmax(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        xt = augment(x)
        pc, pa = head_distributions(p, x)
        assert np.allclose(pc, brute_softmax(xt @ p.content_weights), atol=1e-14)
        assert np.allclose(pa, brute_softmax(xt @ p.answer_weights), atol=1e-14)

    def test_log_distributions_consistent(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        pc, pa = head_distributions(p, x)
        lc, la = head_log_distributions(p, x)
        assert np.allclose(np.exp(lc), pc, atol=1e-15)
        assert np.allclose(np.exp(la), pa, atol=1e-15)

    def test_extreme_logits_stable(self):
        p = PolicyParams.zeros(1)
        p.answer_weights[0, 0] = 1e3  # saturate one answer token via its bias
        pc, pa = head_distributions(p, np.zeros(1))
        assert np.isfinite(pa).all()
        assert pa[0] == pytest.approx(1.0, abs=1e-12)


def sample(params, x, u):
    """The trainer's sampler on one policy: u (G, L+1) uniforms, one row
    per response."""
    p = np.exp(policy_log_probs(augment(x), params.weights[None]))
    content, answers = sample_tokens(p[:, :N_CONTENT], p[:, N_CONTENT:], u[None])
    return content[0], answers[0]


class TestSampling:
    def test_deterministic_under_seed(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        c1, a1 = sample(p, x, np.random.default_rng(42).random((4, 9)))
        c2, a2 = sample(p, x, np.random.default_rng(42).random((4, 9)))
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)

    def test_needs_rng_or_uniforms(self):
        p = PolicyParams.zeros(2)
        with pytest.raises(ValidationError):
            sample_response(p, np.zeros(2))

    def test_uniforms_shape_checked(self):
        p = PolicyParams.zeros(2)
        with pytest.raises(ValidationError, match="uniforms"):
            sample_response(p, np.zeros(2), uniforms=np.zeros(4))

    def test_inverse_cdf_against_manual_oracle(self, rng):
        # replay the same uniforms through an independent cumsum search,
        # and through the per-object sampler
        p = random_params(rng, L=5)
        x = rng.normal(size=3)
        u = rng.random(6)
        content, answers = sample(p, x, u[None])
        pc, pa = head_distributions(p, x)

        def manual(probs, uu):
            c = np.cumsum(probs)
            for k, edge in enumerate(c[:-1]):
                if uu < edge:
                    return k
            return len(probs) - 1

        for t in range(5):
            assert content[0, t] == manual(pc, u[t])
        assert answers[0] == manual(pa, u[5])
        r = sample_response(p, x, uniforms=u)
        assert np.array_equal(r.content, content[0]) and r.answer == answers[0]

    def test_abstain_frequency_uniform_policy(self):
        p = PolicyParams.zeros(2, 1)
        gen = np.random.default_rng(8)
        n = 100_000
        _, answers = sample(p, np.zeros(2), gen.random((n, 2)))
        freq = np.count_nonzero(answers == ABSTAIN) / n
        se = np.sqrt((1 / 102) * (1 - 1 / 102) / n)
        assert abs(freq - 1 / 102) < 3 * se

    def test_token_logprobs_recorded(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        r = sample_response(p, x, rng=np.random.default_rng(1))
        assert r.token_logprobs.shape == (9,)
        assert np.all(r.token_logprobs <= 0.0)
        # with unchanged params, logprob() equals the recorded values
        assert response_logprob(p, x, r) == pytest.approx(float(r.token_logprobs.sum()), abs=1e-12)


class TestLogprob:
    def test_uniform_logprob(self):
        p = PolicyParams.zeros(3, 8)
        r = Response(content=np.zeros(8, dtype=np.int64), answer=50)
        expected = 8 * np.log(1 / 3) + np.log(1 / 102)
        assert response_logprob(p, np.zeros(3), r) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self, rng):
        p = random_params(rng, L=4)
        x = rng.normal(size=3)
        r = sample_response(p, x, rng=np.random.default_rng(3))
        xt = augment(x)
        pc = brute_softmax(xt @ p.content_weights)
        pa = brute_softmax(xt @ p.answer_weights)
        expected = sum(np.log(pc[t]) for t in r.content) + np.log(pa[r.answer])
        assert response_logprob(p, x, r) == pytest.approx(float(expected), abs=1e-12)


class TestParseAndPredict:
    def test_parse_grid(self):
        assert Response(np.zeros(1, dtype=np.int64), 0).parse_probability() == 0.0
        assert Response(np.zeros(1, dtype=np.int64), 100).parse_probability() == 1.0
        assert Response(np.zeros(1, dtype=np.int64), 37).parse_probability() == 0.37
        assert Response(np.zeros(1, dtype=np.int64), ABSTAIN).parse_probability() is None

    def test_schema_invalid_parses_absent(self):
        r = Response(np.zeros(1, dtype=np.int64), 50, schema_valid=False)
        assert r.parse_probability() is None

    def test_zero_init_predicts_lowest_grid_point(self):
        # uniform answer head: argmax ties resolve to the first token, P_0
        p = PolicyParams.zeros(3)
        assert predict_probability(p, np.zeros(3)) == 0.0

    def test_abstain_argmax_predicts_absent(self):
        p = PolicyParams.zeros(2)
        p.answer_weights[0, ABSTAIN] = 1.0
        assert predict_probability(p, np.zeros(2)) is None

    def test_predict_tracks_strongest_token(self, rng):
        p = PolicyParams.zeros(2)
        p.answer_weights[0, 73] = 2.0
        assert predict_probability(p, rng.normal(size=2)) == pytest.approx(0.73)


class TestKLAndEntropy:
    def test_kl_self_zero(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        assert kl_divergence(p, p, x) == 0.0

    def test_kl_nonnegative(self, rng):
        for _ in range(50):
            p = random_params(rng, scale=1.5)
            q = random_params(rng, scale=1.5)
            assert kl_divergence(p, q, rng.normal(size=3)) >= 0.0

    def test_kl_two_way_closed_form(self):
        # shift one content logit by ln 2 against uniform; with 3 tokens:
        # p = (2/4, 1/4, 1/4), q = uniform(1/3)
        p = PolicyParams.zeros(1, 1)
        p.content_weights[0, 0] = np.log(2.0)
        q = PolicyParams.zeros(1, 1)
        x = np.zeros(1)
        probs = np.array([0.5, 0.25, 0.25])
        expected_content = float(np.sum(probs * np.log(probs / (1 / 3))))
        got = kl_divergence(p, q, x)
        assert got == pytest.approx(1 * expected_content + 0.0, abs=1e-12)

    def test_kl_matches_brute_force(self, rng):
        p = random_params(rng, L=6)
        q = random_params(rng, L=6)
        x = rng.normal(size=3)
        pc, pa = head_distributions(p, x)
        qc, qa = head_distributions(q, x)
        expected = 6 * float(np.sum(pc * np.log(pc / qc))) + float(np.sum(pa * np.log(pa / qa)))
        assert kl_divergence(p, q, x) == pytest.approx(expected, abs=1e-12)

    def test_entropy_uniform_max(self):
        p = PolicyParams.zeros(4, 8)
        assert entropy(p, np.zeros(4)) == pytest.approx(8 * np.log(3) + np.log(102), abs=1e-12)

    def test_entropy_below_max_for_nonuniform(self, rng):
        for _ in range(20):
            p = random_params(rng, scale=1.0)
            x = rng.normal(size=3)
            assert entropy(p, x) < p.content_length * np.log(3) + np.log(102)

    def test_entropy_saturated_near_zero(self):
        p = PolicyParams.zeros(1, 2)
        p.content_weights[0, 0] = 1e3
        p.answer_weights[0, 5] = 1e3
        assert entropy(p, np.zeros(1)) == pytest.approx(0.0, abs=1e-6)

    def test_entropy_matches_brute_force(self, rng):
        p = random_params(rng, L=3)
        x = rng.normal(size=3)
        pc, pa = head_distributions(p, x)
        expected = 3 * -float(np.sum(pc * np.log(pc))) + -float(np.sum(pa * np.log(pa)))
        assert entropy(p, x) == pytest.approx(expected, abs=1e-12)


class TestSnapshot:
    def test_snapshot_immutable(self, rng):
        p = random_params(rng)
        ref = snapshot_reference(p)
        with pytest.raises(ValueError):
            ref.content_weights[0, 0] = 99.0

    def test_snapshot_insulated_from_updates(self, rng):
        p = random_params(rng)
        x = rng.normal(size=3)
        ref = snapshot_reference(p)
        assert kl_divergence(ref, ref, x) == 0.0
        p.answer_weights[0, 1] += 0.3
        assert kl_divergence(p, ref, x) > 0.0

    def test_double_snapshot_identical(self, rng):
        p = random_params(rng)
        a = snapshot_reference(p)
        b = snapshot_reference(p)
        assert np.array_equal(a.content_weights, b.content_weights)
        assert np.array_equal(a.answer_weights, b.answer_weights)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        p = random_params(rng, d=5, L=3)
        p.baseline = rng.normal(size=6)
        path = tmp_path / "ck.json"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert np.array_equal(q.content_weights, p.content_weights)
        assert np.array_equal(q.answer_weights, p.answer_weights)
        assert np.array_equal(q.baseline, p.baseline)
        assert q.content_length == 3

    def test_no_baseline_round_trip(self, tmp_path):
        p = PolicyParams.zeros(2)
        save_checkpoint(p, tmp_path / "ck.json")
        q = load_checkpoint(tmp_path / "ck.json")
        assert q.baseline is None
        assert q.feature_dim == 2

    def test_version_checked(self, tmp_path):
        p = PolicyParams.zeros(2)
        path = tmp_path / "ck.json"
        save_checkpoint(p, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(path)
