import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_rows_grad, fd_vector_grad, max_rel_err
from oracle import (
    GroupRollout,
    NumericAbort,
    OptimizerState,
    Response,
    adamw_step,
    augment,
    baseline_loss,
    baseline_loss_and_grad,
    baseline_predict,
    dpo_loss,
    dpo_loss_rows,
    entropy,
    global_grad_norm,
    grpo_advantages,
    grpo_objective,
    grpo_objective_and_grad,
    head_log_distributions,
    kl_divergence,
    modified_grpo_advantages,
    policy_objective_rows,
    remax_advantages,
    remax_objective,
    response_logprob,
)

from forecast_rl.algorithms import (
    HyperParams,
    adamw_rows,
    advantages,
    bias_corrections,
    clip_scale,
    dpo_gradient,
    logit_gradient,
    policy_log_probs,
)
from forecast_rl.errors import ValidationError
from forecast_rl.policy import N_ANSWER, N_CONTENT, RATIONALE, PolicyParams


def random_params(rng, d=2, L=8, scale=0.3) -> PolicyParams:
    p = PolicyParams.zeros(d, L)
    p.content_weights[:] = rng.normal(size=(d + 1, N_CONTENT)) * scale
    p.answer_weights[:] = rng.normal(size=(d + 1, N_ANSWER)) * scale
    return p


def random_response(rng, L=8) -> Response:
    return Response(rng.integers(0, N_CONTENT, size=L), int(rng.integers(0, N_ANSWER)))


def policy_grad(params, ref, x, responses, token_w, hp):
    """The trainer's weight gradient of the online objective (as a
    maximization target, like `oracle.policy_objective_rows`), from one
    row of the array functions."""
    xt = augment(x)
    log_p = policy_log_probs(xt, params.weights[None])
    tokens = np.array([[[*r.content, r.answer + N_CONTENT] for r in responses]])
    gz = logit_gradient(np.exp(log_p), log_p, policy_log_probs(xt, ref.weights[None]), tokens,
                        np.asarray(token_w)[None], hp)
    g = -np.outer(xt, gz[0])
    return {"content": g[:, :N_CONTENT], "answer": g[:, N_CONTENT:]}


def dpo_grad(params, ref, pairs, hp):
    """The trainer's mean DPO loss gradient over a minibatch of
    (x, winner, loser) pairs."""
    xb = np.stack([augment(x) for x, _, _ in pairs])
    cdiff = np.stack([np.bincount(w.content, minlength=N_CONTENT) - np.bincount(l.content, minlength=N_CONTENT)
                      for _, w, l in pairs]).astype(np.float64)
    answers = np.array([[w.answer, l.answer] for _, w, l in pairs])
    ref_margin = np.array([response_logprob(ref, x, w) - response_logprob(ref, x, l) for x, w, l in pairs])
    g = dpo_gradient(xb, params.weights, cdiff, answers, ref_margin, hp.dpo_beta)
    return {"content": g[:, :N_CONTENT], "answer": g[:, N_CONTENT:]}


def token_weights(algorithm, rewards, L, baseline=0.0):
    """Per-token weights of one response group from the trainer's
    advantages: A / (G (L+1)) for the GRPO variants, A / G for ReMax."""
    G = len(rewards)
    advs = advantages(algorithm, rewards[None], rewards[None].sum(axis=1) / G, np.array([baseline]))[0]
    return advs / (G if algorithm == "remax" else G * (L + 1))


def policy_gradient_error(rng, algorithm, d, L, G, hp) -> float:
    """Worst relative error of the trainer's online gradient against
    central differences of `oracle.policy_objective_rows`, on one random
    fixture.  On-policy there is no clipping, so any tokens will do."""
    params, ref = random_params(rng, d, L), random_params(rng, d, L)
    x = rng.normal(size=d)
    responses = [random_response(rng, L) for _ in range(G)]
    token_w = token_weights(algorithm, rng.normal(size=G), L, float(rng.normal()))
    fd = fd_rows_grad(lambda w_c, w_a: policy_objective_rows(w_c, w_a, ref, x, responses, token_w, hp), params)
    return max_rel_err(policy_grad(params, ref, x, responses, token_w, hp), fd)


def dpo_gradient_error(rng, d, L, hp, B=3) -> float:
    """Worst relative error of the trainer's DPO gradient against central
    differences of `oracle.dpo_loss_rows`, on one random minibatch."""
    params, ref = random_params(rng, d, L), random_params(rng, d, L)
    pairs = [(rng.normal(size=d), random_response(rng, L), random_response(rng, L)) for _ in range(B)]
    fd = fd_rows_grad(lambda w_c, w_a: dpo_loss_rows(w_c, w_a, ref, pairs, hp), params)
    return max_rel_err(dpo_grad(params, ref, pairs, hp), fd)


class TestGrpoAdvantages:
    def test_fixture(self):
        assert np.allclose(grpo_advantages(np.array([-1.0, 0.0, -1.0, 0.0])), [-1, 1, -1, 1])

    def test_constant_group(self):
        assert np.array_equal(grpo_advantages(np.full(4, -0.25)), np.zeros(4))

    def test_brute_force(self):
        r = [-0.9, -0.1, -0.4, -0.6]
        mu = sum(r) / 4
        sd = math.sqrt(sum((v - mu) ** 2 for v in r) / 4)
        got = grpo_advantages(np.array(r))
        assert np.allclose(got, [(v - mu) / sd for v in r], atol=1e-12)

    def test_group_too_small(self):
        with pytest.raises(ValidationError):
            grpo_advantages(np.array([0.5]))
        with pytest.raises(ValidationError):
            modified_grpo_advantages(np.array([0.5]))


class TestModifiedGrpoAdvantages:
    def test_fixture(self):
        got = modified_grpo_advantages(np.array([-1.0, 0.0, -1.0, 0.0]))
        assert np.allclose(got, [-0.5, 0.5, -0.5, 0.5])

    def test_constant_group(self):
        # exactly representable constant: the mean is exact and so are the zeros
        assert np.array_equal(modified_grpo_advantages(np.full(3, 0.75)), np.zeros(3))
        assert np.allclose(modified_grpo_advantages(np.full(3, 0.7)), 0.0, atol=1e-15)


class TestRemaxAdvantages:
    def test_fixture(self):
        assert np.allclose(remax_advantages(np.array([-0.2, -0.8]), -0.5), [0.3, -0.3])

    def test_zero_baseline_identity(self):
        r = np.array([-0.1, -0.9, 0.0])
        assert np.array_equal(remax_advantages(r, 0.0), r)

    def test_single_rollout_allowed(self):
        assert remax_advantages(np.array([-0.4]), -0.1) == pytest.approx([-0.3])


class TestAdvantageProperties:
    def test_random_groups(self):
        """Distributional invariants over 10,000 random groups."""
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            G = int(rng.integers(2, 9))
            r = rng.normal(size=G) * rng.uniform(0.1, 2.0)
            a = grpo_advantages(r)
            m = modified_grpo_advantages(r)
            assert abs(a.sum()) < 1e-12
            assert abs(m.sum()) < 1e-12
            if r.std() > 0:
                assert abs(a.std() - 1.0) < 1e-9
            s, c = rng.uniform(0.5, 3.0), float(rng.normal())
            assert np.allclose(grpo_advantages(s * r + c), a, atol=1e-9)
            assert np.allclose(modified_grpo_advantages(r + c), m, atol=1e-12)
            assert np.allclose(modified_grpo_advantages(s * r), s * m, atol=1e-12)
            assert np.allclose(remax_advantages(r, float(r.mean())), m, atol=1e-12)

    @given(
        st.lists(st.integers(-8, 8), min_size=2, max_size=8),
        st.integers(1, 6),
        st.integers(-8, 8),
    )
    def test_affine_invariance_on_lattice(self, vals, a2, c2):
        r = np.array(vals, dtype=np.float64) / 4.0
        a, c = a2 / 2.0, c2 / 2.0
        assert np.allclose(grpo_advantages(a * r + c), grpo_advantages(r), atol=1e-9)


class TestGrpoObjective:
    def test_on_policy_identity(self):
        """params = old = ref: ratios 1, KL 0, so the objective is the mean
        advantage (0 for GRPO advantages) plus the entropy bonus."""
        rng = np.random.default_rng(3)
        params = random_params(rng)
        x = rng.normal(size=2)
        rewards = np.array([-1.0, 0.0, -0.25, -0.5])
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng) for _ in range(4)],
            rewards, grpo_advantages(rewards), params,
        )
        hp = HyperParams()
        got = grpo_objective(group, params, params, hp)
        assert got == pytest.approx(hp.entropy_coeff * entropy(params, x), abs=1e-12)

    def test_zero_advantages_reduce_to_regularizers(self):
        rng = np.random.default_rng(4)
        params, ref = random_params(rng), random_params(rng)
        x = rng.normal(size=2)
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng) for _ in range(4)],
            np.zeros(4), np.zeros(4), params,
        )
        hp = HyperParams()
        want = -hp.kl_coeff * kl_divergence(params, ref, x) + hp.entropy_coeff * entropy(params, x)
        assert grpo_objective(group, params, ref, hp) == pytest.approx(want, abs=1e-12)

    def test_clip_selects_bounded_branch(self):
        # single content token, ratio 1.5 on every slot, advantage 1:
        # min(1.5 * 1, 1.2 * 1) = 1.2
        params = PolicyParams.zeros(2, content_length=1)
        x = np.zeros(2)
        r = Response(np.array([RATIONALE]), 50)
        log_c, log_a = head_log_distributions(params, x)
        logp = np.concatenate((log_c[r.content], [log_a[r.answer]]))
        group = GroupRollout(
            "q", x, [r],
            rewards=np.array([1.0]),
            advantages=np.array([1.0]),
            old_logprobs=(logp - np.log(1.5))[None, :],
        )
        hp = HyperParams(kl_coeff=0.0, entropy_coeff=0.0, clip_eps=0.2)
        assert grpo_objective(group, params, params, hp) == pytest.approx(1.2, abs=1e-12)

    def test_brute_force_oracle(self):
        """Direct per-token recomputation of the clipped surrogate."""
        rng = np.random.default_rng(5)
        hp = HyperParams()
        for _ in range(20):
            params, ref, old = random_params(rng), random_params(rng), random_params(rng)
            x = rng.normal(size=2)
            G = int(rng.integers(2, 5))
            rewards = rng.normal(size=G)
            group = GroupRollout.from_sampling(
                "q", x, [random_response(rng) for _ in range(G)],
                rewards, grpo_advantages(rewards), old,
            )
            log_c, log_a = head_log_distributions(params, x)
            n_tok = params.content_length + 1
            total = 0.0
            for i, resp in enumerate(group.responses):
                logp = [float(log_c[t]) for t in resp.content] + [float(log_a[resp.answer])]
                for t in range(n_tok):
                    ratio = math.exp(logp[t] - group.old_logprobs[i, t])
                    clipped = min(max(ratio, 1 - hp.clip_eps), 1 + hp.clip_eps)
                    adv = group.advantages[i]
                    total += min(ratio * adv, clipped * adv) / (G * n_tok)
            total += -hp.kl_coeff * kl_divergence(params, ref, x)
            total += hp.entropy_coeff * entropy(params, x)
            assert grpo_objective(group, params, ref, hp) == pytest.approx(total, abs=1e-12)

    def test_kl_term_never_helps(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            params, ref, old = random_params(rng), random_params(rng), random_params(rng)
            x = rng.normal(size=2)
            rewards = rng.normal(size=4)
            group = GroupRollout.from_sampling(
                "q", x, [random_response(rng) for _ in range(4)],
                rewards, grpo_advantages(rewards), old,
            )
            with_kl = grpo_objective(group, params, ref, HyperParams(entropy_coeff=0.0))
            without = grpo_objective(group, params, ref, HyperParams(kl_coeff=0.0, entropy_coeff=0.0))
            assert with_kl <= without + 1e-15

    def test_entropy_term_is_linear_in_coefficient(self):
        rng = np.random.default_rng(8)
        params, ref = random_params(rng), random_params(rng)
        x = rng.normal(size=2)
        rewards = rng.normal(size=4)
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng) for _ in range(4)],
            rewards, grpo_advantages(rewards), params,
        )
        def at(coeff):
            hp = HyperParams(entropy_coeff=coeff)
            return grpo_objective_and_grad(group, params, ref, hp)
        v0, g0 = at(0.0)
        v1, g1 = at(0.001)
        v2, g2 = at(0.002)
        assert v2 - v0 == pytest.approx(2 * (v1 - v0), rel=1e-9)
        for name in g0:
            assert np.allclose(g2[name] - g0[name], 2 * (g1[name] - g0[name]), atol=1e-12)

    def test_constant_objective_has_zero_gradient(self):
        rng = np.random.default_rng(9)
        params = random_params(rng)
        x = rng.normal(size=2)
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng) for _ in range(4)],
            np.zeros(4), np.zeros(4), params,
        )
        hp = HyperParams(kl_coeff=0.0, entropy_coeff=0.0)
        _, grads = grpo_objective_and_grad(group, params, params, hp)
        assert np.all(grads["content"] == 0.0) and np.all(grads["answer"] == 0.0)

    def test_nonfinite_ratio_aborts(self):
        rng = np.random.default_rng(10)
        params = random_params(rng)
        x = rng.normal(size=2)
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng) for _ in range(2)],
            np.zeros(2), np.ones(2), params,
        )
        group.old_logprobs[:] = -1e6  # exp overflows to inf
        with np.errstate(over="ignore"), pytest.raises(NumericAbort):
            grpo_objective(group, params, params, HyperParams())


class TestRemaxObjective:
    def test_uniform_single_rollout(self):
        params = PolicyParams.zeros(2)
        x = np.array([0.4, -1.2])
        r = Response(np.array([RATIONALE] * 8), 50)
        group = GroupRollout.from_sampling("q", x, [r], np.array([-0.25]), np.array([1.0]), params)
        hp = HyperParams(kl_coeff=0.0, entropy_coeff=0.0)
        want = 8 * math.log(1 / 3) + math.log(1 / 102)
        assert remax_objective(group, params, params, hp) == pytest.approx(want, abs=1e-12)

    def test_zero_advantages_reduce_to_regularizers(self):
        rng = np.random.default_rng(11)
        params, ref = random_params(rng), random_params(rng)
        x = rng.normal(size=2)
        group = GroupRollout.from_sampling(
            "q", x, [random_response(rng)], np.zeros(1), np.zeros(1), params,
        )
        hp = HyperParams()
        want = -hp.kl_coeff * kl_divergence(params, ref, x) + hp.entropy_coeff * entropy(params, x)
        assert remax_objective(group, params, ref, hp) == pytest.approx(want, abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        hp = HyperParams()
        for _ in range(20):
            params, ref = random_params(rng), random_params(rng)
            x = rng.normal(size=2)
            G = int(rng.integers(1, 5))
            rewards = rng.normal(size=G)
            adv = remax_advantages(rewards, float(rng.normal()))
            group = GroupRollout.from_sampling(
                "q", x, [random_response(rng) for _ in range(G)], rewards, adv, params,
            )
            total = 0.0
            for i, resp in enumerate(group.responses):
                total += adv[i] * response_logprob(params, x, resp) / G
            total += -hp.kl_coeff * kl_divergence(params, ref, x)
            total += hp.entropy_coeff * entropy(params, x)
            assert remax_objective(group, params, ref, hp) == pytest.approx(total, abs=1e-12)


class TestBaseline:
    def test_loss_fixtures(self):
        hp = HyperParams()
        assert baseline_loss(-0.5, -0.5, hp) == 0.0
        assert baseline_loss(0.0, -1.0, hp) == 0.5
        assert baseline_loss(-0.2, -0.8, hp) == pytest.approx(0.18)

    def test_predict_is_affine(self):
        w = np.array([0.5, 1.0, -2.0])
        x = np.array([3.0, 0.25])
        assert baseline_predict(w, x) == pytest.approx(0.5 + 3.0 - 0.5)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        hp = HyperParams()
        for _ in range(100):
            w = rng.normal(size=3)
            x = rng.normal(size=2)
            rewards = rng.normal(size=4)
            _, grads = baseline_loss_and_grad(w, x, rewards, hp)
            fd = fd_vector_grad(lambda wv: baseline_loss_and_grad(wv, x, rewards, hp)[0], w)
            assert max_rel_err({"baseline": grads["baseline"]}, {"baseline": fd}) <= 1e-4

    def test_group_loss_is_mean_of_pointwise(self):
        hp = HyperParams()
        w = np.array([0.1, -0.2, 0.3])
        x = np.array([1.0, 2.0])
        rewards = np.array([-0.3, -0.7])
        b = baseline_predict(w, x)
        want = np.mean([baseline_loss(b, r, hp) for r in rewards])
        assert baseline_loss_and_grad(w, x, rewards, hp)[0] == pytest.approx(want, abs=1e-15)


class TestDpoLoss:
    def test_identity_policy_gives_ln2(self):
        rng = np.random.default_rng(14)
        params = random_params(rng)
        x = rng.normal(size=2)
        w, l = random_response(rng), random_response(rng)
        assert dpo_loss(params, params, x, w, l, HyperParams()) == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_winner_drives_loss_to_zero(self):
        ref = PolicyParams.zeros(2)
        x = np.zeros(2)
        w = Response(np.array([RATIONALE] * 8), 80)
        l = Response(np.array([RATIONALE] * 8), 20)
        def loss_at(bias):
            params = PolicyParams.zeros(2)
            params.answer_weights[0, w.answer] = bias
            return dpo_loss(params, ref, x, w, l, HyperParams())
        assert loss_at(400.0) < 1e-12
        assert loss_at(400.0) < loss_at(40.0) < loss_at(0.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(15)
        hp = HyperParams()
        for _ in range(50):
            params, ref = random_params(rng), random_params(rng)
            x = rng.normal(size=2)
            w, l = random_response(rng), random_response(rng)
            margin = (
                response_logprob(params, x, w) - response_logprob(ref, x, w)
                - response_logprob(params, x, l) + response_logprob(ref, x, l)
            )
            want = -math.log(1.0 / (1.0 + math.exp(-hp.dpo_beta * margin)))
            assert dpo_loss(params, ref, x, w, l, hp) == pytest.approx(want, abs=1e-12)


class TestGradientChecks:
    """Central finite differences, step 1e-5, against the trainer's
    gradients (the baseline's: the oracle's); 100 random fixtures per
    objective.  Every perturbation of one fixture is a row of one call of
    a row-wise objective from `oracle`."""

    N_FIXTURES = 100

    def test_grpo_gradients(self):
        rng = np.random.default_rng(20)
        hp = HyperParams()
        for k in range(self.N_FIXTURES):
            algorithm = "grpo" if k % 2 == 0 else "modified_grpo"
            assert policy_gradient_error(rng, algorithm, 2, 8, int(rng.integers(2, 5)), hp) <= 1e-4

    def test_remax_gradients(self):
        rng = np.random.default_rng(21)
        hp = HyperParams()
        for _ in range(self.N_FIXTURES):
            assert policy_gradient_error(rng, "remax", 2, 8, int(rng.integers(1, 5)), hp) <= 1e-4

    def test_dpo_gradients(self):
        rng = np.random.default_rng(22)
        hp = HyperParams()
        for _ in range(self.N_FIXTURES):
            assert dpo_gradient_error(rng, 2, 8, hp) <= 1e-4

    def test_baseline_gradients(self):
        rng = np.random.default_rng(23)
        hp = HyperParams()
        for _ in range(self.N_FIXTURES):
            w = rng.normal(size=4)
            x = rng.normal(size=3)
            rewards = rng.normal(size=int(rng.integers(1, 6)))
            _, grads = baseline_loss_and_grad(w, x, rewards, hp)
            fd = fd_vector_grad(lambda wv: baseline_loss_and_grad(wv, x, rewards, hp)[0], w)
            assert max_rel_err(grads, {"baseline": fd}) <= 1e-4


def adamw_oracle(w0, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """Textbook scalar AdamW recurrence, evaluated step by step."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w = w - lr * (mhat / (math.sqrt(vhat) + eps) + wd * w)
    return w


class TestAdamW:
    def test_zero_gradient_is_a_noop(self):
        params = {"w": np.array([1.0, -2.0])}
        state = OptimizerState.for_params(params)
        adamw_step(params, {"w": np.zeros(2)}, state, HyperParams(), lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_global_clip_halves_a_norm_two_gradient(self):
        hp = HyperParams()
        a = {"w": np.array([1.0])}
        b = {"w": np.array([1.0])}
        adamw_step(a, {"w": np.array([2.0])}, OptimizerState.for_params(a), hp, lr=0.1)
        adamw_step(b, {"w": np.array([1.0])}, OptimizerState.for_params(b), hp, lr=0.1)
        assert a["w"][0] == b["w"][0]

    def test_clip_norm_spans_parameter_groups(self):
        grads = {"a": np.full((2, 2), 3.0), "b": np.full(9, 4.0)}
        # sqrt(4*9 + 9*16) = sqrt(180)
        assert global_grad_norm(grads) == pytest.approx(math.sqrt(180.0), abs=1e-12)

    def test_two_step_hand_recurrence(self):
        hp = HyperParams()
        params = {"w": np.array([1.0])}
        state = OptimizerState.for_params(params)
        adamw_step(params, {"w": np.array([0.5])}, state, hp, lr=0.1)
        w1 = adamw_oracle(1.0, [0.5], lr=0.1)
        assert params["w"][0] == pytest.approx(w1, abs=1e-15)
        adamw_step(params, {"w": np.array([-0.25])}, state, hp, lr=0.1)
        w2 = adamw_oracle(1.0, [0.5, -0.25], lr=0.1)
        assert params["w"][0] == pytest.approx(w2, abs=1e-15)
        assert state.step == 2

    def test_weight_decay_path(self):
        hp = HyperParams(weight_decay=0.01)
        params = {"w": np.array([2.0])}
        adamw_step(params, {"w": np.array([0.5])}, OptimizerState.for_params(params), hp, lr=0.1)
        assert params["w"][0] == pytest.approx(adamw_oracle(2.0, [0.5], lr=0.1, wd=0.01), abs=1e-15)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(30)
        g = [{"w": rng.normal(size=5)} for _ in range(10)]

        def run():
            params = {"w": np.linspace(-1, 1, 5)}
            state = OptimizerState.for_params(params)
            for gi in g:
                adamw_step(params, {"w": gi["w"].copy()}, state, HyperParams(), lr=1e-3)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_row_step_matches_hand_recurrence(self):
        """The trainer's AdamW on a stack of rows, each with its own step
        count, against the textbook recurrence."""
        for wd in (0.0, 0.01):
            hp = HyperParams(weight_decay=wd)
            W = np.array([[1.0], [2.0]])
            m, v = np.zeros_like(W), np.zeros_like(W)
            adamw_rows(W, m, v, np.array([[0.5], [0.0]]), 0.1, hp, *bias_corrections(hp, np.array([[1], [1]])))
            adamw_rows(W[:1], m[:1], v[:1], np.array([[-0.25]]), 0.1, hp, *bias_corrections(hp, 2))
            assert W[0, 0] == pytest.approx(adamw_oracle(1.0, [0.5, -0.25], lr=0.1, wd=wd), abs=1e-15)
            assert W[1, 0] == pytest.approx(adamw_oracle(2.0, [0.0], lr=0.1, wd=wd), abs=1e-15)

    def test_clip_scale(self):
        assert np.array_equal(clip_scale(np.array([0.0, 0.5, 1.0, 4.0]), 1.0), [1.0, 1.0, 1.0, 0.25])

    def test_nonfinite_gradient_refuses_step(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.for_params(params)
        with pytest.raises(NumericAbort):
            adamw_step(params, {"w": np.array([np.nan])}, state, HyperParams(), lr=0.1)
        assert params["w"][0] == 1.0
        assert state.step == 0 and state.m["w"][0] == 0.0


class TestHyperParams:
    def test_actor_lr_resolution(self):
        hp = HyperParams()
        assert hp.resolve_actor_lr("grpo") == 1e-6
        assert hp.resolve_actor_lr("modified_grpo") == 1e-6
        assert hp.resolve_actor_lr("remax") == 2e-6
        assert HyperParams(actor_lr=5e-7).resolve_actor_lr("remax") == 5e-7
        with pytest.raises(ValidationError):
            hp.resolve_actor_lr("dpo")

    def test_zero_learning_rates_validate(self):
        HyperParams(actor_lr=0.0, kl_coeff=0.0, entropy_coeff=0.0, dpo_lr=0.0).validate()

    def test_invalid_values_rejected(self):
        for bad in (
            HyperParams(clip_eps=0.0),
            HyperParams(clip_eps=1.0),
            HyperParams(kl_coeff=-0.1),
            HyperParams(group_size=0),
            HyperParams(dpo_epochs=0),
            HyperParams(actor_lr=-1e-6),
        ):
            with pytest.raises(ValidationError):
                bad.validate()


class TestGroupRollout:
    def test_old_logprob_rows_sum_to_response_logprob(self):
        rng = np.random.default_rng(31)
        old = random_params(rng)
        x = rng.normal(size=2)
        responses = [random_response(rng) for _ in range(3)]
        group = GroupRollout.from_sampling("q", x, responses, np.zeros(3), np.zeros(3), old)
        assert group.old_logprobs.shape == (3, 9)
        for i, r in enumerate(responses):
            assert group.old_logprobs[i].sum() == pytest.approx(response_logprob(old, x, r), abs=1e-12)
