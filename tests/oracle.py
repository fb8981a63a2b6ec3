"""Per-object reference implementation of the training maths.

The package trains with the array functions of `forecast_rl.algorithms`.
This module keeps the same maths written one response at a time, the
way the paper states it: sample a `Response`, audit its tokens, score
it, form the group's advantages, take the objective's gradient through
a `GroupRollout` (a maximization target, negated before the step), and
step AdamW on a parameter dict.  The tests compare the package against
it (`oracle_train`, which stops a member by the windowed
`check_early_stop`, and `oracle_dpo`, both returning an `OracleLog` of
per-question floats), and it keeps its own unit tests.  Its maths raises
its own `NumericAbort` on a non-finite number; the package records one in
`TrainResult.numeric_error` instead.
The row-wise objective values are what the finite-difference checks
differentiate.  Two forecast statistics that no stage reports, Welch's t
and the extreme-bucket mass, serve the acceptance gate.  The module
closes with the trade backtest one `TradeRecord` at a time (`make_trade`,
`oracle_trades`, `oracle_gate`, `oracle_profits`, `oracle_bands`), the
reference for the columns of `forecast_rl.trading`, and with the run files
one record at a time (`oracle_record`, the refusal rule of one record;
`oracle_read_jsonl`, `oracle_read_csv`, `oracle_write_jsonl` and the three
loaders built on the readers), the reference for the column readers and
writer of `forecast_rl.files`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from forecast_rl.algorithms import HyperParams
from forecast_rl.data import _CSV_CASTS, _JSONL_CASTS, _ORACLE_CASTS, _REQUIRED_FIELDS, _from_rows
from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.evaluation import _FORECAST_CASTS, t_two_sided_p
from forecast_rl.policy import (
    ABSTAIN,
    ANSWER_VALUES,
    GIBBERISH,
    N_ANSWER,
    N_CONTENT,
    NONENGLISH,
    RATIONALE,
    PolicyParams,
)
from forecast_rl.reward import PenaltyConfig
from forecast_rl.rng import substream
from forecast_rl.trading import FEE, BandResult, tradeable
from forecast_rl.trainer import EarlyStopConfig


class NumericAbort(RuntimeError):
    """The per-object maths met a non-finite number."""


# Policy


@dataclass
class Response:
    """One sampled response: L content tokens then one answer token.

    token_logprobs holds the sampling-time log-probabilities (L+1
    values); it is None on hand-constructed responses.
    """

    content: np.ndarray  # (L,) int token ids
    answer: int
    schema_valid: bool = True
    token_logprobs: np.ndarray | None = None

    def parse_probability(self) -> float | None:
        """The forecast the response commits to, or None when abstaining."""
        if not self.schema_valid or self.answer == ABSTAIN:
            return None
        return float(ANSWER_VALUES[self.answer])


def augment(x: np.ndarray) -> np.ndarray:
    """Prepend the bias feature: x -> [1, x]."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate(([1.0], x))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - np.log(np.sum(np.exp(shifted)))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def head_distributions(params: PolicyParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Content and answer probability vectors at feature vector x."""
    xt = augment(x)
    return softmax(xt @ params.content_weights), softmax(xt @ params.answer_weights)


def head_log_distributions(params: PolicyParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xt = augment(x)
    return log_softmax(xt @ params.content_weights), log_softmax(xt @ params.answer_weights)


def _sample_index(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF sample: smallest k with cumsum(probs)[k] > u."""
    c = 0.0
    for k in range(probs.shape[0] - 1):
        c += probs[k]
        if u < c:
            return k
    return probs.shape[0] - 1


def sample_response(
    params: PolicyParams,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    uniforms: np.ndarray | None = None,
) -> Response:
    """Sample one response.

    Either an rng or a pre-drawn array of L+1 uniforms must be given; the
    uniforms path lets the oracle consume the trainer's randomness.
    """
    L = params.content_length
    if uniforms is None:
        if rng is None:
            raise ValidationError("sample_response needs an rng or pre-drawn uniforms")
        uniforms = rng.random(L + 1)
    if uniforms.shape != (L + 1,):
        raise ValidationError(f"expected {L + 1} uniforms, got shape {uniforms.shape}")
    log_c, log_a = head_log_distributions(params, x)
    if not (np.all(np.isfinite(log_c)) and np.all(np.isfinite(log_a))):
        raise NumericAbort("non-finite logits while sampling")
    content_p, answer_p = np.exp(log_c), np.exp(log_a)
    content = np.array([_sample_index(content_p, float(uniforms[t])) for t in range(L)], dtype=np.int64)
    answer = _sample_index(answer_p, float(uniforms[L]))
    logprobs = np.concatenate((log_c[content], [log_a[answer]]))
    return Response(content=content, answer=answer, token_logprobs=logprobs)


def response_logprob(params: PolicyParams, x: np.ndarray, response: Response) -> float:
    """Joint log-probability of a response: sum over all L+1 tokens."""
    log_c, log_a = head_log_distributions(params, x)
    return float(np.sum(log_c[response.content]) + log_a[response.answer])


def predict_probability(params: PolicyParams, x: np.ndarray) -> float | None:
    """Greedy forecast: the argmax answer token (ties to the lowest
    index), or None when the argmax is the abstain token."""
    _, answer_p = head_distributions(params, x)
    k = int(np.argmax(answer_p))
    if k == ABSTAIN:
        return None
    return float(ANSWER_VALUES[k])


def kl_divergence(params: PolicyParams, ref: PolicyParams, x: np.ndarray) -> float:
    """KL(pi_theta(.|x) || pi_ref(.|x)) over full responses.

    Tokens are independent given x, so the response-level KL is L times
    the content-head KL plus the answer-head KL.
    """
    L = params.content_length
    log_c, log_a = head_log_distributions(params, x)
    ref_log_c, ref_log_a = head_log_distributions(ref, x)
    kl_c = float(np.sum(np.exp(log_c) * (log_c - ref_log_c)))
    kl_a = float(np.sum(np.exp(log_a) * (log_a - ref_log_a)))
    return L * kl_c + kl_a


def entropy(params: PolicyParams, x: np.ndarray) -> float:
    """Entropy of the full response distribution at x."""
    L = params.content_length
    log_c, log_a = head_log_distributions(params, x)
    h_c = -float(np.sum(np.exp(log_c) * log_c))
    h_a = -float(np.sum(np.exp(log_a) * log_a))
    return L * h_c + h_a


def snapshot_reference(params: PolicyParams) -> PolicyParams:
    """Frozen copy for KL anchoring; arrays are marked read-only so a
    buggy update step cannot silently mutate the anchor."""
    ref = params.copy()
    ref.weights.flags.writeable = False
    return ref


# Rewards


@dataclass
class GuardrailAssessment:
    """Structural audit of one response's content tokens."""

    contains_non_english: bool
    contains_gibberish: bool
    explains_answer: bool
    non_english_proportion: float
    gibberish_proportion: float
    explanation_quality: float


@dataclass
class RewardBreakdown:
    """Components of one training reward r^i."""

    brier_reward: float
    lang_penalty: float
    gib_penalty: float
    miss_penalty: float
    exp_bonus: float
    zeroed: bool
    total: float


def brier_reward(p_hat: float, y: int) -> float:
    """Negated squared error, the strictly proper scoring rule."""
    if not (0.0 <= p_hat <= 1.0):
        raise ValidationError(f"p_hat must lie in [0, 1], got {p_hat}")
    if y not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {y}")
    return -((p_hat - y) ** 2)


def strict_reward(parsed: float | None, y: int) -> float:
    """Training reward: an absent forecast scores the maximum loss."""
    if parsed is None:
        return -1.0
    return brier_reward(parsed, y)


def assess_guardrails(r: Response) -> GuardrailAssessment:
    """Token-count audit of the content block."""
    content = np.asarray(r.content)
    L = content.shape[0]
    nep = float(np.count_nonzero(content == NONENGLISH)) / L
    gp = float(np.count_nonzero(content == GIBBERISH)) / L
    eq = float(np.count_nonzero(content == RATIONALE)) / L
    return GuardrailAssessment(
        contains_non_english=nep > 0,
        contains_gibberish=gp > 0,
        explains_answer=eq > 0,
        non_english_proportion=nep,
        gibberish_proportion=gp,
        explanation_quality=eq,
    )


def total_reward(
    parsed: float | None,
    y: int,
    g: GuardrailAssessment,
    cfg: PenaltyConfig,
    schema_valid: bool = True,
) -> RewardBreakdown:
    """Combine the strict Brier reward with guard-rail adjustments.

    A schema-invalid response zeroes the whole reward regardless of the
    other components.
    """
    if not schema_valid:
        return RewardBreakdown(
            brier_reward=0.0,
            lang_penalty=0.0,
            gib_penalty=0.0,
            miss_penalty=0.0,
            exp_bonus=0.0,
            zeroed=True,
            total=0.0,
        )
    R = strict_reward(parsed, y)
    lang_penalty = -cfg.lambda_lang * g.non_english_proportion
    gib_penalty = -cfg.lambda_gib * g.gibberish_proportion
    miss_penalty = 0.0 if g.explains_answer else -cfg.lambda_miss
    exp_bonus = cfg.lambda_exp * g.explanation_quality
    return RewardBreakdown(
        brier_reward=R,
        lang_penalty=lang_penalty,
        gib_penalty=gib_penalty,
        miss_penalty=miss_penalty,
        exp_bonus=exp_bonus,
        zeroed=False,
        total=R + lang_penalty + gib_penalty + miss_penalty + exp_bonus,
    )


def reward_for_response(
    r: Response,
    y: int,
    cfg: PenaltyConfig,
    guardrails_enabled: bool = True,
) -> RewardBreakdown:
    """Convenience wrapper: parse, assess, and combine in one call.

    With guard-rails disabled the penalties are computed with all-zero
    lambdas so the assessment fields still appear in run logs.
    """
    g = assess_guardrails(r)
    eff = cfg if guardrails_enabled else PenaltyConfig(0.0, 0.0, 0.0, 0.0, cfg.input_truncation_chars)
    return total_reward(r.parse_probability(), y, g, eff, schema_valid=r.schema_valid)


# Advantages, objectives and AdamW


@dataclass
class GroupRollout:
    """G responses to one question with everything an update step needs."""

    question_id: str
    features: np.ndarray
    responses: list[Response]
    rewards: np.ndarray  # (G,)
    advantages: np.ndarray  # (G,)
    old_logprobs: np.ndarray  # (G, L+1) per-token logprobs at sampling time

    @classmethod
    def from_sampling(
        cls,
        question_id: str,
        features: np.ndarray,
        responses: list[Response],
        rewards: np.ndarray,
        advantages: np.ndarray,
        old_params: PolicyParams,
    ) -> "GroupRollout":
        log_c, log_a = head_log_distributions(old_params, features)
        old = np.stack(
            [np.concatenate((log_c[r.content], [log_a[r.answer]])) for r in responses]
        )
        return cls(
            question_id=question_id,
            features=features,
            responses=responses,
            rewards=np.asarray(rewards, dtype=np.float64),
            advantages=np.asarray(advantages, dtype=np.float64),
            old_logprobs=old,
        )


def grpo_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-standardized advantages (r - mean) / std.

    The population std (1/G) is used.  A zero-spread group yields all-zero
    advantages rather than an error; constant-reward groups are routine
    early in training.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape[0] < 2:
        raise ValidationError("grpo_advantages needs a group of at least 2")
    mu = rewards.mean()
    sigma = rewards.std()
    if sigma == 0.0:
        return np.zeros_like(rewards)
    return (rewards - mu) / sigma


def modified_grpo_advantages(rewards: np.ndarray) -> np.ndarray:
    """Mean-centered advantages without the std division, preserving the
    raw magnitude of large errors."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape[0] < 2:
        raise ValidationError("modified_grpo_advantages needs a group of at least 2")
    return rewards - rewards.mean()


def remax_advantages(rewards: np.ndarray, baseline: float) -> np.ndarray:
    """Baseline-subtracted advantages r - b."""
    return np.asarray(rewards, dtype=np.float64) - baseline


def _kl_and_grad_z(log_p: np.ndarray, log_q: np.ndarray) -> tuple[float, np.ndarray]:
    """Head KL(p || q) and its gradient in the logits of p."""
    p = np.exp(log_p)
    ell = log_p - log_q
    kl = float(np.sum(p * ell))
    return kl, p * (ell - kl)


def _entropy_and_grad_z(log_p: np.ndarray) -> tuple[float, np.ndarray]:
    """Head entropy and its gradient in the logits."""
    p = np.exp(log_p)
    h = -float(np.sum(p * log_p))
    return h, -p * (log_p + h)


def _token_weight_grad_z(
    responses: list[Response],
    token_w: np.ndarray,
    p_c: np.ndarray,
    p_a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Logit gradients of sum_{i,t} w_{i,t} log p(token_{i,t}).

    Uses grad_z log p[k] = e_k - p, so the total is (weighted token
    counts) - (total weight) * p per head.
    """
    coeff_c = np.zeros(N_CONTENT)
    coeff_a = np.zeros(N_ANSWER)
    for i, r in enumerate(responses):
        np.add.at(coeff_c, r.content, token_w[i, :-1])
        coeff_a[r.answer] += token_w[i, -1]
    return coeff_c - coeff_c.sum() * p_c, coeff_a - coeff_a.sum() * p_a


def _regularizer_terms(
    params: PolicyParams, ref: PolicyParams, hp: HyperParams, x: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """-beta*KL + ent_coeff*H and its logit gradients, plus the current
    log-distributions (returned to avoid recomputing them)."""
    L = params.content_length
    log_c, log_a = head_log_distributions(params, x)
    ref_log_c, ref_log_a = head_log_distributions(ref, x)
    kl_c, dkl_c = _kl_and_grad_z(log_c, ref_log_c)
    kl_a, dkl_a = _kl_and_grad_z(log_a, ref_log_a)
    h_c, dh_c = _entropy_and_grad_z(log_c)
    h_a, dh_a = _entropy_and_grad_z(log_a)
    value = -hp.kl_coeff * (L * kl_c + kl_a) + hp.entropy_coeff * (L * h_c + h_a)
    gz_c = -hp.kl_coeff * L * dkl_c + hp.entropy_coeff * L * dh_c
    gz_a = -hp.kl_coeff * dkl_a + hp.entropy_coeff * dh_a
    return value, gz_c, gz_a, log_c, log_a


def grpo_objective_and_grad(
    group: GroupRollout,
    params: PolicyParams,
    ref: PolicyParams,
    hp: HyperParams,
) -> tuple[float, dict[str, np.ndarray]]:
    """Clipped surrogate objective with KL penalty and entropy bonus.

    Serves both GRPO and Modified GRPO; only the advantages in the group
    differ.  Gradient flows through a token exactly when the min selects
    the unclipped branch (ties included, so the on-policy ratio of 1
    always propagates).
    """
    G = len(group.responses)
    L = params.content_length
    n_tok = L + 1
    reg, gz_c, gz_a, log_c, log_a = _regularizer_terms(params, ref, hp, group.features)

    token_w = np.zeros((G, n_tok))
    surrogate = 0.0
    lo, hi = 1.0 - hp.clip_eps, 1.0 + hp.clip_eps
    for i, r in enumerate(group.responses):
        logp = np.concatenate((log_c[r.content], [log_a[r.answer]]))
        ratio = np.exp(logp - group.old_logprobs[i])
        if not np.all(np.isfinite(ratio)):
            raise NumericAbort(f"non-finite importance ratio on question {group.question_id!r}")
        adv = group.advantages[i]
        unclipped = ratio * adv
        clipped = np.clip(ratio, lo, hi) * adv
        surrogate += float(np.minimum(unclipped, clipped).sum()) / (G * n_tok)
        live = unclipped <= clipped
        token_w[i] = adv * ratio * live / (G * n_tok)

    p_c, p_a = np.exp(log_c), np.exp(log_a)
    sz_c, sz_a = _token_weight_grad_z(group.responses, token_w, p_c, p_a)
    xt = augment(group.features)
    return surrogate + reg, {
        "content": np.outer(xt, sz_c + gz_c),
        "answer": np.outer(xt, sz_a + gz_a),
    }


def grpo_objective(
    group: GroupRollout, params: PolicyParams, ref: PolicyParams, hp: HyperParams
) -> float:
    return grpo_objective_and_grad(group, params, ref, hp)[0]


def remax_objective_and_grad(
    group: GroupRollout,
    params: PolicyParams,
    ref: PolicyParams,
    hp: HyperParams,
) -> tuple[float, dict[str, np.ndarray]]:
    """REINFORCE-with-baseline objective with KL penalty and entropy bonus.

    No per-token mean and no ratio clipping: each response contributes
    its advantage times the sum of its token log-probabilities.
    """
    G = len(group.responses)
    L = params.content_length
    reg, gz_c, gz_a, log_c, log_a = _regularizer_terms(params, ref, hp, group.features)

    value = 0.0
    token_w = np.zeros((G, L + 1))
    for i, r in enumerate(group.responses):
        logp_sum = float(np.sum(log_c[r.content]) + log_a[r.answer])
        value += group.advantages[i] * logp_sum / G
        token_w[i] = group.advantages[i] / G

    p_c, p_a = np.exp(log_c), np.exp(log_a)
    sz_c, sz_a = _token_weight_grad_z(group.responses, token_w, p_c, p_a)
    xt = augment(group.features)
    return value + reg, {
        "content": np.outer(xt, sz_c + gz_c),
        "answer": np.outer(xt, sz_a + gz_a),
    }


def remax_objective(
    group: GroupRollout, params: PolicyParams, ref: PolicyParams, hp: HyperParams
) -> float:
    return remax_objective_and_grad(group, params, ref, hp)[0]


def baseline_predict(weights: np.ndarray, x: np.ndarray) -> float:
    """Linear value head on bias-augmented features."""
    return float(augment(x) @ weights)


def baseline_loss(predicted: float, reward: float, hp: HyperParams) -> float:
    """Scaled squared error of the value head against one reward."""
    return hp.baseline_loss_scale * (predicted - reward) ** 2


def baseline_loss_and_grad(
    weights: np.ndarray, x: np.ndarray, rewards: np.ndarray, hp: HyperParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean scaled squared error over the group and its weight gradient."""
    xt = augment(x)
    b = float(xt @ weights)
    resid = b - np.asarray(rewards, dtype=np.float64)
    loss = hp.baseline_loss_scale * float(np.mean(resid**2))
    grad = 2.0 * hp.baseline_loss_scale * float(resid.mean()) * xt
    return loss, {"baseline": grad}


def dpo_loss_and_grad(
    params: PolicyParams,
    ref: PolicyParams,
    x: np.ndarray,
    winner: Response,
    loser: Response,
    hp: HyperParams,
) -> tuple[float, dict[str, np.ndarray]]:
    """Preference loss -log sigmoid(beta * margin) and its gradient.

    The margin is the winner-minus-loser gap of policy-vs-reference
    log-probability differences, summed over all tokens.  Shared content
    probabilities cancel in the gradient, leaving token-count differences.
    """
    margin = (
        response_logprob(params, x, winner)
        - response_logprob(ref, x, winner)
        - response_logprob(params, x, loser)
        + response_logprob(ref, x, loser)
    )
    z = hp.dpo_beta * margin
    # -log sigmoid(z), computed stably; d/dz = -sigmoid(-z)
    loss = float(np.logaddexp(0.0, -z))
    coeff = -hp.dpo_beta / (1.0 + np.exp(z))

    counts_w = np.bincount(winner.content, minlength=N_CONTENT).astype(np.float64)
    counts_l = np.bincount(loser.content, minlength=N_CONTENT).astype(np.float64)
    ans_diff = np.zeros(N_ANSWER)
    ans_diff[winner.answer] += 1.0
    ans_diff[loser.answer] -= 1.0
    xt = augment(x)
    return loss, {
        "content": coeff * np.outer(xt, counts_w - counts_l),
        "answer": coeff * np.outer(xt, ans_diff),
    }


def dpo_loss(
    params: PolicyParams,
    ref: PolicyParams,
    x: np.ndarray,
    winner: Response,
    loser: Response,
    hp: HyperParams,
) -> float:
    return dpo_loss_and_grad(params, ref, x, winner, loser, hp)[0]


@dataclass
class OptimizerState:
    """AdamW moment accumulators, keyed like the parameter dict."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
        )


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    hp: HyperParams,
    lr: float,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One AdamW minimization step, mutating params and state in place.

    The global gradient norm across all entries is clipped to
    grad_clip_norm before the moment updates.  A non-finite gradient
    refuses the step.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericAbort(f"non-finite gradient for parameter {name!r}")
    norm = global_grad_norm(grads)
    if not np.isfinite(norm):
        raise NumericAbort("gradient norm overflowed")
    scale = hp.grad_clip_norm / norm if norm > hp.grad_clip_norm else 1.0

    state.step += 1
    t = state.step
    bc1 = 1.0 - hp.adam_beta1**t
    bc2 = 1.0 - hp.adam_beta2**t
    for name, p in params.items():
        g = grads[name] * scale
        m = state.m[name]
        v = state.v[name]
        m *= hp.adam_beta1
        m += (1.0 - hp.adam_beta1) * g
        v *= hp.adam_beta2
        v += (1.0 - hp.adam_beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + hp.adam_eps)
        if hp.weight_decay > 0.0:
            update = update + hp.weight_decay * p
        p -= lr * update
    return params, state


# Training loops


@dataclass
class OracleLog:
    """The per-question floats of a reference run, and its early stop."""

    question_ids: list[str]
    parsed: np.ndarray  # NaN where the first response abstained
    rewards: np.ndarray  # group-mean total reward
    gibberish: np.ndarray  # group-mean proportions
    non_english: np.ndarray
    explanation: np.ndarray
    stop_reason: str | None = None


def check_early_stop(
    parsed_window: np.ndarray, gibberish_window: np.ndarray, cfg: EarlyStopConfig
) -> tuple[bool, str | None]:
    """Collapse test over one full window of per-question log values."""
    gib_mean = float(np.mean(gibberish_window))
    if gib_mean > cfg.gibberish_threshold:
        return True, "gibberish"
    present = parsed_window[~np.isnan(parsed_window)]
    if present.size:
        extreme = float(np.mean((present <= 0.10) | (present >= 0.90)))
        if extreme > cfg.extreme_mass_threshold:
            return True, "extreme_mass"
    return False, None


def oracle_train(stream, cfg, hp, penalties=None, member=0, *, seed):
    """Reference online loop for member `member`, built from per-response
    objects: sample each response, audit and score it, form the
    advantages, build a GroupRollout, take the objective's gradient and
    one AdamW step."""
    pcfg = penalties if penalties is not None else PenaltyConfig()
    n, d = len(stream), stream.feature_dim
    G, L = hp.group_size, cfg.content_length
    params = PolicyParams.zeros(d, L)
    baseline = np.zeros(d + 1)
    actor_state = OptimizerState.for_params(
        {"content": params.content_weights, "answer": params.answer_weights}
    )
    base_state = OptimizerState.for_params({"baseline": baseline})
    actor_lr = hp.resolve_actor_lr(cfg.algorithm)
    X, Y, ids = stream.features, stream.outcome, stream.ids
    U = substream(seed, "sampling", member).random((n, G, L + 1))
    logs = {k: np.zeros(n) for k in ("parsed", "reward", "gib", "nep", "expq")}
    es = cfg.early_stop
    ref = snapshot_reference(params)
    for i in range(n):
        if i > 0 and i % cfg.outer_iteration_len == 0:
            ref = snapshot_reference(params)
        x, y = X[i], int(Y[i])
        responses = [sample_response(params, x, uniforms=U[i, g]) for g in range(G)]
        assessments = [assess_guardrails(r) for r in responses]
        rewards = np.array([
            total_reward(r.parse_probability(), y, a, pcfg, schema_valid=r.schema_valid).total
            for r, a in zip(responses, assessments)
        ])
        if cfg.algorithm == "grpo":
            advs = grpo_advantages(rewards)
        elif cfg.algorithm == "modified_grpo":
            advs = modified_grpo_advantages(rewards)
        else:
            advs = remax_advantages(rewards, baseline_predict(baseline, x))
        group = GroupRollout.from_sampling(ids[i], x, responses, rewards, advs, params)
        objective = remax_objective_and_grad if cfg.algorithm == "remax" else grpo_objective_and_grad
        _, grads = objective(group, params, ref, hp)
        adamw_step(
            {"content": params.content_weights, "answer": params.answer_weights},
            {name: -g for name, g in grads.items()},
            actor_state, hp, actor_lr,
        )
        if cfg.algorithm == "remax":
            _, bgrads = baseline_loss_and_grad(baseline, x, rewards, hp)
            adamw_step({"baseline": baseline}, bgrads, base_state, hp, hp.baseline_lr)

        p0 = responses[0].parse_probability()
        logs["parsed"][i] = np.nan if p0 is None else p0
        logs["reward"][i] = rewards.mean()
        logs["gib"][i] = np.mean([a.gibberish_proportion for a in assessments])
        logs["nep"][i] = np.mean([a.non_english_proportion for a in assessments])
        logs["expq"][i] = np.mean([a.explanation_quality for a in assessments])
        if es.enabled and i + 1 >= es.window:
            lo = i + 1 - es.window
            hit, reason = check_early_stop(logs["parsed"][lo : i + 1], logs["gib"][lo : i + 1], es)
            if hit:
                log = OracleLog(ids[: i + 1], *(v[: i + 1] for v in logs.values()), reason)
                return params, baseline, log
    return params, baseline, OracleLog(ids, *logs.values())


def oracle_dpo(stream, cfg, hp, penalties=None, member=0, *, seed):
    """Reference DPO for member `member`: sample each question's pair from the
    frozen initial policy, score both responses, keep the pairs whose
    totals differ, then step AdamW on the minibatch mean of
    `dpo_loss_and_grad` for dpo_epochs shuffled epochs."""
    pcfg = penalties if penalties is not None else PenaltyConfig()
    if not cfg.guardrails_enabled:
        pcfg = PenaltyConfig(0.0, 0.0, 0.0, 0.0)
    n, d, L = len(stream), stream.feature_dim, cfg.content_length
    params = PolicyParams.zeros(d, L)
    ref = snapshot_reference(params)
    rng = substream(seed, "dpo", member)
    U = rng.random((n, 2, L + 1))
    X, Y, ids = stream.features, stream.outcome, stream.ids
    logs = {k: np.zeros(n) for k in ("parsed", "reward", "gib", "nep", "expq")}
    pairs = []
    for i in range(n):
        pair = [sample_response(ref, X[i], uniforms=U[i, k]) for k in range(2)]
        assessments = [assess_guardrails(r) for r in pair]
        totals = [total_reward(r.parse_probability(), int(Y[i]), a, pcfg).total for r, a in zip(pair, assessments)]
        p0 = pair[0].parse_probability()
        logs["parsed"][i] = np.nan if p0 is None else p0
        logs["reward"][i] = np.mean(totals)
        logs["gib"][i] = np.mean([a.gibberish_proportion for a in assessments])
        logs["nep"][i] = np.mean([a.non_english_proportion for a in assessments])
        logs["expq"][i] = np.mean([a.explanation_quality for a in assessments])
        if totals[0] != totals[1]:
            pairs.append((X[i], *(pair if totals[0] > totals[1] else pair[::-1])))

    weights = {"content": params.content_weights, "answer": params.answer_weights}
    state = OptimizerState.for_params(weights)
    for _ in range(hp.dpo_epochs):
        perm = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), hp.dpo_batch):
            sel = perm[lo : lo + hp.dpo_batch]
            grads = [dpo_loss_and_grad(params, ref, *pairs[j], hp)[1] for j in sel]
            adamw_step(weights, {k: sum(g[k] for g in grads) / len(sel) for k in weights}, state, hp, hp.dpo_lr)
    return params, pairs, OracleLog(ids, *logs.values())


# Row-wise objective values for finite differences


def _head_log_rows(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Log-softmax of augment(x) @ W[r] for each row of a weight stack."""
    Z = np.einsum("i,rij->rj", augment(x), W)
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def policy_objective_rows(w_c, w_a, ref: PolicyParams, x, responses: list[Response], token_w, hp: HyperParams):
    """The on-policy online objective, one value per row of the weight
    stacks w_c (R, d+1, N_CONTENT) and w_a (R, d+1, N_ANSWER):

        sum_i token_w[i] log pi(response_i | x) - kl_coeff KL(pi || ref) + entropy_coeff H(pi)

    where every token of response i carries the weight token_w[i].  With
    every importance ratio at 1 this has the gradient of the GRPO
    surrogate (token_w = A / (G (L+1))) and of the ReMax objective
    (token_w = A / G).
    """
    L = ref.content_length
    log_c, log_a = _head_log_rows(x, w_c), _head_log_rows(x, w_a)
    ref_c, ref_a = head_log_distributions(ref, x)
    value = sum(tw * (log_c[:, r.content].sum(axis=1) + log_a[:, r.answer]) for tw, r in zip(token_w, responses))
    p_c, p_a = np.exp(log_c), np.exp(log_a)
    kl = L * (p_c * (log_c - ref_c)).sum(axis=1) + (p_a * (log_a - ref_a)).sum(axis=1)
    h = -L * (p_c * log_c).sum(axis=1) - (p_a * log_a).sum(axis=1)
    return value - hp.kl_coeff * kl + hp.entropy_coeff * h


def dpo_loss_rows(w_c, w_a, ref: PolicyParams, pairs, hp: HyperParams):
    """The mean DPO loss -log sigmoid(beta (margin - reference margin))
    over (x, winner, loser) pairs, one value per row of the weight stacks."""
    total = 0.0
    for x, winner, loser in pairs:
        log_c, log_a = _head_log_rows(x, w_c), _head_log_rows(x, w_a)

        def logp(r):
            return log_c[:, r.content].sum(axis=1) + log_a[:, r.answer]

        ref_margin = response_logprob(ref, x, winner) - response_logprob(ref, x, loser)
        total = total + np.logaddexp(0.0, -hp.dpo_beta * (logp(winner) - logp(loser) - ref_margin))
    return total / len(pairs)


# Forecast statistics of the acceptance gate


def welch_statistic(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Welch's two-sample t statistic with Satterthwaite degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx = x.var(ddof=1) / x.size
    sy = y.var(ddof=1) / y.size
    t = (x.mean() - y.mean()) / np.sqrt(sx + sy)
    df = (sx + sy) ** 2 / (sx**2 / (x.size - 1) + sy**2 / (y.size - 1))
    return float(t), float(df)


def extreme_bucket_mass(probabilities) -> float:
    """Fraction of present forecasts (None = absent) at or below 10% or at
    or above 90%.  Boundaries are inclusive; absent forecasts are excluded
    from both numerator and denominator, and an all-absent set scores 0."""
    present = np.array([p for p in probabilities if p is not None])
    if present.size == 0:
        return 0.0
    return float(np.mean((present <= 0.10) | (present >= 0.90)))


# Trading


@dataclass
class TradeRecord:
    question_id: str
    side: str  # long | short
    market_price: float
    entry_cost: float
    belief_value: float
    expected_edge: float
    realized_value: int
    profit: float


def make_trade(p: float, m: float, y: int, rng: np.random.Generator) -> TradeRecord:
    """One hypothetical share: long above the price, short below, seeded
    coin flip on an exact tie."""
    if not (0.0 < m < 1.0):
        raise ValidationError(f"market price must lie strictly in (0, 1), got {m}")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"probability must lie in [0, 1], got {p}")
    if y not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {y}")
    if p > m:
        go_long = True
    elif p < m:
        go_long = False
    else:
        go_long = rng.random() < 0.5
    if go_long:
        side, cost, belief, realized = "long", m + FEE, p, y
    else:
        side, cost, belief, realized = "short", (1.0 - m) + FEE, 1.0 - p, 1 - y
    return TradeRecord("", side, m, cost, belief, belief - cost, realized, realized - cost)


def oracle_trades(probs, dataset, rng: np.random.Generator) -> list[TradeRecord]:
    """One trade per tradeable row with a present forecast, in dataset
    order (NaN = absent)."""
    trades = []
    for i, ok in enumerate(tradeable(dataset).tolist()):
        p = float(probs[i])
        if ok and not np.isnan(p):
            t = make_trade(p, float(dataset.market_price[i]), int(dataset.outcome[i]), rng)
            t.question_id = dataset.ids[i]
            trades.append(t)
    return trades


def oracle_gate(trades: list[TradeRecord], threshold: float | None) -> list[TradeRecord]:
    """The trades whose edge exceeds `threshold` (all when None), in
    descending edge order, ties by question id."""
    kept = [t for t in trades if threshold is None or t.expected_edge > threshold]
    return sorted(kept, key=lambda t: (-t.expected_edge, t.question_id))


def oracle_profits(kept_per_model: list[list[TradeRecord]], dataset) -> np.ndarray:
    """Profit matrix (tradeable questions x models), 0 where untraded."""
    rows = [qid for qid, ok in zip(dataset.ids, tradeable(dataset).tolist()) if ok]
    row_of = {qid: i for i, qid in enumerate(rows)}
    values = np.zeros((len(rows), len(kept_per_model)))
    for j, kept in enumerate(kept_per_model):
        for t in kept:
            values[row_of[t.question_id], j] = t.profit
    return values


def oracle_bands(trades: list[TradeRecord], bands) -> list[BandResult]:
    """Excess win rate over the pre-fee price per market-confidence band,
    each band's trades summed in the list's order."""
    out = []
    for b, (lo, hi) in enumerate(bands):
        sel = []
        for t in trades:
            conf = max(t.market_price, 1.0 - t.market_price)
            if (lo <= conf <= hi) if b == len(bands) - 1 else (lo <= conf < hi):
                sel.append(t.realized_value - t.entry_cost + FEE)
        vals = np.array(sel)
        if not sel:
            out.append(BandResult(lo, hi, 0, None, None, None))
        elif vals.size < 2 or float(vals.std(ddof=1)) == 0.0:
            out.append(BandResult(lo, hi, vals.size, float(vals.mean() * 100.0), None, None))
        else:
            t_stat = float(vals.mean() / (vals.std(ddof=1) / np.sqrt(vals.size)))
            p = t_two_sided_p(t_stat, vals.size - 1)
            out.append(BandResult(lo, hi, vals.size, float(vals.mean() * 100.0), t_stat, p))
    return out


def oracle_write_jsonl(path, records) -> None:
    """One `json.dumps(record, sort_keys=True)` line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def oracle_record(record, casts: dict, required=(), closed=False, unique=None, seen=None) -> tuple:
    """A record's fields in `casts` order, or a DataFormatError with the
    first check it fails, in this order: the record is an object; it has
    every `required` key; if `closed`, it has no other key; each value, in
    `casts` order, casts (None where the record lacks the field); with
    `unique`, its value of that field is not in `seen`, which it joins."""
    if not isinstance(record, dict):
        raise DataFormatError("record is not an object")
    for name in required:
        if name not in record:
            raise DataFormatError(f"missing field {name!r}")
    unknown = [name for name in record if name not in casts]
    if closed and unknown:
        raise DataFormatError(f"unknown fields {sorted(unknown, key=str)}")
    row = {}
    for name, cast in casts.items():
        try:
            row[name] = cast(record.get(name))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"field {name!r}: {exc}") from exc
    if unique is not None:
        if row[unique] in seen:
            raise DataFormatError(f"duplicate {unique} {row[unique]!r}")
        seen.add(row[unique])
    return tuple(row.values())


def _oracle_read(path, records, parse, newline=None):
    """Yield parse(record) for each (line number, record) that records(fh)
    yields; errors name the file and the line."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            for line_no, record in records(fh):
                try:
                    yield parse(record)
                except ValidationError as exc:
                    raise DataFormatError(str(exc), line=line_no, path=path) from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"invalid CSV in {path}: {exc}") from exc


def oracle_read_jsonl(path, parse):
    """Yield parse(record) for each non-blank line, decoded by `json.loads`
    one line at a time; errors name the file and the line."""

    def records(fh):
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except ValueError as exc:
                raise DataFormatError(f"invalid JSON in {path}: {exc}", line=line_no) from exc

    return _oracle_read(path, records, parse)


def oracle_read_csv(path, parse):
    """Yield parse(record) for each row under the header row, one row at a
    time, a short row's missing cells read as ""; errors name the line the
    record ends on."""

    def records(fh):
        reader = csv.DictReader(fh, restval="")
        for record in reader:
            yield reader.line_num, record

    return _oracle_read(path, records, parse, newline="")


def oracle_load_questions(path, split: str = "train"):
    if str(path).lower().endswith(".csv"):
        read, casts = oracle_read_csv, _CSV_CASTS
    else:
        read, casts = oracle_read_jsonl, _JSONL_CASTS
    rows = read(path, lambda record: oracle_record(record, casts, _REQUIRED_FIELDS, closed=True))
    return _from_rows(list(rows), split)


def oracle_load_oracle(path) -> dict[str, float]:
    seen: set[str] = set()
    return dict(oracle_read_jsonl(path, lambda record: oracle_record(record, _ORACLE_CASTS, _ORACLE_CASTS, False,
                                                                        "id", seen)))


def oracle_load_forecasts(paths, ids: list[str]) -> tuple[list[str], np.ndarray]:
    """`forecast_rl.evaluation.load_forecasts`, one record at a time."""
    row = {qid: i for i, qid in enumerate(ids)}
    columns = {}
    for path in map(Path, paths):
        if not path.exists():
            raise ValidationError(f"forecast file {path} not found")
        if path.stem in columns:
            raise ValidationError(f"duplicate model name {path.stem!r} among forecast files")
        seen: set[str] = set()

        def parse(record):
            return oracle_record(record, _FORECAST_CASTS, _FORECAST_CASTS, False, "question_id", seen)

        col, got, unknown = np.full(len(ids), math.nan), np.zeros(len(ids), dtype=bool), []
        for qid, p in oracle_read_jsonl(path, parse):
            if qid in row:
                col[row[qid]] = math.nan if p is None else p
                got[row[qid]] = True
            else:
                unknown.append(qid)
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
