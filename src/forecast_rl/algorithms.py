"""The training maths: pure array functions over a leading row axis.

In the online step a row is one ensemble member; in DPO a row is one
question, or one preference pair.  Each function keeps a fixed
summation order, so a row's result never depends on which other rows
share the call.  Gradients are returned for minimization (the objective
negated), ready for AdamW, and are exact for the linear-softmax policy.

Both training loops hold the two heads in one joint vocabulary and one
(d+1, N_CONTENT + N_ANSWER) weight stack (see HEADS), and score responses
from `reward_table`.  The online step runs once per question, so its
functions call `np.add.reduce` where `.sum` would add a Python-level
wrapper around the same reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from forecast_rl.errors import ValidationError
from forecast_rl.policy import ABSTAIN, N_ANSWER, N_CONTENT
from forecast_rl.reward import PenaltyConfig

ALGORITHMS = ("grpo", "modified_grpo", "remax", "dpo")


@dataclass
class HyperParams:
    """Optimization knobs.

    `actor_lr=None` resolves per algorithm: 1e-6 for the GRPO variants
    and 2e-6 for ReMax (double the GRPO rate).
    """

    actor_lr: float | None = None
    kl_coeff: float = 0.005
    clip_eps: float = 0.20
    group_size: int = 4
    entropy_coeff: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    grad_clip_norm: float = 1.0
    baseline_lr: float = 1e-6
    baseline_loss_scale: float = 0.5
    dpo_beta: float = 0.1
    dpo_lr: float = 1e-5
    dpo_epochs: int = 4
    dpo_batch: int = 128

    GRPO_ACTOR_LR = 1e-6
    REMAX_ACTOR_LR = 2e-6

    def resolve_actor_lr(self, algorithm: str) -> float:
        if self.actor_lr is not None:
            return self.actor_lr
        if algorithm in ("grpo", "modified_grpo"):
            return self.GRPO_ACTOR_LR
        if algorithm == "remax":
            return self.REMAX_ACTOR_LR
        raise ValidationError(f"no actor learning rate for algorithm {algorithm!r}")

    def validate(self) -> None:
        positive = ("group_size", "adam_eps", "grad_clip_norm", "dpo_beta", "dpo_epochs", "dpo_batch")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        # Learning rates and bonus coefficients may legitimately be zero.
        nonneg = ("kl_coeff", "entropy_coeff", "weight_decay",
                  "baseline_lr", "baseline_loss_scale", "dpo_lr")
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.actor_lr is not None and self.actor_lr < 0:
            raise ValidationError("actor_lr must be >= 0")
        for name in ("clip_eps", "adam_beta1", "adam_beta2"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValidationError(f"{name} must lie in (0, 1)")


# The joint vocabulary of the two heads: N_CONTENT content columns, then
# N_ANSWER answer columns.  HEADS slices each head out of a logit row,
# HEAD_STARTS gives their first columns and HEAD_OF the head of every column.
HEADS = (slice(0, N_CONTENT), slice(N_CONTENT, N_CONTENT + N_ANSWER))
HEAD_STARTS = np.array([0, N_CONTENT])
HEAD_OF = np.array([0] * N_CONTENT + [1] * N_ANSWER)


def log_softmax_rows(Z: np.ndarray) -> np.ndarray:
    shifted = Z - np.maximum.reduce(Z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def two_head_log_softmax(Z: np.ndarray) -> np.ndarray:
    """Each head's log-softmax of joint logits (last axis N_CONTENT + N_ANSWER).

    Bit-identical to `log_softmax_rows` of each head's columns: each head
    is shifted by its own maximum and its exponentials are summed over its
    own columns, while the subtractions, `exp` and `log` run over both
    heads at once.
    """
    shifted = Z - np.maximum.reduceat(Z, HEAD_STARTS, axis=-1)[..., HEAD_OF]
    e = np.exp(shifted)
    sums = np.empty(Z.shape[:-1] + (2,))
    for k, head in enumerate(HEADS):
        np.add.reduce(e[..., head], axis=-1, out=sums[..., k])
    return shifted - np.log(sums)[..., HEAD_OF]


def head_logits(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Joint logits X @ W of rows X (..., d+1) under one (d+1, N_CONTENT +
    N_ANSWER) weight stack, as one product per head on a contiguous copy of
    its columns: on OpenBLAS, one product over both heads, or a single row
    times a column view, can round differently in the last bits from the
    product with each head's own array."""
    return np.concatenate([X @ np.ascontiguousarray(W[:, head]) for head in HEADS], axis=-1)


def policy_log_probs(xt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Joint log-probabilities (R, N_CONTENT + N_ANSWER) of xt under each
    row r of a (R, d+1, N_CONTENT + N_ANSWER) weight stack, with the
    product xt @ W[r] summed over features in order."""
    return two_head_log_softmax(np.add.reduce(xt[:, None] * W, axis=1))


def block_log_probs(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """`policy_log_probs` of each of the B questions of X (B, d+1) at
    once, as a (B, R, N_CONTENT + N_ANSWER) array.  The features are
    summed in the same order, so every question's rows are bit-identical
    to its own `policy_log_probs`."""
    Z = X[:, 0, None, None] * W[None, :, 0]
    for f in range(1, X.shape[1]):
        Z += X[:, f, None, None] * W[None, :, f]
    return two_head_log_softmax(Z)


def sample_tokens(p_c: np.ndarray, p_a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF sampling of G responses per row from the content head
    `p_c` (R, N_CONTENT) and the answer head `p_a` (R, N_ANSWER).

    `u` (R, G, L+1) holds each response's uniforms, the last one for the
    answer.  A token is the number of leading cumulative sums (all but the
    last) that do not exceed its uniform, i.e. the smallest k with
    u < cumsum(p)[k].  Returns content (R, G, L) and answers (R, G).
    """
    L = u.shape[2] - 1
    content = np.add.reduce(u[:, :, :L, None] >= p_c.cumsum(axis=1)[:, None, None, :-1], axis=-1)
    answers = np.add.reduce(u[:, :, L, None] >= p_a.cumsum(axis=1)[:, None, :-1], axis=-1)
    return content, answers


def count_rewards(answers, y, gib_ct, nep_ct, L: int, pen: PenaltyConfig) -> np.ndarray:
    """Training reward of each response from its answer token and its
    gibberish and non-English token counts out of L content tokens.

    The strict Brier reward (an abstention scores -1) plus the guard-rail
    terms of `pen`: -lambda_lang and -lambda_gib times the non-English and
    gibberish proportions, -lambda_miss when no content token is
    rationale, and lambda_exp times the rationale proportion.  `y` is the
    outcome; all arguments broadcast.
    """
    rat_ct = L - gib_ct - nep_ct
    strict = np.where(answers == ABSTAIN, -1.0, -((answers / 100.0 - y) ** 2))
    miss = np.where(rat_ct > 0, 0.0, -pen.lambda_miss)
    rationale = rat_ct / L
    return strict + (-pen.lambda_lang * (nep_ct / L)) + (-pen.lambda_gib * (gib_ct / L)) + miss + pen.lambda_exp * rationale


def reward_table(L: int, pen: PenaltyConfig) -> np.ndarray:
    """`count_rewards` on every (outcome, answer, gibberish count,
    non-English count) cell, as a (2, N_ANSWER, L+1, L+1) lookup table.
    Cells whose counts sum past L are never looked up."""
    y, answers, gib_ct, nep_ct = np.ix_(np.array([0.0, 1.0]), np.arange(N_ANSWER), np.arange(L + 1), np.arange(L + 1))
    return count_rewards(answers, y, gib_ct, nep_ct, L, pen)


def advantages(algo: str, rewards: np.ndarray, mu: np.ndarray, baseline: np.ndarray | None) -> np.ndarray:
    """Per-response advantages of a (R, G) reward group with row means `mu`.

    GRPO standardizes by the population std (a zero-spread group gets all
    zeros), Modified GRPO only centers, and ReMax subtracts the row's
    learned baseline value.
    """
    if algo == "grpo":
        dev = rewards - mu[:, None]
        sigma = np.sqrt(np.add.reduce(dev**2, axis=1) / rewards.shape[1])[:, None]
        return np.divide(dev, sigma, out=np.zeros_like(dev), where=sigma != 0.0)
    if algo == "modified_grpo":
        return rewards - mu[:, None]
    return rewards - baseline[:, None]


def logit_gradient(
    p: np.ndarray, log_p: np.ndarray, ref_log_p: np.ndarray, tokens: np.ndarray, w: np.ndarray, hp: HyperParams
) -> np.ndarray:
    """Joint logit gradient, for minimization, of the objective

        sum_{g,t} w[g] log p(tokens[g, t]) - kl_coeff sum_h T_h KL(p_h || ref_h) + entropy_coeff sum_h T_h H(p_h)

    per row, over both heads h: the content head, from which each
    response draws T = L tokens, and the answer head (T = 1).  `p`,
    `log_p` and `ref_log_p` are (R, N_CONTENT + N_ANSWER) joint rows,
    `tokens` (R, G, L+1) holds each response's L content tokens and then
    its answer token offset by N_CONTENT, and `w` (R, G) the per-token
    weight of each response.  Uses grad_z log p[k] = e_k - p within each
    head.  The policy is on-policy, so every importance ratio is exactly
    1 and no token is clipped.
    """
    R, V = log_p.shape
    L = tokens.shape[2] - 1
    # kl_coeff T and entropy_coeff T in each column's head
    klT, entT = np.array([[hp.kl_coeff * L, hp.kl_coeff], [hp.entropy_coeff * L, hp.entropy_coeff]])[:, HEAD_OF]
    index = (np.arange(R) * V)[:, None, None] + tokens
    counts = np.bincount(index.ravel(), w.repeat(L + 1), R * V).reshape(R, V)
    ell = log_p - ref_log_p
    # Per row and head: the summed token weight (w T).sum, KL(p || ref) and
    # sum p log p = -H(p), each summed over that head's columns alone.
    sums = np.empty((3, R, 2))
    np.add.reduce(w * L, axis=1, out=sums[0, :, 0])
    np.add.reduce(w, axis=1, out=sums[0, :, 1])
    for q, a in ((1, p * ell), (2, p * log_p)):
        for k, head in enumerate(HEADS):
            np.add.reduce(a[:, head], axis=1, out=sums[q, :, k])
    wT, kl, neg_h = sums[..., HEAD_OF]
    return -(
        counts - wT * p
        - klT * (p * (ell - kl))
        + entT * (-p * (log_p - neg_h))
    )


def clip_scale(norm: np.ndarray, clip: float) -> np.ndarray:
    """Global-norm clipping factor: exactly 1 unless norm > clip."""
    return clip / np.maximum(norm, clip)


def bias_corrections(hp: HyperParams, t) -> tuple:
    """AdamW's bias corrections 1 - beta^t at step counts `t`."""
    return 1.0 - hp.adam_beta1**t, 1.0 - hp.adam_beta2**t


def adamw_rows(W, m, v, g, lr: float, hp: HyperParams, bc1, bc2) -> None:
    """One AdamW step in place on a stack of weights, with the bias
    corrections `bias_corrections` gives for each row's step count
    (broadcast against W)."""
    m *= hp.adam_beta1
    m += (1.0 - hp.adam_beta1) * g
    v *= hp.adam_beta2
    v += (1.0 - hp.adam_beta2) * g * g
    upd = (m / bc1) / (np.sqrt(v / bc2) + hp.adam_eps)
    if hp.weight_decay > 0.0:
        upd += hp.weight_decay * W
    W -= lr * upd


def dpo_margins(log_p: np.ndarray, cdiff: np.ndarray, answers: np.ndarray) -> np.ndarray:
    """Winner-minus-loser log-probability m of B preference pairs under
    joint log-probabilities `log_p` (B, N_CONTENT + N_ANSWER).

    `cdiff` (B, N_CONTENT) holds the winner-minus-loser content token
    counts and `answers` (B, 2) the winner's and loser's answer tokens.
    Shared content tokens cancel in m, leaving the count differences.
    """
    rows = np.arange(len(log_p))
    return (
        np.add.reduce(cdiff * log_p[:, HEADS[0]], axis=1)
        + log_p[rows, N_CONTENT + answers[:, 0]] - log_p[rows, N_CONTENT + answers[:, 1]]
    )


def dpo_gradient(
    xb: np.ndarray, W: np.ndarray, cdiff: np.ndarray, answers: np.ndarray, ref_margin: np.ndarray, beta: float
) -> np.ndarray:
    """Joint weight gradient (d+1, N_CONTENT + N_ANSWER) of the mean DPO
    loss -log sigmoid(beta (m - m_ref)) over a minibatch of B preference
    pairs, under the weight stack `W`.

    `xb` (B, d+1) holds the bias-augmented features, `cdiff` and `answers`
    the pairs as `dpo_margins` takes them, and `ref_margin` the reference
    policy's margin m_ref.
    """
    B = len(xb)
    z = beta * (dpo_margins(two_head_log_softmax(head_logits(xb, W)), cdiff, answers) - ref_margin)
    coeff = -beta / (1.0 + np.exp(z))  # d loss / d margin per pair
    dm = np.zeros((B, N_CONTENT + N_ANSWER))  # d margin / d logits per pair
    dm[:, HEADS[0]] = cdiff
    rows = np.arange(B)
    dm[rows, N_CONTENT + answers[:, 0]] += 1.0
    dm[rows, N_CONTENT + answers[:, 1]] -= 1.0
    return xb.T @ (coeff[:, None] * dm) / B
