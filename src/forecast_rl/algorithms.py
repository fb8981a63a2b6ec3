"""The training maths: pure array functions over a leading row axis.

In the online step a row is one ensemble member; when DPO scores its
preference pairs a row is one question.  Each function keeps a fixed
summation order, so a row's result never depends on which other rows
share the call.  Gradients are returned for minimization (the objective
negated), ready for AdamW, and are exact for the linear-softmax policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from forecast_rl.errors import ValidationError
from forecast_rl.policy import ABSTAIN, GIBBERISH, N_ANSWER, NONENGLISH
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
        positive = ("group_size", "adam_beta1", "adam_beta2", "adam_eps",
                    "grad_clip_norm", "dpo_beta", "dpo_epochs", "dpo_batch")
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
        if not (0.0 < self.clip_eps < 1.0):
            raise ValidationError("clip_eps must lie in (0, 1)")


def log_softmax_rows(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def head_log_softmax(xt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Log-softmax of xt @ W[r] for each row r of a (R, d+1, V) weight
    stack, with the product summed over features in order."""
    return log_softmax_rows((xt[:, None] * W).sum(axis=1))


def sample_tokens(p_c: np.ndarray, p_a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF sampling of G responses per row from the content head
    `p_c` (R, N_CONTENT) and the answer head `p_a` (R, N_ANSWER).

    `u` (R, G, L+1) holds each response's uniforms, the last one for the
    answer.  A token is the number of leading cumulative sums (all but the
    last) that do not exceed its uniform, i.e. the smallest k with
    u < cumsum(p)[k].  Returns content (R, G, L) and answers (R, G).
    """
    L = u.shape[2] - 1
    content = (u[:, :, :L, None] >= np.cumsum(p_c, axis=1)[:, None, None, :-1]).sum(axis=-1)
    answers = (u[:, :, L, None] >= np.cumsum(p_a, axis=1)[:, None, :-1]).sum(axis=-1)
    return content, answers


def guardrail_rewards(
    content: np.ndarray, answers: np.ndarray, y, pen: PenaltyConfig
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Training reward of each response from its token counts.

    The strict Brier reward (an abstention scores -1) plus the guard-rail
    terms of `pen`: -lambda_lang and -lambda_gib times the non-English and
    gibberish proportions, -lambda_miss when no content token is
    rationale, and lambda_exp times the rationale proportion.  `y` is the
    outcome, broadcast against `answers`.
    Returns the (R, G) rewards, the gibberish token counts and the
    (gibberish, non-English, rationale) proportions.
    """
    L = content.shape[-1]
    gib_ct = (content == GIBBERISH).sum(axis=-1)
    nep_ct = (content == NONENGLISH).sum(axis=-1)
    rat_ct = L - gib_ct - nep_ct
    nep, gp, eq = nep_ct / L, gib_ct / L, rat_ct / L
    strict = np.where(answers == ABSTAIN, -1.0, -((answers / 100.0 - y) ** 2))
    miss = np.where(rat_ct > 0, 0.0, -pen.lambda_miss)
    rewards = strict + (-pen.lambda_lang * nep) + (-pen.lambda_gib * gp) + miss + pen.lambda_exp * eq
    return rewards, gib_ct, (gp, nep, eq)


def advantages(algo: str, rewards: np.ndarray, mu: np.ndarray, baseline: np.ndarray | None) -> np.ndarray:
    """Per-response advantages of a (R, G) reward group with row means `mu`.

    GRPO standardizes by the population std (a zero-spread group gets all
    zeros), Modified GRPO only centers, and ReMax subtracts the row's
    learned baseline value.
    """
    if algo == "grpo":
        dev = rewards - mu[:, None]
        sigma = np.sqrt((dev**2).sum(axis=1) / rewards.shape[1])[:, None]
        return np.divide(dev, sigma, out=np.zeros_like(dev), where=sigma != 0.0)
    if algo == "modified_grpo":
        return rewards - mu[:, None]
    return rewards - baseline[:, None]


def head_logit_gradient(
    log_p: np.ndarray, ref_log_p: np.ndarray, tokens: np.ndarray, w: np.ndarray, hp: HyperParams
) -> np.ndarray:
    """Logit gradient, for minimization, of one head's part of the objective

        sum_{g,t} w[g] log p(tokens[g, t]) - kl_coeff T KL(p || ref) + entropy_coeff T H(p)

    per row, where `tokens` (R, G, T) holds the T tokens each response
    draws from this head (L content tokens, or 1 answer token) and `w`
    (R, G) the per-token weight of each response.  Uses
    grad_z log p[k] = e_k - p.  The policy is on-policy, so every
    importance ratio is exactly 1 and no token is clipped.
    """
    R, V = log_p.shape
    T = tokens.shape[2]
    p = np.exp(log_p)
    index = (np.arange(R) * V)[:, None, None] + tokens
    counts = np.bincount(index.ravel(), np.repeat(w, T), R * V).reshape(R, V)
    ell = log_p - ref_log_p
    kl = (p * ell).sum(axis=1)[:, None]
    h = -(p * log_p).sum(axis=1)[:, None]
    surrogate = counts - (w * T).sum(axis=1)[:, None] * p
    return -(surrogate - hp.kl_coeff * T * (p * (ell - kl)) + hp.entropy_coeff * T * (-p * (log_p + h)))


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


def dpo_gradients(
    xb: np.ndarray,
    w_c: np.ndarray,
    w_a: np.ndarray,
    cdiff: np.ndarray,
    answers: np.ndarray,
    ref_margin: np.ndarray,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight gradients of the mean DPO loss -log sigmoid(beta (m - m_ref))
    over a minibatch of B preference pairs.

    `xb` (B, d+1) holds the bias-augmented features, `cdiff` (B, N_CONTENT)
    the winner-minus-loser content token counts, `answers` (B, 2) the
    winner's and loser's answer tokens and `ref_margin` the reference
    policy's margin m_ref.  Shared content probabilities cancel in the
    margin m, leaving the token-count differences.
    """
    B = len(xb)
    rows = np.arange(B)
    log_c = log_softmax_rows(xb @ w_c)
    log_a = log_softmax_rows(xb @ w_a)
    margin = np.sum(cdiff * log_c, axis=1) + log_a[rows, answers[:, 0]] - log_a[rows, answers[:, 1]]
    z = beta * (margin - ref_margin)
    coeff = -beta / (1.0 + np.exp(z))  # d loss / d margin per pair
    g_content = xb.T @ (coeff[:, None] * cdiff) / B
    mask = np.zeros((B, N_ANSWER))
    mask[rows, answers[:, 0]] += 1.0
    mask[rows, answers[:, 1]] -= 1.0
    g_answer = xb.T @ (coeff[:, None] * mask) / B
    return g_content, g_answer
