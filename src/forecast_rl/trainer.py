"""Strictly-online training loop, DPO training, and prediction.

Every question is visited exactly once in chronological order: sample a
group of responses, score them, take one optimizer step, move on.  The
KL reference policy is re-snapshotted every `outer_iteration_len`
questions.  A rolling early-stop guard watches for the two collapse
modes (gibberish takeover, extreme-probability pileup).

One numpy step trains every ensemble member at once over a leading
member axis, composing the array functions of `algorithms`.  Each
member draws its sampling uniforms from its own generator, a block of
questions at a time, so its trajectory is the same whether it trains
alone or in a batch, and the uniforms held at once do not grow with the
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from forecast_rl.algorithms import (
    ALGORITHMS,
    HyperParams,
    adamw_rows,
    advantages,
    bias_corrections,
    block_log_probs,
    clip_scale,
    dpo_gradient,
    dpo_margins,
    head_logits,
    log_softmax_rows,
    logit_gradient,
    policy_log_probs,
    reward_table,
    sample_tokens,
    two_head_log_softmax,
)
from forecast_rl.data import Dataset
from forecast_rl.errors import ValidationError
from forecast_rl.files import write_jsonl_columns
from forecast_rl.policy import (
    ABSTAIN,
    ANSWER_VALUES,
    GIBBERISH,
    N_ANSWER,
    N_CONTENT,
    N_PROB,
    NONENGLISH,
    PolicyParams,
    Vocabulary,
)
from forecast_rl.reward import PenaltyConfig
from forecast_rl.rng import substream

# `backend` is a config key; the numpy step is the only implementation.
BACKENDS = ("auto", "numpy")

# Why a member left the batch mid-span.
SPAN_EARLY_STOP = 1
SPAN_NUMERIC = 2

# Questions whose reference log-probs are taken in one block, and whose
# sampling uniforms are drawn in one block.  The reference is fixed
# between resets, and a generator's consecutive draws of any sizes give
# the values of one draw, so any block gives the same bits; a small one
# keeps the (block, members, V) temporaries and the (members, block, G,
# L+1) uniforms small.  Training 4 GRPO members on 1,300 questions
# (d = 4), the train process peaked at 40.9 MB with reference blocks of 1
# or 16, 41.5 MB with 64 and 46.9 MB with whole 500-question spans.
REF_BLOCK = 16

# The two content token kinds the guard rails count.
_COUNTED = np.array([GIBBERISH, NONENGLISH])

# (present, extreme) of each answer token, as the early-stop guard counts a
# first response's forecast.  Built from Python floats: running numpy's
# comparison loops at import maps about 0.4 MB more of its library into
# every stage process.
_ANSWER_FLAGS = np.array(
    [(t != ABSTAIN, t != ABSTAIN and (t / 100.0 <= 0.10 or t / 100.0 >= 0.90)) for t in range(N_ANSWER)], dtype=np.int64
)


@dataclass
class EarlyStopConfig:
    """Collapse detection over a rolling window of recent questions."""

    window: int = 200
    gibberish_threshold: float = 0.5
    extreme_mass_threshold: float = 0.9
    enabled: bool = True

    def validate(self) -> None:
        if self.window < 1:
            raise ValidationError("early_stop window must be >= 1")
        for name in ("gibberish_threshold", "extreme_mass_threshold"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1]")


@dataclass
class TrainConfig:
    algorithm: str = "remax"
    outer_iteration_len: int = 500
    early_stop: EarlyStopConfig = field(default_factory=EarlyStopConfig)
    seed: int = 0
    guardrails_enabled: bool = True
    checkpoint_every: int = 0
    content_length: int = 8

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.outer_iteration_len < 1:
            raise ValidationError("outer_iteration_len must be >= 1")
        if self.checkpoint_every < 0:
            raise ValidationError("checkpoint_every must be >= 0")
        if self.content_length < 1:
            raise ValidationError("content_length must be >= 1")
        self.early_stop.validate()


@dataclass
class RunLog:
    """One record per training question, in stream order, in the columns
    the step writes: the first response's answer token, every response's
    (gibberish, non-English) token counts and the group-mean total reward.
    A log owns its rows: a view would pin the whole batch's arrays."""

    question_ids: list[str]
    first: np.ndarray  # (n,) answer tokens
    counts: np.ndarray  # (n, G, 2) token counts out of content_length
    rewards: np.ndarray  # (n,)
    content_length: int

    def __len__(self) -> int:
        return len(self.question_ids)

    def columns(self) -> dict[str, np.ndarray]:
        """The float columns: the first response's forecast (NaN where it
        abstained), and the group means of the gibberish, non-English and
        rationale proportions."""
        L, G = self.content_length, self.counts.shape[1]
        gib, nep = self.counts[..., 0], self.counts[..., 1]  # L - gib - nep cannot wrap: they count L tokens
        return {
            "parsed": np.where(self.first == ABSTAIN, np.nan, self.first / 100.0),
            **{key: (ct / L).sum(axis=1) / G
               for key, ct in (("gibberish", gib), ("non_english", nep), ("explanation", L - gib - nep))},
        }

    def to_jsonl(self, path: str | Path) -> None:
        """One {id, parsed (null where NaN), reward, gibberish, non_english,
        explanation} record per question."""
        columns = self.columns()
        columns = {"parsed": columns.pop("parsed"), "reward": self.rewards, **columns}
        write_jsonl_columns(path, {"id": self.question_ids, **columns}, null=("parsed",))

    def summary(self) -> dict:
        n = len(self)
        present, extreme = _ANSWER_FLAGS[self.first].sum(axis=0).tolist()
        return {
            "n_questions": n,
            "mean_reward": float(self.rewards.mean()) if n else 0.0,
            "mean_gibberish": float(self.columns()["gibberish"].mean()) if n else 0.0,
            "abstain_rate": 1.0 - present / n if n else 0.0,
            "extreme_bucket_mass": extreme / present if present else 0.0,
        }


@dataclass
class TrainResult:
    """How one member's training ended.  `stop_reason` names an early stop
    ("gibberish" or "extreme_mass").  `numeric_error` says where a gradient
    was not finite; `params` and `baseline` are then the last good ones,
    and the member trained no further."""

    params: PolicyParams
    baseline: np.ndarray | None
    run_log: RunLog
    stop_reason: str | None = None
    numeric_error: str | None = None


def resolve_backend(backend: str) -> str:
    """The implementation a config's `backend` names: always the numpy step."""
    if backend not in BACKENDS:
        raise ValidationError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return "numpy"


def _effective_penalties(penalties: PenaltyConfig, enabled: bool) -> PenaltyConfig:
    if enabled:
        return penalties
    return PenaltyConfig(0.0, 0.0, 0.0, 0.0, penalties.input_truncation_chars)


def _unstack(W: np.ndarray, L: int) -> PolicyParams:
    """The policy of one (d+1, N_CONTENT + N_ANSWER) weight stack."""
    return PolicyParams(W[:, :N_CONTENT].copy(), W[:, N_CONTENT:].copy(), Vocabulary(L))


def _response_counts(content: np.ndarray) -> np.ndarray:
    """(gibberish, non-English) token counts of responses (..., L)."""
    return np.add.reduce(content[..., None] == _COUNTED, axis=-2)


class _Members:
    """Training state of the members still running, one row per member.

    Every array has the running members on its leading axis.  `drop`
    removes the rows of members that stopped, so later steps never touch
    a frozen member and a member's arithmetic never depends on which
    others share the batch.  The actor's weights, reference, AdamW
    moments and last good state are each one (K, d+1, N_CONTENT +
    N_ANSWER) stack: the content head's columns, then the answer head's.

    Only the run-log columns have the stream length on an axis.  Each
    member keeps its own sampling generator, and `U` holds the uniforms
    of questions `u_start` onwards for at most REF_BLOCK questions;
    `_advance` draws the next block when a question passes its end.  The
    early-stop counts are a ring of `window` rows.
    """

    _ROWS = (
        "w", "w_b", "ref", "m", "v", "m_b", "v_b", "U", "first", "counts", "reward",
        "es_counts", "window", "good", "good_b",
    )

    def __init__(self, members: list[int], params: PolicyParams, seed: int, n: int, G: int, window: int):
        K, L = len(members), params.vocab.content_length
        self.members = list(members)
        self.L = L
        self.w = np.repeat(np.hstack((params.content_weights, params.answer_weights))[None], K, axis=0)
        self.w_b = np.zeros((K, self.w.shape[1]))
        self.ref = self.w.copy()
        self.m, self.v = np.zeros_like(self.w), np.zeros_like(self.w)
        self.m_b, self.v_b = np.zeros_like(self.w_b), np.zeros_like(self.w_b)
        self.rngs = [substream(seed, "sampling", m) for m in members]
        self.U = np.empty((K, 0, G, L + 1))  # sampling uniforms of questions u_start, u_start + 1, ...
        self.u_start = 0
        # The log, per question: the first response's answer token, every
        # response's (gibberish, non-English) token counts and the mean
        # reward: the columns of the members' RunLogs.
        self.first = np.zeros((K, n), dtype=np.uint8)
        self.counts = np.zeros((K, n, G, 2), dtype=np.min_scalar_type(L))
        self.reward = np.zeros((K, n))
        # The early-stop guard in integer counts: per question (gibberish
        # tokens, answer present, answer extreme) in a ring where question
        # i takes row i % rows, and their sums over the current window.  A
        # window longer than the stream never wraps.
        self.es_counts = np.zeros((K, min(window, n), 3), dtype=np.int64)
        self.window = np.zeros((K, 3), dtype=np.int64)
        self.snapshot()

    def snapshot(self) -> None:
        """Remember the current weights as the last good state."""
        self.good, self.good_b = self.w.copy(), self.w_b.copy()

    def reset_reference(self) -> None:
        self.ref[...] = self.w

    def drop(self, rows: list[int]) -> None:
        keep = [r for r in range(len(self.members)) if r not in rows]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[keep])
        self.members = [self.members[r] for r in keep]
        self.rngs = [self.rngs[r] for r in keep]

    def draw_uniforms(self, start: int, rows: int) -> None:
        """Fill `U` with each member's next `rows` questions of uniforms,
        those of questions start, start + 1, ...: the values one draw of
        the whole stream would give them."""
        self.U = np.empty((len(self.rngs), rows, *self.U.shape[2:]))
        for k, rng in enumerate(self.rngs):
            rng.random(out=self.U[k])
        self.u_start = start

    def params(self, r: int, good: bool = False) -> PolicyParams:
        return _unstack((self.good if good else self.w)[r], self.L)

    def run_log(self, r: int, ids: list[str], start: int, end: int) -> RunLog:
        """A copy of the member's log of questions start .. end - 1."""
        rows = slice(start, end)
        return RunLog(ids[rows], self.first[r, rows].copy(), self.counts[r, rows].copy(), self.reward[r, rows].copy(),
                      self.L)


def _advance(st: _Members, X1: np.ndarray, Y: np.ndarray, start: int, end: int,
             algo: str, hp: HyperParams, rewards_of: np.ndarray, es: EarlyStopConfig,
             lr: float) -> tuple[int, list]:
    """One vectorized online step per question for every running member.

    `Y` holds the outcomes as indices into `rewards_of`, the run's
    `reward_table`.  Returns at the first question where some member
    stops, with one (row, status, index, reason) event per stopped member.
    """
    R, _, G, n_tok = st.U.shape
    L = n_tok - 1
    n = X1.shape[0]
    token_div = G if algo == "remax" else G * n_tok
    es_tokens = es.window * G * L
    ring = st.es_counts.shape[1]
    # Every running member has taken one AdamW step per question since
    # question 0, so question i is step i + 1 of the actor and the baseline.
    bc1, bc2 = bias_corrections(hp, np.arange(start + 1, end + 1))
    # The clip norm is |xt| * |gz|: the product of the squares overflows for
    # features near 1.3e154 although the clipped step is finite.
    X = X1[start:end]
    x_norms = np.sqrt((X * X).sum(axis=1))
    for i in range(start, end):
        j = i - start
        if j % REF_BLOCK == 0:
            ref_log = block_log_probs(X1[i : min(i + REF_BLOCK, end)], st.ref)
        if i - st.u_start == st.U.shape[1]:
            # Blocks run on across spans and events: the survivors of an
            # event still hold the uniforms of the questions after it.
            st.draw_uniforms(i, min(REF_BLOCK, n - i))
        xt = X1[i]
        log_p = policy_log_probs(xt, st.w)
        p = np.exp(log_p)
        content, answers = sample_tokens(p[:, :N_CONTENT], p[:, N_CONTENT:], st.U[:, i - st.u_start])
        counts = _response_counts(content)
        rewards = rewards_of[Y[i], answers, counts[..., 0], counts[..., 1]]
        mu = np.add.reduce(rewards, axis=1) / G
        b = np.add.reduce(xt * st.w_b, axis=1) if algo == "remax" else None
        advs = advantages(algo, rewards, mu, b)

        tokens = np.concatenate((content, answers[..., None] + N_CONTENT), axis=2)
        gz = logit_gradient(p, log_p, ref_log[j % REF_BLOCK], tokens, advs / token_div, hp)

        # Global-norm clipping of the actor gradient outer(xt, gz), then AdamW.
        gz2 = gz * gz
        gz_sq = np.add.reduce(gz2[:, :N_CONTENT], axis=1) + np.add.reduce(gz2[:, N_CONTENT:], axis=1)
        norm = x_norms[j] * np.sqrt(gz_sq)
        bad = ~np.isfinite(norm)
        scale = clip_scale(norm, hp.grad_clip_norm)[:, None, None]
        adamw_rows(st.w, st.m, st.v, xt[:, None] * gz[:, None, :] * scale, lr, hp, bc1[j], bc2[j])

        if algo == "remax":
            gb = -2.0 * hp.baseline_loss_scale * (np.add.reduce(advs, axis=1) / G)  # grad of the MSE in b - r
            b_norm = np.abs(gb) * x_norms[j]
            bad |= ~np.isfinite(b_norm)
            b_scale = clip_scale(b_norm, hp.grad_clip_norm)
            adamw_rows(st.w_b, st.m_b, st.v_b, (gb[:, None] * xt) * b_scale[:, None], hp.baseline_lr, hp,
                       bc1[j], bc2[j])

        st.first[:, i] = answers[:, 0]
        st.counts[:, i] = counts
        st.reward[:, i] = mu

        events = [(int(r), SPAN_NUMERIC, i, None) for r in bad.nonzero()[0]]
        if es.enabled:
            row = st.es_counts[:, i % ring]
            st.window -= row  # question i - window's counts, or zeros before the ring wraps
            row[:, 0] = np.add.reduce(counts[..., 0], axis=1)
            row[:, 1:] = _ANSWER_FLAGS[answers[:, 0]]
            st.window += row
            if i + 1 >= es.window:
                gib_hit = st.window[:, 0] / es_tokens > es.gibberish_threshold
                present = st.window[:, 1]
                ext_mass = np.divide(st.window[:, 2], present, out=np.zeros(R), where=present > 0)
                ext_hit = ext_mass > es.extreme_mass_threshold
                for r in ((gib_hit | ext_hit) & ~bad).nonzero()[0]:
                    reason = "gibberish" if gib_hit[r] else "extreme_mass"
                    events.append((int(r), SPAN_EARLY_STOP, i + 1, reason))
        if events:
            return i + 1, events
    return end, []


def train_members(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    members=(0,),
    init_params: PolicyParams | None = None,
    checkpoint_cb=None,
) -> list[TrainResult]:
    """Train one policy per ensemble member on the same stream.

    Member m draws its rollouts from substream(cfg.seed, "sampling", m)
    (DPO: "dpo", m), so a member's trajectory is the same whether it is
    trained alone or in a batch.  All members take each online step
    together.

    A member that early-stops or meets a non-finite gradient is frozen
    there while the others keep training.  The result list holds one
    TrainResult per member, in `members` order.  After a non-finite
    gradient, its parameters are the last good ones (from the most recent
    span boundary) and its log ends before the failing question.
    `checkpoint_cb(member, params, baseline, index, partial_log)` is
    called at every `checkpoint_every` boundary for each running member;
    `partial_log` holds the questions since the previous boundary, so the
    logs handed out over a run add up to one copy of the stream.
    """
    cfg.validate()
    hp.validate()
    penalties = penalties if penalties is not None else PenaltyConfig()
    penalties.validate()
    members = list(members)
    if not members or len(set(members)) != len(members) or min(members) < 0:
        raise ValidationError(f"members must be distinct non-negative indices, got {members}")
    if cfg.algorithm == "dpo":
        return [train_dpo(stream, cfg, hp, penalties, init_params, m) for m in members]

    n = len(stream)
    if n == 0:
        if init_params is None:
            raise ValidationError("an empty stream needs init_params to size the policy")
        L = init_params.vocab.content_length
        empty = RunLog([], np.empty(0, np.uint8), np.empty((0, hp.group_size, 2), np.uint8), np.empty(0), L)
        return [TrainResult(init_params.copy(), None, empty) for _ in members]

    d = stream.feature_dim
    if init_params is None:
        params = PolicyParams.zeros(d, Vocabulary(cfg.content_length))
    else:
        if init_params.feature_dim != d:
            raise ValidationError("init_params feature_dim does not match the stream")
        params = init_params
    G = hp.group_size
    if cfg.algorithm in ("grpo", "modified_grpo") and G < 2:
        raise ValidationError("GRPO variants need group_size >= 2")

    rewards_of = reward_table(params.vocab.content_length, _effective_penalties(penalties, cfg.guardrails_enabled))
    actor_lr = hp.resolve_actor_lr(cfg.algorithm)
    X1 = np.hstack([np.ones((n, 1)), stream.features])
    Y = stream.outcome
    ids = stream.ids
    st = _Members(members, params, cfg.seed, n, G, cfg.early_stop.window)

    boundaries = {0, n}
    boundaries.update(range(0, n, cfg.outer_iteration_len))
    if cfg.checkpoint_every > 0:
        boundaries.update(range(0, n, cfg.checkpoint_every))
    bounds = sorted(boundaries)

    def baseline(r: int, good: bool = False) -> np.ndarray | None:
        """The member's ReMax baseline weights; None for algorithms without one."""
        if cfg.algorithm != "remax":
            return None
        return (st.good_b if good else st.w_b)[r].copy()

    def outcome(r: int, end: int, reason: str | None = None, error: str | None = None) -> TrainResult:
        good = error is not None
        return TrainResult(st.params(r, good), baseline(r, good), st.run_log(r, ids, 0, end), reason, error)

    results: dict[int, TrainResult] = {}
    logged = 0  # the questions handed to checkpoint_cb so far
    for s, e in zip(bounds[:-1], bounds[1:]):
        if s > 0 and s % cfg.outer_iteration_len == 0:
            st.reset_reference()
        if checkpoint_cb is not None and s > 0 and cfg.checkpoint_every > 0 and s % cfg.checkpoint_every == 0:
            for r, m in enumerate(st.members):
                checkpoint_cb(m, st.params(r), baseline(r), s, st.run_log(r, ids, logged, s))
            logged = s
        st.snapshot()
        i = s
        while i < e and st.members:
            i, events = _advance(st, X1, Y, i, e, cfg.algorithm, hp, rewards_of, cfg.early_stop, actor_lr)
            for r, status, at, reason in events:
                error = f"non-finite gradient at question {ids[at]!r} (index {at})" if status == SPAN_NUMERIC else None
                results[st.members[r]] = outcome(r, at, reason, error)
            if events:
                st.drop([ev[0] for ev in events])
        if not st.members:
            break
    for r, m in enumerate(st.members):
        results[m] = outcome(r, n)
    return [results[m] for m in members]


def train_dpo(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    init_params: PolicyParams | None = None,
    member: int = 0,
) -> TrainResult:
    """Offline preference training of ensemble member `member`, which
    draws from substream(cfg.seed, "dpo", member).

    Two responses per question are sampled once from the frozen reference
    (the initial policy); the higher-total-reward response is preferred
    and ties are dropped.  The pair set is then optimized for dpo_epochs
    shuffled epochs in minibatches of dpo_batch.  The weights and AdamW
    moments are (d+1, N_CONTENT + N_ANSWER) stacks, as in the online step.
    A minibatch whose gradient is not finite ends the training, and the
    result holds the weights from before it.
    """
    cfg.validate()
    hp.validate()
    penalties = penalties if penalties is not None else PenaltyConfig()
    penalties.validate()
    n = len(stream)
    if n == 0:
        raise ValidationError("dpo training needs a non-empty stream")

    d = stream.feature_dim
    params = init_params if init_params is not None else PolicyParams.zeros(d, Vocabulary(cfg.content_length))
    if params.feature_dim != d:
        raise ValidationError("init_params feature_dim does not match the stream")
    L = params.vocab.content_length
    rewards_of = reward_table(L, _effective_penalties(penalties, cfg.guardrails_enabled))
    rng = substream(cfg.seed, "dpo", member)
    U = rng.random((n, 2, L + 1))

    # Every pair is drawn from the frozen reference (the initial policy)
    # at once: one row per question, G = 2.
    X1 = np.hstack([np.ones((n, 1)), stream.features])
    W = np.hstack((params.content_weights, params.answer_weights))
    ref_log = two_head_log_softmax(head_logits(X1, W))
    p = np.exp(ref_log)
    content, answers = sample_tokens(p[:, :N_CONTENT], p[:, N_CONTENT:], U)
    counts = _response_counts(content)
    gib_ct, nep_ct = counts[..., 0], counts[..., 1]
    rewards = rewards_of[stream.outcome[:, None], answers, gib_ct, nep_ct]
    run_log = RunLog(stream.ids, answers[:, 0].copy(), counts, rewards.sum(axis=1) / 2, L)

    rows = np.flatnonzero(rewards[:, 0] != rewards[:, 1])
    if not rows.size:
        raise ValidationError("no valid preference pairs: every sampled pair tied")
    winner = (rewards[rows, 1] > rewards[rows, 0]).astype(np.intp)
    pair = np.arange(rows.size)
    token_counts = (content[rows, :, :, None] == np.arange(N_CONTENT)).sum(axis=2).astype(np.float64)
    cdiff = token_counts[pair, winner] - token_counts[pair, 1 - winner]
    pair_answers = np.stack([answers[rows, winner], answers[rows, 1 - winner]], axis=1)
    ref_margin = dpo_margins(ref_log[rows], cdiff, pair_answers)
    Xt = X1[rows]

    m, v = np.zeros_like(W), np.zeros_like(W)
    t = 0
    for _ in range(hp.dpo_epochs):
        perm = rng.permutation(rows.size)
        for lo in range(0, rows.size, hp.dpo_batch):
            sel = perm[lo : lo + hp.dpo_batch]
            g = dpo_gradient(Xt[sel], W, cdiff[sel], pair_answers[sel], ref_margin[sel], hp.dpo_beta)
            # Each head's squares are summed on their own: one sum over the stack adds in another order.
            g_c, g_a = g[:, :N_CONTENT], g[:, N_CONTENT:]
            norm = np.sqrt((g_c * g_c).sum() + (g_a * g_a).sum())
            if not np.isfinite(norm):
                return TrainResult(_unstack(W, L), None, run_log, numeric_error="non-finite DPO gradient")
            t += 1
            adamw_rows(W, m, v, g * clip_scale(norm, hp.grad_clip_norm), hp.dpo_lr, hp, *bias_corrections(hp, t))
    return TrainResult(_unstack(W, L), None, run_log)


_PREDICT_ROWS = 512  # rows per block, which bounds the (rows, N_ANSWER) temporaries


def predict_dataset(params: PolicyParams, dataset: Dataset) -> np.ndarray:
    """Greedy forecast per row: the argmax answer token (ties to the lowest
    index) as a probability, NaN where that token is abstain."""
    n = len(dataset)
    if not n:
        return np.empty(0)
    if dataset.feature_dim != params.feature_dim:
        raise ValidationError(f"dataset has feature dim {dataset.feature_dim}, policy expects {params.feature_dim}")
    X1 = np.hstack([np.ones((n, 1)), dataset.features])
    k = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _PREDICT_ROWS):
        # A stack of (1, d+1) @ (d+1, N_ANSWER) products makes the same BLAS
        # call per row as one question's `xt @ W`, so the probabilities, and
        # with them every argmax tie, are bit-identical to the per-question path.
        logits = np.matmul(X1[lo : lo + _PREDICT_ROWS, None, :], params.answer_weights)[:, 0]
        k[lo : lo + _PREDICT_ROWS] = np.exp(log_softmax_rows(logits)).argmax(axis=1)
    return np.where(k == ABSTAIN, np.nan, ANSWER_VALUES[np.minimum(k, N_PROB - 1)])


@dataclass
class EnsembleSpec:
    """K policies whose forecasts are averaged."""

    members: list[PolicyParams]

    def validate(self) -> None:
        if not self.members:
            raise ValidationError("an ensemble needs at least one member")
        dim = self.members[0].feature_dim
        L = self.members[0].vocab.content_length
        for m in self.members[1:]:
            if m.feature_dim != dim or m.vocab.content_length != L:
                raise ValidationError("ensemble members must share vocabulary and feature dim")


def ensemble_predict_dataset(
    spec: EnsembleSpec,
    dataset: Dataset,
    member_forecasts: np.ndarray | None = None,
) -> np.ndarray:
    """Mean of the members' forecasts per row, skipping abstentions; NaN
    where every member abstains.

    The mean is summed in member order.  Where all present member values
    are equal it is that value, so a K-copy ensemble reproduces the single
    model bit-for-bit (a naive sum/K is not exact in floating point).
    A caller that already holds each member's `predict_dataset` column
    passes them as the (K, n) `member_forecasts` (rows in member order)
    instead of having them computed again.
    """
    spec.validate()
    if member_forecasts is None:
        F = np.stack([predict_dataset(m, dataset) for m in spec.members])
    else:
        F = np.asarray(member_forecasts, dtype=np.float64)
        if F.shape != (len(spec.members), len(dataset)):
            raise ValidationError(
                f"member forecasts of shape {F.shape} for {len(spec.members)} members and {len(dataset)} questions"
            )
    present = ~np.isnan(F)
    total = np.zeros(F.shape[1])
    for row, has in zip(F, present):
        total += np.where(has, row, 0.0)
    count = present.sum(axis=0)
    mean = np.divide(total, count, out=np.full(F.shape[1], np.nan), where=count > 0)
    lo, hi = np.fmin.reduce(F, axis=0), np.fmax.reduce(F, axis=0)
    return np.where(lo == hi, lo, mean)
