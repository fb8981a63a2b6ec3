"""Strictly-online training loop, DPO training, and prediction.

Every question is visited exactly once in chronological order: sample a
group of responses, score them, take one optimizer step, move on.  The
KL reference policy is re-snapshotted every `outer_iteration_len`
questions.  A rolling early-stop guard watches for the two collapse
modes (gibberish takeover, extreme-probability pileup).

Two backends implement the same loop: the fused kernel in `kernels`
(JIT-compiled when numba is available), which trains one member at a
time, and a numpy step that trains every ensemble member at once over a
leading member axis.  Both consume one pre-drawn array of uniform
variates per member, so they agree to floating-point roundoff.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from forecast_rl import kernels
from forecast_rl.algorithms import HyperParams, OptimizerState, adamw_step
from forecast_rl.data import Dataset, Question
from forecast_rl.errors import NumericAbort, ValidationError
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
    head_log_distributions,
    sample_response,
    snapshot_reference,
)
from forecast_rl.reward import PenaltyConfig, assess_guardrails, total_reward
from forecast_rl.rng import substream

BACKENDS = ("auto", "numba", "numpy")

_ALGO_CODES = {
    "grpo": kernels.ALGO_GRPO,
    "modified_grpo": kernels.ALGO_MODIFIED_GRPO,
    "remax": kernels.ALGO_REMAX,
}


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
    member: int = 0  # ensemble member index; selects the sampling substream
    guardrails_enabled: bool = True
    checkpoint_every: int = 0
    content_length: int = 8

    def validate(self) -> None:
        if self.algorithm not in ("grpo", "modified_grpo", "remax", "dpo"):
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.outer_iteration_len < 1:
            raise ValidationError("outer_iteration_len must be >= 1")
        if self.checkpoint_every < 0:
            raise ValidationError("checkpoint_every must be >= 0")
        if self.content_length < 1:
            raise ValidationError("content_length must be >= 1")
        if self.member < 0:
            raise ValidationError("member must be >= 0")
        self.early_stop.validate()


@dataclass
class RunLog:
    """One record per training question, in stream order."""

    question_ids: list[str]
    parsed: np.ndarray  # NaN where the first sampled response abstained
    rewards: np.ndarray  # group-mean total reward
    gibberish: np.ndarray  # group-mean proportions
    non_english: np.ndarray
    explanation: np.ndarray
    stopped: bool = False
    stop_reason: str | None = None

    def __len__(self) -> int:
        return len(self.question_ids)

    def to_records(self) -> list[dict]:
        out = []
        for i, qid in enumerate(self.question_ids):
            p = self.parsed[i]
            out.append(
                {
                    "id": qid,
                    "parsed": None if np.isnan(p) else float(p),
                    "reward": float(self.rewards[i]),
                    "gibberish": float(self.gibberish[i]),
                    "non_english": float(self.non_english[i]),
                    "explanation": float(self.explanation[i]),
                }
            )
        return out

    def to_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.to_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def summary(self) -> dict:
        present = self.parsed[~np.isnan(self.parsed)]
        extreme = float(np.mean((present <= 0.10) | (present >= 0.90))) if present.size else 0.0
        return {
            "n_questions": len(self),
            "mean_reward": float(self.rewards.mean()) if len(self) else 0.0,
            "mean_gibberish": float(self.gibberish.mean()) if len(self) else 0.0,
            "abstain_rate": 1.0 - (present.size / len(self)) if len(self) else 0.0,
            "extreme_bucket_mass": extreme,
            "stopped": self.stopped,
            "stop_reason": self.stop_reason,
        }


@dataclass
class TrainResult:
    params: PolicyParams
    baseline: np.ndarray | None
    run_log: RunLog
    stopped: bool = False
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


def resolve_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValidationError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "auto":
        return "numba" if kernels.NUMBA_AVAILABLE else "numpy"
    return backend


def _effective_penalties(penalties: PenaltyConfig, enabled: bool) -> PenaltyConfig:
    if enabled:
        return penalties
    return PenaltyConfig(0.0, 0.0, 0.0, 0.0, penalties.input_truncation_chars)


def _pack_hp(
    algo: str, hp: HyperParams, pcfg: PenaltyConfig, es: EarlyStopConfig, actor_lr: float
) -> np.ndarray:
    packed = np.zeros(kernels.HP_SIZE)
    packed[kernels.HP_ALGO] = _ALGO_CODES[algo]
    packed[kernels.HP_ACTOR_LR] = actor_lr
    packed[kernels.HP_KL_COEFF] = hp.kl_coeff
    packed[kernels.HP_CLIP_EPS] = hp.clip_eps
    packed[kernels.HP_ENT_COEFF] = hp.entropy_coeff
    packed[kernels.HP_BETA1] = hp.adam_beta1
    packed[kernels.HP_BETA2] = hp.adam_beta2
    packed[kernels.HP_ADAM_EPS] = hp.adam_eps
    packed[kernels.HP_WEIGHT_DECAY] = hp.weight_decay
    packed[kernels.HP_GRAD_CLIP] = hp.grad_clip_norm
    packed[kernels.HP_BASE_LR] = hp.baseline_lr
    packed[kernels.HP_BASE_SCALE] = hp.baseline_loss_scale
    packed[kernels.HP_LAM_LANG] = pcfg.lambda_lang
    packed[kernels.HP_LAM_GIB] = pcfg.lambda_gib
    packed[kernels.HP_LAM_MISS] = pcfg.lambda_miss
    packed[kernels.HP_LAM_EXP] = pcfg.lambda_exp
    packed[kernels.HP_ES_ENABLED] = 1.0 if es.enabled else 0.0
    packed[kernels.HP_ES_WINDOW] = es.window
    packed[kernels.HP_ES_GIB_THR] = es.gibberish_threshold
    packed[kernels.HP_ES_EXT_THR] = es.extreme_mass_threshold
    return packed


class _Logs:
    def __init__(self, n: int):
        self.parsed = np.full(n, np.nan)
        self.reward = np.zeros(n)
        self.gib = np.zeros(n)
        self.nep = np.zeros(n)
        self.expq = np.zeros(n)


class _Members:
    """Training state of the members still running, one row per member.

    Every array has the running members on its leading axis.  `drop`
    removes the rows of members that stopped, so later steps never touch
    a frozen member and a member's arithmetic never depends on which
    others share the batch.
    """

    _ROWS = (
        "w_c", "w_a", "w_b", "ref_c", "ref_a", "m_c", "v_c", "m_a", "v_a", "m_b", "v_b",
        "steps", "U", "parsed", "reward", "gib", "nep", "expq", "es_counts", "window",
        "good_c", "good_a", "good_b",
    )

    def __init__(self, members: list[int], params: PolicyParams, seed: int, n: int, G: int):
        K, L = len(members), params.vocab.content_length
        self.members = list(members)
        self.L = L
        self.w_c = np.repeat(params.content_weights[None], K, axis=0)
        self.w_a = np.repeat(params.answer_weights[None], K, axis=0)
        self.w_b = np.zeros((K, self.w_c.shape[1]))
        self.ref_c, self.ref_a = self.w_c.copy(), self.w_a.copy()
        self.m_c, self.v_c = np.zeros_like(self.w_c), np.zeros_like(self.w_c)
        self.m_a, self.v_a = np.zeros_like(self.w_a), np.zeros_like(self.w_a)
        self.m_b, self.v_b = np.zeros_like(self.w_b), np.zeros_like(self.w_b)
        self.steps = np.zeros((K, 2), dtype=np.int64)  # actor and baseline AdamW steps
        self.U = np.empty((K, n, G, L + 1))  # each member's pre-drawn sampling uniforms
        for k, m in enumerate(members):
            substream(seed, "sampling", m).random(out=self.U[k])
        self.parsed = np.full((K, n), np.nan)
        self.reward = np.zeros((K, n))
        self.gib = np.zeros((K, n))
        self.nep = np.zeros((K, n))
        self.expq = np.zeros((K, n))
        # The numpy step's early-stop guard in integer counts: per question
        # (gibberish tokens, answer present, answer extreme), and their
        # sums over the current window.
        self.es_counts = np.zeros((K, n, 3), dtype=np.int64)
        self.window = np.zeros((K, 3), dtype=np.int64)
        self.snapshot()

    def snapshot(self) -> None:
        """Remember the current weights as the last good state."""
        self.good_c, self.good_a, self.good_b = self.w_c.copy(), self.w_a.copy(), self.w_b.copy()

    def reset_reference(self) -> None:
        self.ref_c[...] = self.w_c
        self.ref_a[...] = self.w_a

    def drop(self, rows: list[int]) -> None:
        keep = [r for r in range(len(self.members)) if r not in rows]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[keep])
        self.members = [self.members[r] for r in keep]

    def params(self, r: int, good: bool = False) -> PolicyParams:
        c, a = (self.good_c, self.good_a) if good else (self.w_c, self.w_a)
        return PolicyParams(c[r].copy(), a[r].copy(), Vocabulary(self.L))

    def run_log(self, r: int, ids: list[str], end: int, reason: str | None = None) -> RunLog:
        return RunLog(
            ids[:end], self.parsed[r, :end].copy(), self.reward[r, :end].copy(),
            self.gib[r, :end].copy(), self.nep[r, :end].copy(), self.expq[r, :end].copy(),
            stopped=reason is not None, stop_reason=reason,
        )


def _advance_kernel(st: _Members, X: np.ndarray, Y: np.ndarray, start: int, end: int,
                    hp_vec: np.ndarray, es: EarlyStopConfig) -> tuple[int, list]:
    """Run every member through [start, end) with `kernels.run_span`."""
    events = []
    for r in range(len(st.members)):
        status, nxt = kernels.run_span(
            st.w_c[r], st.w_a[r], st.ref_c[r], st.ref_a[r], st.w_b[r],
            st.m_c[r], st.v_c[r], st.m_a[r], st.v_a[r], st.m_b[r], st.v_b[r], st.steps[r],
            X, Y, st.U[r], start, end, hp_vec,
            st.parsed[r], st.reward[r], st.gib[r], st.nep[r], st.expq[r],
        )
        reason = None
        if status == kernels.SPAN_EARLY_STOP:
            lo = nxt - es.window
            _, reason = check_early_stop(st.parsed[r, lo:nxt], st.gib[r, lo:nxt], es)
        if status != kernels.SPAN_OK:
            events.append((r, status, nxt, reason))
    return end, events


def _head_logs(xt: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Log-softmax of xt @ W[r] for each row r, summed over features in
    the kernel's order."""
    return _log_softmax_rows((xt[:, None] * W).sum(axis=1))


def _adamw_rows(W, m, v, g, lr, hp: HyperParams, bc1, bc2) -> None:
    """AdamW on a stack of weight matrices, one bias correction per row."""
    m *= hp.adam_beta1
    m += (1.0 - hp.adam_beta1) * g
    v *= hp.adam_beta2
    v += (1.0 - hp.adam_beta2) * g * g
    upd = (m / bc1) / (np.sqrt(v / bc2) + hp.adam_eps)
    if hp.weight_decay > 0.0:
        upd += hp.weight_decay * W
    W -= lr * upd


def _advance_numpy(st: _Members, X1: np.ndarray, Y: np.ndarray, start: int, end: int,
                   algo: str, hp: HyperParams, pcfg: PenaltyConfig, es: EarlyStopConfig,
                   lr: float) -> tuple[int, list]:
    """One vectorized online step per question for every running member.

    The closed form of `kernels.run_span` over a leading member axis:
    sampling compares each uniform with the running cumulative sum in
    the kernel's order, so the same tokens are drawn.  Returns at the
    first question where some member stops, with one
    (row, status, index, reason) event per stopped member.
    """
    R, _, G, n_tok = st.U.shape
    L = n_tok - 1
    rows = np.arange(R)
    c_index = (rows * N_CONTENT)[:, None, None]
    a_index = (rows * N_ANSWER)[:, None]
    token_div = G if algo == "remax" else G * n_tok
    clip = hp.grad_clip_norm
    es_tokens = es.window * G * L
    for i in range(start, end):
        xt = X1[i]
        log_c, rlog_c = _head_logs(xt, st.w_c), _head_logs(xt, st.ref_c)
        log_a, rlog_a = _head_logs(xt, st.w_a), _head_logs(xt, st.ref_a)
        p_c, p_a = np.exp(log_c), np.exp(log_a)

        # Inverse-CDF sampling: the token is the number of leading
        # cumulative sums (all but the last) that do not exceed u.
        u = st.U[:, i]
        content = (u[:, :, :L, None] >= np.cumsum(p_c, axis=1)[:, None, None, :-1]).sum(axis=-1)
        answers = (u[:, :, L, None] >= np.cumsum(p_a, axis=1)[:, None, :-1]).sum(axis=-1)

        # Guard-rail rewards from token counts, summed as the kernel does.
        gib_ct = (content == GIBBERISH).sum(axis=-1)
        nep_ct = (content == NONENGLISH).sum(axis=-1)
        rat_ct = L - gib_ct - nep_ct
        nep, gp, eq = nep_ct / L, gib_ct / L, rat_ct / L
        strict = np.where(answers == ABSTAIN, -1.0, -((answers / 100.0 - Y[i]) ** 2))
        miss = np.where(rat_ct > 0, 0.0, -pcfg.lambda_miss)
        rewards = strict + (-pcfg.lambda_lang * nep) + (-pcfg.lambda_gib * gp) + miss + pcfg.lambda_exp * eq
        mu = rewards.sum(axis=1) / G

        if algo == "grpo":
            dev = rewards - mu[:, None]
            sigma = np.sqrt((dev**2).sum(axis=1) / G)[:, None]
            advs = np.divide(dev, sigma, out=np.zeros_like(dev), where=sigma != 0.0)
        elif algo == "modified_grpo":
            advs = rewards - mu[:, None]
        else:
            advs = rewards - (xt * st.w_b).sum(axis=1)[:, None]

        # Logit gradients of the maximization objective; on-policy every
        # importance ratio is exactly 1, so no token is clipped.
        w = advs / token_div
        coeff_c = np.bincount(
            (c_index + content).ravel(), np.broadcast_to(w[:, :, None], content.shape).ravel(), R * N_CONTENT
        ).reshape(R, N_CONTENT)
        coeff_a = np.bincount((a_index + answers).ravel(), w.ravel(), R * N_ANSWER).reshape(R, N_ANSWER)
        ell_c, ell_a = log_c - rlog_c, log_a - rlog_a
        kl_c = (p_c * ell_c).sum(axis=1)[:, None]
        kl_a = (p_a * ell_a).sum(axis=1)[:, None]
        h_c = -(p_c * log_c).sum(axis=1)[:, None]
        h_a = -(p_a * log_a).sum(axis=1)[:, None]
        surr_c = coeff_c - (w * L).sum(axis=1)[:, None] * p_c
        surr_a = coeff_a - w.sum(axis=1)[:, None] * p_a
        gz_c = -(surr_c - hp.kl_coeff * L * (p_c * (ell_c - kl_c)) + hp.entropy_coeff * L * (-p_c * (log_c + h_c)))
        gz_a = -(surr_a - hp.kl_coeff * (p_a * (ell_a - kl_a)) + hp.entropy_coeff * (-p_a * (log_a + h_a)))

        # Global-norm clipping of the actor gradient outer(xt, gz), then AdamW.
        xt_sq = (xt * xt).sum()
        norm = np.sqrt(xt_sq * ((gz_c * gz_c).sum(axis=1) + (gz_a * gz_a).sum(axis=1)))
        bad = ~np.isfinite(norm)
        scale = (clip / np.maximum(norm, clip))[:, None, None]  # exactly 1 unless norm > clip
        st.steps[:, 0] += 1
        t = st.steps[:, 0][:, None, None]
        bc1, bc2 = 1.0 - hp.adam_beta1**t, 1.0 - hp.adam_beta2**t
        _adamw_rows(st.w_c, st.m_c, st.v_c, xt[:, None] * gz_c[:, None, :] * scale, lr, hp, bc1, bc2)
        _adamw_rows(st.w_a, st.m_a, st.v_a, xt[:, None] * gz_a[:, None, :] * scale, lr, hp, bc1, bc2)

        if algo == "remax":
            gb = -2.0 * hp.baseline_loss_scale * (advs.sum(axis=1) / G)  # grad of the MSE in b - r
            b_norm = np.abs(gb) * np.sqrt(xt_sq)
            bad |= ~np.isfinite(b_norm)
            b_scale = clip / np.maximum(b_norm, clip)
            st.steps[:, 1] += 1
            t = st.steps[:, 1][:, None]
            _adamw_rows(st.w_b, st.m_b, st.v_b, (gb[:, None] * xt) * b_scale[:, None], hp.baseline_lr, hp,
                        1.0 - hp.adam_beta1**t, 1.0 - hp.adam_beta2**t)

        # Per-question log: first response's parse, group means otherwise.
        st.parsed[:, i] = np.where(answers[:, 0] == ABSTAIN, np.nan, answers[:, 0] / 100.0)
        st.reward[:, i] = mu
        st.gib[:, i] = gp.sum(axis=1) / G
        st.nep[:, i] = nep.sum(axis=1) / G
        st.expq[:, i] = eq.sum(axis=1) / G

        events = [(int(r), kernels.SPAN_NUMERIC, i, None) for r in np.flatnonzero(bad)]
        if es.enabled:
            p0 = st.parsed[:, i]
            st.es_counts[:, i, 0] = gib_ct.sum(axis=1)
            st.es_counts[:, i, 1] = ~np.isnan(p0)
            st.es_counts[:, i, 2] = (p0 <= 0.10) | (p0 >= 0.90)
            st.window += st.es_counts[:, i]
            if i >= es.window:
                st.window -= st.es_counts[:, i - es.window]
            if i + 1 >= es.window:
                gib_hit = st.window[:, 0] / es_tokens > es.gibberish_threshold
                present = st.window[:, 1]
                ext_mass = np.divide(st.window[:, 2], present, out=np.zeros(R), where=present > 0)
                ext_hit = ext_mass > es.extreme_mass_threshold
                for r in np.flatnonzero((gib_hit | ext_hit) & ~bad):
                    reason = "gibberish" if gib_hit[r] else "extreme_mass"
                    events.append((int(r), kernels.SPAN_EARLY_STOP, i + 1, reason))
        if events:
            return i + 1, events
    return end, []


def train_members(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    members=(0,),
    backend: str = "auto",
    init_params: PolicyParams | None = None,
    checkpoint_cb=None,
) -> list[TrainResult | NumericAbort]:
    """Train one policy per ensemble member on the same stream.

    Member m draws its rollouts from substream(cfg.seed, "sampling", m)
    (DPO: "dpo", m), so a member's trajectory is the same whether it is
    trained alone or in a batch.  On the numpy backend all members take
    each online step together; on the numba backend `kernels.run_span`
    runs them one after another.

    A member that early-stops or meets a non-finite gradient is frozen
    there while the others keep training.  The result list follows
    `members`: a TrainResult, or for a non-finite gradient the
    NumericAbort that carries the last good parameters (from the most
    recent span boundary) and the log up to the failing question.
    `checkpoint_cb(member, params, baseline, index, partial_log)` is
    called at every `checkpoint_every` boundary for each running member.
    """
    cfg.validate()
    hp.validate()
    penalties = penalties if penalties is not None else PenaltyConfig()
    penalties.validate()
    members = list(members)
    if not members or len(set(members)) != len(members) or min(members) < 0:
        raise ValidationError(f"members must be distinct non-negative indices, got {members}")
    if cfg.algorithm == "dpo":
        return [train_dpo(stream, replace(cfg, member=m), hp, penalties, init_params) for m in members]
    backend = resolve_backend(backend)

    n = len(stream)
    if n == 0:
        if init_params is None:
            raise ValidationError("an empty stream needs init_params to size the policy")
        empty = RunLog([], np.empty(0), np.empty(0), np.empty(0), np.empty(0), np.empty(0))
        return [TrainResult(init_params.copy(), None, empty) for _ in members]

    ts = [q.prediction_ts for q in stream.questions]
    if any(a > b for a, b in zip(ts, ts[1:])):
        raise ValidationError("stream must be sorted by prediction_ts")

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

    pcfg = _effective_penalties(penalties, cfg.guardrails_enabled)
    actor_lr = hp.resolve_actor_lr(cfg.algorithm)
    X = np.ascontiguousarray(stream.feature_matrix())
    Y = stream.outcomes()
    ids = stream.ids()
    st = _Members(members, params, cfg.seed, n, G)
    if backend == "numpy":
        X1 = np.hstack([np.ones((n, 1)), X])
        advance = lambda s, e: _advance_numpy(st, X1, Y, s, e, cfg.algorithm, hp, pcfg, cfg.early_stop, actor_lr)
    else:
        hp_vec = _pack_hp(cfg.algorithm, hp, pcfg, cfg.early_stop, actor_lr)
        advance = lambda s, e: _advance_kernel(st, X, Y, s, e, hp_vec, cfg.early_stop)

    boundaries = {0, n}
    boundaries.update(range(0, n, cfg.outer_iteration_len))
    if cfg.checkpoint_every > 0:
        boundaries.update(range(0, n, cfg.checkpoint_every))
    bounds = sorted(boundaries)

    def finished(r: int, end: int, reason: str | None = None) -> TrainResult:
        baseline = st.w_b[r].copy() if cfg.algorithm == "remax" else None
        return TrainResult(st.params(r), baseline, st.run_log(r, ids, end, reason), reason is not None, reason)

    results: dict[int, TrainResult | NumericAbort] = {}
    for s, e in zip(bounds[:-1], bounds[1:]):
        if s > 0 and s % cfg.outer_iteration_len == 0:
            st.reset_reference()
        if checkpoint_cb is not None and s > 0 and cfg.checkpoint_every > 0 and s % cfg.checkpoint_every == 0:
            for r, m in enumerate(st.members):
                checkpoint_cb(m, st.params(r), st.w_b[r].copy(), s, st.run_log(r, ids, s))
        st.snapshot()
        i = s
        while i < e and st.members:
            i, events = advance(i, e)
            for r, status, at, reason in events:
                if status == kernels.SPAN_NUMERIC:
                    results[st.members[r]] = NumericAbort(
                        f"non-finite gradient at question {ids[at]!r} (index {at})",
                        params=st.params(r, good=True),
                        baseline=st.good_b[r].copy(),
                        run_log=st.run_log(r, ids, at),
                    )
                else:
                    results[st.members[r]] = finished(r, at, reason)
            if events:
                st.drop([ev[0] for ev in events])
        if not st.members:
            break
    for r, m in enumerate(st.members):
        results[m] = finished(r, n)
    return [results[m] for m in members]


def train_online(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    backend: str = "auto",
    init_params: PolicyParams | None = None,
    checkpoint_cb=None,
) -> TrainResult:
    """Single chronological pass over the stream with one update per
    question, for the one member `cfg.member`.

    Early stop returns a partial, flagged RunLog.  A numeric failure
    raises NumericAbort carrying the last good parameters (from the most
    recent span boundary) and the log up to the failing question.
    """
    if cfg.algorithm == "dpo":
        raise ValidationError("dpo is trained offline; use train_dpo")
    cb = None if checkpoint_cb is None else lambda member, *args: checkpoint_cb(*args)
    (result,) = train_members(stream, cfg, hp, penalties, [cfg.member], backend, init_params, cb)
    if isinstance(result, NumericAbort):
        raise result
    return result


def _log_softmax_rows(Z: np.ndarray) -> np.ndarray:
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def train_dpo(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    init_params: PolicyParams | None = None,
) -> TrainResult:
    """Offline preference training.

    Two responses per question are sampled once from the frozen reference
    (the initial policy); the higher-total-reward response is preferred
    and ties are dropped.  The pair set is then optimized for dpo_epochs
    shuffled epochs in minibatches of dpo_batch.
    """
    cfg.validate()
    hp.validate()
    penalties = penalties if penalties is not None else PenaltyConfig()
    penalties.validate()
    n = len(stream)
    if n == 0:
        raise ValidationError("dpo training needs a non-empty stream")

    d = stream.feature_dim
    params = init_params.copy() if init_params is not None else PolicyParams.zeros(d, Vocabulary(cfg.content_length))
    if params.feature_dim != d:
        raise ValidationError("init_params feature_dim does not match the stream")
    ref = snapshot_reference(params)
    L = params.vocab.content_length
    pcfg = _effective_penalties(penalties, cfg.guardrails_enabled)
    rng = substream(cfg.seed, "dpo", cfg.member)
    U = rng.random((n, 2, L + 1))

    X = stream.feature_matrix()
    Y = stream.outcomes()
    ids = stream.ids()
    logs = _Logs(n)

    pair_rows: list[int] = []
    cdiff_rows: list[np.ndarray] = []
    answer_pairs: list[tuple[int, int]] = []
    ref_margins: list[float] = []
    for i in range(n):
        y = int(Y[i])
        pair = [sample_response(ref, X[i], uniforms=U[i, k]) for k in range(2)]
        assessments = [assess_guardrails(r) for r in pair]
        totals = [
            total_reward(r.parse_probability(), y, g, pcfg, schema_valid=r.schema_valid).total
            for r, g in zip(pair, assessments)
        ]
        p0 = pair[0].parse_probability()
        logs.parsed[i] = np.nan if p0 is None else p0
        logs.reward[i] = float(np.mean(totals))
        logs.gib[i] = float(np.mean([a.gibberish_proportion for a in assessments]))
        logs.nep[i] = float(np.mean([a.non_english_proportion for a in assessments]))
        logs.expq[i] = float(np.mean([a.explanation_quality for a in assessments]))
        if totals[0] == totals[1]:
            continue
        w, l = (0, 1) if totals[0] > totals[1] else (1, 0)
        counts_w = np.bincount(pair[w].content, minlength=N_CONTENT).astype(np.float64)
        counts_l = np.bincount(pair[l].content, minlength=N_CONTENT).astype(np.float64)
        log_c, log_a = head_log_distributions(ref, X[i])
        rm = float(
            (counts_w - counts_l) @ log_c + log_a[pair[w].answer] - log_a[pair[l].answer]
        )
        pair_rows.append(i)
        cdiff_rows.append(counts_w - counts_l)
        answer_pairs.append((pair[w].answer, pair[l].answer))
        ref_margins.append(rm)

    if not pair_rows:
        raise ValidationError("no valid preference pairs: every sampled pair tied")

    rows = np.array(pair_rows)
    cdiff = np.stack(cdiff_rows)
    answers = np.array(answer_pairs)
    ref_margin = np.array(ref_margins)
    Xt = np.hstack([np.ones((len(rows), 1)), X[rows]])

    state = OptimizerState.for_params(
        {"content": params.content_weights, "answer": params.answer_weights}
    )
    P = len(rows)
    for _ in range(hp.dpo_epochs):
        perm = rng.permutation(P)
        for lo in range(0, P, hp.dpo_batch):
            sel = perm[lo : lo + hp.dpo_batch]
            B = len(sel)
            xb = Xt[sel]
            log_c = _log_softmax_rows(xb @ params.content_weights)
            log_a = _log_softmax_rows(xb @ params.answer_weights)
            theta_diff = (
                np.sum(cdiff[sel] * log_c, axis=1)
                + log_a[np.arange(B), answers[sel, 0]]
                - log_a[np.arange(B), answers[sel, 1]]
            )
            z = hp.dpo_beta * (theta_diff - ref_margin[sel])
            coeff = -hp.dpo_beta / (1.0 + np.exp(z))  # d loss / d margin per pair
            g_content = xb.T @ (coeff[:, None] * cdiff[sel]) / B
            mask = np.zeros((B, N_ANSWER))
            mask[np.arange(B), answers[sel, 0]] += 1.0
            mask[np.arange(B), answers[sel, 1]] -= 1.0
            g_answer = xb.T @ (coeff[:, None] * mask) / B
            adamw_step(
                {"content": params.content_weights, "answer": params.answer_weights},
                {"content": g_content, "answer": g_answer},
                state,
                hp,
                hp.dpo_lr,
            )

    run_log = RunLog(ids, logs.parsed, logs.reward, logs.gib, logs.nep, logs.expq)
    return TrainResult(params, None, run_log)


def train(
    stream: Dataset,
    cfg: TrainConfig,
    hp: HyperParams,
    penalties: PenaltyConfig | None = None,
    backend: str = "auto",
    init_params: PolicyParams | None = None,
    checkpoint_cb=None,
) -> TrainResult:
    """Dispatch to the online loop or the offline DPO path."""
    if cfg.algorithm == "dpo":
        return train_dpo(stream, cfg, hp, penalties, init_params)
    return train_online(stream, cfg, hp, penalties, backend, init_params, checkpoint_cb)


_PREDICT_ROWS = 512  # rows per block, which bounds the (rows, N_ANSWER) temporaries


def _greedy_forecasts(params: PolicyParams, dataset: Dataset) -> np.ndarray:
    """Greedy forecast per question: the argmax answer token (ties to the
    lowest index) as a probability, NaN where that token is abstain."""
    for q in dataset:
        if q.features.shape[0] != params.feature_dim:
            raise ValidationError(
                f"question {q.id!r} has feature dim {q.features.shape[0]}, "
                f"policy expects {params.feature_dim}"
            )
    if not len(dataset):
        return np.empty(0)
    X1 = np.hstack([np.ones((len(dataset), 1)), dataset.feature_matrix()])
    k = np.empty(len(dataset), dtype=np.intp)
    for lo in range(0, len(dataset), _PREDICT_ROWS):
        # A stack of (1, d+1) @ (d+1, N_ANSWER) products makes the same BLAS
        # call per row as one question's `xt @ W`, so the probabilities, and
        # with them every argmax tie, are bit-identical to the per-question path.
        logits = np.matmul(X1[lo : lo + _PREDICT_ROWS, None, :], params.answer_weights)[:, 0]
        k[lo : lo + _PREDICT_ROWS] = np.exp(_log_softmax_rows(logits)).argmax(axis=1)
    return np.where(k == ABSTAIN, np.nan, ANSWER_VALUES[np.minimum(k, N_PROB - 1)])


def _forecast_map(dataset: Dataset, values: np.ndarray) -> dict[str, float | None]:
    return {qid: None if math.isnan(v) else v for qid, v in zip(dataset.ids(), values.tolist())}


def predict(params: PolicyParams, question: Question) -> float | None:
    """Deterministic greedy forecast for one question."""
    return predict_dataset(params, Dataset([question], "test"))[question.id]


def predict_dataset(params: PolicyParams, dataset: Dataset) -> dict[str, float | None]:
    """Greedy forecasts for a whole dataset: one matmul and a row-wise argmax."""
    return _forecast_map(dataset, _greedy_forecasts(params, dataset))


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


def ensemble_predict(spec: EnsembleSpec, question: Question) -> float | None:
    """Mean of the members' forecasts for one question, skipping abstentions."""
    return ensemble_predict_dataset(spec, Dataset([question], "test"))[question.id]


def ensemble_predict_dataset(spec: EnsembleSpec, dataset: Dataset) -> dict[str, float | None]:
    """Mean of the members' forecasts, skipping abstentions; None where
    every member abstains.

    The mean is summed in member order.  Where all present member values
    are equal it is that value, so a K-copy ensemble reproduces the single
    model bit-for-bit (a naive sum/K is not exact in floating point).
    """
    spec.validate()
    F = np.stack([_greedy_forecasts(m, dataset) for m in spec.members])
    present = ~np.isnan(F)
    total = np.zeros(F.shape[1])
    for row, has in zip(F, present):
        total += np.where(has, row, 0.0)
    count = present.sum(axis=0)
    mean = np.divide(total, count, out=np.full(F.shape[1], np.nan), where=count > 0)
    lo, hi = np.fmin.reduce(F, axis=0), np.fmax.reduce(F, axis=0)
    return _forecast_map(dataset, np.where(lo == hi, lo, mean))
