"""Categorical forecasting policy.

A response is a fixed-length sequence of content tokens followed by one
answer token.  Content tokens share a single categorical distribution
across all slots; the answer token has its own distribution over the 101
probability values 0.00 .. 1.00 plus an explicit abstain token.  Both
distributions are linear softmax heads on a bias-augmented feature
vector, so zero weights give the uniform policy.

A member's trained state is one `PolicyParams`: the two heads as one
(d+1, N_CONTENT + N_ANSWER) weight stack, the content length, and for
ReMax the learned baseline.  A checkpoint holds the same three.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.files import check_shape, read_json, write_json

RATIONALE = 0
GIBBERISH = 1
NONENGLISH = 2
N_CONTENT = 3

N_PROB = 101  # P_0 .. P_100
ABSTAIN = 101
N_ANSWER = 102

ANSWER_VALUES = np.arange(N_PROB, dtype=np.float64) / 100.0

CHECKPOINT_VERSION = 1


@dataclass
class PolicyParams:
    """A member's trained state.

    `weights` is the (feature_dim + 1, N_CONTENT + N_ANSWER) stack of the
    two heads, the content head's columns first; row 0 is the bias.  Zero
    weights yield the uniform policy over both heads.  `baseline` holds
    the feature_dim + 1 weights of ReMax's linear baseline, and is None
    for the algorithms without one.
    """

    weights: np.ndarray
    content_length: int = 8
    baseline: np.ndarray | None = None

    @classmethod
    def zeros(cls, feature_dim: int, content_length: int = 8) -> "PolicyParams":
        return cls(np.zeros((feature_dim + 1, N_CONTENT + N_ANSWER)), content_length)

    @property
    def content_weights(self) -> np.ndarray:  # a view of the stack's columns
        return self.weights[:, :N_CONTENT]

    @property
    def answer_weights(self) -> np.ndarray:
        return self.weights[:, N_CONTENT:]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0] - 1

    def validate(self) -> None:
        if self.content_length < 1:
            raise ValidationError("content_length must be >= 1")
        if self.weights.ndim != 2 or self.weights.shape[1] != N_CONTENT + N_ANSWER:
            raise ValidationError(f"weights must have shape (d+1, {N_CONTENT + N_ANSWER})")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("policy weights must be finite")
        n, b = self.weights.shape[0], self.baseline
        if b is not None and (b.shape != (n,) or not np.all(np.isfinite(b))):
            raise ValidationError(f"baseline_weights must hold feature_dim + 1 = {n} finite numbers")

    def copy(self) -> "PolicyParams":
        baseline = None if self.baseline is None else self.baseline.copy()
        return PolicyParams(self.weights.copy(), self.content_length, baseline)


def save_checkpoint(params: PolicyParams, path: str | Path) -> None:
    """Write params as JSON.  Python's repr-based float serialization
    round-trips float64 exactly, so load(save(p)) is bit-identical."""
    params.validate()
    record = {
        "version": CHECKPOINT_VERSION,
        "content_length": params.content_length,
        "feature_dim": params.feature_dim,
        "content_weights": params.content_weights.tolist(),
        "answer_weights": params.answer_weights.tolist(),
        "baseline_weights": None if params.baseline is None else params.baseline.tolist(),
    }
    write_json(path, record)


_CHECKPOINT_SHAPE = {
    "content_length": int,
    "feature_dim": int,
    "content_weights": [[float]],
    "answer_weights": [[float]],
    "baseline_weights": (None, [float]),
}


def load_checkpoint(path: str | Path) -> PolicyParams:
    record = read_json(path, dict)
    if record.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {record.get('version')!r}")
    check_shape(record, _CHECKPOINT_SHAPE, path)
    heads = []
    for key, width in (("content_weights", N_CONTENT), ("answer_weights", N_ANSWER)):
        if len({len(row) for row in record[key]}) > 1:
            raise DataFormatError(f"{path}: the rows of {key} differ in length")
        head = np.asarray(record[key], dtype=np.float64)
        if head.shape != (record["feature_dim"] + 1, width):
            raise DataFormatError(f"{path}: {key} must have shape (feature_dim + 1, {width}), got {head.shape}")
        heads.append(head)
    baseline = record["baseline_weights"]
    params = PolicyParams(
        np.hstack(heads), record["content_length"], None if baseline is None else np.asarray(baseline, dtype=np.float64)
    )
    try:
        params.validate()
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return params
