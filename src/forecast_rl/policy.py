"""Categorical forecasting policy.

A response is a fixed-length sequence of content tokens followed by one
answer token.  Content tokens share a single categorical distribution
across all slots; the answer token has its own distribution over the 101
probability values 0.00 .. 1.00 plus an explicit abstain token.  Both
distributions are linear softmax heads on a bias-augmented feature
vector, so zero weights give the uniform policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class Vocabulary:
    """Token layout shared by every policy in a run."""

    content_length: int = 8

    def __post_init__(self) -> None:
        if self.content_length < 1:
            raise ValidationError("content_length must be >= 1")


@dataclass
class PolicyParams:
    """Weights of the two softmax heads.

    Shapes are (feature_dim + 1, n_tokens); row 0 is the bias.  Zero
    initialization yields the uniform policy over both heads.
    """

    content_weights: np.ndarray
    answer_weights: np.ndarray
    vocab: Vocabulary = field(default_factory=Vocabulary)

    @classmethod
    def zeros(cls, feature_dim: int, vocab: Vocabulary | None = None) -> "PolicyParams":
        vocab = vocab or Vocabulary()
        return cls(
            content_weights=np.zeros((feature_dim + 1, N_CONTENT)),
            answer_weights=np.zeros((feature_dim + 1, N_ANSWER)),
            vocab=vocab,
        )

    @property
    def feature_dim(self) -> int:
        return self.content_weights.shape[0] - 1

    def validate(self) -> None:
        if self.content_weights.ndim != 2 or self.content_weights.shape[1] != N_CONTENT:
            raise ValidationError(f"content_weights must have shape (d+1, {N_CONTENT})")
        if self.answer_weights.shape != (self.content_weights.shape[0], N_ANSWER):
            raise ValidationError(f"answer_weights must have shape (d+1, {N_ANSWER})")
        if not (np.all(np.isfinite(self.content_weights)) and np.all(np.isfinite(self.answer_weights))):
            raise ValidationError("policy weights must be finite")

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            content_weights=self.content_weights.copy(),
            answer_weights=self.answer_weights.copy(),
            vocab=Vocabulary(self.vocab.content_length),
        )


def save_checkpoint(
    params: PolicyParams,
    path: str | Path,
    baseline_weights: np.ndarray | None = None,
) -> None:
    """Write params as JSON.  Python's repr-based float serialization
    round-trips float64 exactly, so load(save(p)) is bit-identical."""
    params.validate()
    record = {
        "version": CHECKPOINT_VERSION,
        "content_length": params.vocab.content_length,
        "feature_dim": params.feature_dim,
        "content_weights": params.content_weights.tolist(),
        "answer_weights": params.answer_weights.tolist(),
        "baseline_weights": None if baseline_weights is None else baseline_weights.tolist(),
    }
    write_json(path, record)


_CHECKPOINT_SHAPE = {
    "content_length": int,
    "feature_dim": int,
    "content_weights": [[float]],
    "answer_weights": [[float]],
    "baseline_weights": (None, [float]),
}


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, np.ndarray | None]:
    record = read_json(path, dict)
    if record.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {record.get('version')!r}")
    check_shape(record, _CHECKPOINT_SHAPE, path)
    weights = {}
    for key in ("content_weights", "answer_weights"):
        if len({len(row) for row in record[key]}) > 1:
            raise DataFormatError(f"{path}: the rows of {key} differ in length")
        weights[key] = np.asarray(record[key], dtype=np.float64)
    try:
        params = PolicyParams(**weights, vocab=Vocabulary(record["content_length"]))
        params.validate()
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if params.feature_dim != record["feature_dim"]:
        raise DataFormatError(f"{path}: checkpoint feature_dim does not match weight shapes")
    baseline = record["baseline_weights"]
    return params, None if baseline is None else np.asarray(baseline, dtype=np.float64)
