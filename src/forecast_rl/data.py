"""Questions, datasets, chronological validation, and the synthetic stream.

A Question is one binary event with a feature vector and timestamps.  A
Dataset is a chronologically sorted list of Questions.  The synthetic
generator replaces a real question corpus with a parametric stream whose
true event probabilities are known and written to a separate oracle
sidecar file, which training code never reads.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.rng import substream

_REQUIRED_FIELDS = (
    "id",
    "open_ts",
    "close_ts",
    "resolve_ts",
    "prediction_ts",
    "outcome",
    "features",
)
_OPTIONAL_FIELDS = ("market_price", "volume", "source")
_CSV_COLUMNS = _REQUIRED_FIELDS + _OPTIONAL_FIELDS


@dataclass
class Question:
    """One binary event.

    Timestamps are integer seconds.  `outcome` is 0 or 1.  `market_price`,
    when present, is the quote at `prediction_ts` and must lie strictly
    inside (0, 1).
    """

    id: str
    open_ts: int
    close_ts: int
    resolve_ts: int
    prediction_ts: int
    outcome: int
    features: np.ndarray
    market_price: float | None = None
    volume: float | None = None
    source: str = "synthetic"

    def validate(self, feature_dim: int | None = None) -> None:
        if not (self.open_ts <= self.prediction_ts < self.close_ts <= self.resolve_ts):
            raise ValidationError(
                f"question {self.id!r}: timestamps must satisfy "
                f"open <= prediction < close <= resolve, got "
                f"({self.open_ts}, {self.prediction_ts}, {self.close_ts}, {self.resolve_ts})"
            )
        if self.outcome not in (0, 1):
            raise ValidationError(f"question {self.id!r}: outcome must be 0 or 1, got {self.outcome}")
        if self.market_price is not None and not (0.0 < self.market_price < 1.0):
            raise ValidationError(
                f"question {self.id!r}: market_price must lie strictly in (0, 1), got {self.market_price}"
            )
        if self.volume is not None and self.volume < 0:
            raise ValidationError(f"question {self.id!r}: volume must be nonnegative")
        if self.source not in ("market", "synthetic"):
            raise ValidationError(f"question {self.id!r}: unknown source {self.source!r}")
        if feature_dim is not None and self.features.shape != (feature_dim,):
            raise ValidationError(
                f"question {self.id!r}: feature dimension {self.features.shape[0]} "
                f"differs from dataset dimension {feature_dim}"
            )


@dataclass
class SyntheticConfig:
    """Parameters of the synthetic question stream.

    Features are i.i.d. standard normal; the true probability is a logistic
    link through a latent weight vector that follows a random walk with
    step scale `temporal_drift`.  `market_noise` perturbs the latent logit
    to produce a correlated but imperfect market quote (None disables
    quotes entirely).
    """

    n_questions: int
    feature_dim: int
    latent_weights: np.ndarray | None = None
    temporal_drift: float = 0.0
    market_noise: float | None = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n_questions < 0:
            raise ValidationError("n_questions must be >= 0")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be >= 1")
        if self.temporal_drift < 0:
            raise ValidationError("temporal_drift must be >= 0")
        if self.latent_weights is not None and np.asarray(self.latent_weights).shape != (self.feature_dim,):
            raise ValidationError("latent_weights must have shape (feature_dim,)")


@dataclass
class Dataset:
    """Questions sorted ascending by prediction_ts (ties broken by id)."""

    questions: list[Question] = field(default_factory=list)
    split: str = "train"

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self):
        return iter(self.questions)

    @property
    def feature_dim(self) -> int:
        if not self.questions:
            raise ValidationError("empty dataset has no feature dimension")
        return self.questions[0].features.shape[0]

    def feature_matrix(self) -> np.ndarray:
        return np.array([q.features for q in self.questions], dtype=np.float64)

    def outcomes(self) -> np.ndarray:
        return np.array([q.outcome for q in self.questions], dtype=np.float64)

    def ids(self) -> list[str]:
        return [q.id for q in self.questions]

    def outcome_by_id(self) -> dict[str, int]:
        return {q.id: q.outcome for q in self.questions}


def _finalize(questions: list[Question], split: str) -> Dataset:
    """Validate, dedupe, and sort into a Dataset."""
    seen: set[str] = set()
    for q in questions:
        if q.id in seen:
            raise ValidationError(f"duplicate question id {q.id!r}")
        seen.add(q.id)
    dim = questions[0].features.shape[0] if questions else None
    for q in questions:
        q.validate(feature_dim=dim)
    questions = sorted(questions, key=lambda q: (q.prediction_ts, q.id))
    return Dataset(questions=questions, split=split)


def _question_from_record(record: dict, line: int) -> Question:
    for name in _REQUIRED_FIELDS:
        if name not in record or record[name] is None or record[name] == "":
            raise DataFormatError(f"missing required field {name!r}", line=line)
    unknown = set(record) - set(_CSV_COLUMNS)
    if unknown:
        raise DataFormatError(f"unknown fields {sorted(unknown)}", line=line)
    try:
        features = record["features"]
        if isinstance(features, str):
            features = json.loads(features)
        features = np.asarray(features, dtype=np.float64)
        market_price = record.get("market_price")
        volume = record.get("volume")
        return Question(
            id=str(record["id"]),
            open_ts=int(record["open_ts"]),
            close_ts=int(record["close_ts"]),
            resolve_ts=int(record["resolve_ts"]),
            prediction_ts=int(record["prediction_ts"]),
            outcome=int(record["outcome"]),
            features=features,
            market_price=None if market_price in (None, "") else float(market_price),
            volume=None if volume in (None, "") else float(volume),
            source=str(record.get("source") or "synthetic"),
        )
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot parse record: {exc}", line=line) from exc


def load_questions(path: str | Path, format: str | None = None, split: str = "train") -> Dataset:
    """Load a Dataset from JSONL or CSV.

    The format is inferred from the suffix unless given.  Parse failures
    report the offending line number; invariant violations report the
    question id.  Duplicate ids are rejected.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format not in ("jsonl", "csv"):
        raise ValidationError(f"unknown dataset format {format!r}")

    questions: list[Question] = []
    if format == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"invalid JSON: {exc}", line=line_no) from exc
                if not isinstance(record, dict):
                    raise DataFormatError("record is not an object", line=line_no)
                questions.append(_question_from_record(record, line_no))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for line_no, record in enumerate(reader, start=2):
                questions.append(_question_from_record(dict(record), line_no))
    return _finalize(questions, split=split)


def _question_record(q: Question) -> dict:
    return {
        "id": q.id,
        "open_ts": q.open_ts,
        "close_ts": q.close_ts,
        "resolve_ts": q.resolve_ts,
        "prediction_ts": q.prediction_ts,
        "outcome": q.outcome,
        "features": [float(v) for v in q.features],
        "market_price": q.market_price,
        "volume": q.volume,
        "source": q.source,
    }


def save_questions(dataset: Dataset, path: str | Path, format: str | None = None) -> None:
    """Write a Dataset as JSONL or CSV with identical field names."""
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for q in dataset:
                fh.write(json.dumps(_question_record(q), sort_keys=True) + "\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(_CSV_COLUMNS))
            writer.writeheader()
            for q in dataset:
                record = _question_record(q)
                record["features"] = json.dumps(record["features"])
                writer.writerow(record)
    else:
        raise ValidationError(f"unknown dataset format {format!r}")


def draw_prediction_timestamp(q: Question, rng: np.random.Generator) -> int:
    """Draw a prediction timestamp uniformly on [open_ts, close_ts)."""
    if q.open_ts >= q.close_ts:
        raise ValidationError(
            f"question {q.id!r}: degenerate window, open_ts {q.open_ts} >= close_ts {q.close_ts}"
        )
    ts = int(rng.integers(q.open_ts, q.close_ts))
    q.prediction_ts = ts
    return ts


@dataclass
class ChronologyReport:
    """Result of the train/test look-ahead check."""

    passed: bool
    violations: list[tuple[str, str]]  # the first MAX_LISTED_VIOLATIONS (train id, test id) pairs
    n_violations: int = 0  # every violating pair, counted

    def __bool__(self) -> bool:
        return self.passed


MAX_LISTED_VIOLATIONS = 10


def validate_chronology(train: Dataset, test: Dataset) -> ChronologyReport:
    """Check that every training question resolves before any test question
    is predicted.

    On failure, counts every violating (train, test) pair and lists the
    first MAX_LISTED_VIOLATIONS of them in train-then-test order.  The
    count bisects the sorted test prediction times, so a bad split costs
    O((n + m) log m) rather than O(n * m).
    """
    if not train.questions or not test.questions:
        raise ValidationError("chronology validation requires non-empty train and test datasets")
    test_ts = sorted(q.prediction_ts for q in test.questions)
    latest_train = max(q.resolve_ts for q in train.questions)
    if latest_train < test_ts[0]:
        return ChronologyReport(passed=True, violations=[])
    n_violations = 0
    violations: list[tuple[str, str]] = []
    for tr in train.questions:
        hits = bisect.bisect_right(test_ts, tr.resolve_ts)  # tests predicted at or before tr resolves
        n_violations += hits
        if hits and len(violations) < MAX_LISTED_VIOLATIONS:
            for te in test.questions:
                if tr.resolve_ts >= te.prediction_ts:
                    violations.append((tr.id, te.id))
                    if len(violations) == MAX_LISTED_VIOLATIONS:
                        break
    return ChronologyReport(passed=False, violations=violations, n_violations=n_violations)


# Window geometry of the synthetic stream.  Questions occupy disjoint
# windows so prediction timestamps are strictly increasing and every
# question resolves before the next one is predicted; any chronological
# split of the stream then passes validate_chronology by construction.
_WINDOW_STRIDE = 1000
_WINDOW_OPEN_LEN = 900
_BASE_TS = 1_600_000_000
_P_CLAMP = 1e-9


def generate_synthetic_stream(cfg: SyntheticConfig) -> tuple[Dataset, dict[str, float]]:
    """Generate the synthetic stream and its oracle probabilities.

    Returns the Dataset and a mapping id -> true probability.  The oracle
    mapping is meant for a sidecar file read only by evaluation code.
    """
    cfg.validate()
    rng = substream(cfg.seed, "data")
    n, d = cfg.n_questions, cfg.feature_dim

    if cfg.latent_weights is None:
        w0 = rng.standard_normal(d)
    else:
        w0 = np.asarray(cfg.latent_weights, dtype=np.float64)
    if n == 0:
        return Dataset(questions=[], split="train"), {}

    steps = rng.standard_normal((n, d)) * cfg.temporal_drift if cfg.temporal_drift > 0 else np.zeros((n, d))
    walk = w0[None, :] + np.cumsum(steps, axis=0)
    features = rng.standard_normal((n, d))
    logits = np.einsum("ij,ij->i", walk, features)
    # deep saturation rounds expit to exact 0/1, which the record schema forbids
    p_star = np.clip(expit(logits), _P_CLAMP, 1.0 - _P_CLAMP)
    outcomes = (rng.random(n) < p_star).astype(int)
    pred_offsets = rng.integers(0, _WINDOW_OPEN_LEN, size=n)
    if cfg.market_noise is not None:
        prices = expit(logits + cfg.market_noise * rng.standard_normal(n))
        prices = np.clip(prices, _P_CLAMP, 1.0 - _P_CLAMP)
    else:
        prices = None

    questions = []
    oracle: dict[str, float] = {}
    for i in range(n):
        qid = f"syn-{i:06d}"
        open_ts = _BASE_TS + i * _WINDOW_STRIDE
        close_ts = open_ts + _WINDOW_OPEN_LEN
        questions.append(
            Question(
                id=qid,
                open_ts=open_ts,
                close_ts=close_ts,
                resolve_ts=close_ts,
                prediction_ts=open_ts + int(pred_offsets[i]),
                outcome=int(outcomes[i]),
                features=features[i],
                market_price=float(prices[i]) if prices is not None else None,
                volume=None,
                source="synthetic",
            )
        )
        oracle[qid] = float(p_star[i])
    return _finalize(questions, split="train"), oracle


def split_dataset(dataset: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """Chronological split: the first `train_fraction` of questions train,
    the remainder test."""
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError("train_fraction must lie in (0, 1)")
    k = int(len(dataset.questions) * train_fraction)
    train = Dataset(questions=dataset.questions[:k], split="train")
    test = Dataset(questions=dataset.questions[k:], split="test")
    return train, test


def write_oracle(oracle: dict[str, float], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for qid in oracle:
            fh.write(json.dumps({"id": qid, "p_star": oracle[qid]}, sort_keys=True) + "\n")


def load_oracle(path: str | Path) -> dict[str, float]:
    oracle: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                oracle[str(record["id"])] = float(record["p_star"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"invalid oracle record: {exc}", line=line_no) from exc
    return oracle
