"""Datasets, chronological validation, and the synthetic stream.

A Dataset holds its questions as columns, sorted by (prediction_ts, id);
a Question is one binary event, the row record that tests build datasets
from.  The synthetic generator replaces a real question corpus with a
parametric stream whose true event probabilities are known and written to
a separate oracle sidecar file, which training code never reads.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.files import (
    atomic_write,
    json_number,
    json_string,
    read_csv_columns,
    read_jsonl_columns,
    read_npy,
    remove,
    sha256,
    write_jsonl_columns,
    write_npy,
)
from forecast_rl.rng import substream

# Question's fields in order: the CSV header, and the order of a row tuple.
_FIELDS = (
    "id", "open_ts", "close_ts", "resolve_ts", "prediction_ts", "outcome", "features",
    "market_price", "volume", "source",
)
_REQUIRED_FIELDS = _FIELDS[:7]
# The Dataset column of each field.
_COLUMNS = ("ids",) + _FIELDS[1:]
_INTEGER_FIELDS = ("open_ts", "close_ts", "resolve_ts", "prediction_ts", "outcome")
_SOURCES = ("market", "synthetic")


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
    temporal_drift: float = 0.0
    market_noise: float | None = 0.5

    def validate(self) -> None:
        if self.n_questions < 0:
            raise ValidationError("n_questions must be >= 0")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be >= 1")
        if self.temporal_drift < 0:
            raise ValidationError("temporal_drift must be >= 0")


class Dataset:
    """Questions as columns, sorted ascending by prediction_ts (ties by id).

    `ids` and `source` are lists of str; `open_ts`, `close_ts`,
    `resolve_ts`, `prediction_ts` and `outcome` are int64 arrays;
    `features` is an (n, d) float64 matrix; `market_price` and `volume` are
    float64 arrays with NaN where the field is null.

    `Dataset(questions, split)` builds one from Question rows, validated
    and sorted as `load_questions` does a file's records.
    """

    def __init__(self, questions=(), split: str = "train"):
        rows = [tuple(getattr(q, name) for name in _FIELDS) for q in questions]
        vars(self).update(vars(_from_rows(rows, split)))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """Each row as a Question; its features are a view of the matrix row."""
        return (Question(*row) for row in _rows(self, self.features))

    @property
    def feature_dim(self) -> int:
        if not len(self):
            raise ValidationError("empty dataset has no feature dimension")
        return self.features.shape[1]


def _rows(ds: Dataset, features) -> zip:
    """Each row of `ds` as a tuple in _FIELDS order, None where a field is
    null, with the row of `features` (the matrix or its list) as its own."""
    ints = (getattr(ds, name).tolist() for name in _INTEGER_FIELDS)
    prices, volumes = ([None if math.isnan(v) else v for v in c.tolist()] for c in (ds.market_price, ds.volume))
    return zip(ds.ids, *ints, features, prices, volumes, ds.source)


def _dataset(columns: list, split: str) -> Dataset:
    """A Dataset holding `columns` (in _COLUMNS order) as they are."""
    ds = Dataset.__new__(Dataset)
    ds.split = split
    vars(ds).update(zip(_COLUMNS, columns))
    return ds


def _validate(ids, open_ts, close_ts, resolve_ts, prediction_ts, outcome, features, market_price, volume, source,
              dims) -> None:
    """Raise a ValidationError naming the first row, in file order, that
    breaks an invariant, with its first broken check; a repeated id is
    looked for first.  `dims` holds each row's feature count (the matrix
    is zero-padded where a row is short)."""
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for qid in ids:
            if qid in seen:
                raise ValidationError(f"duplicate question id {qid!r}")
            seen.add(qid)
    with np.errstate(over="ignore", invalid="ignore"):
        # x.x is finite only when every feature is finite and the squares do
        # not overflow; training's clip norm needs it finite.
        finite = np.isfinite(np.einsum("ij,ij->i", features, features))
    checks = (
        (~((open_ts <= prediction_ts) & (prediction_ts < close_ts) & (close_ts <= resolve_ts)),
         lambda i: "timestamps must satisfy open <= prediction < close <= resolve, got "
         f"({open_ts[i]}, {prediction_ts[i]}, {close_ts[i]}, {resolve_ts[i]})"),
        ((outcome != 0) & (outcome != 1), lambda i: f"outcome must be 0 or 1, got {outcome[i]}"),
        ((market_price <= 0.0) | (market_price >= 1.0),  # False where NaN (null)
         lambda i: f"market_price must lie strictly in (0, 1), got {float(market_price[i])}"),
        (volume < 0, lambda i: "volume must be nonnegative"),
        (~np.isin(source, _SOURCES), lambda i: f"unknown source {source[i]!r}"),
        (~finite, lambda i: "features must be finite numbers whose sum of squares is finite"),
        (dims != dims[:1], lambda i: f"feature dimension {dims[i]} differs from dataset dimension {dims[0]}"),
    )
    bad = np.array([mask for mask, _ in checks], dtype=bool)
    rows = bad.any(axis=0)
    if rows.any():
        i = int(rows.argmax())
        message = checks[int(bad[:, i].argmax())][1]
        raise ValidationError(f"question {ids[i]!r}: {message(i)}")


def _sorted(columns: list, dims: np.ndarray, split: str) -> Dataset:
    """Validate `columns` (in _COLUMNS order, rows in file order) and
    return them as a Dataset sorted by (prediction_ts, id)."""
    _validate(*columns, dims)
    ids, *arrays, source = columns
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)  # str order, as Python sorts
    order = by_id[np.argsort(columns[4][by_id], kind="stable")]  # then stably by prediction_ts
    rows = order.tolist()
    return _dataset([[ids[i] for i in rows], *(a[order] for a in arrays), [source[i] for i in rows]], split)


def _block(columns) -> list:
    """Field columns in _FIELDS order, each value as its cast gives it
    (None where a price or volume is null), as arrays: the ids, the five
    int64 columns, each row's feature count, the zero-padded feature
    matrix, prices and volumes with NaN for null, and the sources."""
    ids, *ints, features, prices, volumes, source = columns
    n = len(ids)
    dims = np.fromiter(map(len, features), dtype=np.int64, count=n)
    d = int(dims.max(initial=0))
    if (dims == d).all():
        matrix = np.array(features, dtype=np.float64).reshape(n, d)
    else:  # zero-padded; the validator names the first row of another length
        matrix = np.zeros((n, d))
        for i, f in enumerate(features):
            matrix[i, : len(f)] = f
    ints = [np.array(c, dtype=np.int64) for c in ints]
    nullable = [np.array(c, dtype=np.float64) for c in (prices, volumes)]  # None becomes NaN
    return [list(ids), *ints, dims, matrix, *nullable, list(source)]


def _from_blocks(blocks: list[list], split: str) -> Dataset:
    """A Dataset of one or more `_block`s in file order (see `_sorted`)."""
    ids, *ints, dims, matrices, prices, volumes, source = zip(*blocks)
    d = max(m.shape[1] for m in matrices)
    matrix = np.concatenate([np.pad(m, ((0, 0), (0, d - m.shape[1]))) for m in matrices])  # as wide as the widest
    arrays = [np.concatenate(c) for c in (*ints, prices, volumes)]
    ids, source = (list(itertools.chain.from_iterable(c)) for c in (ids, source))
    return _sorted([ids, *arrays[:5], matrix, *arrays[5:], source], np.concatenate(dims), split)


def _from_rows(rows: list[tuple], split: str) -> Dataset:
    """A Dataset of rows in _FIELDS order (see `_sorted`)."""
    return _from_blocks([_block(list(zip(*rows)) or [()] * len(_FIELDS))], split)


def _integer(value) -> int:
    """An integer field of a JSONL record: a JSON integer or integral number
    that fits in 64 bits.  A boolean, a string or a fraction is refused, not
    counted as 1, parsed or truncated."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {json.dumps(value)[:40]}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"expected an integer that fits in 64 bits, got {value}")
    return value


def _numbers(value) -> list[float]:
    """`features`: a JSON list of numbers, none of them a boolean."""
    if type(value) is not list or not all(map({int, float}.__contains__, map(type, value))):
        raise ValueError(f"expected a list of numbers, got {json.dumps(value)[:40]}")
    return list(map(float, value))


def _nullable(number, value) -> float | None:
    """`market_price` or `volume`: None for null (or an empty CSV cell), else
    number(value) if that is finite, so that NaN can stand for null."""
    if value is None or value == "":
        return None
    x = number(value)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


# Plain JSON-number text: no blanks, underscores, leading '+' or leading
# zeros, and ASCII digits only (\d would match other scripts' digits too).
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


def _number_cell(cell) -> int | float:
    """An integer or number CSV cell as the JSON number its text spells, so
    that it casts as the same value in a JSONL record does.  The text a
    non-finite float is written as (nan, inf, -inf) reads as that float,
    for the field's cast to refuse by name."""
    if cell in ("nan", "inf", "-inf"):
        return float(cell)
    if not _JSON_NUMBER.fullmatch(cell):
        raise ValueError(f"expected a JSON number, got {cell[:40]!r}")
    return json.loads(cell)


def _list_cell(cell: str):
    """The `features` CSV cell as the JSON value its text spells; an empty
    cell, or blanks around the text, are refused, as they are for a number
    cell."""
    if cell == "":
        raise ValueError("expected a JSON list, got ''")
    if cell != cell.strip():
        raise ValueError(f"expected a JSON list without blanks around it, got {cell[:40]!r}")
    return json.loads(cell)  # a JSONDecodeError is a ValueError


def _id(value) -> str:
    """`id`: a JSON string (or CSV cell), not empty."""
    if value == "":
        raise ValueError("expected a non-empty string")
    return json_string(value)


def _source(value) -> str:
    """`source`: a JSON string (or CSV cell), "synthetic" where it is null,
    empty or absent."""
    return "synthetic" if value is None or value == "" else json_string(value)


# How each field is read, in _FIELDS order: a JSONL value must have its
# JSON type; a CSV cell is text, cast as the field needs.  A field that
# needs a value refuses null and "" in its cast.
_JSONL_CASTS = {
    "id": _id,
    **dict.fromkeys(_INTEGER_FIELDS, _integer),
    "features": _numbers,
    **dict.fromkeys(("market_price", "volume"), functools.partial(_nullable, json_number)),
    "source": _source,
}
_CSV_CASTS = {
    **_JSONL_CASTS,
    **dict.fromkeys(_INTEGER_FIELDS, lambda cell: _integer(_number_cell(cell))),
    "features": lambda cell: _numbers(_list_cell(cell)),
    **dict.fromkeys(("market_price", "volume"), functools.partial(_nullable, lambda cell: float(_number_cell(cell)))),
}


def load_questions(path: str | Path, split: str = "train") -> Dataset:
    """Load a Dataset from CSV (a `.csv` suffix) or JSONL.

    Parse failures report the file, the offending line and the field;
    invariant violations report the question id.  Duplicate ids are
    rejected.  A JSONL file whose sidecar (see `save_questions`) records
    the file's own SHA-256 is read from the sidecar's columns, through the
    same checks and sort, instead of decoded; a sidecar that is not one
    is refused.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        blocks = read_csv_columns(path, _CSV_CASTS, required=_REQUIRED_FIELDS, closed=True)
    else:
        sidecar = _sidecar(path)
        if sidecar.exists():
            record = _read_sidecar(sidecar)
            if record["sha256"].item() == sha256(path).encode():
                columns = [record[name] for name in _COLUMNS]
                columns[0], columns[-1] = columns[0].tolist(), columns[-1].tolist()
                if not _sidecar_holds(columns):
                    raise DataFormatError(f"{sidecar} holds values that {path.name} cannot; {_SIDECAR_HINT}")
                return _sorted(columns, np.full(len(columns[0]), columns[6].shape[1]), split)
        blocks = read_jsonl_columns(path, _JSONL_CASTS, required=_REQUIRED_FIELDS, closed=True)
    return _from_blocks(list(map(_block, blocks)) or [_block([()] * len(_FIELDS))], split)


def _records(dataset: Dataset):
    """Each row as a record of every field, None where a field is null."""
    return (dict(zip(_FIELDS, row)) for row in _rows(dataset, dataset.features.tolist()))


def save_questions(dataset: Dataset, path: str | Path) -> list[Path]:
    """Write a Dataset as CSV (a `.csv` suffix) or JSONL, with identical
    field names, and return the files written.

    A JSONL file gets a sidecar, `<file>.npy`: one `.npy` record holding
    the file's SHA-256 and the dataset's columns, which `load_questions`
    reads in place of decoding the file while the digest matches.  A CSV
    file, an empty dataset, or one whose values decode to others (see
    `_sidecar_holds`) gets none, and an old sidecar at that path is
    removed.
    """
    path = Path(path)
    sidecar = _sidecar(path)
    if path.suffix.lower() == ".csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(_FIELDS))
            writer.writeheader()
            for record in _records(dataset):
                record["features"] = json.dumps(record["features"])
                writer.writerow(record)
    else:
        columns = [getattr(dataset, name) for name in _COLUMNS]
        write_jsonl_columns(path, dict(zip(_FIELDS, columns)), null=("market_price", "volume"))
        if len(dataset) and _sidecar_holds(columns):
            write_npy(sidecar, _sidecar_record(columns, sha256(path)))
            return [path, sidecar]
    remove(sidecar)
    return [path]


_SIDECAR_HINT = "delete it or re-run synth"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


def _sidecar_dtype(n: int, d: int, id_chars: int, source_chars: int) -> np.dtype:
    """A sidecar's one record: the hex SHA-256 of its JSONL file, then each
    Dataset column of n rows in _COLUMNS order, strings fixed-width."""
    shapes = {"ids": (f"<U{id_chars}", (n,)), "features": ("<f8", (n, d)), "market_price": ("<f8", (n,)),
              "volume": ("<f8", (n,)), "source": (f"<U{source_chars}", (n,))}
    return np.dtype([("sha256", "S64"), *((name, *shapes.get(name, ("<i8", (n,)))) for name in _COLUMNS)])


def _sidecar_holds(columns: list) -> bool:
    """Whether columns (in _COLUMNS order) in a sidecar load as decoding
    their JSONL loads them: with the same values, or refused by the same
    `_validate` check.  Not so for a value that a JSONL cast refuses or
    changes and `_validate` lets through (a string id or source that is
    not a non-empty str, an integer column that is not int64, an infinite
    price or volume), nor for a string holding NUL, which a numpy string
    drops at its end."""
    ids, *ints, _, market_price, volume, source = columns
    strings = [*ids, *source]
    return (set(map(type, strings)) == {str} and all(strings) and "\0" not in "".join(strings)
            and all(np.asarray(c).dtype == np.int64 for c in ints)
            and not (np.isinf(market_price).any() or np.isinf(volume).any()))


def _sidecar_record(columns: list, digest: str) -> np.ndarray:
    """The sidecar record of columns (in _COLUMNS order) whose JSONL file
    has the hex SHA-256 `digest`."""
    n, d = columns[6].shape
    record = np.zeros((), _sidecar_dtype(n, d, max(map(len, columns[0])), max(map(len, columns[-1]))))
    record["sha256"] = digest
    for name, column in zip(_COLUMNS, columns):
        record[name] = column
    for name in ("market_price", "volume"):  # every null as the NaN that decoding a null gives
        record[name][np.isnan(record[name])] = np.nan
    return record


def _read_sidecar(sidecar: Path) -> np.ndarray:
    """A sidecar's record; a file that is not one is refused, naming it."""
    try:
        record = read_npy(sidecar)
    except DataFormatError as exc:
        raise DataFormatError(f"{exc}; {_SIDECAR_HINT}") from exc
    try:
        n, d = record.dtype.fields["features"][0].shape
        layout = _sidecar_dtype(n, d, *(record.dtype.fields[name][0].base.itemsize // 4 for name in ("ids", "source")))
    except (TypeError, KeyError, ValueError):  # no fields, or not a sidecar's
        layout = None
    if layout is None or record.shape != () or record.dtype != layout:
        raise DataFormatError(f"{sidecar} is not a question sidecar; {_SIDECAR_HINT}")
    return record


@dataclass
class ChronologyReport:
    """Result of the train/test look-ahead check."""

    passed: bool
    violations: list[tuple[str, str]]  # the first MAX_LISTED_VIOLATIONS (train id, test id) pairs
    n_violations: int = 0  # every violating pair, counted


MAX_LISTED_VIOLATIONS = 10


def validate_chronology(train: Dataset, test: Dataset) -> ChronologyReport:
    """Check that every training question resolves before any test question
    is predicted.

    On failure, counts every violating (train, test) pair and lists the
    first MAX_LISTED_VIOLATIONS of them in train-then-test order.  The test
    set is sorted by prediction time, so train row r violates against the
    test rows [0, hits[r]), found by one `searchsorted`: O((n + m) log m)
    rather than O(n * m).
    """
    if not len(train) or not len(test):
        raise ValidationError("chronology validation requires non-empty train and test datasets")
    hits = np.searchsorted(test.prediction_ts, train.resolve_ts, side="right")
    n_violations = int(hits.sum())
    first = np.flatnonzero(hits)[:MAX_LISTED_VIOLATIONS].tolist()  # each lists one pair or more
    pairs = [(train.ids[r], qid) for r in first for qid in test.ids[: min(int(hits[r]), MAX_LISTED_VIOLATIONS)]]
    return ChronologyReport(n_violations == 0, pairs[:MAX_LISTED_VIOLATIONS], n_violations)


# Window geometry of the synthetic stream.  Questions occupy disjoint
# windows so prediction timestamps are strictly increasing and every
# question resolves before the next one is predicted; any chronological
# split of the stream then passes validate_chronology by construction.
_WINDOW_STRIDE = 1000
_WINDOW_OPEN_LEN = 900
_BASE_TS = 1_600_000_000
_P_CLAMP = 1e-9


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # e^-v is past the largest double: the limit is 0
        return 0.0


def _expit(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-v) per element with the C library's exp, as
    scipy.special.expit computes it (numpy's vectorized exp can differ in
    the last bit, which would change the stream)."""
    return np.array([_logistic(v) for v in logits.tolist()])


def generate_synthetic_stream(
    cfg: SyntheticConfig, seed: int, latent_weights: np.ndarray | None = None
) -> tuple[Dataset, dict[str, float]]:
    """Generate the synthetic stream and its oracle probabilities from
    substream(seed, "data").

    Returns the Dataset and a mapping id -> true probability.  The oracle
    mapping is meant for a sidecar file read only by evaluation code.
    `latent_weights`, a (feature_dim,) vector, replaces the drawn initial
    latent weights.
    """
    cfg.validate()
    rng = substream(seed, "data")
    n, d = cfg.n_questions, cfg.feature_dim

    if latent_weights is None:
        w0 = rng.standard_normal(d)
    else:
        w0 = np.asarray(latent_weights, dtype=np.float64)
        if w0.shape != (d,):
            raise ValidationError("latent_weights must have shape (feature_dim,)")
    if n == 0:
        return Dataset([], "train"), {}

    steps = rng.standard_normal((n, d)) * cfg.temporal_drift if cfg.temporal_drift > 0 else np.zeros((n, d))
    walk = w0[None, :] + np.cumsum(steps, axis=0)
    features = rng.standard_normal((n, d))
    logits = np.einsum("ij,ij->i", walk, features)
    # deep saturation rounds expit to exact 0/1, which the record schema forbids
    p_star = np.clip(_expit(logits), _P_CLAMP, 1.0 - _P_CLAMP)
    outcomes = (rng.random(n) < p_star).astype(np.int64)
    pred_offsets = rng.integers(0, _WINDOW_OPEN_LEN, size=n)
    if cfg.market_noise is not None:
        prices = _expit(logits + cfg.market_noise * rng.standard_normal(n))
        prices = np.clip(prices, _P_CLAMP, 1.0 - _P_CLAMP)
    else:
        prices = np.full(n, np.nan)

    ids = [f"syn-{i:06d}" for i in range(n)]
    open_ts = _BASE_TS + _WINDOW_STRIDE * np.arange(n, dtype=np.int64)
    close_ts = open_ts + _WINDOW_OPEN_LEN
    columns = [ids, open_ts, close_ts, close_ts, open_ts + pred_offsets, outcomes, features, prices,
               np.full(n, np.nan), ["synthetic"] * n]
    return _sorted(columns, np.full(n, d), "train"), dict(zip(ids, p_star.tolist()))


def split_dataset(dataset: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """Chronological split: the first `train_fraction` of questions train,
    the remainder test."""
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError("train_fraction must lie in (0, 1)")
    k = int(len(dataset) * train_fraction)
    train, test = ([getattr(dataset, name)[rows] for name in _COLUMNS] for rows in (slice(None, k), slice(k, None)))
    return _dataset(train, "train"), _dataset(test, "test")


def write_oracle(oracle: dict[str, float], path: str | Path) -> None:
    write_jsonl_columns(path, {"id": list(oracle), "p_star": list(oracle.values())})


_ORACLE_CASTS = {"id": json_string, "p_star": json_number}


def load_oracle(path: str | Path) -> dict[str, float]:
    """The oracle sidecar as {id: p_star}; a repeated id is refused."""
    oracle: dict[str, float] = {}
    for ids, p_star in read_jsonl_columns(path, _ORACLE_CASTS, required=_ORACLE_CASTS, unique="id"):
        oracle.update(zip(ids, p_star))
    return oracle
