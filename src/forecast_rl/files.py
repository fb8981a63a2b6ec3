"""The one place that opens run files.

A writer fills `.<name>.<pid>.tmp` in the target's directory and then
moves it over the target with `os.replace`, so a crash leaves the old file
or the new one, never a truncated one; if the write raises, the temp file
is removed, and an OSError becomes a DataFormatError naming the target.  A
temp file left by a killed process is not registered in the manifest, so
`report` lists it among the unregistered files.

The readers turn a file that cannot be read or decoded, a JSON document
without the keys and types its reader uses, or a JSONL / CSV record that
its schema refuses, into a DataFormatError naming the file (and the line
of a record), which the CLI maps to exit code 2.

JSONL run files (questions, oracle, forecasts, runlog) are read and written
here by columns, BLOCK_ROWS lines at a time, and nowhere else: a line is
exactly the `json.dumps(record, sort_keys=True)` of its record, and every
non-blank line read must be exactly one JSON value.  CSV question files are
read by the same columns.  A schema declares each field once, as a cast
that turns the field's value (None where the record lacks it) into what is
loaded, or raises; one rule (`_cast_record`) decides which refusal names
a bad record.

A question split's sidecar (see `data.save_questions`) is one numpy
array in the `.npy` format, written by `write_npy` and read by `read_npy`
without pickles; `sha256` digests the file it is bound to.

`cgroup_cpus` reads the one file this package reads that is not a run
file: the process's CPU quota.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import json.scanner
import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy.lib.format

from forecast_rl.errors import DataFormatError

# The cgroup file system whose CPU quota `cgroup_cpus` reads; in a
# container it is the container's own cgroup.
CGROUP_ROOT = Path("/sys/fs/cgroup")


@contextlib.contextmanager
def atomic_write(path: str | Path, newline: str | None = None, binary: bool = False):
    """A UTF-8 text handle (a byte handle if `binary`) whose content
    replaces `path` when the block ends.  An OSError on the way (a
    directory that cannot be made, a file that cannot be opened, written or
    moved) becomes a DataFormatError naming `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc}") from exc


def remove(path: str | Path) -> None:
    """Delete `path` if it exists; an OSError becomes a DataFormatError."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise DataFormatError(f"cannot remove {path}: {exc}") from exc


def sha256(path: str | Path) -> str:
    """The hex SHA-256 of the file's bytes, read a MiB at a time."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def write_npy(path: str | Path, array) -> None:
    """A numpy array in the `.npy` format; one holding objects is refused."""
    with atomic_write(path, binary=True) as fh:
        numpy.lib.format.write_array(fh, array, allow_pickle=False)


def read_npy(path: str | Path):
    """The array of a `.npy` file, which must end where the array does.
    Pickled objects are refused."""
    try:
        with open(path, "rb") as fh:
            array = numpy.lib.format.read_array(fh, allow_pickle=False)
            if fh.read(1):
                raise ValueError("bytes follow the array")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError) as exc:  # a bad header, a short read, an object array
        raise DataFormatError(f"{path} is not a .npy array: {exc}") from exc
    return array


def write_json(path: str | Path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# Lines a JSONL reader decodes, or a writer formats, before it hands them
# on: what either holds beyond its columns is one block.
BLOCK_ROWS = 256

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_texts(values: list, nan: str) -> list[str]:
    """Each value as `json.dumps` writes it inside a record, NaN as `nan`;
    a column of one type is formatted by one C-level map."""
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if not math.isfinite(sum(values)):  # a NaN or an infinity (or a sum that overflows)
            words = {**_NON_FINITE, "nan": nan}
            texts = [words.get(t, t) for t in texts]
        return texts
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {list} and len(set(map(len, values))) == 1 and len(values[0]):  # rows of one length
        d = len(values[0])
        flat = _json_texts(list(itertools.chain.from_iterable(values)), "NaN")
        return list(map(("[" + ", ".join(["%s"] * d) + "]").__mod__, zip(*[iter(flat)] * d)))
    return [nan if t == "NaN" else t for t in map(_encode, values)]


def write_jsonl_columns(path: str | Path, columns: dict, null=()) -> None:
    """One sorted-key JSON object per row of `columns` (equally long lists
    of JSON values, or numpy arrays whose rows `tolist` turns into them,
    keyed by field), byte for byte as `json.dumps(record, sort_keys=True)
    + "\n"` writes each record; a NaN in a column named in `null` is
    written as null.  Each block of BLOCK_ROWS rows is formatted column by
    column and joined through one line template, so no more than a block
    of Python values or text is held at a time."""
    names = sorted(columns)
    if len({len(columns[name]) for name in names}) > 1:
        raise ValueError(f"columns differ in length: { {name: len(columns[name]) for name in names} }")
    n = len(columns[names[0]]) if names else 0
    line = "{" + ", ".join(encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name in names) + "}\n"
    with atomic_write(path) as fh:
        for start in range(0, n, BLOCK_ROWS):
            blocks = (columns[name][start : start + BLOCK_ROWS] for name in names)
            texts = [_json_texts(b.tolist() if hasattr(b, "tolist") else b, "null" if name in null else "NaN")
                     for name, b in zip(names, blocks)]
            fh.write("".join(map(line.__mod__, zip(*texts))))


_KINDS = {None: "null", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _is(value, kind) -> bool:
    if kind is None:
        return value is None
    if kind in (int, float) and isinstance(value, bool):  # true and false are no numbers
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _kind(shape) -> str:
    return _KINDS[list if isinstance(shape, list) else dict if isinstance(shape, dict) else shape]


def check_shape(value, shape, path, field: str = "") -> None:
    """Raise DataFormatError naming `path` and the field unless the JSON
    `value` has `shape`: None (null), int, float (any number, not a bool),
    str, list or dict; a list [item shape]; a dict of required keys to
    shapes, or {str: shape} for an object whose every value has it; or a
    tuple of alternative shapes."""
    where = field or "the document"
    if isinstance(shape, tuple):
        for alternative in shape:
            try:
                return check_shape(value, alternative, path, field)
            except DataFormatError:
                pass
        raise DataFormatError(f"{path}: {where} must be {' or '.join(map(_kind, shape))}")
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DataFormatError(f"{path}: {where} must be an object")
        if list(shape) == [str]:
            shape = dict.fromkeys(value, shape[str])
        for key, sub in shape.items():
            if key not in value:
                raise DataFormatError(f"{path}: {where} has no key {key!r}")
            check_shape(value[key], sub, path, f"{field}.{key}" if field else key)
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise DataFormatError(f"{path}: {where} must be a list")
        for i, item in enumerate(value):
            check_shape(item, shape[0], path, f"{field}[{i}]")
    elif not _is(value, shape):
        raise DataFormatError(f"{path}: {where} must be {_kind(shape)}, got {json.dumps(value)[:40]}")


def read_json(path: str | Path, shape=None):
    """The decoded document; with `shape` (see `check_shape`), also check
    the keys and types its reader uses."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    if shape is not None:
        check_shape(doc, shape, path)
    return doc


_scan = json.scanner.make_scanner(json.JSONDecoder())  # json.loads's decoder, without its per-call checks


def _jsonl_records(path, fh):
    """(line number, value) of each non-blank line of `fh`, in file order.
    Lines are split as file iteration splits them, after universal-newline
    translation, and stripped; each must be exactly one JSON value."""
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value, end = _scan(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(line):
            try:
                value = json.loads(line)  # raises with the message json gives for this line
            except ValueError as exc:
                raise DataFormatError(f"invalid JSON in {path}: {exc}", line=line_no) from exc
        yield line_no, value


def _csv_records(path, fh):
    """(line number, record) of each row under the header row, keyed by the
    header, in file order.  A record's number is the file line it ends on
    (`DictReader.line_num` once it is read), so blank lines and a quoted
    cell that spans lines count.  A short row's missing cells are ""."""
    reader = csv.DictReader(fh, restval="")
    for record in reader:
        yield reader.line_num, record


def _blocks(path, records, newline=None):
    """(line numbers, records) of each block of BLOCK_ROWS records that
    records(path, fh) reads from the file.  A record that cannot be read
    raises only once the records before it have been yielded, so that a
    reader names the first bad line of the file.  Text that is not UTF-8
    raises once the records of the chunks decoded before it have been
    yielded; records in its own chunk are not."""
    try:
        fh = open(path, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    lines, values, error = [], [], None
    with fh:
        try:
            for line_no, value in records(path, fh):
                lines.append(line_no)
                values.append(value)
                if len(values) == BLOCK_ROWS:
                    yield lines, values
                    lines, values = [], []
        except DataFormatError as exc:
            error = exc
        except OSError as exc:
            error = DataFormatError(f"cannot read {path}: {exc}")
        except UnicodeDecodeError as exc:
            error = DataFormatError(f"{path} is not UTF-8 text: {exc}")
        except csv.Error as exc:
            error = DataFormatError(f"invalid CSV in {path}: {exc}")
    if values:
        yield lines, values
    if error is not None:
        raise error


_CAST_ERRORS = (TypeError, ValueError, OverflowError)  # a ValidationError is a ValueError


def _cast_columns(records: list, casts: dict, required: set, closed: bool) -> list[list] | None:
    """casts[name] of each record's value of name (None where it lacks the
    field), one list per key of `casts`; None if a record is not an object,
    lacks a `required` key or (if `closed`) has a key outside `casts`, or
    if a cast raises."""
    if set(map(type, records)) != {dict}:
        return None
    for keys in set(map(tuple, records)):  # the distinct key orders: one, as a writer writes them
        if not required.issubset(keys) or closed and not casts.keys() >= set(keys):
            return None
    try:
        return [list(map(cast, map(dict.get, records, itertools.repeat(name)))) for name, cast in casts.items()]
    except _CAST_ERRORS:
        return None


def _cast_record(record, casts: dict, required, closed: bool) -> tuple:
    """casts[name] of the record's value of each name, in `casts` order, or
    a DataFormatError with the first check the record fails: it is an
    object, has every `required` key, has no other key if `closed`, and
    each value casts."""
    if not isinstance(record, dict):
        raise DataFormatError("record is not an object")
    for name in required:
        if name not in record:
            raise DataFormatError(f"missing field {name!r}")
    if closed and not casts.keys() >= record.keys():
        raise DataFormatError(f"unknown fields {sorted(record.keys() - casts.keys(), key=str)}")
    row = []
    for name, cast in casts.items():
        try:
            row.append(cast(record.get(name)))
        except _CAST_ERRORS as exc:
            raise DataFormatError(f"field {name!r}: {exc}") from exc
    return tuple(row)


def _read_columns(path, blocks, casts: dict, required, closed: bool, unique):
    """Yield the fields of each (line numbers, records) block as one list
    per key of `casts`, in its order and in line order.

    Each block is first cast column by column (see `_cast_columns`).  If
    that fails, or a `unique` value repeats, its records are cast one at a
    time with the same casts (see `_cast_record`), and the first refusal
    is raised naming the file and the line: a record's failed check, or
    `duplicate <unique> 'v'` for a record that repeats an earlier
    record's value of `unique`, a key of `casts`.
    """
    at = list(casts).index(unique) if unique is not None else None
    seen: set = set()
    for lines, records in blocks:
        columns = _cast_columns(records, casts, set(required), closed)
        if columns is not None and at is not None:
            if len(set(columns[at])) < len(records) or not seen.isdisjoint(columns[at]):
                columns = None
            else:
                seen.update(columns[at])
        if columns is None:
            rows = []
            for line_no, record in zip(lines, records):
                try:
                    row = _cast_record(record, casts, required, closed)
                    if at is not None:
                        if row[at] in seen:
                            raise DataFormatError(f"duplicate {unique} {row[at]!r}")
                        seen.add(row[at])
                except DataFormatError as exc:
                    raise DataFormatError(str(exc), line=line_no, path=path) from exc
                rows.append(row)
            columns = [list(column) for column in zip(*rows)]
        yield columns


def read_jsonl_columns(path: str | Path, casts: dict, required=(), closed=False, unique=None):
    """The fields of a JSONL file's records, one block at a time (see
    `_read_columns` and `_jsonl_records`)."""
    return _read_columns(path, _blocks(path, _jsonl_records), casts, required, closed, unique)


def read_csv_columns(path: str | Path, casts: dict, required=(), closed=False):
    """The fields of a CSV file's rows, one block at a time (see
    `_read_columns` and `_csv_records`)."""
    return _read_columns(path, _blocks(path, _csv_records, newline=""), casts, required, closed, None)


def json_string(value) -> str:
    """A JSON string, as a field cast: a number is not turned into one."""
    if type(value) is not str:
        raise ValueError(f"expected a string, got {json.dumps(value)[:40]}")
    return value


def json_number(value) -> float:
    """A JSON number as a float, as a field cast: no boolean or string."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"expected a number, got {json.dumps(value)[:40]}")
    return float(value)


def cgroup_cpus(root: Path = CGROUP_ROOT) -> float:
    """CPUs that the CPU quota of the cgroup mounted at `root` grants, as
    quota / period: cgroup v2's `cpu.max` ("max" or "<quota> <period>"), else
    v1's `cpu/cpu.cfs_quota_us` (-1 for none) and `cpu/cpu.cfs_period_us`.
    Infinite where there is no quota or no such file."""
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except OSError:
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return math.inf
    except ValueError:  # not two fields
        return math.inf
    try:
        quota, period = int(quota), int(period)
    except ValueError:  # "max", or not numbers
        return math.inf
    return quota / period if quota > 0 and period > 0 else math.inf
