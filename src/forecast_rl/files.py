"""The one place that opens run files.

A writer fills `.<name>.<pid>.tmp` in the target's directory and then
moves it over the target with `os.replace`, so a crash leaves the old file
or the new one, never a truncated one; if the write raises, the temp file
is removed.  A temp file left by a killed process is not registered in the
manifest, so `report` lists it among the unregistered files.

The readers turn a file that cannot be read or decoded, a JSON document
without the keys and types its reader uses, or a JSONL / CSV record that
its parser rejects, into a DataFormatError naming the file (and the line
of a record), which the CLI maps to exit code 2.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

from forecast_rl.errors import DataFormatError, ValidationError


@contextlib.contextmanager
def atomic_write(path: str | Path, newline: str | None = None):
    """A UTF-8 text handle whose content replaces `path` when the block ends."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_jsonl(path: str | Path, records) -> None:
    """One sorted-key JSON object per line."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


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


def _parsed(path, rows, parse):
    """parse(record) of each (line number, record); a ValidationError that
    parse raises is re-raised naming the file and the line."""
    for line_no, record in rows:
        try:
            yield parse(record)
        except ValidationError as exc:
            raise DataFormatError(str(exc), line=line_no, path=path) from exc


def read_jsonl(path: str | Path, parse):
    """Yield parse(record) for each non-blank line (see `_parsed`)."""

    def rows(fh):
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except ValueError as exc:
                raise DataFormatError(f"invalid JSON in {path}: {exc}", line=line_no) from exc

    try:
        with open(path, encoding="utf-8") as fh:
            yield from _parsed(path, rows(fh), parse)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def read_csv(path: str | Path, parse):
    """Yield parse(record) for each row under the header row (see `_parsed`)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from _parsed(path, enumerate(csv.DictReader(fh), start=2), parse)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"invalid CSV in {path}: {exc}") from exc


def record_field(record, name: str, cast):
    """cast(record[name]), or a DataFormatError naming the field when the
    record is not an object, lacks the field or the value does not cast."""
    if not isinstance(record, dict):
        raise DataFormatError("record is not an object")
    if name not in record:
        raise DataFormatError(f"missing field {name!r}")
    try:
        return cast(record[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"field {name!r}: {exc}") from exc


def json_string(value) -> str:
    """A JSON string, as a `record_field` cast: a number is not turned into one."""
    if type(value) is not str:
        raise ValueError(f"expected a string, got {json.dumps(value)[:40]}")
    return value


def json_number(value) -> float:
    """A JSON number as a float, as a `record_field` cast: no boolean or string."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"expected a number, got {json.dumps(value)[:40]}")
    return float(value)
