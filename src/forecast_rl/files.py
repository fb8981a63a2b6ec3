"""The one place that opens run files.

A writer fills `.<name>.<pid>.tmp` in the target's directory and then
moves it over the target with `os.replace`, so a crash leaves the old file
or the new one, never a truncated one; if the write raises, the temp file
is removed.  A temp file left by a killed process is not registered in the
manifest, so `report` lists it among the unregistered files.

The readers turn a file that cannot be read or decoded into a
DataFormatError naming it, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from forecast_rl.errors import DataFormatError


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


def read_json(path: str | Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def read_jsonl(path: str | Path):
    """Yield (line number, record) for each non-blank line."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise DataFormatError(f"invalid JSON in {path}: {exc}", line=line_no) from exc
                yield line_no, record
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc
