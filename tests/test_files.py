"""Run files: one module writes them atomically and reads them strictly."""

import ast
import csv
import io
import json
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest
from oracle import oracle_load_forecasts, oracle_load_oracle, oracle_load_questions, oracle_write_jsonl

import forecast_rl
from forecast_rl.cli import EXIT_OK, EXIT_VALIDATION, main
from forecast_rl.data import (
    SyntheticConfig,
    generate_synthetic_stream,
    load_oracle,
    load_questions,
    save_questions,
    write_oracle,
)
from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.evaluation import load_forecasts, save_forecasts
from forecast_rl.files import (
    BLOCK_ROWS,
    atomic_write,
    json_string,
    read_csv_columns,
    read_json,
    read_jsonl_columns,
    write_json,
    write_jsonl_columns,
    write_npy,
)
from forecast_rl.policy import N_ANSWER
from forecast_rl.trainer import RunLog

PACKAGE = Path(forecast_rl.__file__).parent
WRITE_MODE = set("wax+")


def _calls(tree: ast.AST):
    """(call, name of the function or method it calls) for each call in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield node, func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _writes(tree: ast.AST) -> list[str]:
    """Each call in `tree` that opens a file for writing or moves one."""
    found = []
    for node, name in _calls(tree):
        func = node.func
        if name == "open":
            # open(path, mode) or path.open(mode)
            pos = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > pos:
                mode = node.args[pos]
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or WRITE_MODE & set(mode.value):
                found.append(f"line {node.lineno}: open for writing")
        elif name in ("replace", "rename") and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            found.append(f"line {node.lineno}: os.{name}")
        elif name in ("write_text", "write_bytes", "tofile", "savetxt", "savez"):
            found.append(f"line {node.lineno}: {name}")
    return found


def _opens(tree: ast.AST) -> list[str]:
    """Each call in `tree` that opens a file, for reading or writing."""
    return [f"line {node.lineno}: {name}" for node, name in _calls(tree) if name in ("open", "read_text", "read_bytes")]


def test_only_files_module_opens():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py" and (hits := _opens(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_only_files_module_writes():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "files.py" and (hits := _writes(ast.parse(path.read_text())))
    }
    assert offenders == {}


def test_scan_catches_each_form():
    src = (
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\np.open('wb')\nos.replace(a, b)\n"
        "p.write_text(s)\nopen(p)\nopen(p, 'rb')\np.open()\ns.replace('a', 'b')\nreplace(r, a=1)\np.read_text()\n"
    )
    assert len(_writes(ast.parse(src))) == 6
    assert len(_opens(ast.parse(src))) == 8


def _tmp_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrite:
    def test_a_write_that_raises_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.md"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                raise RuntimeError("crash")
        assert path.read_text() == "old\n"
        assert _tmp_files(tmp_path) == []

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_a_replace_that_fails_names_the_file_and_removes_the_temp_file(self, tmp_path, binary):
        """Binary: the write of a question split's `.npy` sidecar."""
        path = tmp_path / ("test.jsonl.npy" if binary else "report.md")
        path.mkdir()  # os.replace cannot move a file over a directory
        with pytest.raises(DataFormatError, match=rf"^cannot write {re.escape(str(path))}: "):
            if binary:
                write_npy(path, np.arange(3))
            else:
                with atomic_write(path) as fh:
                    fh.write("new\n")
        assert path.is_dir()
        assert _tmp_files(tmp_path) == []

    def test_forecasts_that_fail_midway_keep_the_old_file(self, tmp_path):
        path = tmp_path / "forecasts.jsonl"
        save_forecasts(path, ["a", "b"], np.array([0.5, np.nan]))
        before = path.read_bytes()
        with pytest.raises(TypeError):  # the second record cannot be encoded
            save_forecasts(path, ["a", object()], np.array([0.25, 0.5]))
        assert path.read_bytes() == before
        assert _tmp_files(tmp_path) == []
        np.testing.assert_array_equal(load_forecasts([path], ["a", "b"])[1][:, 0], [0.5, np.nan])

    def test_json_that_fails_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "evaluation.json"
        write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": {1, 2}})
        assert json.loads(path.read_text()) == {"a": 1}
        assert _tmp_files(tmp_path) == []

    def test_commit_makes_directories_and_default_permissions(self, tmp_path):
        path = tmp_path / "a" / "b" / "params.json"
        write_json(path, [1.5, None])
        assert path.read_text() == "[\n  1.5,\n  null\n]\n"
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert _tmp_files(path.parent) == []


def read_jsonl(path, casts, required=()):
    """Each JSONL record's fields as a tuple in `casts` order."""
    for columns in read_jsonl_columns(path, casts, required=required):
        yield from zip(*columns)


def read_csv(path, casts, required=()):
    """Each CSV row's fields as a tuple in `casts` order."""
    for columns in read_csv_columns(path, casts, required=required):
        yield from zip(*columns)


class TestStrictReads:
    def test_truncated_json_names_the_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"stages": {"synth"')
        with pytest.raises(DataFormatError, match="manifest.json is not valid JSON"):
            read_json(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            read_json(tmp_path / "absent.json")

    def test_jsonl_names_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        path.write_text('{"id": "a"}\n\n{"id": "b"}\n{"id": \n')
        it = read_jsonl(path, {"id": json_string})
        assert next(it) == ("a",)
        assert next(it) == ("b",)
        with pytest.raises(DataFormatError, match=r"line 4: invalid JSON in .*oracle\.jsonl"):
            next(it)

    @pytest.mark.parametrize("reader,text", [
        (read_jsonl, '{"p": "0.5"}\n{"p": "x"}\n'),
        (read_csv, "p\n0.5\nx\n"),
    ])
    def test_parse_errors_name_the_file_the_line_and_the_field(self, tmp_path, reader, text):
        path = tmp_path / "records.txt"
        path.write_text(text)
        good = tmp_path / "good.txt"  # a block is yielded only once all of its records cast
        good.write_text(text.rsplit("\n", 2)[0] + "\n")  # all but the last record
        assert list(reader(good, {"p": float})) == [(0.5,)]
        first = 1 if reader is read_jsonl else 2  # a CSV's first record follows its header
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {first + 1}: field 'p': could not"):
            list(reader(path, {"p": float}))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {first}: missing field 'q'"):
            list(reader(path, {"q": float}, required=("q",)))

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "forecasts.jsonl"
        path.write_bytes(b'{"question_id": "\xff"}\n')
        with pytest.raises(DataFormatError, match="forecasts.jsonl"):
            list(read_jsonl(path, {"question_id": json_string}))

    @pytest.mark.parametrize("case, line", [("blank-lines", 5), ("multiline-cell", 4)])
    def test_csv_errors_name_the_line_in_the_file(self, tmp_path, case, line):
        """A CSV record is named by the file line it ends on.  Blank lines:
        a header, two blank lines, a good row, and the bad row on line 5.
        A quoted cell that spans lines 2 and 3, then the bad row on line 4."""
        good, bad = _csv_cells(_question(0)), _csv_cells(_question(1))
        bad[_FIELD_NAMES.index("outcome")] = "yes"
        if case == "multiline-cell":
            good[_FIELD_NAMES.index("source")] = "two\nlines"
        header, rows = _csv_text([_FIELD_NAMES, good, bad]).split("\r\n", 1)
        path = tmp_path / "q.csv"
        path.write_bytes((header + ("\r\n\r\n\r\n" if case == "blank-lines" else "\r\n") + rows).encode("utf-8"))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {line}: field 'outcome'"):
            load_questions(path)

    @pytest.mark.parametrize("late", ["csv-error", "not-utf-8"])
    def test_csv_refusal_comes_before_a_later_error_in_its_block(self, tmp_path, late):
        """A bad cell on line 3 is named although the rows of its block
        cannot all be read: line 9 is not CSV (a cell past the field size
        limit) or not UTF-8 (in a later decoded chunk than line 3)."""
        rows = [_csv_cells(_question(i)) for i in range(8)]
        rows[1][_FIELD_NAMES.index("outcome")] = "yes"
        for row in rows[2:7]:
            row[_FIELD_NAMES.index("source")] = "x" * 4000  # pushes line 9 past the first decoded chunks
        path = tmp_path / "q.csv"
        text = _csv_text([_FIELD_NAMES, *rows]).encode("utf-8")
        late_row = b'"' + b"x" * (csv.field_size_limit() + 1) + b'"\n' if late == "csv-error" else b"\xff,1\n"
        path.write_bytes(text + late_row)
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 3: field 'outcome': expected a JSON"):
            load_questions(path)
        good = tmp_path / "q_good.csv"
        good.write_bytes(path.read_bytes().replace(b",yes,", b",1,"))
        with pytest.raises(DataFormatError, match="invalid CSV" if late == "csv-error" else "is not UTF-8 text"):
            load_questions(good)


CONFIG = {
    "schema_version": 1,
    "seed": 3,
    "data": {"train_fraction": 0.5, "synthetic": {"n_questions": 60, "feature_dim": 2, "market_noise": 0.5}},
    "train": {"algorithm": "remax"},
    "evaluation": {"bootstrap_reps": 19},
}


def _run_through_trade(tmp_path) -> Path:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "output_dir": str(tmp_path / "out")}))
    for step in ("synth", "train", "predict", "evaluate", "trade"):
        assert main([step, "--config", str(cfg)]) == EXIT_OK
    return cfg


@pytest.mark.parametrize(
    "name, stage",
    [("seed3_m0_q000030/params.json", "predict"), ("manifest.json", "report"), ("evaluation.json", "report")],
)
def test_truncated_run_file_exits_2(tmp_path, capsys, name, stage):
    cfg = _run_through_trade(tmp_path)
    path = tmp_path / "out" / name
    path.write_bytes(path.read_bytes()[:100])
    capsys.readouterr()

    assert main([stage, "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {path} is not valid JSON" in err
    assert "Traceback" not in err


RULES = {"all_markets": {"total_profit": "12.5", "n_trades": 3}}


@pytest.mark.parametrize(
    "name, doc, stage, message",
    [
        ("seed3_m0_q000030/params.json", {"version": 1}, "predict", "the document has no key 'content_length'"),
        ("seed3_m0_q000030/params.json", {"version": 9}, "predict", "unsupported checkpoint version 9"),
        ("seed3_m0_q000030/params.json", None, "predict", "content_weights[1][0] must be a number"),
        ("seed3_m0_q000030/params.json", "ragged", "predict", "the rows of content_weights differ in length"),
        ("seed3_m0_q000030/params.json", ("content_length", 0), "predict", "content_length must be >= 1"),
        *[("seed3_m0_q000030/params.json", ("baseline_weights", b), "predict",
           "baseline_weights must hold feature_dim + 1 = 3 finite numbers")
          for b in ([1.0], [0.0, float("inf"), 0.0], [float("nan"), 0.0, 0.0])],
        ("evaluation.json", {}, "report", "the document has no key 'models'"),
        ("evaluation.json", {"models": {"m": {}}, "comparisons": []}, "report",
         "models.m has no key 'soft_brier_mean'"),
        ("trades.json", {"models": {"m": {"rules": RULES}}, "comparisons": []}, "report",
         'models.m.rules.all_markets.total_profit must be a number, got "12.5"'),
        ("manifest.json", [], "report", "the document must be an object"),
        ("manifest.json", {"stages": {"synth": {"files": "test.jsonl"}}}, "evaluate",
         "stages.synth.files must be a list"),
    ],
    ids=["params-keys", "params-version", "params-string-weight", "params-ragged", "params-content-length",
         "params-baseline-length", "params-baseline-infinity", "params-baseline-nan", "evaluation-empty",
         "evaluation-model-keys", "trades-string-profit", "manifest-list", "manifest-files"],
)
def test_wrong_shaped_run_file_exits_2(tmp_path, capsys, name, doc, stage, message):
    """JSON that decodes but lacks a key or a type its reader uses."""
    cfg = _run_through_trade(tmp_path)
    path = tmp_path / "out" / name
    if doc is None:  # a weight that is a string
        doc = json.loads(path.read_text())
        doc["content_weights"][1][0] = "0.5"
    elif doc == "ragged":
        doc = json.loads(path.read_text())
        doc["content_weights"][1].append(0.0)
    elif isinstance(doc, tuple):  # one key's value replaced
        doc = {**json.loads(path.read_text()), doc[0]: doc[1]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()

    assert main([stage, "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


def test_undecodable_csv_dataset_exits_2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_bytes(b"id,open_ts\n\xff,1\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "output_dir": str(tmp_path / "out"), "data": {"train_path": str(train)}}))

    assert main(["train", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {train} is not UTF-8 text")
    assert "Traceback" not in err


def _question(i: int, **fields) -> dict:
    record = {"id": f"q{i:05d}", "open_ts": 1000 * i, "close_ts": 1000 * i + 900, "resolve_ts": 1000 * i + 900,
              "prediction_ts": 1000 * i + 10, "outcome": i % 2, "features": [0.5 * i, -1.25], "market_price": 0.4,
              "volume": None, "source": "synthetic"}
    return {**record, **fields}


_FIELD_NAMES = list(_question(0))


def _csv_cells(record: dict) -> list[str]:
    """A question record's CSV cells in _FIELD_NAMES order, as
    save_questions writes them."""
    return ["" if record[name] is None else json.dumps(record[name]) if name == "features" else str(record[name])
            for name in _FIELD_NAMES]


def _csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


# Each schema's record i, its reader and the reference that reads one record at a time.
SCHEMAS = {
    "questions": (_question, lambda p, n: load_questions(p), lambda p, n: oracle_load_questions(p)),
    "forecasts": (lambda i, **f: {"question_id": f"q{i:05d}", "probability": 0.1 * (i % 10), **f},
                  lambda p, n: load_forecasts([p], [f"q{i:05d}" for i in range(n)]),
                  lambda p, n: oracle_load_forecasts([p], [f"q{i:05d}" for i in range(n)])),
    "oracle": (lambda i, **f: {"id": f"q{i:05d}", "p_star": 0.01 + 0.1 * (i % 9), **f},
               lambda p, n: load_oracle(p), lambda p, n: oracle_load_oracle(p)),
}
NUMBER_FIELD = {"questions": "outcome", "forecasts": "probability", "oracle": "p_star"}
ID_FIELD = {"questions": "id", "forecasts": "question_id", "oracle": "id"}


def _lines(schema: str, n: int = 6, **changed) -> list[str]:
    """n records as sorted-key lines; `changed` maps a row index to the
    fields it overrides (a field set to ... is left out)."""
    record = SCHEMAS[schema][0]
    out = []
    for i in range(n):
        r = record(i, **changed.get(f"r{i}", {}))
        out.append(json.dumps({k: v for k, v in r.items() if v is not ...}, sort_keys=True))
    return out


def _raw(line: str, field: str, text: str) -> str:
    """`line` with the value of `field` replaced by the JSON text `text`."""
    record = json.loads(line)
    record[field] = "@RAW@"
    return json.dumps(record, sort_keys=True).replace('"@RAW@"', text)


def _parity_cases():
    past = BLOCK_ROWS + 5  # a row in the second block
    for schema in SCHEMAS:
        num, key = NUMBER_FIELD[schema], ID_FIELD[schema]
        lines = _lines(schema)
        join = "\n".join
        cases = {
            "good": join(lines) + "\n",
            "blank-lines": "\n\n".join(lines) + "\n  \n\t\n",
            "whitespace-only-lines": join(lines[:3]) + "\n \x0b\x0c　\n" + join(lines[3:]) + "\n",
            "crlf": "\r\n".join(lines) + "\r\n",
            "lone-cr": "\r".join(lines) + "\r",
            "two-values-on-a-line": join(lines[:2]) + "\n" + lines[2] + " " + lines[3] + "\n" + join(lines[4:]),
            "value-split-across-lines": join(lines[:2]) + "\n" + lines[2][:20] + "\n" + lines[2][20:] + "\n",
            "trailing-comma": join(lines[:2]) + "\n" + lines[2] + ",\n",
            "u2028-in-id": join(lines).replace('"q00002"', '"q 0002"') + "\n",
            "bom": "﻿" + join(lines) + "\n",
            "bom-mid-file": join(lines[:2]) + "\n﻿" + join(lines[2:]) + "\n",
            "non-object-line": join(lines[:2]) + "\n[" + lines[2] + "]\n",
            "number-line": join(lines[:2]) + "\n5\n",
            "null-line": "null\n" + join(lines),
            "bad-json-then-good": join(lines[:2]) + '\n{"x": \n' + lines[3] + "\n",
            "bool-in-number": join(_lines(schema, r3={num: True})) + "\n",
            "integral-float": join(_lines(schema, r3={num: 1.0})) + "\n",
            "int-past-64-bits": join(_lines(schema, r3={num: 2**64})) + "\n",
            "int-past-float": join(_lines(schema, r3={num: 10**400})) + "\n",
            "nan-literal": join(lines[:3] + [_raw(lines[3], num, "NaN")]) + "\n",
            "infinity-literal": join(lines[:3] + [_raw(lines[3], num, "-Infinity")]) + "\n",
            "null-required": join(_lines(schema, r3={key: None})) + "\n",
            "empty-required": join(_lines(schema, r3={key: ""})) + "\n",
            "absent-required": join(_lines(schema, r3={num: ...})) + "\n",
            "unknown-field": join(_lines(schema, r3={"extra": 1})) + "\n",
            "repeated-id": join(_lines(schema, r4={key: "q00001"})) + "\n",
            "bad-field-past-a-block": join(_lines(schema, past + 10, **{f"r{past}": {num: "x"}})) + "\n",
            "bad-json-past-a-block": join(_lines(schema, past + 10)[:past] + ["{oops"]) + "\n",
            "repeat-across-blocks": join(_lines(schema, past + 10, **{f"r{past}": {key: "q00003"}})) + "\n",
            "bad-field-then-bad-json": join(_lines(schema, 40, r7={num: False})[:20] + ["{oops"]) + "\n",
        }
        if schema == "questions":
            cases.update({
                "features-int-past-float": join(_lines(schema, r3={"features": [10**400, 1]})) + "\n",
                "features-bool": join(_lines(schema, r3={"features": [True, 1]})) + "\n",
                "features-nan": join(lines[:3] + [_raw(lines[3], "features", "[NaN, 1]")]) + "\n",
                "ts-integral-float": join(_lines(schema, r3={"open_ts": 3000.0, "prediction_ts": 3010.0})) + "\n",
                "price-empty-string": join(_lines(schema, r3={"market_price": ""})) + "\n",
                "price-infinity": join(lines[:3] + [_raw(lines[3], "market_price", "Infinity")]) + "\n",
                "keys-in-other-orders": join(lines[:3] + [json.dumps(_question(3)), json.dumps(_question(4))]) + "\n",
                "optional-fields-absent": join(_lines(schema, r2={"market_price": ..., "volume": ..., "source": ...})),
            })
        if schema == "forecasts":
            cases.update({
                "cross-line": '{"question_id": "q00000", "probability": 0.5, "x": "}\n{"}\n'
                              '{"question_id": "q00001", "probability": 0.5} {"question_id": "q00002", "probability": 0.5}\n',
                "range": join(_lines(schema, r2={num: 1.5}, r3={num: "x"})) + "\n",
            })
        for name, text in cases.items():
            n = past + 10 if "block" in name else 40 if "then-bad-json" in name else 6
            yield pytest.param(schema, text, n, id=f"{schema}-{name}")
    yield from _csv_parity_cases()


def _csv_parity_cases():
    """Question files as CSV, against the one-row-at-a-time CSV reference."""
    past = BLOCK_ROWS + 5  # a row in the second block
    col = _FIELD_NAMES.index

    def rows(n=6, **cells):
        """n rows of cells; `cells` maps r<i> to {field: cell} overrides, or
        to a list that replaces the row."""
        out = [_csv_cells(_question(i)) for i in range(n)]
        for key, change in cells.items():
            i = int(key[1:])
            if isinstance(change, list):
                out[i] = change
            else:
                for name, cell in change.items():
                    out[i][col(name)] = cell
        return _csv_text([_FIELD_NAMES, *out])

    good = rows()
    cases = {
        "good": good,
        "crlf-and-blank-rows": good.replace("\r\n", "\r\n\r\n"),
        "lf": good.replace("\r\n", "\n"),
        "empty-id": rows(r3={"id": ""}),
        "empty-integer": rows(r3={"outcome": ""}),
        "empty-features": rows(r3={"features": ""}),
        "empty-optional-cells": rows(r2={"market_price": "", "volume": "", "source": ""}),
        "short-row-optional": rows(r2=_csv_cells(_question(2))[:7]),
        "short-row-required": rows(r2=_csv_cells(_question(2))[:4]),
        "long-row": rows(r2=_csv_cells(_question(2)) + ["extra"]),
        "header-lacks-required": _csv_text([[n for n in _FIELD_NAMES if n != "outcome"]]
                                           + [[c for n, c in zip(_FIELD_NAMES, _csv_cells(_question(i))) if n != "outcome"]
                                              for i in range(6)]),
        "header-lacks-optional": _csv_text([_FIELD_NAMES[:7]] + [_csv_cells(_question(i))[:7] for i in range(6)]),
        "header-unknown-column": _csv_text([_FIELD_NAMES + ["bogus"]] + [_csv_cells(_question(i)) + ["1"] for i in range(6)]),
        "unknown-column-and-long-row": _csv_text([_FIELD_NAMES + ["bogus"]]
                                                 + [_csv_cells(_question(i)) + ["1", "2"] for i in range(6)]),
        "nan-price": rows(r3={"market_price": "nan"}),
        "inf-volume": rows(r3={"volume": "inf"}),
        "minus-inf-outcome": rows(r3={"outcome": "-inf"}),
        "nan-integer": rows(r3={"open_ts": "nan"}),
        "nan-in-features": rows(r3={"features": "[NaN, 1]"}),
        "multiline-quoted-id": rows(r3={"id": "q\n3"}),
        "repeated-id": rows(r4={"id": "q00001"}),
        "bad-cell-past-a-block": rows(past + 10, **{f"r{past}": {"outcome": "x"}}),
        "bad-cell-then-csv-error": rows(40, r7={"outcome": "1.5"}, r20={"id": "x" * (csv.field_size_limit() + 1)}),
    }
    for name, text in cases.items():
        yield pytest.param("csv", text, 6, id=f"csv-{name}")


def _outcome(load, path, n):
    """The loaded value in comparable form, or the error's type and text."""
    try:
        value = load(path, n)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):  # (model names, matrix)
        return value[0], value[1].tolist().__repr__()
    if isinstance(value, dict):
        return value
    return {name: repr(getattr(value, name).tolist() if hasattr(getattr(value, name), "tolist") else getattr(value, name))
            for name in ("ids", "open_ts", "close_ts", "resolve_ts", "prediction_ts", "outcome", "features",
                         "market_price", "volume", "source")}


class TestJsonlColumns:
    """The column readers and writer against the one-record-at-a-time
    reference of tests/oracle.py: the same values or the same error text."""

    @pytest.mark.parametrize("schema, text, n", list(_parity_cases()))
    def test_reader_parity_table(self, tmp_path, schema, text, n):
        path = tmp_path / ("questions.csv" if schema == "csv" else f"{schema}.jsonl")
        path.write_bytes(text.encode("utf-8"))
        _, load, reference = SCHEMAS["questions" if schema == "csv" else schema]
        assert _outcome(load, path, n) == _outcome(reference, path, n)

    def test_a_value_cannot_span_lines(self, tmp_path):
        """Three valid forecasts can be cut from these three lines, but
        line 1 on its own is not JSON."""
        path = tmp_path / "f.jsonl"
        path.write_text('{"question_id": "q1", "probability": 0.5, "x": "}\n{"}\n'
                        '{"question_id": "q2", "probability": 0.5} {"question_id": "q3", "probability": 0.5}\n')
        with pytest.raises(DataFormatError, match=r"^line 1: invalid JSON in .*f\.jsonl: Unterminated string"):
            load_forecasts([path], ["q1", "q2", "q3"])

    def test_line_numbers_cross_block_boundaries(self, tmp_path):
        lines = _lines("oracle", 3 * BLOCK_ROWS)
        lines[2 * BLOCK_ROWS + 1] = _raw(lines[2 * BLOCK_ROWS + 1], "p_star", "true")
        path = tmp_path / "oracle.jsonl"
        path.write_text("\n".join(lines[:BLOCK_ROWS]) + "\n\n\n" + "\n".join(lines[BLOCK_ROWS:]) + "\n")
        with pytest.raises(DataFormatError, match=rf": line {2 * BLOCK_ROWS + 4}: field 'p_star': expected a number"):
            load_oracle(path)

    def test_random_files_match_the_record_reader(self, tmp_path):
        rng = random.Random(15)
        pool = [None, True, False, 0, 1, 2, 0.0, 0.5, 1.0, 3.5, -0.5, "", "x", "0.5", "market", [], [0.5], [1, 2],
                [0.5, "a"], {}, {"a": 1}, 2**63, -(2**63), 10**30, 10**400, 1e300]
        raw = ["NaN", "Infinity", "-Infinity", "[NaN, 1]", "1e999", "-0.0", "1E2"]
        for k in range(150):
            schema = rng.choice(list(SCHEMAS))
            lines = _lines(schema)
            for j, line in enumerate(lines):
                if rng.random() < 0.3:
                    field = rng.choice(list(json.loads(line)) + ["extra", "source"])
                    text = rng.choice(raw) if rng.random() < 0.2 else json.dumps(rng.choice(pool))
                    lines[j] = _raw(line, field, text)
                if rng.random() < 0.05:
                    cut = rng.randrange(len(lines[j]) + 1)
                    lines[j] = lines[j][:cut] + rng.choice(['"', "}", ",", " ", "\r", " ", "\\"]) + lines[j][cut:]
            path = tmp_path / f"{schema}{k}.jsonl"
            path.write_bytes((rng.choice(["\n", "\n", "\r\n", "\r"]).join(lines) + "\n").encode("utf-8"))
            _, load, reference = SCHEMAS[schema]
            assert _outcome(load, path, 6) == _outcome(reference, path, 6), path.read_text()

    def test_writer_matches_json_dumps(self, tmp_path):
        rng = random.Random(4)
        odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, None, True, 7, "é \"%s", [1, 2.5], {"b": 1, "a": 2}]
        for n in (0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3):
            columns = {
                "b": [rng.random() for _ in range(n)],
                "%a": [rng.choice([rng.random(), math.nan, math.inf]) for _ in range(n)],
                "id": [f"q{i}é%" for i in range(n)],
                "features": [[rng.random(), -rng.random()] for _ in range(n)],
                "n": [rng.randrange(-(2**70), 2**70) for _ in range(n)],
                "mixed": [rng.choice(odd) for _ in range(n)],
            }
            path = tmp_path / "columns.jsonl"
            write_jsonl_columns(path, columns, null=("%a", "mixed"))
            records = [
                {k: None if k in ("%a", "mixed") and isinstance(v, float) and math.isnan(v) else v
                 for k, v in zip(columns, row)}
                for row in zip(*columns.values())
            ]
            oracle_write_jsonl(tmp_path / "records.jsonl", records)
            assert path.read_bytes() == (tmp_path / "records.jsonl").read_bytes()

    def test_run_file_writers_match_json_dumps(self, tmp_path):
        n = BLOCK_ROWS + 9
        ds, p_star = generate_synthetic_stream(SyntheticConfig(n_questions=n, feature_dim=3, market_noise=0.5), 2)
        ds.market_price[::7] = np.nan
        ds.volume[::3] = 25.0
        save_questions(ds, tmp_path / "q.jsonl")
        oracle_write_jsonl(tmp_path / "q_ref.jsonl", (dict(zip(
            ("id", "open_ts", "close_ts", "resolve_ts", "prediction_ts", "outcome", "features", "market_price",
             "volume", "source"),
            (q.id, q.open_ts, q.close_ts, q.resolve_ts, q.prediction_ts, q.outcome, q.features.tolist(),
             q.market_price, q.volume, q.source))) for q in ds))  # a row's null price or volume is None
        probs = np.linspace(0, 1, n)
        probs[::5] = np.nan
        save_forecasts(tmp_path / "f.jsonl", ds.ids, probs)
        oracle_write_jsonl(tmp_path / "f_ref.jsonl", ({"question_id": q, "probability": None if np.isnan(p) else p}
                                                      for q, p in zip(ds.ids, probs.tolist())))
        write_oracle(p_star, tmp_path / "o.jsonl")
        oracle_write_jsonl(tmp_path / "o_ref.jsonl", ({"id": q, "p_star": p} for q, p in p_star.items()))
        rng = np.random.default_rng(1)
        gib = rng.integers(0, 9, size=(n, 3))
        counts = np.stack([gib, rng.integers(0, 9 - gib)], axis=2).astype(np.uint8)  # of L = 8 tokens
        log = RunLog(ds.ids, rng.integers(0, N_ANSWER, size=n).astype(np.uint8), counts, rng.normal(size=n), 8)
        log.to_jsonl(tmp_path / "r.jsonl")
        columns = log.columns()
        values = np.stack([columns.pop("parsed"), log.rewards, *columns.values()])
        assert np.isnan(values[0]).any()
        keys = ("parsed", "reward", "gibberish", "non_english", "explanation")
        oracle_write_jsonl(tmp_path / "r_ref.jsonl", (
            {"id": q, **{k: None if k == "parsed" and np.isnan(v) else v for k, v in zip(keys, row)}}
            for q, row in zip(ds.ids, values.T.tolist())))
        for name in ("q", "f", "o", "r"):
            assert (tmp_path / f"{name}.jsonl").read_bytes() == (tmp_path / f"{name}_ref.jsonl").read_bytes(), name
