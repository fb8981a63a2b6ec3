"""Run files: one module writes them atomically and reads them strictly."""

import ast
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import forecast_rl
from forecast_rl.cli import EXIT_OK, EXIT_VALIDATION, main
from forecast_rl.errors import DataFormatError
from forecast_rl.evaluation import load_forecasts, save_forecasts
from forecast_rl.files import atomic_write, read_csv, read_json, read_jsonl, record_field, write_json

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
        it = read_jsonl(path, lambda record: record)
        assert next(it) == {"id": "a"}
        assert next(it) == {"id": "b"}
        with pytest.raises(DataFormatError, match=r"line 4: invalid JSON in .*oracle\.jsonl"):
            next(it)

    @pytest.mark.parametrize("reader,text", [
        (read_jsonl, '{"p": "0.5"}\n{"p": "x"}\n'),
        (read_csv, "p\n0.5\nx\n"),
    ])
    def test_parse_errors_name_the_file_the_line_and_the_field(self, tmp_path, reader, text):
        path = tmp_path / "records.txt"
        path.write_text(text)
        assert next(reader(path, lambda record: record_field(record, "p", float))) == 0.5
        first = 1 if reader is read_jsonl else 2  # a CSV's first record follows its header
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {first + 1}: field 'p': could not"):
            list(reader(path, lambda record: record_field(record, "p", float)))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {first}: missing field 'q'"):
            list(reader(path, lambda record: record_field(record, "q", float)))

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "forecasts.jsonl"
        path.write_bytes(b'{"question_id": "\xff"}\n')
        with pytest.raises(DataFormatError, match="forecasts.jsonl"):
            list(read_jsonl(path, lambda record: record))


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
        ("evaluation.json", {}, "report", "the document has no key 'models'"),
        ("evaluation.json", {"models": {"m": {}}, "comparisons": []}, "report",
         "models.m has no key 'soft_brier_mean'"),
        ("trades.json", {"models": {"m": {"rules": RULES}}, "comparisons": []}, "report",
         'models.m.rules.all_markets.total_profit must be a number, got "12.5"'),
        ("manifest.json", [], "report", "the document must be an object"),
        ("manifest.json", {"stages": {"synth": {"files": "test.jsonl"}}}, "evaluate",
         "stages.synth.files must be a list"),
    ],
    ids=["params-keys", "params-version", "params-string-weight", "params-ragged", "evaluation-empty",
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
