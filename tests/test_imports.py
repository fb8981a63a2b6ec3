"""Every name a package module imports is used in it.

An import kept only for its side effect says so on its line with
`# noqa: F401`, with the reason.
"""

import ast
from pathlib import Path

import forecast_rl

PACKAGE = Path(forecast_rl.__file__).parent


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used | exported)
    return [f"{line}: {name}" for line, name in unused]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py")) if (hits := unused_imports(path.read_text()))}
    assert found == {}


def test_scan_catches_each_form():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import numpy.ma  # noqa: F401  loaded for its side effect\n"
        "from json import dumps, loads\n"
        "from csv import (\n"
        "    reader,\n"
        "    writer,  # noqa: F401\n"
        ")\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "print(np.ones(1), loads('1'))\n"
    )
    assert unused_imports(src) == ["2: os", "5: dumps", "7: reader"]


def question_uses(source: str) -> list[int]:
    """Lines that bring `Question` into a module: importing it (also under
    another name, or with `*`) or reading it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [alias.lineno for alias in node.names if alias.name.split(".")[-1] in ("Question", "*")]
        elif isinstance(node, ast.Attribute) and node.attr == "Question":
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_data_module_uses_question():
    """Question is the row record of datasets built for tests; every stage
    works on the columns of a Dataset, which only data.py knows."""
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "data.py" and (lines := question_uses(path.read_text()))
    }
    assert found == {}


def test_question_scan_catches_each_form():
    src = (
        "from forecast_rl.data import Dataset, Question\n"
        "from forecast_rl.data import (\n"
        "    QuestionBank,\n"
        "    Question as Row,\n"
        ")\n"
        "from forecast_rl import data\n"
        "row = data.Question('a')\n"
        "from forecast_rl.data import *\n"
        "import forecast_rl.data.Question\n"
        "question = data.Dataset([])\n"
    )
    assert question_uses(src) == [1, 4, 7, 8, 9]


# Names that no package module may define, import or read: the per-object
# trade record, the windowed early-stop test and the per-object maths'
# NumericAbort live in tests/oracle.py, the one-member training wrapper in
# tests/conftest.py (`train_one`), the per-record parsers gave way to the
# column readers' one refusal rule, and the rest are gone.
REMOVED_NAMES = (
    "TradeRecord", "make_trade", "train_online", "guardrail_rewards", "dpo_gradients",
    "draw_prediction_timestamp", "max_entropy", "n_content", "n_answer", "check_early_stop",
    "record_field", "_row", "_parsed", "_forecast", "_number_or_null", "_equal_mass_bins",
    "_replicate_indices", "NumericAbort", "_group_log",
)


def removed_uses(source: str) -> list[int]:
    """Lines that define, import, read or name as an attribute one of
    REMOVED_NAMES."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in REMOVED_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [alias.lineno for alias in node.names if alias.name.split(".")[-1] in REMOVED_NAMES]
        elif isinstance(node, ast.Name) and node.id in REMOVED_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in REMOVED_NAMES:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_uses_a_removed_name():
    """Trades are columns (trading.Trades), DPO shares the online step's
    weight stack and reward table, record files are read by columns with
    one cast per field, every equal-mass ECE is the count-matrix one, the
    bootstrap resamples as counts, every member's training ends as one
    TrainResult (a numeric abort is its `numeric_error`, not an exception)
    whose RunLog keeps the step's compact columns and makes their floats
    itself, and no stage calls the rest."""
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py")) if (lines := removed_uses(path.read_text()))}
    assert found == {}


def test_removed_name_scan_catches_each_form():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class TradeRecord:\n"
        "    side: str\n"
        "def make_trade(p):\n"
        "    return TradeRecord(p)\n"
        "from tests.oracle import make_trade as mt\n"
        "import trading\n"
        "t = trading.TradeRecord\n"
        "trades = [mt(p) for p in ()]\n"
        "from forecast_rl.trainer import train_online, train_members\n"
        "h = vocab.max_entropy()\n"
        "train_dpo_member = 0\n"
    )
    assert removed_uses(src) == [3, 5, 6, 7, 9, 11, 12]
