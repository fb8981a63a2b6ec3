import csv
import hashlib
import io
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from forecast_rl import data
from forecast_rl.data import (
    _expit,
    Dataset,
    Question,
    SyntheticConfig,
    generate_synthetic_stream,
    load_oracle,
    load_questions,
    save_questions,
    split_dataset,
    validate_chronology,
    write_oracle,
)
from forecast_rl.errors import DataFormatError, ValidationError
from forecast_rl.rng import substream

from conftest import make_dataset, make_question


class TestQuestionValidation:
    def test_valid_question_passes(self):
        assert make_dataset([make_question("q1")]).ids == ["q1"]

    def test_timestamp_order_enforced(self):
        q = make_question("q1")
        q.prediction_ts = q.close_ts  # prediction must precede close
        with pytest.raises(ValidationError, match="q1"):
            make_dataset([q])

    def test_outcome_must_be_binary(self):
        q = make_question("q1")
        q.outcome = 2
        with pytest.raises(ValidationError, match="outcome"):
            make_dataset([q])

    def test_market_price_strictly_interior(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError, match="market_price"):
                make_dataset([make_question("q1", market_price=bad)])
        make_dataset([make_question("q1", market_price=0.5)])

    def test_negative_volume_rejected(self):
        with pytest.raises(ValidationError, match="volume"):
            make_dataset([make_question("q1", volume=-1.0)])

    def test_first_bad_record_in_file_order_is_named(self, tmp_path):
        """Records are checked in file order, before the sort: the first bad
        record is named with its first broken check, whatever its place in
        (prediction_ts, id) order."""
        rows = [
            make_question("z", pred_ts=500),
            make_question("y", pred_ts=400, outcome=2, features=[0.0, 0.0, 0.0]),  # outcome before dimension
            make_question("a", pred_ts=100, market_price=1.5),
        ]
        path = tmp_path / "q.jsonl"
        path.write_text("".join(json.dumps({**vars(q), "features": q.features.tolist()}) + "\n" for q in rows))
        with pytest.raises(ValidationError, match=r"^question 'y': outcome must be 0 or 1, got 2$"):
            load_questions(path)
        rows[1].outcome = 1
        with pytest.raises(ValidationError, match=r"^question 'y': feature dimension 3 differs from dataset dimension 2$"):
            make_dataset(rows)
        rows[1].features = np.zeros(2)
        with pytest.raises(ValidationError, match=r"^question 'a': market_price must lie strictly in \(0, 1\), got 1.5$"):
            make_dataset(rows)


class TestRoundTrip:
    def _sample(self):
        return make_dataset(
            [
                make_question("a", 100, 1, [0.5, -1.25], market_price=0.6, volume=10.0),
                make_question("b", 200, 0, [1.0, 2.0]),
                make_question("c", 150, 1, [0.0, 0.125], market_price=0.31),
            ]
        )

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_round_trip(self, tmp_path, suffix):
        ds = self._sample()
        path = tmp_path / f"q.{suffix}"
        save_questions(ds, path)
        back = load_questions(path)
        assert back.ids == ds.ids
        for orig, loaded in zip(ds, back):
            assert loaded.id == orig.id
            assert loaded.prediction_ts == orig.prediction_ts
            assert loaded.outcome == orig.outcome
            assert np.array_equal(loaded.features, orig.features)
            assert loaded.market_price == orig.market_price
            assert loaded.volume == orig.volume

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(load_questions(path)) == 0

    def test_duplicate_ids_rejected(self, tmp_path):
        ds = make_dataset([make_question("a", 100), make_question("b", 200)])
        path = tmp_path / "q.jsonl"
        save_questions(ds, path)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[0] + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_questions(path)

    def test_out_of_order_records_sorted(self, tmp_path):
        ds = self._sample()
        path = tmp_path / "q.jsonl"
        save_questions(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(reversed(lines)) + "\n")
        back = load_questions(path)
        # independent sort oracle on the fixture
        assert back.ids == [q.id for q in sorted(ds, key=lambda q: (q.prediction_ts, q.id))]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_questions(path)
        good = json.dumps(
            {
                "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
                "prediction_ts": 5, "outcome": 1, "features": [0.0],
            }
        )
        path.write_text(good + "\nnot json\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_questions(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"id": "a", "open_ts": 0}\n')
        with pytest.raises(DataFormatError, match="close_ts"):
            load_questions(path)

    def test_unknown_field_reported(self, tmp_path):
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5, "outcome": 1, "features": [0.0], "bogus": 1,
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError, match="bogus"):
            load_questions(path)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    def test_bad_value_names_the_file_the_line_and_the_field(self, tmp_path, suffix):
        path = tmp_path / f"test.{suffix}"
        save_questions(make_dataset([make_question(f"q{i}", 100 + i, i % 2, [0.5 * i, 1.0]) for i in range(6)]), path)
        lines = path.read_text().splitlines()
        k = 3 if suffix == "jsonl" else 4  # the 4th record; a CSV starts with its header
        if suffix == "jsonl":
            lines[k] = json.dumps({**json.loads(lines[k]), "outcome": "yes"})
        else:
            header = lines[0].split(",")
            cells = next(csv.reader([lines[k]]))
            cells[header.index("outcome")] = "yes"
            out = io.StringIO()
            csv.writer(out).writerow(cells)
            lines[k] = out.getvalue().strip()
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line {k + 1}: field 'outcome': "):
            load_questions(path)

    @pytest.mark.parametrize(
        "field, value",
        [("outcome", 0.7), ("prediction_ts", 5.9), ("outcome", True), ("open_ts", False), ("resolve_ts", float("inf")),
         ("close_ts", "10")],
    )
    def test_integer_fields_refuse_fractions_and_booleans(self, tmp_path, field, value):
        """int() would load 0.7 as 0, 5.9 as 5 and true as 1, each a valid
        question; the record is refused instead, naming the field."""
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5, "outcome": 1, "features": [0.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "b", field: value}) + "\n")
        message = rf"^{re.escape(str(path))}: line 2: field '{field}': expected an integer, got "
        with pytest.raises(DataFormatError, match=message):
            load_questions(path)

    @pytest.mark.parametrize("suffix", ["jsonl", "csv"])
    @pytest.mark.parametrize("field, value", [("volume", math.nan), ("volume", math.inf), ("market_price", math.nan)])
    def test_non_finite_quote_or_volume_names_the_file_the_line_and_the_field(self, tmp_path, suffix, field, value):
        """NaN stands for null in the columns, so a NaN or infinite quote or
        volume in a file is refused at load rather than read as one."""
        path = tmp_path / f"q.{suffix}"
        save_questions(make_dataset([make_question(f"q{i}", 100 + i, market_price=0.5, volume=1.0) for i in range(3)]), path)
        lines = path.read_text().splitlines()
        k = 1 if suffix == "jsonl" else 2  # the 2nd record
        if suffix == "jsonl":
            lines[k] = json.dumps({**json.loads(lines[k]), field: value})
        else:
            header = lines[0].split(",")
            cells = next(csv.reader([lines[k]]))
            cells[header.index(field)] = str(value)
            out = io.StringIO()
            csv.writer(out).writerow(cells)
            lines[k] = out.getvalue().strip()
        path.write_text("\n".join(lines) + "\n")
        message = rf"^{re.escape(str(path))}: line {k + 1}: field '{field}': expected a finite number, got "
        with pytest.raises(DataFormatError, match=message):
            load_questions(path)

    @pytest.mark.parametrize(
        "field, value, got",
        [
            ("id", 7, "expected a string, got 7"),
            ("features", [True, 1.0], re.escape("expected a list of numbers, got [true, 1.0]")),
            ("market_price", True, "expected a number, got true"),
            ("volume", "10", 'expected a number, got "10"'),
        ],
        ids=["id", "features", "market_price", "volume"],
    )
    def test_jsonl_values_are_not_coerced(self, tmp_path, field, value, got):
        """A JSONL value must have its field's JSON type: a number is no id,
        and a boolean or a string is no number."""
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5, "outcome": 1, "features": [0.0, 1.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "b", field: value}) + "\n")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 2: field '{field}': {got}$"):
            load_questions(path)

    @pytest.mark.parametrize("value", [0, 0.0, False, [], {}, 1, True], ids=repr)
    def test_source_must_be_a_string(self, tmp_path, value):
        """A source that is not a JSON string is refused by name, not read as
        "synthetic" (a falsy value) or as its Python text (a truthy one)."""
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5, "outcome": 1, "features": [0.0, 1.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "id": "b", "source": value}) + "\n")
        got = re.escape(json.dumps(value))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 2: field 'source': expected a string, got {got}$"):
            load_questions(path)

    @pytest.mark.parametrize("value", [None, "", ...], ids=["null", "empty", "absent"])
    def test_source_defaults_to_synthetic(self, tmp_path, value):
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5, "outcome": 1, "features": [0.0, 1.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record if value is ... else {**record, "source": value}) + "\n")
        assert load_questions(path).source == ["synthetic"]

    def test_integers_beyond_64_bits_are_refused(self, tmp_path):
        record = {
            "id": "a", "open_ts": 0, "close_ts": 10, "resolve_ts": 2**63,
            "prediction_ts": 5, "outcome": 1, "features": [0.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataFormatError, match=r"line 1: field 'resolve_ts': expected an integer that fits in 64 bits"):
            load_questions(path)

    def test_integral_numbers_load_as_integers(self, tmp_path):
        record = {
            "id": "a", "open_ts": 0.0, "close_ts": 10, "resolve_ts": 20,
            "prediction_ts": 5.0, "outcome": 1.0, "features": [0.0],
        }
        path = tmp_path / "q.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (q,) = load_questions(path)
        assert (q.open_ts, q.prediction_ts, q.outcome) == (0, 5, 1)
        assert all(type(v) is int for v in (q.open_ts, q.prediction_ts, q.outcome))

    def test_csv_and_jsonl_agree(self, tmp_path):
        ds = self._sample()
        save_questions(ds, tmp_path / "q.jsonl")
        save_questions(ds, tmp_path / "q.csv")
        a = load_questions(tmp_path / "q.jsonl")
        b = load_questions(tmp_path / "q.csv")
        assert a.ids == b.ids
        assert np.array_equal(a.features, b.features)
        assert [q.market_price for q in a] == [q.market_price for q in b]

    @pytest.mark.parametrize(
        "field, cell",
        [("open_ts", "1_000"), ("close_ts", " 2000 "), ("outcome", "+1"), ("market_price", " 0.5 "),
         ("volume", "1_0.5"), ("prediction_ts", "05"), ("resolve_ts", "３０００")],
    )
    def test_csv_number_cells_take_plain_json_number_text(self, tmp_path, field, cell):
        """int() and float() would read 1_000, ' 2000 ', +1 and ' 0.5 ' as
        1000, 2000, 1 and 0.5; a CSV number cell must be the text a JSON
        number is written as, or the record is refused, naming the field."""
        good = {"id": "a", "open_ts": "1000", "close_ts": "2000", "resolve_ts": "3000", "prediction_ts": "1500",
                "outcome": "1", "features": "[0.0]", "market_price": "0.5", "volume": "1e3", "source": "market"}

        def write(path, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(good))
                writer.writeheader()
                writer.writerows(rows)

        write(tmp_path / "good.csv", [good])
        (a,) = load_questions(tmp_path / "good.csv")
        assert (a.open_ts, a.close_ts, a.outcome, a.market_price, a.volume) == (1000, 2000, 1, 0.5, 1000.0)
        path = tmp_path / "q.csv"
        write(path, [good, {**good, "id": "b", field: cell}])
        message = rf"^{re.escape(str(path))}: line 3: field '{field}': expected a JSON number, got "
        with pytest.raises(DataFormatError, match=message):
            load_questions(path)


    @pytest.mark.parametrize(
        "field, got",
        [("id", "expected a non-empty string"), ("open_ts", "expected a JSON number, got ''"),
         ("outcome", "expected a JSON number, got ''"), ("features", "expected a JSON list, got ''")],
    )
    def test_csv_empty_cell_is_refused_by_its_field_cast(self, tmp_path, field, got):
        """An empty cell is null; a field that needs a value refuses it in
        its own cast, naming the field, while an empty optional cell loads."""
        row = {"id": "a", "open_ts": "1000", "close_ts": "2000", "resolve_ts": "3000", "prediction_ts": "1500",
               "outcome": "1", "features": "[0.5]", "market_price": "", "volume": "", "source": ""}
        path = tmp_path / "q.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerows([row, {**row, "id": "b", field: ""}])
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 3: field '{field}': {got}$"):
            load_questions(path)

    @pytest.mark.parametrize("cell", [" [0.5, 1e0] ", "[0.5, 1e0] ", "\t[0.5, 1e0]", "[0.5, 1e0]\n"])
    def test_csv_features_cell_takes_no_blanks_around_the_list(self, tmp_path, cell):
        """json.loads would read ' [0.5, 1e0] ' as [0.5, 1.0]; like a number
        cell, the features cell is refused with blanks around it, naming the
        field.  Blanks inside the list are JSON and stay allowed."""
        row = {"id": "a", "open_ts": "1000", "close_ts": "2000", "resolve_ts": "3000", "prediction_ts": "1500",
               "outcome": "1", "features": "[0.5, 1e0]", "market_price": "0.5", "volume": "", "source": "market"}

        def write(path, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(row))
                writer.writeheader()
                writer.writerows(rows)

        write(tmp_path / "good.csv", [row])
        (a,) = load_questions(tmp_path / "good.csv")
        assert a.features.tolist() == [0.5, 1.0]
        path = tmp_path / "q.csv"
        write(path, [row, {**row, "id": "b", "features": cell}])
        line = 3 + cell.count("\n")  # a record is named by the line it ends on
        message = rf"^{re.escape(str(path))}: line {line}: field 'features': expected a JSON list without blanks around it"
        with pytest.raises(DataFormatError, match=message):
            load_questions(path)


def _stream_with_nulls_and_both_sources(n=40):
    ds, _ = generate_synthetic_stream(SyntheticConfig(n_questions=n, feature_dim=3, market_noise=0.5), 5)
    ds.market_price[::4] = np.nan
    ds.volume[1::3] = 7.5
    ds.source[::5] = ["market"] * len(ds.source[::5])
    return ds


class TestSidecar:
    """save_questions writes `<file>.npy` beside a JSONL split: the file's
    SHA-256 and the dataset's columns, read in place of decoding it."""

    def test_sidecar_load_equals_the_decoded_load(self, tmp_path, monkeypatch):
        path = tmp_path / "test.jsonl"
        assert save_questions(_stream_with_nulls_and_both_sources(), path) == [path, tmp_path / "test.jsonl.npy"]
        shutil.copy(path, tmp_path / "plain.jsonl")  # no sidecar: decoded
        decoded = load_questions(tmp_path / "plain.jsonl", split="test")
        monkeypatch.setattr(data, "read_jsonl_columns", None)  # a decode would fail: the sidecar is read
        loaded = load_questions(path, split="test")
        assert np.isnan(decoded.market_price).any() and np.isnan(decoded.volume).any()
        assert set(decoded.source) == {"market", "synthetic"}
        assert vars(loaded).keys() == vars(decoded).keys()
        for name, want in vars(decoded).items():
            got = getattr(loaded, name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
                assert got.flags.c_contiguous, name
            else:
                assert got == want and list(map(type, got)) == list(map(type, want)), name

    def test_sidecar_binds_the_jsonl_bytes(self, tmp_path):
        path = tmp_path / "q.jsonl"
        save_questions(_stream_with_nulls_and_both_sources(5), path)
        record = np.load(tmp_path / "q.jsonl.npy", allow_pickle=False)
        assert record.shape == () and record["sha256"].item().decode() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_an_edited_jsonl_is_decoded(self, tmp_path):
        """The first record's outcome flipped: the digest no longer matches,
        so the file is decoded and the flip is loaded."""
        path = tmp_path / "q.jsonl"
        ds = _stream_with_nulls_and_both_sources(5)
        save_questions(ds, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), "outcome": 1 - int(ds.outcome[0])}, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        assert load_questions(path).outcome.tolist() == [1 - ds.outcome[0], *ds.outcome[1:].tolist()]

    @pytest.mark.parametrize("case", ["empty", "magic", "header", "half", "one-byte-short", "trailing-byte",
                                      "another-array", "object-array"])
    def test_an_unreadable_sidecar_is_refused_naming_it(self, tmp_path, case):
        path = tmp_path / "test.jsonl"
        save_questions(_stream_with_nulls_and_both_sources(), path)
        sidecar = tmp_path / "test.jsonl.npy"
        raw = sidecar.read_bytes()
        header = raw.index(b"\n") + 1
        cut = {"empty": 0, "magic": 8, "header": header, "half": (header + len(raw)) // 2, "one-byte-short": -1}
        if case in cut:
            sidecar.write_bytes(raw[: cut[case]])
        elif case == "trailing-byte":
            sidecar.write_bytes(raw + b"\0")
        else:
            with open(sidecar, "wb") as fh:  # np.save would add another .npy suffix to a path
                np.lib.format.write_array(fh, np.arange(3) if case == "another-array" else np.array([{}]))
        with pytest.raises(DataFormatError, match=rf"^(cannot read )?{re.escape(str(sidecar))}\b.*; delete it or re-run synth$"):
            load_questions(path)

    @pytest.mark.parametrize("suffix", ["csv", "jsonl"])
    def test_csv_and_empty_splits_get_no_sidecar_and_lose_an_old_one(self, tmp_path, suffix):
        path = tmp_path / f"q.{suffix}"
        sidecar = tmp_path / f"q.{suffix}.npy"
        sidecar.write_bytes(b"old")
        ds = _stream_with_nulls_and_both_sources(5) if suffix == "csv" else make_dataset([])
        assert save_questions(ds, path) == [path]
        assert not sidecar.exists()
        assert len(load_questions(path)) == len(ds)

    @pytest.mark.parametrize("column, value", [("volume", math.inf), ("market_price", -math.inf), ("ids", "a\0"),
                                               ("source", ""), ("outcome", 0.5)])
    def test_a_dataset_whose_jsonl_decodes_otherwise_gets_no_sidecar(self, tmp_path, column, value):
        """Values the JSONL casts refuse or change and the validator lets
        through, or that a numpy string cannot hold, are left to the
        decoder."""
        ds = _stream_with_nulls_and_both_sources(5)
        if column == "outcome":
            ds.outcome = ds.outcome.astype(np.float64)
        getattr(ds, column)[2] = value
        path = tmp_path / "q.jsonl"
        sidecar = tmp_path / "q.jsonl.npy"
        sidecar.write_bytes(b"old")
        assert save_questions(ds, path) == [path]
        assert not sidecar.exists()

    def test_a_sidecar_holding_what_its_jsonl_cannot_is_refused(self, tmp_path):
        """A record with the right digest but an empty id is refused;
        one that breaks an invariant fails the decoder's own check."""
        path = tmp_path / "q.jsonl"
        save_questions(_stream_with_nulls_and_both_sources(5), path)
        sidecar = tmp_path / "q.jsonl.npy"
        record = np.load(sidecar, allow_pickle=False)
        for field, value, error, message in [
            ("ids", "", DataFormatError, "holds values that q.jsonl cannot; delete it or re-run synth"),
            ("outcome", 2, ValidationError, "outcome must be 0 or 1, got 2"),
        ]:
            forged = record.copy()
            forged[field][1] = value
            with open(sidecar, "wb") as fh:
                np.lib.format.write_array(fh, forged)
            with pytest.raises(error, match=re.escape(message)):
                load_questions(path)


class TestChronology:
    def test_pass(self):
        train = make_dataset([make_question("t1", pred_ts=5, close_ts=9, resolve_ts=10, open_ts=0)])
        test = make_dataset([make_question("e1", pred_ts=20, open_ts=15)], split="test")
        report = validate_chronology(train, test)
        assert report.passed and not report.violations

    def test_single_violation(self):
        train = make_dataset([make_question("t1", pred_ts=5, close_ts=25, resolve_ts=30, open_ts=0)])
        test = make_dataset([make_question("e1", pred_ts=20, open_ts=15)], split="test")
        report = validate_chronology(train, test)
        assert not report.passed
        assert report.violations == [("t1", "e1")]
        assert report.n_violations == 1

    def test_exact_violating_pairs_listed(self):
        train = make_dataset(
            [
                make_question("t1", pred_ts=5, close_ts=9, resolve_ts=10, open_ts=0),
                make_question("t2", pred_ts=6, close_ts=25, resolve_ts=30, open_ts=0),
                make_question("t3", pred_ts=7, close_ts=45, resolve_ts=50, open_ts=0),
            ]
        )
        test = make_dataset(
            [
                make_question("e1", pred_ts=40, open_ts=35),
                make_question("e2", pred_ts=60, open_ts=55),
            ],
            split="test",
        )
        report = validate_chronology(train, test)
        # brute-force pair scan as the oracle
        expected = sorted(
            (tr.id, te.id)
            for tr in train
            for te in test
            if tr.resolve_ts >= te.prediction_ts
        )
        assert not report.passed
        assert sorted(report.violations) == expected == [("t3", "e1")]

    def test_boundary_is_strict(self):
        # resolve == predict is a look-ahead violation
        train = make_dataset([make_question("t1", pred_ts=5, close_ts=19, resolve_ts=20, open_ts=0)])
        test = make_dataset([make_question("e1", pred_ts=20, open_ts=15)], split="test")
        assert not validate_chronology(train, test).passed

    def test_empty_dataset_rejected(self):
        train = make_dataset([make_question("t1")])
        with pytest.raises(ValidationError, match="non-empty"):
            validate_chronology(train, Dataset([], "test"))

    def test_large_bad_split_counts_every_pair_and_lists_ten(self):
        n = m = 2000
        train = make_dataset([
            make_question(f"t{j:04d}", pred_ts=100 + j, open_ts=0, close_ts=9999 + j, resolve_ts=10_000 + j)
            for j in range(n)
        ])
        test = make_dataset(
            [make_question(f"e{k:04d}", pred_ts=9_000 + 2 * k, open_ts=8_000) for k in range(m)], split="test"
        )
        resolve = np.array([q.resolve_ts for q in train])
        predicted = np.array([q.prediction_ts for q in test])
        bad = resolve[:, None] >= predicted[None, :]  # brute-force oracle
        report = validate_chronology(train, test)
        assert not report.passed
        assert report.n_violations == int(bad.sum()) > 10
        rows, cols = np.nonzero(bad)
        first = [(train.ids[r], test.ids[c]) for r, c in zip(rows[:10], cols[:10])]
        assert report.violations == first


class TestSyntheticStream:
    def test_zero_weights_give_half(self):
        _, oracle = generate_synthetic_stream(SyntheticConfig(n_questions=50, feature_dim=3), 0, np.zeros(3))
        assert all(p == 0.5 for p in oracle.values())

    def test_latent_weights_need_one_per_feature(self):
        with pytest.raises(ValidationError, match=r"latent_weights must have shape \(feature_dim,\)"):
            generate_synthetic_stream(SyntheticConfig(n_questions=5, feature_dim=3), 0, np.zeros(2))

    def test_deterministic(self):
        cfg = SyntheticConfig(n_questions=100, feature_dim=4)
        a, oa = generate_synthetic_stream(cfg, 5)
        b, ob = generate_synthetic_stream(SyntheticConfig(n_questions=100, feature_dim=4), 5)
        assert a.ids == b.ids
        assert np.array_equal(a.features, b.features)
        assert oa == ob

    def test_oracle_matches_logistic_link(self):
        # reconstruct p* from the stream's own features and the fixed weights
        w = np.array([0.3, -1.1])
        cfg = SyntheticConfig(n_questions=200, feature_dim=2, temporal_drift=0.0)
        ds, oracle = generate_synthetic_stream(cfg, 1, w)
        for q in ds:
            assert oracle[q.id] == pytest.approx(float(expit(w @ q.features)), abs=1e-12)

    def test_outcome_frequency_matches_oracle_mean(self):
        cfg = SyntheticConfig(n_questions=50_000, feature_dim=4, temporal_drift=0.0)
        ds, oracle = generate_synthetic_stream(cfg, 2)
        p = np.array([oracle[q.id] for q in ds])
        y = ds.outcome
        se = np.sqrt(np.sum(p * (1 - p))) / p.size
        assert abs(y.mean() - p.mean()) < 3 * se

    def test_oracle_probabilities_interior(self):
        cfg = SyntheticConfig(n_questions=1000, feature_dim=4, temporal_drift=0.5)
        _, oracle = generate_synthetic_stream(cfg, 3)
        vals = np.array(list(oracle.values()))
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_timestamps_strictly_increasing_and_self_consistent(self):
        cfg = SyntheticConfig(n_questions=500, feature_dim=2)
        ds, _ = generate_synthetic_stream(cfg, 4)
        ts = [q.prediction_ts for q in ds]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        # every question resolves before the next one is predicted, so any
        # chronological split passes the look-ahead check
        train, test = split_dataset(ds, 0.5)
        assert validate_chronology(train, test).passed

    def test_market_noise_none_disables_quotes(self):
        cfg = SyntheticConfig(n_questions=20, feature_dim=2, market_noise=None)
        ds, _ = generate_synthetic_stream(cfg, 0)
        assert all(q.market_price is None for q in ds)

    def test_n_zero_empty(self):
        ds, oracle = generate_synthetic_stream(SyntheticConfig(n_questions=0, feature_dim=2), 0)
        assert len(ds) == 0 and oracle == {}


class TestExpit:
    SPECIAL = [0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 800.0, -800.0, 709.78, -709.78, -709.79,
               math.inf, -math.inf]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), max_size=50))
    def test_bit_equal_to_scipy(self, values):
        v = np.array(values + self.SPECIAL, dtype=np.float64)
        assert _expit(v).tobytes() == expit(v).tobytes()


class TestSplitAndOracleFile:
    def test_split_fractions(self):
        cfg = SyntheticConfig(n_questions=100, feature_dim=2)
        ds, _ = generate_synthetic_stream(cfg, 0)
        train, test = split_dataset(ds, 0.3)
        assert len(train) == 30 and len(test) == 70
        assert train.split == "train" and test.split == "test"
        assert max(q.prediction_ts for q in train) < min(q.prediction_ts for q in test)

    def test_split_fraction_bounds(self):
        ds, _ = generate_synthetic_stream(SyntheticConfig(n_questions=10, feature_dim=2), 0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                split_dataset(ds, bad)

    def test_oracle_round_trip(self, tmp_path):
        oracle = {"a": 0.125, "b": 0.6789}
        write_oracle(oracle, tmp_path / "oracle.jsonl")
        assert load_oracle(tmp_path / "oracle.jsonl") == oracle

    def test_oracle_repeated_id_is_refused(self, tmp_path):
        """A repeated id is an error naming its line, not a silent overwrite
        of the first p_star."""
        path = tmp_path / "oracle.jsonl"
        path.write_text('{"id": "a", "p_star": 0.9}\n{"id": "b", "p_star": 0.5}\n{"id": "a", "p_star": 0.1}\n')
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 3: duplicate id 'a'$"):
            load_oracle(path)

    def test_oracle_bad_record_line(self, tmp_path):
        (tmp_path / "oracle.jsonl").write_text('{"id": "a", "p_star": 0.5}\n{"id": "b"}\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_oracle(tmp_path / "oracle.jsonl")


def test_data_substream_isolated_from_sampling():
    # generation consumes only the "data" substream
    a = substream(0, "data").random(3)
    generate_synthetic_stream(SyntheticConfig(n_questions=10, feature_dim=2), 0)
    b = substream(0, "data").random(3)
    assert np.array_equal(a, b)
