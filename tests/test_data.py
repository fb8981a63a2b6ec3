import json

import numpy as np
import pytest
from scipy.special import expit

from forecast_rl.data import (
    Dataset,
    Question,
    SyntheticConfig,
    draw_prediction_timestamp,
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
        make_question("q1").validate()

    def test_timestamp_order_enforced(self):
        q = make_question("q1")
        q.prediction_ts = q.close_ts  # prediction must precede close
        with pytest.raises(ValidationError, match="q1"):
            q.validate()

    def test_outcome_must_be_binary(self):
        q = make_question("q1")
        q.outcome = 2
        with pytest.raises(ValidationError, match="outcome"):
            q.validate()

    def test_market_price_strictly_interior(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            q = make_question("q1", market_price=bad)
            with pytest.raises(ValidationError, match="market_price"):
                q.validate()
        make_question("q1", market_price=0.5).validate()

    def test_negative_volume_rejected(self):
        q = make_question("q1", volume=-1.0)
        with pytest.raises(ValidationError, match="volume"):
            q.validate()


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
        assert back.ids() == ds.ids()
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
        assert back.ids() == [q.id for q in sorted(ds.questions, key=lambda q: (q.prediction_ts, q.id))]

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

    def test_csv_and_jsonl_agree(self, tmp_path):
        ds = self._sample()
        save_questions(ds, tmp_path / "q.jsonl")
        save_questions(ds, tmp_path / "q.csv")
        a = load_questions(tmp_path / "q.jsonl")
        b = load_questions(tmp_path / "q.csv")
        assert a.ids() == b.ids()
        assert np.array_equal(a.feature_matrix(), b.feature_matrix())
        assert [q.market_price for q in a] == [q.market_price for q in b]


class TestDrawPredictionTimestamp:
    def test_single_integer_window(self):
        q = make_question("q1", open_ts=100, close_ts=101, resolve_ts=200, pred_ts=100)
        assert draw_prediction_timestamp(q, np.random.default_rng(0)) == 100

    def test_deterministic_under_seed(self):
        q1 = make_question("q1", open_ts=0, close_ts=1000, resolve_ts=2000, pred_ts=0)
        q2 = make_question("q1", open_ts=0, close_ts=1000, resolve_ts=2000, pred_ts=0)
        t1 = draw_prediction_timestamp(q1, np.random.default_rng(9))
        t2 = draw_prediction_timestamp(q2, np.random.default_rng(9))
        assert t1 == t2
        assert q1.prediction_ts == t1

    def test_degenerate_window_rejected(self):
        q = make_question("q1", open_ts=100, close_ts=100, resolve_ts=200, pred_ts=100)
        with pytest.raises(ValidationError, match="degenerate"):
            draw_prediction_timestamp(q, np.random.default_rng(0))

    def test_uniform_mean(self):
        rng = np.random.default_rng(4)
        q = make_question("q1", open_ts=0, close_ts=1000, resolve_ts=2000, pred_ts=0)
        draws = np.array([draw_prediction_timestamp(q, rng) for _ in range(10_000)])
        # uniform on [0, 1000): mean 499.5, sd per draw ~ 1000/sqrt(12)
        se = 1000 / np.sqrt(12) / np.sqrt(draws.size)
        assert abs(draws.mean() - 499.5) < 3 * se
        assert draws.min() >= 0 and draws.max() < 1000


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
        first = [(train.questions[r].id, test.questions[c].id) for r, c in zip(rows[:10], cols[:10])]
        assert report.violations == first


class TestSyntheticStream:
    def test_zero_weights_give_half(self):
        cfg = SyntheticConfig(n_questions=50, feature_dim=3, latent_weights=np.zeros(3), seed=0)
        _, oracle = generate_synthetic_stream(cfg)
        assert all(p == 0.5 for p in oracle.values())

    def test_deterministic(self):
        cfg = SyntheticConfig(n_questions=100, feature_dim=4, seed=5)
        a, oa = generate_synthetic_stream(cfg)
        b, ob = generate_synthetic_stream(SyntheticConfig(n_questions=100, feature_dim=4, seed=5))
        assert a.ids() == b.ids()
        assert np.array_equal(a.feature_matrix(), b.feature_matrix())
        assert oa == ob

    def test_oracle_matches_logistic_link(self):
        # reconstruct p* from the stream's own features and the fixed weights
        w = np.array([0.3, -1.1])
        cfg = SyntheticConfig(n_questions=200, feature_dim=2, latent_weights=w, temporal_drift=0.0, seed=1)
        ds, oracle = generate_synthetic_stream(cfg)
        for q in ds:
            assert oracle[q.id] == pytest.approx(float(expit(w @ q.features)), abs=1e-12)

    def test_outcome_frequency_matches_oracle_mean(self):
        cfg = SyntheticConfig(n_questions=50_000, feature_dim=4, temporal_drift=0.0, seed=2)
        ds, oracle = generate_synthetic_stream(cfg)
        p = np.array([oracle[q.id] for q in ds])
        y = ds.outcomes()
        se = np.sqrt(np.sum(p * (1 - p))) / p.size
        assert abs(y.mean() - p.mean()) < 3 * se

    def test_oracle_probabilities_interior(self):
        cfg = SyntheticConfig(n_questions=1000, feature_dim=4, temporal_drift=0.5, seed=3)
        _, oracle = generate_synthetic_stream(cfg)
        vals = np.array(list(oracle.values()))
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_timestamps_strictly_increasing_and_self_consistent(self):
        cfg = SyntheticConfig(n_questions=500, feature_dim=2, seed=4)
        ds, _ = generate_synthetic_stream(cfg)
        ts = [q.prediction_ts for q in ds]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        # every question resolves before the next one is predicted, so any
        # chronological split passes the look-ahead check
        train, test = split_dataset(ds, 0.5)
        assert validate_chronology(train, test).passed

    def test_market_noise_none_disables_quotes(self):
        cfg = SyntheticConfig(n_questions=20, feature_dim=2, market_noise=None, seed=0)
        ds, _ = generate_synthetic_stream(cfg)
        assert all(q.market_price is None for q in ds)

    def test_n_zero_empty(self):
        ds, oracle = generate_synthetic_stream(SyntheticConfig(n_questions=0, feature_dim=2, seed=0))
        assert len(ds) == 0 and oracle == {}


class TestSplitAndOracleFile:
    def test_split_fractions(self):
        cfg = SyntheticConfig(n_questions=100, feature_dim=2, seed=0)
        ds, _ = generate_synthetic_stream(cfg)
        train, test = split_dataset(ds, 0.3)
        assert len(train) == 30 and len(test) == 70
        assert train.split == "train" and test.split == "test"
        assert max(q.prediction_ts for q in train) < min(q.prediction_ts for q in test)

    def test_split_fraction_bounds(self):
        ds, _ = generate_synthetic_stream(SyntheticConfig(n_questions=10, feature_dim=2, seed=0))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                split_dataset(ds, bad)

    def test_oracle_round_trip(self, tmp_path):
        oracle = {"a": 0.125, "b": 0.6789}
        write_oracle(oracle, tmp_path / "oracle.jsonl")
        assert load_oracle(tmp_path / "oracle.jsonl") == oracle

    def test_oracle_bad_record_line(self, tmp_path):
        (tmp_path / "oracle.jsonl").write_text('{"id": "a", "p_star": 0.5}\n{"id": "b"}\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_oracle(tmp_path / "oracle.jsonl")


def test_data_substream_isolated_from_sampling():
    # generation consumes only the "data" substream
    a = substream(0, "data").random(3)
    generate_synthetic_stream(SyntheticConfig(n_questions=10, feature_dim=2, seed=0))
    b = substream(0, "data").random(3)
    assert np.array_equal(a, b)
