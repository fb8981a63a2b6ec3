from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import make_dataset, make_question, outcome_by_id
from forecast_rl.errors import ValidationError
from forecast_rl.evaluation import Forecast, Z_95, ece_equal_mass
from forecast_rl.rng import substream
from forecast_rl.trading import (
    CONFIDENCE_BANDS,
    FEE,
    GATE_ALL_MARKETS,
    GATE_EDGE_ABOVE_ECE,
    GATE_EDGE_ABOVE_ZERO,
    GATES,
    GatingRule,
    StrategyResult,
    Trades,
    apply_gate,
    build_trades,
    confidence_band_edges,
    gating_ece,
    mean_per_trade,
    per_question_profits,
    run_strategies,
    run_strategy,
    tradeable,
)
from oracle import TradeRecord, make_trade, oracle_bands, oracle_gate, oracle_profits, oracle_trades


def trade_with(profit=0.0, edge=0.1, m=0.6, qid="q", realized=1, side="long"):
    cost = m + FEE if side == "long" else (1 - m) + FEE
    return TradeRecord(qid, side, m, cost, cost + edge, edge, realized, profit)


def as_columns(records: list[TradeRecord]) -> Trades:
    """Per-trade records as the trade columns, numbered as rows in list order."""
    def col(name, dtype):
        return np.array([getattr(t, name) for t in records], dtype=dtype)

    return Trades(np.arange(len(records)), col("question_id", object), col("side", object) == "long",
                  col("market_price", float), col("entry_cost", float), col("belief_value", float),
                  col("expected_edge", float), col("realized_value", np.int64), col("profit", float))


def column(forecasts, ds):
    """A {question id: probability or None} map as the probability column
    aligned with the dataset's rows, NaN where absent."""
    return np.array([forecasts.get(qid) for qid in ds.ids], dtype=np.float64)


def same_columns(a: Trades, b: Trades) -> bool:
    """Every column of the same dtype and bit-equal (ids equal as str)."""
    def same(x, y):
        return x.dtype == y.dtype and (x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes())

    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(Trades))


def same_result(a: StrategyResult, b: StrategyResult) -> bool:
    """Equal totals and trades.json entries, and bit-equal trade columns."""
    return a.to_dict() == b.to_dict() and same_columns(a.trades, b.trades)


def priced_dataset(rows):
    """rows: (qid, p_market, outcome[, volume]) in chronological order."""
    qs = []
    for i, row in enumerate(rows):
        qid, m, y = row[:3]
        vol = row[3] if len(row) > 3 else None
        qs.append(make_question(qid, pred_ts=100 + i, outcome=y, market_price=m, volume=vol))
    return make_dataset(qs)


class TestMakeTrade:
    def test_long_fixture(self):
        t = make_trade(0.8, 0.6, 1, np.random.default_rng(0))
        assert t.side == "long"
        assert t.entry_cost == pytest.approx(0.61)
        assert t.belief_value == 0.8
        assert t.expected_edge == pytest.approx(0.19)
        assert t.realized_value == 1
        assert t.profit == pytest.approx(0.39)

    def test_short_fixture(self):
        t = make_trade(0.2, 0.6, 1, np.random.default_rng(0))
        assert t.side == "short"
        assert t.entry_cost == pytest.approx(0.41)
        assert t.belief_value == pytest.approx(0.8)
        assert t.expected_edge == pytest.approx(0.39)
        assert t.realized_value == 0
        assert t.profit == pytest.approx(-0.41)

    def test_exact_tie_flips_a_seeded_coin(self):
        sides = {make_trade(0.5, 0.5, 1, substream(s, "ties")).side for s in range(40)}
        assert sides == {"long", "short"}

    def test_domain_errors(self):
        rng = np.random.default_rng(0)
        for p, m, y in ((0.5, 0.0, 1), (0.5, 1.0, 1), (1.5, 0.5, 1), (0.5, 0.5, 2)):
            with pytest.raises(ValidationError):
                make_trade(p, m, y, rng)

    def test_profit_cost_partition_is_exact(self, rng):
        for _ in range(1000):
            t = make_trade(float(rng.random()), float(rng.uniform(0.01, 0.99)),
                           int(rng.integers(0, 2)), rng)
            assert t.profit + t.entry_cost in (0.0, 1.0)
            assert t.profit + t.entry_cost == t.realized_value


class TestEligibility:
    def test_rules(self):
        ds = make_dataset([
            make_question("a", 100, market_price=0.5),
            make_question("b", 101, market_price=0.5, volume=10.0),
            make_question("c", 102),  # no quote
            make_question("d", 103, market_price=0.5, volume=0.0),
        ])
        assert tradeable(ds).tolist() == [True, True, False, False]

    def test_build_trades_skips_absent_forecasts(self):
        ds = priced_dataset([("a", 0.5, 1), ("b", 0.5, 1)])
        trades = build_trades(np.array([0.8, np.nan]), ds, np.random.default_rng(0))
        assert trades.question_id.tolist() == ["a"]


FIXTURE_ROWS = [
    # qid, market, outcome; forecasts chosen to span all three gates
    ("q1", 0.6, 1),  # p=0.8   -> long,  edge +0.19, profit +0.39
    ("q2", 0.6, 1),  # p=0.2   -> short, edge +0.39, profit -0.41
    ("q3", 0.5, 0),  # p=0.505 -> long,  edge -0.005, profit -0.51
    ("q4", 0.4, 0),  # p=0.3   -> short, edge +0.09, profit +0.39
]
FIXTURE_FORECASTS = {"q1": 0.8, "q2": 0.2, "q3": 0.505, "q4": 0.3}


class TestRunStrategy:
    def test_hand_fixture_under_all_three_rules(self):
        ds = priced_dataset(FIXTURE_ROWS)
        rng = lambda: np.random.default_rng(0)

        allm = run_strategy(FIXTURE_FORECASTS, ds, GatingRule(GATE_ALL_MARKETS), rng())
        assert allm.n_trades == 4
        assert allm.total_profit == pytest.approx(0.39 - 0.41 - 0.51 + 0.39, abs=1e-9)
        assert allm.trades.question_id.tolist() == ["q2", "q1", "q4", "q3"]
        assert allm.cumulative_profit == pytest.approx([-0.41, -0.02, 0.37, -0.14], abs=1e-9)

        zero = run_strategy(FIXTURE_FORECASTS, ds, GatingRule(GATE_EDGE_ABOVE_ZERO), rng())
        assert zero.n_trades == 3
        assert zero.total_profit == pytest.approx(0.37, abs=1e-9)

        ece = run_strategy(FIXTURE_FORECASTS, ds, GatingRule(GATE_EDGE_ABOVE_ECE, 0.10), rng())
        assert ece.n_trades == 2
        assert ece.trades.question_id.tolist() == ["q2", "q1"]
        assert ece.total_profit == pytest.approx(-0.02, abs=1e-9)

    def test_edge_ties_break_by_question_id(self):
        ds = priced_dataset([("b", 0.6, 1), ("a", 0.6, 0)])
        result = run_strategy({"a": 0.8, "b": 0.8}, ds, GatingRule(GATE_ALL_MARKETS),
                              np.random.default_rng(0))
        assert result.trades.question_id.tolist() == ["a", "b"]

    def test_no_eligible_questions_is_empty_not_an_error(self):
        ds = make_dataset([make_question("a")])
        result = run_strategy({"a": 0.8}, ds, GatingRule(GATE_EDGE_ABOVE_ZERO),
                              np.random.default_rng(0))
        assert result.n_trades == 0 and result.total_profit == 0.0
        assert result.mean_profit is None and len(result.cumulative_profit) == 0

    def test_all_negative_edges_kept_only_by_all_markets(self):
        ds = priced_dataset([("a", 0.5, 1), ("b", 0.5, 0)])
        forecasts = {"a": 0.505, "b": 0.495}  # |edge| < fee on both
        zero = run_strategy(forecasts, ds, GatingRule(GATE_EDGE_ABOVE_ZERO), np.random.default_rng(0))
        assert zero.n_trades == 0 and zero.total_profit == 0.0
        allm = run_strategy(forecasts, ds, GatingRule(GATE_ALL_MARKETS), np.random.default_rng(0))
        assert allm.n_trades == 2

    def test_gate_chain_and_partition_identity(self, rng):
        """Subset chain and the partition identity over random fixtures."""
        for trial in range(100):
            n = int(rng.integers(3, 25))
            rows = [
                (f"q{i:02d}", float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 2)))
                for i in range(n)
            ]
            ds = priced_dataset(rows)
            forecasts = {f"q{i:02d}": float(rng.random()) for i in range(n)}
            ece_val = float(rng.uniform(0.0, 0.3))

            results = {}
            for kind, ece in ((GATE_EDGE_ABOVE_ECE, ece_val), (GATE_EDGE_ABOVE_ZERO, None),
                              (GATE_ALL_MARKETS, None)):
                results[kind] = run_strategy(forecasts, ds, GatingRule(kind, ece),
                                             np.random.default_rng(trial))

            kept = {k: set(r.trades.question_id.tolist()) for k, r in results.items()}
            assert kept[GATE_EDGE_ABOVE_ECE] <= kept[GATE_EDGE_ABOVE_ZERO] <= kept[GATE_ALL_MARKETS]

            allm = results[GATE_ALL_MARKETS]
            gated_out = sum(allm.trades.profit[allm.trades.expected_edge <= 0.0].tolist())
            assert allm.total_profit == pytest.approx(
                results[GATE_EDGE_ABOVE_ZERO].total_profit + gated_out, abs=1e-12
            )

            for r in results.values():
                edges = r.trades.expected_edge.tolist()
                assert edges == sorted(edges, reverse=True)
                if r.n_trades:
                    assert r.cumulative_profit[-1] == pytest.approx(r.total_profit, abs=1e-12)
                    assert np.allclose(r.cumulative_profit,
                                       np.cumsum(r.trades.profit.tolist()))

    def test_perfect_foresight(self, rng):
        rows = [
            (f"q{i:02d}", float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 2)))
            for i in range(30)
        ]
        ds = priced_dataset(rows)
        forecasts = {qid: float(y) for qid, _, y in rows}
        result = run_strategy(forecasts, ds, GatingRule(GATE_EDGE_ABOVE_ZERO),
                              np.random.default_rng(0))
        assert result.n_trades == 30
        assert (result.trades.expected_edge > 0.0).all()
        assert (result.trades.realized_value == 1).all()
        assert result.total_profit == pytest.approx(
            sum((1.0 - result.trades.entry_cost).tolist()), abs=1e-12
        )


class TestRunStrategies:
    def test_one_build_matches_a_build_per_gate(self, rng):
        """Tie coin flips come only from the build, so gating one build
        three ways equals three builds with fresh generators."""
        rows = [(f"q{i:02d}", float(np.round(rng.uniform(0.05, 0.95), 2)), int(rng.integers(0, 2)))
                for i in range(60)]
        ds = priced_dataset(rows)
        forecasts = {qid: (m if i % 3 == 0 else float(np.round(rng.random(), 2))) for i, (qid, m, _) in
                     enumerate(rows)}
        forecasts["q05"] = None
        results = run_strategies(column(forecasts, ds), ds, 0.05, substream(1, "ties", "m"))
        assert list(results) == list(GATES)
        for kind, got in results.items():
            rule = GatingRule(kind, 0.05 if kind == GATE_EDGE_ABOVE_ECE else None)
            alone = run_strategy(forecasts, ds, rule, substream(1, "ties", "m"))
            assert same_result(got, alone)
            assert got.cumulative_profit.tobytes() == alone.cumulative_profit.tobytes()


class TestMeanPerTrade:
    def test_constant_profits(self):
        trades = [trade_with(profit=0.05, qid=str(i)) for i in range(5)]
        result = StrategyResult(as_columns(trades), 0.25, 5)
        mean, (lo, hi) = mean_per_trade(result)
        assert mean == pytest.approx(0.05) and lo == hi == pytest.approx(0.05)

    def test_two_trade_fixture(self):
        trades = [trade_with(profit=0.39, qid="a"), trade_with(profit=-0.41, qid="b")]
        result = StrategyResult(as_columns(trades), -0.02, 2)
        mean, (lo, hi) = mean_per_trade(result)
        sd = np.std([0.39, -0.41], ddof=1)
        assert mean == pytest.approx(-0.01)
        assert sd == pytest.approx(0.565685, abs=1e-6)
        assert lo == pytest.approx(mean - Z_95 * sd / np.sqrt(2), abs=1e-12)
        assert hi == pytest.approx(mean + Z_95 * sd / np.sqrt(2), abs=1e-12)
        assert lo <= mean <= hi

    def test_single_trade_rejected(self):
        result = StrategyResult(as_columns([trade_with()]), 0.0, 1)
        with pytest.raises(ValidationError):
            mean_per_trade(result)

    def test_run_strategy_attaches_mean(self):
        ds = priced_dataset(FIXTURE_ROWS)
        result = run_strategy(FIXTURE_FORECASTS, ds, GatingRule(GATE_ALL_MARKETS),
                              np.random.default_rng(0))
        assert result.mean_profit == pytest.approx(result.total_profit / result.n_trades)
        assert result.mean_ci[0] <= result.mean_profit <= result.mean_ci[1]


class TestConfidenceBands:
    def test_band_membership_uses_market_confidence(self):
        trades = [
            trade_with(m=0.5, qid="a"),   # conf 0.50 -> first band
            trade_with(m=0.35, qid="b"),  # conf 0.65 -> middle band
            trade_with(m=0.2, qid="c"),   # conf 0.80 -> last band (inclusive lo)
            trade_with(m=0.95, qid="d"),  # conf 0.95 -> last band
        ]
        bands = confidence_band_edges(as_columns(trades))
        assert [b.count for b in bands] == [1, 1, 2]
        assert [(b.lo, b.hi) for b in bands] == list(CONFIDENCE_BANDS)

    def test_winning_longs_at_even_money(self):
        # every long at m=0.5 wins: excess = 1 - 0.51 + 0.01 = 0.5 -> +50 pp
        trades = [
            TradeRecord(str(i), "long", 0.5, 0.51, 0.9, 0.39, 1, 0.49) for i in range(4)
        ]
        band = confidence_band_edges(as_columns(trades))[0]
        assert band.count == 4
        assert band.mean_pp == pytest.approx(50.0)
        assert band.t_stat is None and band.p_value is None  # zero spread

    def test_win_rate_matching_price_gives_zero_pp(self):
        # 3 wins, 2 losses on longs at m = 0.6: win rate equals the pre-fee price
        trades = [
            TradeRecord(str(i), "long", 0.6, 0.61, 0.8, 0.19, 1 if i < 3 else 0,
                        (1 if i < 3 else 0) - 0.61)
            for i in range(5)
        ]
        band = confidence_band_edges(as_columns(trades))[0]
        assert band.mean_pp == pytest.approx(0.0, abs=1e-9)
        assert band.p_value > 0.9

    def test_empty_and_singleton_bands(self):
        bands = confidence_band_edges(as_columns([trade_with(m=0.55, qid="only")]))
        assert bands[0].count == 1 and bands[0].mean_pp is not None
        assert bands[0].t_stat is None  # no test on a single trade
        assert bands[1].count == 0 and bands[1].mean_pp is None
        assert bands[2].count == 0

    def test_t_statistic_matches_scipy(self, rng):
        trades = []
        for i in range(12):
            realized = int(rng.integers(0, 2))
            m = float(rng.uniform(0.5, 0.64))
            trades.append(TradeRecord(str(i), "long", m, m + FEE, 0.9, 0.1,
                                      realized, realized - (m + FEE)))
        band = confidence_band_edges(as_columns(trades))[0]
        vals = [t.realized_value - t.entry_cost + FEE for t in trades]
        ref = sps.ttest_1samp(vals, 0.0)
        assert band.count == 12
        assert band.t_stat == pytest.approx(ref.statistic, abs=1e-12)
        assert band.p_value == pytest.approx(ref.pvalue, abs=1e-12)


class TestGatingEce:
    def make_inputs(self, n=40):
        rng = np.random.default_rng(3)
        rows = [
            (f"q{i:02d}", float(rng.uniform(0.1, 0.9)), int(rng.integers(0, 2)))
            for i in range(n)
        ]
        ds = priced_dataset(rows)
        forecasts = {f"q{i:02d}": float(rng.random()) for i in range(n)}
        return ds, forecasts

    def test_calibration_split_trades_the_complement(self):
        ds, forecasts = self.make_inputs()
        probs = column(forecasts, ds)[:, None]
        (ece,), trade_ds, trade_probs = gating_ece(probs, ds, mode="calibration_split")
        cal_ids = ds.ids[:20]
        assert trade_ds.ids == ds.ids[20:]
        assert trade_probs.tobytes() == column(forecasts, trade_ds)[:, None].tobytes()
        want = ece_equal_mass(
            [Forecast(qid, forecasts[qid]) for qid in cal_ids],
            outcome_by_id(ds),
        )
        assert ece == want

    def test_in_sample_trades_everything(self):
        ds, forecasts = self.make_inputs()
        probs = column(forecasts, ds)[:, None]
        (ece,), trade_ds, trade_probs = gating_ece(probs, ds, mode="in_sample")
        assert trade_ds is ds
        assert trade_probs.tobytes() == probs.tobytes()
        want = ece_equal_mass(
            [Forecast(qid, forecasts[qid]) for qid in ds.ids],
            outcome_by_id(ds),
        )
        assert ece == want

    def test_unknown_mode(self):
        ds, forecasts = self.make_inputs()
        with pytest.raises(ValidationError):
            gating_ece(column(forecasts, ds)[:, None], ds, mode="holdout")


def gated(models, ds, rule):
    """Each model's result under one gating rule, with its own tie generator."""
    return [run_strategy(f, ds, rule, np.random.default_rng(0)) for f in models]


class TestPerQuestionProfits:
    def test_rows_align_and_zero_fill(self):
        ds = priced_dataset([("a", 0.6, 1), ("b", 0.6, 1), ("c", 0.6, 0)])
        models = [{"a": 0.8, "b": None, "c": 0.8}, {"a": 0.8, "b": 0.8, "c": 0.8}]
        values, rows = per_question_profits(gated(models, ds, GatingRule(GATE_ALL_MARKETS)), ds)
        assert rows == ["a", "b", "c"]
        assert values.shape == (3, 2)
        assert values[1, 0] == 0.0  # m1 skipped b
        assert values[1, 1] == pytest.approx(0.39)
        assert values[0, 0] == values[0, 1] == pytest.approx(0.39)
        assert values[2, 0] == pytest.approx(-0.61)

    def test_gating_zeroes_excluded_questions(self):
        ds = priced_dataset([("a", 0.5, 1)])
        models = [{"a": 0.505}]  # edge -0.005
        values, _ = per_question_profits(gated(models, ds, GatingRule(GATE_EDGE_ABOVE_ZERO)), ds)
        assert values[0, 0] == 0.0
        values, _ = per_question_profits(gated(models, ds, GatingRule(GATE_ALL_MARKETS)), ds)
        assert values[0, 0] != 0.0

    def test_per_model_ece_thresholds(self):
        ds = priced_dataset(FIXTURE_ROWS)
        values, rows = per_question_profits(gated([FIXTURE_FORECASTS], ds, GatingRule(GATE_EDGE_ABOVE_ECE, 0.10)), ds)
        traded = {rows[i] for i in range(len(rows)) if values[i, 0] != 0.0}
        assert traded == {"q1", "q2"}


class TestGatingRule:
    def test_validation(self):
        for kind in GATES:
            GatingRule(kind, 0.1 if kind == GATE_EDGE_ABOVE_ECE else None).validate()
        with pytest.raises(ValidationError):
            GatingRule("edge_above_fees").validate()
        with pytest.raises(ValidationError):
            GatingRule(GATE_EDGE_ABOVE_ECE).validate()
        with pytest.raises(ValidationError):
            GatingRule(GATE_EDGE_ABOVE_ECE, 1.5).validate()

    def test_to_dict_round_trip_keys(self):
        t = trade_with(profit=0.39, qid="q1")
        (record,) = StrategyResult(as_columns([t]), 0.39, 1).to_dict()["trades"]
        assert set(record) == {
            "question_id", "side", "market_price", "entry_cost",
            "belief_value", "expected_edge", "realized_value", "profit",
        }
        assert record == asdict(t)


@st.composite
def markets(draw):
    """A dataset and a few models' probability columns on a coarse 0.01
    grid: many exact ties with the price and many equal edges, absent
    forecasts, unpriced and zero-volume rows, and ids whose str order
    differs from the row order (with a trailing NUL among them)."""
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.text("ab\x00Z", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    grid = draw(st.lists(st.integers(1, 99), min_size=1, max_size=4))
    qs = []
    for qid in ids:
        m = draw(st.one_of(st.none(), st.sampled_from(grid)))
        vol = draw(st.sampled_from([None, 0.0, 5.0]))
        qs.append(make_question(qid, pred_ts=draw(st.integers(100, 104)), outcome=draw(st.integers(0, 1)),
                                market_price=None if m is None else m / 100, volume=vol))
    ds = make_dataset(qs)
    models = []
    for _ in range(draw(st.integers(1, 3))):
        col = []
        for m in ds.market_price.tolist():
            kind = draw(st.sampled_from(["tie", "grid", "absent", "any"]))
            if kind == "tie" and not np.isnan(m):
                col.append(m)
            elif kind == "absent":
                col.append(np.nan)
            elif kind == "grid":
                col.append(draw(st.sampled_from(grid)) / 100)
            else:
                col.append(draw(st.integers(0, 100)) / 100)
        models.append(np.array(col))
    return ds, models, draw(st.integers(0, 30)) / 100, draw(st.integers(0, 2**32))


class TestColumnsMatchTheOracle:
    """The trade columns give what one TradeRecord per trade gave: the same
    trades, gate order, totals, bands and profit matrices, bit for bit,
    and the generator left in the same state."""

    @settings(max_examples=150, deadline=None)
    @given(case=markets())
    def test_build_gate_profits_and_bands(self, case):
        ds, models, ece, seed = case
        kept = {kind: [] for kind in GATES}
        oracle_kept = {kind: [] for kind in GATES}
        for j, probs in enumerate(models):
            rng, oracle_rng = substream(seed, "ties", str(j)), substream(seed, "ties", str(j))
            trades = build_trades(probs, ds, rng)
            records = oracle_trades(probs, ds, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            columns = as_columns(records)
            columns.row = np.array([ds.ids.index(t.question_id) for t in records], dtype=np.intp)
            assert same_columns(trades, columns)
            for kind in GATES:
                threshold = {GATE_EDGE_ABOVE_ECE: ece, GATE_EDGE_ABOVE_ZERO: 0.0, GATE_ALL_MARKETS: None}[kind]
                got = apply_gate(trades, GatingRule(kind, ece if kind == GATE_EDGE_ABOVE_ECE else None))
                want = oracle_gate(records, threshold)
                profits = np.array([t.profit for t in want])
                assert got.trades.question_id.tolist() == [t.question_id for t in want]
                assert got.n_trades == len(want)
                assert got.total_profit == (float(profits.sum()) if want else 0.0)
                if len(want) >= 2:
                    se = float(profits.std(ddof=1) / np.sqrt(profits.size))
                    mean = float(profits.mean())
                    assert (got.mean_profit, got.mean_ci) == (mean, (mean - Z_95 * se, mean + Z_95 * se))
                else:
                    assert got.mean_profit is None and got.mean_ci is None
                assert got.to_dict()["trades"] == [asdict(t) for t in want[:20]]
                assert got.cumulative_profit.tobytes() == np.cumsum(profits).tobytes()
                kept[kind].append(got)
                oracle_kept[kind].append(want)
            bands = confidence_band_edges(kept[GATE_ALL_MARKETS][-1].trades)
            assert [asdict(b) for b in bands] == [asdict(b) for b in oracle_bands(oracle_kept[GATE_ALL_MARKETS][-1],
                                                                                 CONFIDENCE_BANDS)]
        for kind in GATES:
            values, rows = per_question_profits(kept[kind], ds)
            assert values.tobytes() == oracle_profits(oracle_kept[kind], ds).tobytes()
            assert rows == [qid for qid, ok in zip(ds.ids, tradeable(ds).tolist()) if ok]

