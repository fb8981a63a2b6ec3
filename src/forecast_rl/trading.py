"""Hypothetical one-share trading against market prices.

Each forecast/price pair yields one trade: buy a $1 long share at
m + 0.01 when the model's probability exceeds the price, short at
(1 - m) + 0.01 when it is below, coin-flip on exact ties.  The added
cent stands in for fees and slippage.  Three gating rules select which
trades count toward the totals.  A model's forecasts come as a
probability column aligned with the dataset's rows, NaN where absent.

A model's trades are one table of columns (`Trades`); gates, order,
totals, profit matrix and confidence bands are masks and index
arithmetic on it.  `StrategyResult` writes trades.json's records and the
curve CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from forecast_rl.data import Dataset, split_dataset
from forecast_rl.errors import ValidationError
from forecast_rl.evaluation import _mean_se, _wald, ece_bins, t_two_sided_p

FEE = 0.01

GATE_EDGE_ABOVE_ECE = "edge_above_ece"
GATE_EDGE_ABOVE_ZERO = "edge_above_zero"
GATE_ALL_MARKETS = "all_markets"
GATES = (GATE_EDGE_ABOVE_ECE, GATE_EDGE_ABOVE_ZERO, GATE_ALL_MARKETS)

CONFIDENCE_BANDS = ((0.50, 0.65), (0.65, 0.80), (0.80, 1.00))

HEAD_TRADES = 20  # kept trades listed in trades.json; the full curve is in the CSV
CURVE_HEADER = ("trade_index", "question_id", "expected_edge", "profit", "cumulative_profit")


@dataclass
class Trades:
    """One model's trades as columns, one entry per trade."""

    row: np.ndarray  # intp: the trade's dataset row
    question_id: np.ndarray  # object: the row's id (a str)
    long: np.ndarray  # bool: long, else short
    market_price: np.ndarray
    entry_cost: np.ndarray
    belief_value: np.ndarray
    expected_edge: np.ndarray
    realized_value: np.ndarray  # int64: 1 when the side taken pays out
    profit: np.ndarray

    def take(self, index) -> Trades:
        """The trades at `index` (a mask or positions), in its order."""
        return Trades(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass
class GatingRule:
    kind: str
    ece_value: float | None = None

    def validate(self) -> None:
        if self.kind not in GATES:
            raise ValidationError(f"unknown gating rule {self.kind!r}")
        if self.kind == GATE_EDGE_ABOVE_ECE:
            if self.ece_value is None or not (0.0 <= self.ece_value <= 1.0):
                raise ValidationError("edge_above_ece needs ece_value in [0, 1]")

    def keeps(self, expected_edge: np.ndarray) -> np.ndarray:
        """Mask of the trades, given by their expected edges, that count."""
        if self.kind == GATE_ALL_MARKETS:
            return np.ones(len(expected_edge), dtype=bool)
        return expected_edge > (0.0 if self.kind == GATE_EDGE_ABOVE_ZERO else self.ece_value)


@dataclass
class StrategyResult:
    """Kept trades in descending expected-edge order (ties by question id)
    with their totals."""

    trades: Trades
    total_profit: float
    n_trades: int
    mean_profit: float | None = None
    mean_ci: tuple[float, float] | None = None

    @property
    def cumulative_profit(self) -> np.ndarray:
        """Running profit total after each trade."""
        return np.cumsum(self.trades.profit)

    def to_dict(self) -> dict:
        """The trades.json entry: the totals and the first HEAD_TRADES kept
        trades as records of every column but the row, the side spelt out."""
        head = self.trades.take(slice(HEAD_TRADES))
        columns = {f.name: getattr(head, f.name).tolist() for f in fields(head) if f.name not in ("row", "long")}
        columns["side"] = np.where(head.long, "long", "short").tolist()
        return {**vars(self), "trades": [dict(zip(columns, values)) for values in zip(*columns.values())]}

    def curve_rows(self) -> list[tuple]:
        """The profit curve CSV: CURVE_HEADER, then one row per kept trade."""
        t = self.trades
        return [CURVE_HEADER, *zip(range(self.n_trades), t.question_id.tolist(), t.expected_edge.tolist(),
                                   t.profit.tolist(), self.cumulative_profit.tolist())]


@dataclass
class BandResult:
    lo: float
    hi: float
    count: int
    mean_pp: float | None
    t_stat: float | None
    p_value: float | None


def tradeable(dataset: Dataset) -> np.ndarray:
    """Per row: a quote exists and volume, when reported, is nonzero."""
    return ~np.isnan(dataset.market_price) & ~(dataset.volume <= 0.0)


def build_trades(probs: np.ndarray, dataset: Dataset, rng: np.random.Generator) -> Trades:
    """One trade per tradeable row with a present forecast (`probs` holds
    one per dataset row, NaN = absent), in dataset order: long above the
    price, short below, and on an exact tie a seeded coin flip (one
    `rng.random()` per tie, drawn in that order)."""
    if len(probs) != len(dataset):
        raise ValidationError(f"{len(probs)} probabilities for a dataset of {len(dataset)} questions")
    rows = np.flatnonzero(tradeable(dataset) & ~np.isnan(probs))
    p, m, y = probs[rows], dataset.market_price[rows], dataset.outcome[rows]
    bad = ~((0.0 <= p) & (p <= 1.0))
    if bad.any():
        raise ValidationError(f"probability must lie in [0, 1], got {p[bad][0]}")
    long = p > m
    tie = p == m
    long[tie] = rng.random(np.count_nonzero(tie)) < 0.5
    cost = np.where(long, m + FEE, (1.0 - m) + FEE)
    belief = np.where(long, p, 1.0 - p)
    realized = np.where(long, y, 1 - y)
    ids = np.array(dataset.ids, dtype=object)
    return Trades(rows, ids[rows], long, m, cost, belief, belief - cost, realized, realized - cost)


def apply_gate(trades: Trades, rule: GatingRule) -> StrategyResult:
    """Keep the built trades that pass one gating rule and aggregate them
    in descending edge order, ties by question id.  The ids are objects,
    so they compare as Python str does (as the dataset's sort does), not
    as numpy text, which drops trailing NULs."""
    rule.validate()
    kept = trades.take(rule.keeps(trades.expected_edge))
    kept = kept.take(np.lexsort((kept.question_id, -kept.expected_edge)))
    result = StrategyResult(kept, float(kept.profit.sum()), len(kept.row))
    if result.n_trades >= 2:
        result.mean_profit, result.mean_ci = mean_per_trade(result)
    return result


def run_strategy(
    forecasts: dict[str, float | None],
    dataset: Dataset,
    rule: GatingRule,
    rng: np.random.Generator,
) -> StrategyResult:
    """Build the trades of a {question id: probability or None} map (a
    missing id is an absent forecast) and apply one gating rule."""
    probs = np.array([forecasts.get(qid) for qid in dataset.ids], dtype=np.float64)  # None becomes NaN
    return apply_gate(build_trades(probs, dataset, rng), rule)


def run_strategies(
    probs: np.ndarray, dataset: Dataset, ece_value: float | None, rng: np.random.Generator
) -> dict[str, StrategyResult]:
    """Build one model's trades once and apply every gating rule to them.

    Returns one StrategyResult per gate; `ece_value` is the threshold of
    the edge_above_ece gate.  The results equal `run_strategy` per gate
    with the same generator state, since only the build draws from it.
    """
    trades = build_trades(probs, dataset, rng)
    return {
        kind: apply_gate(trades, GatingRule(kind, ece_value if kind == GATE_EDGE_ABOVE_ECE else None))
        for kind in GATES
    }


def mean_per_trade(result: StrategyResult) -> tuple[float, tuple[float, float]]:
    """Mean per-trade profit with its Wald 95% CI (the intercept-only
    regression estimate)."""
    if result.n_trades < 2:
        raise ValidationError("mean_per_trade needs at least 2 trades")
    wald = _wald(result.trades.profit)
    return wald.delta_mean, (wald.ci_low, wald.ci_high)


def confidence_band_edges(
    trades: Trades,
    bands: tuple[tuple[float, float], ...] = CONFIDENCE_BANDS,
) -> list[BandResult]:
    """Excess win rate over the pre-fee price per market-confidence band.

    Market confidence is max(m, 1-m).  The per-trade excess is
    realized_value - entry_cost + fee (the win indicator minus the
    pre-fee price of the side taken), reported in percentage points with
    a one-sample t-test against zero.  Bands with fewer than 2 trades or
    zero spread omit the test.  Each band's trades keep their order in
    `trades`, which the sums follow.
    """
    conf = np.maximum(trades.market_price, 1.0 - trades.market_price)
    excess = trades.realized_value - trades.entry_cost + FEE
    out = []
    last = len(bands) - 1
    for b, (lo, hi) in enumerate(bands):
        vals = excess[(lo <= conf) & ((conf <= hi) if b == last else (conf < hi))]
        if not vals.size:
            out.append(BandResult(lo, hi, 0, None, None, None))
            continue
        mean, se = _mean_se(vals)
        t_stat = None if se is None else float(mean / se)
        p = None if se is None else t_two_sided_p(t_stat, vals.size - 1)
        out.append(BandResult(lo, hi, int(vals.size), mean * 100.0, t_stat, p))
    return out


def gating_ece(
    probs: np.ndarray,
    dataset: Dataset,
    mode: str = "calibration_split",
    calibration_fraction: float = 0.5,
    n_bins: int = 10,
) -> tuple[list[float], Dataset, np.ndarray]:
    """ECE threshold of the edge_above_ece gate for each column of `probs`
    (dataset rows x models, NaN = absent), the dataset to trade, and its
    rows of `probs`.

    calibration_split estimates ECE on the chronologically first
    `calibration_fraction` of the rows and trades only the disjoint
    remainder, the dataset's tail; in_sample estimates on every row and
    trades all of them.
    """
    if mode == "in_sample":
        n_cal, trade_ds = len(dataset), dataset
    elif mode == "calibration_split":
        cal, trade_ds = split_dataset(dataset, calibration_fraction)
        n_cal = len(cal)
    else:
        raise ValidationError(f"unknown ece source {mode!r}")
    y = dataset.outcome[:n_cal]
    ece = [ece_bins(probs[:n_cal, j], y, n_bins)[0] for j in range(probs.shape[1])]
    return ece, trade_ds, probs[len(dataset) - len(trade_ds) :]


def per_question_profits(results: list[StrategyResult], dataset: Dataset) -> tuple[np.ndarray, list[str]]:
    """Profit matrix (tradeable questions x models) of one gate's kept
    trades, one StrategyResult per model, and the row ids.  Questions a
    model does not trade (absent forecast or gated out) contribute 0,
    keeping rows aligned for the paired bootstrap.
    """
    rows = np.flatnonzero(tradeable(dataset))
    values = np.zeros((len(rows), len(results)))
    for j, result in enumerate(results):
        values[np.searchsorted(rows, result.trades.row), j] = result.trades.profit
    return values, np.array(dataset.ids, dtype=object)[rows].tolist()
