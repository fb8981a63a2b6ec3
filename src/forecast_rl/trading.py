"""Hypothetical one-share trading against market prices.

Each forecast/price pair yields one trade: buy a $1 long share at
m + 0.01 when the model's probability exceeds the price, short at
(1 - m) + 0.01 when it is below, coin-flip on exact ties.  The added
cent stands in for fees and slippage.  Three gating rules select which
trades count toward the totals.  A model's forecasts come as a
probability column aligned with the dataset's rows, NaN where absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from forecast_rl.data import Dataset, split_dataset
from forecast_rl.errors import ValidationError
from forecast_rl.evaluation import Z_95, ece_bins, t_two_sided_p

FEE = 0.01

GATE_EDGE_ABOVE_ECE = "edge_above_ece"
GATE_EDGE_ABOVE_ZERO = "edge_above_zero"
GATE_ALL_MARKETS = "all_markets"
GATES = (GATE_EDGE_ABOVE_ECE, GATE_EDGE_ABOVE_ZERO, GATE_ALL_MARKETS)

CONFIDENCE_BANDS = ((0.50, 0.65), (0.65, 0.80), (0.80, 1.00))


@dataclass
class TradeRecord:
    question_id: str
    side: str  # long | short
    market_price: float
    entry_cost: float
    belief_value: float
    expected_edge: float
    realized_value: int
    profit: float


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

    def keeps(self, trade: TradeRecord) -> bool:
        if self.kind == GATE_ALL_MARKETS:
            return True
        if self.kind == GATE_EDGE_ABOVE_ZERO:
            return trade.expected_edge > 0.0
        return trade.expected_edge > self.ece_value


@dataclass
class StrategyResult:
    """Kept trades in descending expected-edge order with their totals."""

    trades: list[TradeRecord]
    total_profit: float
    n_trades: int
    mean_profit: float | None = None
    mean_ci: tuple[float, float] | None = None

    @property
    def cumulative_profit(self) -> np.ndarray:
        """Running profit total after each trade."""
        return np.cumsum(np.array([t.profit for t in self.trades])) if self.trades else np.empty(0)


@dataclass
class BandResult:
    lo: float
    hi: float
    count: int
    mean_pp: float | None
    t_stat: float | None
    p_value: float | None


def make_trade(p: float, m: float, y: int, rng: np.random.Generator) -> TradeRecord:
    """One hypothetical share: long above the price, short below, seeded
    coin flip on an exact tie."""
    if not (0.0 < m < 1.0):
        raise ValidationError(f"market price must lie strictly in (0, 1), got {m}")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"probability must lie in [0, 1], got {p}")
    if y not in (0, 1):
        raise ValidationError(f"outcome must be 0 or 1, got {y}")
    if p > m:
        go_long = True
    elif p < m:
        go_long = False
    else:
        go_long = rng.random() < 0.5
    if go_long:
        side = "long"
        cost = m + FEE
        belief = p
        realized = y
    else:
        side = "short"
        cost = (1.0 - m) + FEE
        belief = 1.0 - p
        realized = 1 - y
    return TradeRecord(
        question_id="",
        side=side,
        market_price=m,
        entry_cost=cost,
        belief_value=belief,
        expected_edge=belief - cost,
        realized_value=realized,
        profit=realized - cost,
    )


def tradeable(dataset: Dataset) -> np.ndarray:
    """Per row: a quote exists and volume, when reported, is nonzero."""
    return ~np.isnan(dataset.market_price) & ~(dataset.volume <= 0.0)


def build_trades(probs: np.ndarray, dataset: Dataset, rng: np.random.Generator) -> list[TradeRecord]:
    """One trade per tradeable row with a present forecast (`probs` holds
    one per dataset row, NaN = absent), in dataset order (tie coin flips
    consume the generator in that order)."""
    if len(probs) != len(dataset):
        raise ValidationError(f"{len(probs)} probabilities for a dataset of {len(dataset)} questions")
    rows = np.flatnonzero(tradeable(dataset) & ~np.isnan(probs))
    trades = []
    for i, p, m, y in zip(
        rows.tolist(), probs[rows].tolist(), dataset.market_price[rows].tolist(), dataset.outcome[rows].tolist()
    ):
        t = make_trade(p, m, y, rng)
        t.question_id = dataset.ids[i]
        trades.append(t)
    return trades


def apply_gate(trades: list[TradeRecord], rule: GatingRule) -> StrategyResult:
    """Keep the built trades that pass one gating rule and aggregate them
    in descending edge order."""
    rule.validate()
    kept = [t for t in trades if rule.keeps(t)]
    kept.sort(key=lambda t: (-t.expected_edge, t.question_id))
    profits = np.array([t.profit for t in kept])
    result = StrategyResult(
        trades=kept,
        total_profit=float(profits.sum()) if kept else 0.0,
        n_trades=len(kept),
    )
    if len(kept) >= 2:
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
    profits = np.array([t.profit for t in result.trades])
    mean = float(profits.mean())
    se = float(profits.std(ddof=1) / np.sqrt(profits.size))
    return mean, (mean - Z_95 * se, mean + Z_95 * se)


def confidence_band_edges(
    trades: list[TradeRecord],
    bands: tuple[tuple[float, float], ...] = CONFIDENCE_BANDS,
) -> list[BandResult]:
    """Excess win rate over the pre-fee price per market-confidence band.

    Market confidence is max(m, 1-m).  The per-trade excess is
    realized_value - entry_cost + fee (the win indicator minus the
    pre-fee price of the side taken), reported in percentage points with
    a one-sample t-test against zero.  Bands with fewer than 2 trades or
    zero spread omit the test.
    """
    out = []
    last = len(bands) - 1
    for b, (lo, hi) in enumerate(bands):
        sel = []
        for t in trades:
            conf = max(t.market_price, 1.0 - t.market_price)
            inside = (lo <= conf <= hi) if b == last else (lo <= conf < hi)
            if inside:
                sel.append(t.realized_value - t.entry_cost + FEE)
        if not sel:
            out.append(BandResult(lo, hi, 0, None, None, None))
            continue
        vals = np.array(sel)
        mean_pp = float(vals.mean() * 100.0)
        if vals.size < 2 or float(vals.std(ddof=1)) == 0.0:
            out.append(BandResult(lo, hi, int(vals.size), mean_pp, None, None))
            continue
        t_stat = float(vals.mean() / (vals.std(ddof=1) / np.sqrt(vals.size)))
        p = t_two_sided_p(t_stat, vals.size - 1)
        out.append(BandResult(lo, hi, int(vals.size), mean_pp, t_stat, p))
    return out


def gating_ece(
    probs: np.ndarray,
    dataset: Dataset,
    mode: str = "calibration_split",
    calibration_fraction: float = 0.5,
    n_bins: int = 10,
) -> tuple[list[float], Dataset]:
    """ECE threshold of the edge_above_ece gate for each column of `probs`
    (dataset rows x models, NaN = absent), and the dataset to trade.

    calibration_split estimates ECE on the chronologically first
    `calibration_fraction` of the rows and trades only the disjoint
    remainder (returned as the trading set, the dataset's tail);
    in_sample estimates on every row and trades all of them.
    """
    if mode == "in_sample":
        n_cal, trade_ds = len(dataset), dataset
    elif mode == "calibration_split":
        cal, trade_ds = split_dataset(dataset, calibration_fraction)
        n_cal = len(cal)
    else:
        raise ValidationError(f"unknown ece source {mode!r}")
    y = dataset.outcome[:n_cal]
    return [ece_bins(probs[:n_cal, j], y, n_bins)[0] for j in range(probs.shape[1])], trade_ds


def per_question_profits(results: list[StrategyResult], dataset: Dataset) -> tuple[np.ndarray, list[str]]:
    """Profit matrix (tradeable questions x models) of one gate's kept
    trades, one StrategyResult per model, and the row ids.  Questions a
    model does not trade (absent forecast or gated out) contribute 0,
    keeping rows aligned for the paired bootstrap.
    """
    rows = [dataset.ids[i] for i in np.flatnonzero(tradeable(dataset)).tolist()]
    row_index = {qid: i for i, qid in enumerate(rows)}
    values = np.zeros((len(rows), len(results)))
    for j, result in enumerate(results):
        for t in result.trades:
            values[row_index[t.question_id], j] = t.profit
    return values, rows
