import numpy as np
import pytest

from forecast_rl import trainer
from forecast_rl.data import Dataset, Question
from forecast_rl.evaluation import Forecast


def make_question(
    qid: str,
    pred_ts: int = 100,
    outcome: int = 1,
    features=None,
    market_price=None,
    volume=None,
    open_ts=None,
    close_ts=None,
    resolve_ts=None,
) -> Question:
    open_ts = pred_ts - 10 if open_ts is None else open_ts
    close_ts = pred_ts + 10 if close_ts is None else close_ts
    resolve_ts = close_ts + 10 if resolve_ts is None else resolve_ts
    return Question(
        id=qid,
        open_ts=open_ts,
        close_ts=close_ts,
        resolve_ts=resolve_ts,
        prediction_ts=pred_ts,
        outcome=outcome,
        features=np.zeros(2) if features is None else np.asarray(features, dtype=np.float64),
        market_price=market_price,
        volume=volume,
    )


def make_dataset(questions, split="train") -> Dataset:
    return Dataset(questions, split)


def outcome_by_id(dataset: Dataset) -> dict[str, int]:
    return dict(zip(dataset.ids, dataset.outcome.tolist()))


def forecasts(dataset: Dataset, probs) -> list[Forecast]:
    """A probability column aligned with the dataset's rows as Forecasts,
    None where the column holds NaN."""
    return [Forecast(qid, None if np.isnan(p) else p) for qid, p in zip(dataset.ids, np.asarray(probs).tolist())]


def predict(params, question: Question) -> float | None:
    """Deterministic greedy forecast for one question."""
    (p,) = trainer.predict_dataset(params, Dataset([question], "test")).tolist()
    return None if np.isnan(p) else p


def ensemble_predict(members, question: Question) -> float | None:
    """Mean of the member policies' forecasts for one question, skipping abstentions."""
    dataset = Dataset([question], "test")
    (p,) = trainer.ensemble_predict_dataset(np.stack([trainer.predict_dataset(m, dataset) for m in members])).tolist()
    return None if np.isnan(p) else p


def train_one(stream, cfg, hp, penalties=None, init_params=None, checkpoint_cb=None, member=0, *, seed):
    """Member `member`'s TrainResult from `train_members`.
    `checkpoint_cb(params, index, partial_log)` sees that
    member's checkpoints."""
    cb = None if checkpoint_cb is None else lambda m, *args: checkpoint_cb(*args)
    (result,) = trainer.train_members(stream, cfg, hp, penalties, [member], init_params, cb, seed=seed)
    return result


def poison_baseline(monkeypatch, member: int, index: int) -> None:
    """Set `member`'s ReMax baseline weights to NaN just before question
    `index`, so its gradient there is non-finite whether it trains alone
    or in a batch; the other members are untouched."""
    real = trainer._advance

    def advance(st, X1, Y, start, end, *args):
        if start <= index < end and member in st.members:
            if start < index:
                stop, events = real(st, X1, Y, start, index, *args)
                if events:
                    return stop, events
            st.w_b[st.members.index(member)] = np.nan
            start = index
        return real(st, X1, Y, start, end, *args)

    monkeypatch.setattr(trainer, "_advance", advance)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fd_rows_grad(objective_rows, params, step=1e-5):
    """Central finite differences over both heads of a row-wise objective.

    `objective_rows(w_c, w_a)` takes (R, d+1, N_CONTENT) and
    (R, d+1, N_ANSWER) weight stacks and returns one value per row.  It is
    called once, with one row per parameter and sign: rows [0, P) hold
    +step and rows [P, 2P) -step on parameter k = row mod P.
    """
    c, a = params.content_weights, params.answer_weights
    n_c, P = c.size, c.size + a.size
    flat = np.tile(np.concatenate((c.ravel(), a.ravel())), (2 * P, 1))
    k = np.arange(P)
    flat[k, k] += step
    flat[P + k, k] -= step
    values = objective_rows(flat[:, :n_c].reshape(2 * P, *c.shape), flat[:, n_c:].reshape(2 * P, *a.shape))
    g = (values[:P] - values[P:]) / (2.0 * step)
    return {"content": g[:n_c].reshape(c.shape), "answer": g[n_c:].reshape(a.shape)}


def fd_vector_grad(fn, weights, step=1e-5):
    """Central finite differences of a scalar fn(weights) over one vector."""
    g = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        orig = weights[i]
        weights[i] = orig + step
        hi = fn(weights)
        weights[i] = orig - step
        lo = fn(weights)
        weights[i] = orig
        g[i] = (hi - lo) / (2.0 * step)
    return g


def max_rel_err(analytic, fd, floor=1e-6):
    """Worst per-entry relative error between two gradient dicts."""
    worst = 0.0
    for name, a in analytic.items():
        f = fd[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst
