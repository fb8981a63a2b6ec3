"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with -s to see the verdict lines as they complete.  The heavy
fixtures (trained policies on the 20k-question streams) are shared
across checks, so the whole gate stays inside a coffee break on a
desktop CPU.
"""

import json

import numpy as np
import pytest

from conftest import fd_vector_grad, forecasts, max_rel_err, outcome_by_id, train_one
from oracle import (
    baseline_loss_and_grad,
    extreme_bucket_mass,
    grpo_advantages,
    head_distributions,
    modified_grpo_advantages,
    remax_advantages,
    welch_statistic,
)
from test_algorithms import dpo_gradient_error, policy_gradient_error

from forecast_rl.algorithms import HyperParams, reward_table
from forecast_rl.cli import EXIT_OK, main as cli_main
from forecast_rl.data import SyntheticConfig, generate_synthetic_stream, split_dataset
from forecast_rl.evaluation import (
    Forecast,
    ece_equal_mass,
    paired_bootstrap,
    soft_brier,
)
from forecast_rl.policy import GIBBERISH, PolicyParams
from forecast_rl.reward import PenaltyConfig
from forecast_rl.rng import substream
from forecast_rl.trading import (
    FEE,
    GATE_ALL_MARKETS,
    GATE_EDGE_ABOVE_ECE,
    GATE_EDGE_ABOVE_ZERO,
    GatingRule,
    run_strategy,
)
from forecast_rl.trainer import (
    TrainConfig,
    ensemble_predict_dataset,
    predict_dataset,
    train_members,
)

SEEDS = (0, 1, 2)


def verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} ({name}) failed{tail}"


def model_forecasts(params, ds):
    return forecasts(ds, predict_dataset(params, ds))


@pytest.fixture(scope="session")
def lab():
    """Streams and trained policies shared by the behavioural checks."""
    out = {}
    for seed in SEEDS:
        stream, oracle = generate_synthetic_stream(SyntheticConfig(20000, 4, market_noise=0.5), seed)
        train_ds, test_ds = split_dataset(stream, 0.5)
        policies = {}
        for key, algo, pen in (
            ("remax", "remax", PenaltyConfig()),
            ("grpo", "grpo", PenaltyConfig()),
            ("modified", "modified_grpo", PenaltyConfig()),
            ("remax_nogib", "remax", PenaltyConfig(lambda_gib=0.0)),
        ):
            result = train_one(train_ds, TrainConfig(algorithm=algo), HyperParams(), pen, seed=seed)
            assert result.stop_reason is None, f"{key} seed {seed} tripped the early stop"
            policies[key] = result.params
        out[seed] = {
            "train": train_ds,
            "test": test_ds,
            "oracle": oracle,
            "policies": policies,
        }
    results = train_members(
        out[0]["train"], TrainConfig(algorithm="remax"), HyperParams(), PenaltyConfig(), range(7), seed=0
    )
    members = [r.params for r in results]
    remax = out[0]["policies"]["remax"]
    assert members[0].content_weights.tobytes() == remax.content_weights.tobytes()
    assert members[0].answer_weights.tobytes() == remax.answer_weights.tobytes()
    out["members"] = members
    return out


def test_criterion_01_strict_propriety():
    # The trainer's reward for each grid answer, guard-rails off.
    grid = np.arange(101) / 100.0
    r0, r1 = reward_table(1, PenaltyConfig(0.0, 0.0, 0.0, 0.0))[:, :101, 0, 0]
    rng = substream(11, "acceptance", "propriety")
    ok = True
    for p in rng.random(1000):
        expected = p * r1 + (1 - p) * r0
        best = int(np.argmax(expected))
        if abs(grid[best] - p) != np.min(np.abs(grid - p)):
            ok = False
            break
    verdict(1, "strict propriety", ok, "1000 random true probabilities, exact")


def test_criterion_02_gradient_correctness():
    hp = HyperParams(actor_lr=1e-6)
    rng = substream(11, "acceptance", "gradients")
    d, L, G = 1, 4, 2
    worst = {}

    worst["grpo"] = max(
        policy_gradient_error(rng, "grpo" if k % 2 == 0 else "modified_grpo", d, L, G, hp) for k in range(100)
    )
    worst["remax"] = max(policy_gradient_error(rng, "remax", d, L, G, hp) for _ in range(100))

    errs = []
    for _ in range(100):
        weights = rng.normal(size=d + 1)
        x = rng.normal(size=d)
        rewards = rng.normal(size=4)
        _, grads = baseline_loss_and_grad(weights, x, rewards, hp)
        fd = fd_vector_grad(lambda w: baseline_loss_and_grad(w, x, rewards, hp)[0], weights)
        errs.append(max_rel_err({"baseline": grads["baseline"]}, {"baseline": fd}))
    worst["baseline"] = max(errs)

    worst["dpo"] = max(dpo_gradient_error(rng, d, L, hp) for _ in range(100))

    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    verdict(2, "gradient correctness", ok, f"max rel err: {detail}")


def test_criterion_03_advantage_algebra():
    rng = substream(11, "acceptance", "advantages")
    ok = True
    for _ in range(10000):
        G = int(rng.integers(2, 10))
        r = rng.normal(size=G) * float(rng.uniform(0.1, 5.0))
        r[0] += 1.0  # keep the group non-constant
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(-5.0, 5.0))

        adv = grpo_advantages(r)
        ok &= abs(adv.mean()) < 1e-9
        ok &= abs(adv.std() - 1.0) < 1e-9
        ok &= bool(np.allclose(grpo_advantages(a * r + b), adv, atol=1e-9))

        mod = modified_grpo_advantages(r)
        ok &= bool(np.allclose(modified_grpo_advantages(r + b), mod, atol=1e-9))
        ok &= bool(np.allclose(modified_grpo_advantages(a * r), a * mod, atol=1e-9))
        ok &= bool(np.allclose(remax_advantages(r, float(r.mean())), mod, atol=1e-12))
        if not ok:
            break
    verdict(3, "advantage algebra", ok, "10000 random groups")


def test_criterion_04_calibration_learning(lab):
    ok = True
    details = []
    for seed in SEEDS:
        entry = lab[seed]
        test_ds = entry["test"]
        outcomes = outcome_by_id(test_ds)
        init = model_forecasts(PolicyParams.zeros(4), test_ds)
        final = model_forecasts(entry["policies"]["remax"], test_ds)
        ece_init = ece_equal_mass(init, outcomes)
        ece_final = ece_equal_mass(final, outcomes)
        bayes = soft_brier([Forecast(qid, entry["oracle"][qid]) for qid in test_ds.ids], outcomes)
        gap = soft_brier(final, outcomes) - bayes
        ok &= ece_final <= 0.5 * ece_init
        ok &= gap <= 0.03
        details.append(f"seed {seed}: ECE {ece_init:.3f}->{ece_final:.3f}, Brier gap {gap:+.4f}")
    verdict(4, "calibration learning", ok, "; ".join(details))


def test_criterion_05_overconfidence_ordering(lab):
    ok = True
    details = []
    for seed in SEEDS:
        entry = lab[seed]
        grpo = extreme_bucket_mass(f.probability for f in model_forecasts(entry["policies"]["grpo"], entry["test"]))
        mod = extreme_bucket_mass(f.probability for f in model_forecasts(entry["policies"]["modified"], entry["test"]))
        ok &= grpo > mod
        details.append(f"seed {seed}: {grpo:.4f} > {mod:.4f}")
    verdict(5, "overconfidence ordering", ok, "; ".join(details))


def test_criterion_06_guardrail_effect(lab):
    ok = True
    details = []
    for seed in SEEDS:
        entry = lab[seed]

        def mean_gibberish(params):
            probs = [
                head_distributions(params, q.features)[0][GIBBERISH] for q in entry["test"]
            ]
            return float(np.mean(probs))

        with_pen = mean_gibberish(entry["policies"]["remax"])
        without = mean_gibberish(entry["policies"]["remax_nogib"])
        ok &= with_pen < without
        details.append(f"seed {seed}: {with_pen:.6f} < {without:.6f}")
    verdict(6, "guardrail effect", ok, "; ".join(details))


def test_criterion_07_trading_bookkeeping(rng):
    from conftest import make_dataset, make_question

    rows = [("q1", 0.6, 1, 0.8), ("q2", 0.6, 1, 0.2), ("q3", 0.5, 0, 0.505),
            ("q4", 0.4, 0, 0.3)]
    ds = make_dataset(
        [make_question(qid, pred_ts=100 + i, outcome=y, market_price=m)
         for i, (qid, m, y, _) in enumerate(rows)]
    )
    forecasts = {qid: p for qid, _, _, p in rows}

    ok = True
    allm = run_strategy(forecasts, ds, GatingRule(GATE_ALL_MARKETS), np.random.default_rng(0))
    by_id = {t["question_id"]: t for t in allm.to_dict()["trades"]}
    # hand bookkeeping, written as the same arithmetic the simulator uses
    ok &= by_id["q1"]["side"] == "long" and by_id["q1"]["entry_cost"] == 0.6 + FEE
    ok &= by_id["q1"]["expected_edge"] == 0.8 - (0.6 + FEE)
    ok &= by_id["q2"]["side"] == "short" and by_id["q2"]["entry_cost"] == (1 - 0.6) + FEE
    ok &= by_id["q2"]["expected_edge"] == (1 - 0.2) - ((1 - 0.6) + FEE)
    ok &= by_id["q3"]["side"] == "long" and by_id["q4"]["side"] == "short"
    hand_profits = {
        "q1": 1 - (0.6 + FEE), "q2": 0 - ((1 - 0.6) + FEE),
        "q3": 0 - (0.5 + FEE), "q4": 1 - ((1 - 0.4) + FEE),
    }
    ok &= all(by_id[q]["profit"] == hand_profits[q] for q in hand_profits)
    order = sorted(hand_profits, key=lambda q: (-by_id[q]["expected_edge"], q))
    ok &= allm.total_profit == float(np.array([hand_profits[q] for q in order]).sum())
    zero = run_strategy(forecasts, ds, GatingRule(GATE_EDGE_ABOVE_ZERO), np.random.default_rng(0))
    ok &= zero.total_profit == float(
        np.array([hand_profits[q] for q in order if by_id[q]["expected_edge"] > 0]).sum()
    )
    ece = run_strategy(forecasts, ds, GatingRule(GATE_EDGE_ABOVE_ECE, 0.10), np.random.default_rng(0))
    ok &= ece.trades.question_id.tolist() == ["q2", "q1"]
    ok &= ece.total_profit == float(
        np.array([hand_profits["q2"], hand_profits["q1"]]).sum()
    )

    chain_ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 8))
        qs = [
            make_question(f"q{i}", pred_ts=i, outcome=int(rng.integers(0, 2)),
                          market_price=float(rng.uniform(0.05, 0.95)))
            for i in range(n)
        ]
        fixture_ds = make_dataset(qs)
        fs = {f"q{i}": float(rng.random()) for i in range(n)}
        ece_val = float(rng.uniform(0.0, 0.3))
        kept = {}
        for kind, thr in ((GATE_EDGE_ABOVE_ECE, ece_val), (GATE_EDGE_ABOVE_ZERO, None),
                          (GATE_ALL_MARKETS, None)):
            result = run_strategy(fs, fixture_ds, GatingRule(kind, thr),
                                  np.random.default_rng(trial))
            kept[kind] = set(result.trades.question_id.tolist())
        chain_ok &= kept[GATE_EDGE_ABOVE_ECE] <= kept[GATE_EDGE_ABOVE_ZERO]
        chain_ok &= kept[GATE_EDGE_ABOVE_ZERO] <= kept[GATE_ALL_MARKETS]
    ok &= chain_ok
    verdict(7, "trading bookkeeping", ok, "hand fixture exact; chain on 1000 fixtures")


def test_criterion_08_statistics_toolkit():
    t, df = welch_statistic(np.array([1, 2, 3, 4, 5.0]), np.array([2, 4, 6, 8.0]))
    ok = abs(t - (-1.3587)) < 5e-5 and abs(df - 4.7494) < 5e-5

    col = substream(11, "acceptance", "bootstrap").normal(size=40)
    values = np.stack([col, col], axis=1)
    cmp = paired_bootstrap(values, 999, substream(11, "acceptance", "reps"))[(0, 1)]
    ok &= cmp.p_value == 1.0 and cmp.ci_low == 0.0 and cmp.ci_high == 0.0

    stream, oracle = generate_synthetic_stream(SyntheticConfig(50000, 4, market_noise=0.5), 7)
    oracle_ece = ece_equal_mass([Forecast(qid, oracle[qid]) for qid in stream.ids], outcome_by_id(stream))
    ok &= oracle_ece <= 0.02
    verdict(8, "statistics toolkit", ok,
            f"welch t={t:.4f} df={df:.4f}; oracle ECE {oracle_ece:.4f}")


def test_criterion_09_determinism(tmp_path):
    raw = {
        "schema_version": 1,
        "seed": 5,
        "output_dir": "placeholder",
        "data": {"synthetic": {"n_questions": 400, "feature_dim": 2, "market_noise": 0.5}},
        "evaluation": {"bootstrap_reps": 199},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    for sub in ("a", "b"):
        out = tmp_path / sub
        for cmd in ("synth", "train", "predict", "evaluate", "trade", "report"):
            code = cli_main([cmd, "--config", str(cfg_path), "--out", str(out)])
            assert code == EXIT_OK, f"{cmd} failed in {sub}"
    ok = True
    compared = []
    for name in ("forecasts.jsonl", "evaluation.json", "trades.json",
                 "report.json", "report.md"):
        same = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ok &= same
        compared.append(name)
    verdict(9, "determinism", ok, f"byte-identical: {', '.join(compared)}")


def test_criterion_10_ensemble_identity(lab):
    test_ds = lab[0]["test"]
    single = predict_dataset(lab["members"][0], test_ds)
    copies = ensemble_predict_dataset(np.stack([single] * 7))
    ok = copies.tobytes() == single.tobytes()

    outcomes = outcome_by_id(test_ds)
    member_sb = sorted(
        soft_brier(model_forecasts(p, test_ds), outcomes) for p in lab["members"]
    )
    median_sb = member_sb[3]
    ensemble = ensemble_predict_dataset(np.stack([predict_dataset(p, test_ds) for p in lab["members"]]))
    ensemble_sb = soft_brier(forecasts(test_ds, ensemble), outcomes)
    ok &= ensemble_sb <= median_sb
    verdict(10, "ensemble identity", ok,
            f"7 copies exact; ensemble {ensemble_sb:.4f} <= median {median_sb:.4f}")
