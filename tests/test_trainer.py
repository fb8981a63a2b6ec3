import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ensemble_predict, make_dataset, make_question, poison_baseline, predict, train_one
from oracle import (
    assess_guardrails,
    extreme_bucket_mass,
    oracle_dpo,
    oracle_train,
    predict_probability,
    sample_response,
    total_reward,
)

from forecast_rl import trainer
from forecast_rl.algorithms import HyperParams
from forecast_rl.data import Dataset, SyntheticConfig, generate_synthetic_stream
from forecast_rl.errors import ValidationError
from forecast_rl.policy import ABSTAIN, PolicyParams
from forecast_rl.reward import PenaltyConfig
from forecast_rl.rng import substream
from forecast_rl.trainer import (
    EarlyStopConfig,
    RunLog,
    TrainConfig,
    ensemble_predict_dataset,
    predict_dataset,
    resolve_backend,
    train_dpo,
    train_members,
)


def small_stream(n=30, d=2, seed=0):
    stream, _ = generate_synthetic_stream(SyntheticConfig(n_questions=n, feature_dim=d, market_noise=None), seed)
    return stream


def frozen_hp(**kwargs):
    """Learning rates zeroed so the policy never moves."""
    base = dict(actor_lr=0.0, baseline_lr=0.0, dpo_lr=0.0)
    base.update(kwargs)
    return HyperParams(**base)


class TestZeroLearningRate:
    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo", "remax"])
    def test_online_params_do_not_move(self, algorithm):
        stream = small_stream(10)
        cfg = TrainConfig(algorithm=algorithm)
        result = train_one(stream, cfg, frozen_hp(), seed=3)
        assert np.all(result.params.content_weights == 0.0)
        assert np.all(result.params.answer_weights == 0.0)
        assert len(result.run_log) == 10

    def test_dpo_params_do_not_move(self):
        stream = small_stream(20)
        result = train_dpo(stream, TrainConfig(algorithm="dpo"), frozen_hp(), seed=3)
        assert np.all(result.params.content_weights == 0.0)
        assert np.all(result.params.answer_weights == 0.0)


class TestRunLogSemantics:
    def test_log_matches_independent_resampling(self):
        """With zero learning rates the policy is frozen, so every logged
        quantity can be recomputed outside the trainer."""
        stream = small_stream(12, d=3, seed=5)
        cfg = TrainConfig(algorithm="remax")
        hp = frozen_hp()
        result = train_one(stream, cfg, hp, member=2, seed=9)

        params = PolicyParams.zeros(3)
        U = substream(9, "sampling", 2).random((12, hp.group_size, 9))
        pcfg = PenaltyConfig()
        columns = result.run_log.columns()
        for i, q in enumerate(stream):
            responses = [
                sample_response(params, q.features, uniforms=U[i, g])
                for g in range(hp.group_size)
            ]
            totals = []
            gps = []
            for r in responses:
                a = assess_guardrails(r)
                totals.append(total_reward(r.parse_probability(), q.outcome, a, pcfg).total)
                gps.append(a.gibberish_proportion)
            p0 = responses[0].parse_probability()
            logged = columns["parsed"][i]
            assert (p0 is None and np.isnan(logged)) or logged == p0
            assert result.run_log.rewards[i] == pytest.approx(np.mean(totals), abs=1e-12)
            assert columns["gibberish"][i] == pytest.approx(np.mean(gps), abs=1e-12)
            assert result.run_log.question_ids[i] == q.id

    @staticmethod
    def hand_log(tokens, counts=None):
        """A log of one answer token per question, -0.1 × (i + 1) rewards
        and two responses of L = 4 per question."""
        n = len(tokens)
        counts = np.zeros((n, 2, 2)) if counts is None else counts
        return RunLog([f"q{i}" for i in range(n)], np.array(tokens, dtype=np.uint8), np.asarray(counts, np.uint8),
                      -0.1 * np.arange(1, n + 1), 4)

    def test_summary_fields(self):
        counts = [[[4, 0], [0, 0]], [[0, 1], [0, 0]], [[2, 2], [0, 0]], [[0, 0], [0, 0]]]
        log = self.hand_log([5, ABSTAIN, 50, 95], counts)
        columns = log.columns()
        assert columns["parsed"].tolist()[::2] == [0.05, 0.5] and np.isnan(columns["parsed"][1])
        assert columns["gibberish"].tolist() == [0.5, 0.0, 0.25, 0.0]
        assert columns["non_english"].tolist() == [0.0, 0.125, 0.25, 0.0]
        assert columns["explanation"].tolist() == [0.5, 0.875, 0.5, 1.0]
        s = log.summary()
        assert s["n_questions"] == 4
        assert s["abstain_rate"] == 0.25
        assert s["extreme_bucket_mass"] == pytest.approx(2 / 3)
        assert s["mean_reward"] == pytest.approx(-0.25)
        assert s["mean_gibberish"] == 0.1875

    def test_extreme_mass_is_the_oracle_rule(self):
        """The 10% and 90% edges count as extreme, 11% and 89% do not, and
        abstentions count in neither part of the share."""
        log = self.hand_log([10, ABSTAIN, 90, 11, ABSTAIN, 89, 10])
        parsed = [None if np.isnan(p) else p for p in log.columns()["parsed"].tolist()]
        assert log.summary()["extreme_bucket_mass"] == extreme_bucket_mass(parsed) == 0.6
        assert self.hand_log([ABSTAIN]).summary()["extreme_bucket_mass"] == extreme_bucket_mass([None]) == 0.0

    def test_records_round_trip(self, tmp_path):
        import json

        log = self.hand_log([ABSTAIN, 40])
        path = tmp_path / "runlog.jsonl"
        log.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["parsed"] is None and rows[1]["parsed"] == 0.4
        assert rows[1]["reward"] == -0.2
        assert rows[1]["explanation"] == 1.0


class TestDeterminism:
    def test_same_seed_replays_exactly(self):
        stream = small_stream(25)
        cfg = TrainConfig(algorithm="grpo")
        hp = HyperParams(actor_lr=0.05)
        a = train_one(stream, cfg, hp, seed=7)
        b = train_one(stream, TrainConfig(algorithm="grpo"), HyperParams(actor_lr=0.05), seed=7)
        assert np.array_equal(a.params.content_weights, b.params.content_weights)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)
        assert np.array_equal(a.run_log.rewards, b.run_log.rewards)

    def test_members_draw_distinct_streams(self):
        stream = small_stream(25)
        hp = HyperParams(actor_lr=0.05)
        a = train_one(stream, TrainConfig(algorithm="grpo"), hp, member=0, seed=7)
        b = train_one(stream, TrainConfig(algorithm="grpo"), hp, member=1, seed=7)
        assert not np.array_equal(a.run_log.rewards, b.run_log.rewards)
        assert not np.array_equal(a.params.answer_weights, b.params.answer_weights)

    def test_span_partition_is_invisible(self):
        """outer_iteration_len only matters through the KL reference, and
        checkpoint boundaries never perturb the trajectory."""
        stream = small_stream(40)
        hp = HyperParams(actor_lr=0.05, kl_coeff=0.0)
        a = train_one(stream, TrainConfig(algorithm="remax", outer_iteration_len=7), hp, seed=1)
        b = train_one(stream, TrainConfig(algorithm="remax", outer_iteration_len=500), hp, seed=1)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)

        hp_kl = HyperParams(actor_lr=0.05, kl_coeff=0.1)
        c = train_one(stream, TrainConfig(algorithm="remax", checkpoint_every=11), hp_kl, seed=1)
        d = train_one(stream, TrainConfig(algorithm="remax", checkpoint_every=0), hp_kl, seed=1)
        assert np.array_equal(c.params.answer_weights, d.params.answer_weights)

    def test_reference_reset_changes_the_trajectory(self):
        stream = small_stream(60)
        hp = HyperParams(actor_lr=0.05, kl_coeff=0.5)
        short = train_one(stream, TrainConfig(algorithm="remax", outer_iteration_len=10), hp, seed=1)
        never = train_one(stream, TrainConfig(algorithm="remax", outer_iteration_len=600), hp, seed=1)
        assert not np.array_equal(short.params.answer_weights, never.params.answer_weights)


class TestEarlyStop:
    def test_gibberish_collapse_detected(self):
        stream = small_stream(50)
        cfg = TrainConfig(
            algorithm="remax",
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=0.001),
        )
        result = train_one(stream, cfg, frozen_hp(), seed=2)
        # uniform policy keeps ~1/3 gibberish, far above the threshold
        assert result.stop_reason == "gibberish" and result.numeric_error is None
        assert len(result.run_log) == 5

    def test_extreme_mass_collapse_detected(self):
        stream = small_stream(200)
        cfg = TrainConfig(
            algorithm="remax",
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=1.0, extreme_mass_threshold=0.001),
        )
        result = train_one(stream, cfg, frozen_hp(), seed=2)
        assert result.stop_reason == "extreme_mass"
        assert len(result.run_log) % 1 == 0 and len(result.run_log) >= 5

    def test_disabled_guard_runs_to_completion(self):
        stream = small_stream(50)
        cfg = TrainConfig(
            algorithm="remax",
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=0.001, enabled=False),
        )
        result = train_one(stream, cfg, frozen_hp(), seed=2)
        assert result.stop_reason is None and len(result.run_log) == 50

    def test_window_larger_than_stream_never_fires(self):
        stream = small_stream(20)
        cfg = TrainConfig(
            algorithm="remax",
            early_stop=EarlyStopConfig(window=21, gibberish_threshold=0.001),
        )
        result = train_one(stream, cfg, frozen_hp(), seed=2)
        assert result.stop_reason is None and len(result.run_log) == 20


class TestCheckpointCallback:
    def test_boundary_indices_and_partial_logs(self):
        """Each boundary hands out the log of the questions since the one
        before, bit for bit the rows of the final log."""
        stream = small_stream(35)
        calls = []

        def cb(params, index, partial):
            calls.append((index, partial))

        cfg = TrainConfig(algorithm="remax", checkpoint_every=10)
        result = train_one(stream, cfg, HyperParams(actor_lr=0.01), checkpoint_cb=cb, seed=4)
        assert [c[0] for c in calls] == [10, 20, 30]
        for index, partial in calls:
            assert partial.question_ids == result.run_log.question_ids[index - 10 : index]
            for col in ("first", "counts", "rewards"):
                assert getattr(partial, col).tobytes() == getattr(result.run_log, col)[index - 10 : index].tobytes()
                assert getattr(partial, col).base is None  # its own rows, not a view of the batch's

    def test_no_callback_without_checkpoint_every(self):
        stream = small_stream(30)
        calls = []
        cfg = TrainConfig(algorithm="remax", checkpoint_every=0)
        train_one(stream, cfg, frozen_hp(), checkpoint_cb=lambda *a: calls.append(a), seed=4)
        assert calls == []


class TestValidationAndEdgeCases:
    def test_empty_stream_needs_init_params(self):
        empty = Dataset(questions=[], split="train")
        with pytest.raises(ValidationError):
            train_one(empty, TrainConfig(), HyperParams(), seed=0)
        init = PolicyParams.zeros(2)
        result = train_one(empty, TrainConfig(), HyperParams(), init_params=init, seed=0)
        assert len(result.run_log) == 0 and result.params.baseline is None
        assert result.params is not init  # insulated copy

    def test_unsorted_stream_rejected(self):
        """A Dataset is sorted when it is built, so no stream reaches
        training out of order: the rows come back in (prediction_ts, id)
        order and train in it."""
        qs = [make_question("b", pred_ts=200), make_question("c", pred_ts=100), make_question("a", pred_ts=200)]
        stream = Dataset(questions=qs, split="train")
        assert stream.ids == ["c", "a", "b"]
        assert stream.prediction_ts.tolist() == [100, 200, 200]
        assert train_one(stream, TrainConfig(), HyperParams(), seed=0).run_log.question_ids == ["c", "a", "b"]

    def test_grpo_needs_group_of_two(self):
        stream = small_stream(5)
        with pytest.raises(ValidationError, match="group_size"):
            train_one(stream, TrainConfig(algorithm="grpo"), HyperParams(group_size=1), seed=0)
        # ReMax accepts singleton groups
        result = train_one(stream, TrainConfig(algorithm="remax"), frozen_hp(group_size=1), seed=0)
        assert len(result.run_log) == 5

    def test_init_params_dim_mismatch(self):
        with pytest.raises(ValidationError):
            train_one(small_stream(5, d=2), TrainConfig(), HyperParams(), init_params=PolicyParams.zeros(4), seed=0)

    @pytest.mark.parametrize("algorithm, n", [("remax", 5), ("remax", 0), ("dpo", 5)])
    def test_init_params_content_length_mismatch(self, algorithm, n):
        """The online step, the empty stream and DPO each refuse init_params
        whose content length is not the config's, naming both."""
        stream = small_stream(5, d=2) if n else Dataset(questions=[], split="train")
        init = PolicyParams.zeros(2, 2)
        with pytest.raises(ValidationError, match="init_params content_length 2 does not match train.content_length 8"):
            train_members(stream, TrainConfig(algorithm=algorithm, content_length=8), HyperParams(), members=[0],
                          init_params=init, seed=0)

    def test_init_params_with_a_baseline_refused(self):
        """Every member's baseline starts at zero, so a baseline in
        init_params would be ignored: it is refused instead."""
        init = PolicyParams.zeros(2)
        init.baseline = np.ones(3)
        with pytest.raises(ValidationError, match="init_params carries a baseline"):
            train_one(small_stream(5, d=2), TrainConfig(), HyperParams(), init_params=init, seed=0)

    def test_config_validation(self):
        for bad in (
            TrainConfig(algorithm="ppo"),
            TrainConfig(outer_iteration_len=0),
            TrainConfig(checkpoint_every=-1),
            TrainConfig(content_length=0),
            TrainConfig(early_stop=EarlyStopConfig(window=0)),
            TrainConfig(early_stop=EarlyStopConfig(gibberish_threshold=0.0)),
            TrainConfig(early_stop=EarlyStopConfig(extreme_mass_threshold=1.5)),
        ):
            with pytest.raises(ValidationError):
                bad.validate()

    def test_resolve_backend(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("auto") == "numpy"
        for bad in ("cuda", "numba"):
            with pytest.raises(ValidationError):
                resolve_backend(bad)


class TestNumericAbort:
    def test_abort_carries_last_good_state(self):
        qs = [make_question(f"q{i}", pred_ts=100 + i, features=[0.1 * i, -0.2]) for i in range(5)]
        stream = make_dataset(qs)
        stream.features[3] = [np.inf, 0.0]  # poisoned mid-stream, past the dataset's own check
        cfg = TrainConfig(algorithm="remax", outer_iteration_len=2)
        hp = HyperParams(actor_lr=0.01)
        with np.errstate(invalid="ignore", over="ignore"):
            abort = train_one(stream, cfg, hp, seed=6)
        assert abort.numeric_error == "non-finite gradient at question 'q3' (index 3)"
        assert abort.stop_reason is None
        assert len(abort.run_log) == 3
        assert abort.run_log.question_ids == ["q0", "q1", "q2"]

        # last good parameters are the span boundary before the failure:
        # identical to training on just the first two questions
        clean = train_one(
            make_dataset(qs[:2]), TrainConfig(algorithm="remax", outer_iteration_len=2), hp, seed=6,
        )
        assert np.array_equal(abort.params.answer_weights, clean.params.answer_weights)
        assert np.array_equal(abort.params.content_weights, clean.params.content_weights)


class TestDpo:
    def test_moves_and_is_deterministic(self):
        stream = small_stream(60)
        cfg = TrainConfig(algorithm="dpo")
        hp = HyperParams(dpo_lr=1e-3)
        a = train_dpo(stream, cfg, hp, seed=11)
        b = train_dpo(stream, TrainConfig(algorithm="dpo"), HyperParams(dpo_lr=1e-3), seed=11)
        assert not np.all(a.params.answer_weights == 0.0)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)
        assert a.params.baseline is None and len(a.run_log) == 60

    def test_member_substream(self):
        stream = small_stream(40)
        hp = HyperParams(dpo_lr=1e-3)
        a = train_dpo(stream, TrainConfig(algorithm="dpo"), hp, member=0, seed=11)
        b = train_dpo(stream, TrainConfig(algorithm="dpo"), hp, member=1, seed=11)
        assert not np.array_equal(a.run_log.rewards, b.run_log.rewards)

    def test_log_matches_independent_resampling(self):
        stream = small_stream(15, d=2, seed=8)
        cfg = TrainConfig(algorithm="dpo")
        hp = HyperParams()
        result = train_dpo(stream, cfg, hp, member=1, seed=13)

        params = PolicyParams.zeros(2)
        U = substream(13, "dpo", 1).random((15, 2, 9))
        pcfg = PenaltyConfig()
        for i, q in enumerate(stream):
            pair = [sample_response(params, q.features, uniforms=U[i, k]) for k in range(2)]
            totals = [
                total_reward(r.parse_probability(), q.outcome, assess_guardrails(r), pcfg).total
                for r in pair
            ]
            assert result.run_log.rewards[i] == pytest.approx(np.mean(totals), abs=1e-12)

    @pytest.mark.parametrize("cfg,seed,member", [
        (TrainConfig(algorithm="dpo"), 11, 0),
        (TrainConfig(algorithm="dpo", guardrails_enabled=False), 3, 2),
    ], ids=["cfg0", "cfg1"])
    def test_matches_per_object_oracle(self, cfg, seed, member):
        """The same rewards, hence the same preference pairs, and final
        weights within 1e-10 of the per-object DPO loop."""
        stream = small_stream(60)
        hp = HyperParams(dpo_lr=1e-3, dpo_batch=16)
        got = train_dpo(stream, cfg, hp, member=member, seed=seed)
        params, pairs, log = oracle_dpo(stream, cfg, hp, member=member, seed=seed)
        assert np.array_equal(got.run_log.rewards, log.rewards)
        assert len(pairs) > hp.dpo_batch  # several minibatches per epoch
        assert not np.all(got.params.answer_weights == 0.0)
        assert_close_runs(got, params, None, log)

    def test_a_non_finite_gradient_stops_only_that_member(self, monkeypatch):
        """Member 0's first gradient of its second epoch is not finite: it
        ends with the weights of its first epoch, and member 1 trains on
        exactly as alone."""
        stream = small_stream(60)
        cfg = TrainConfig(algorithm="dpo")
        hp = HyperParams(dpo_lr=1e-3, dpo_batch=16, dpo_epochs=2)
        alone = train_dpo(stream, cfg, hp, member=1, seed=11)
        real, calls, poisoned = trainer.dpo_gradient, [], []

        def gradient(*args):
            calls.append(None)
            g = real(*args)
            return g * np.nan if len(calls) in poisoned else g

        monkeypatch.setattr(trainer, "dpo_gradient", gradient)
        (first_epoch,) = train_members(stream, cfg, HyperParams(dpo_lr=1e-3, dpo_batch=16, dpo_epochs=1), seed=11)
        poisoned.append(len(calls) + 1)
        calls.clear()
        aborted, member1 = train_members(stream, cfg, hp, members=[0, 1], seed=11)
        assert (aborted.numeric_error, aborted.stop_reason) == ("non-finite DPO gradient", None)
        assert_identical_runs(aborted, replace(first_epoch, numeric_error=aborted.numeric_error))
        assert member1.numeric_error is None
        assert_identical_runs(member1, alone)

    def test_all_tied_pairs_rejected(self):
        # a policy saturated on one answer ties every pair once guard-rails
        # are off, leaving nothing to train on
        stream = small_stream(10)
        init = PolicyParams.zeros(2)
        init.answer_weights[0, 50] = 1000.0
        cfg = TrainConfig(algorithm="dpo", guardrails_enabled=False)
        with pytest.raises(ValidationError, match="tied"):
            train_dpo(stream, cfg, HyperParams(), init_params=init, seed=1)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            train_dpo(Dataset(questions=[], split="train"), TrainConfig(algorithm="dpo"), HyperParams(), seed=0)

    def test_train_dispatch(self):
        """train_members sends a DPO config to train_dpo."""
        stream = small_stream(30)
        cfg, hp = TrainConfig(algorithm="dpo"), HyperParams(dpo_lr=1e-3)
        (via_members,) = train_members(stream, cfg, hp, members=[0], seed=11)
        direct = train_dpo(stream, cfg, hp, seed=11)
        assert via_members.params.answer_weights.tobytes() == direct.params.answer_weights.tobytes()
        assert via_members.params.content_weights.tobytes() == direct.params.content_weights.tobytes()


class TestPredict:
    def test_zero_policy_predicts_lowest_grid_point(self):
        params = PolicyParams.zeros(2)
        q = make_question("q", features=[0.3, -0.4])
        assert predict(params, q) == 0.0
        assert predict_dataset(params, make_dataset([q])).tolist() == [0.0]

    def test_abstaining_policy_predicts_none(self):
        params = PolicyParams.zeros(2)
        params.answer_weights[0, ABSTAIN] = 5.0
        assert predict(params, make_question("q")) is None

    def test_feature_dim_mismatch(self):
        with pytest.raises(ValidationError):
            predict(PolicyParams.zeros(3), make_question("q", features=[1.0, 2.0]))


class TestEnsemble:
    def test_copies_reproduce_the_single_model_exactly(self):
        params = PolicyParams.zeros(2)
        params.answer_weights[0, 37] = 3.0
        q = make_question("q", features=[0.5, 0.5])
        single = predict(params, q)
        assert ensemble_predict([params.copy() for _ in range(3)], q) == single == 0.37

    def test_mean_and_abstain_skipping(self):
        lo = PolicyParams.zeros(2)
        lo.answer_weights[0, 20] = 50.0
        hi = PolicyParams.zeros(2)
        hi.answer_weights[0, 60] = 50.0
        out = PolicyParams.zeros(2)
        out.answer_weights[0, ABSTAIN] = 50.0
        q = make_question("q")
        assert ensemble_predict([lo, hi], q) == pytest.approx(0.4)
        assert ensemble_predict([lo, hi, out], q) == pytest.approx(0.4)
        assert ensemble_predict([out, out], q) is None

    def test_dataset_helper(self):
        ds = make_dataset([make_question("a"), make_question("b", pred_ts=200)])
        assert ensemble_predict_dataset(predict_dataset(PolicyParams.zeros(2), ds)[None]).tolist() == [0.0, 0.0]

    def test_validation(self):
        """The forecasts must be a (members, questions) matrix with at least one member row."""
        for bad in (np.empty((0, 3)), np.zeros(3), np.zeros((1, 2, 3))):
            with pytest.raises(ValidationError, match="forecast matrix"):
                ensemble_predict_dataset(bad)


def float_columns(log) -> dict:
    """A RunLog's per-question floats, in the order the digests hash them."""
    columns = log.columns()
    return {"parsed": columns.pop("parsed"), "rewards": log.rewards, **columns}


def assert_close_runs(got, params, baseline, log, atol=1e-10):
    """A TrainResult against an oracle run and its OracleLog."""
    assert np.allclose(got.params.content_weights, params.content_weights, rtol=0, atol=atol)
    assert np.allclose(got.params.answer_weights, params.answer_weights, rtol=0, atol=atol)
    if got.params.baseline is not None:
        assert np.allclose(got.params.baseline, baseline, rtol=0, atol=atol)
    assert got.run_log.question_ids == log.question_ids
    assert (got.stop_reason, got.numeric_error) == (log.stop_reason, None)
    columns = float_columns(got.run_log)
    assert np.array_equal(columns.pop("parsed"), log.parsed, equal_nan=True)
    for col, values in columns.items():
        assert np.allclose(values, getattr(log, col), rtol=0, atol=atol)


def assert_identical_runs(a, b):
    assert (a.stop_reason, a.numeric_error) == (b.stop_reason, b.numeric_error)
    for x, y in ((a.params.content_weights, b.params.content_weights),
                 (a.params.answer_weights, b.params.answer_weights)):
        assert x.tobytes() == y.tobytes()
    assert (a.params.baseline is None) == (b.params.baseline is None)
    if a.params.baseline is not None:
        assert a.params.baseline.tobytes() == b.params.baseline.tobytes()
    assert a.run_log.question_ids == b.run_log.question_ids
    assert a.run_log.content_length == b.run_log.content_length
    for col in ("first", "counts", "rewards"):
        assert getattr(a.run_log, col).tobytes() == getattr(b.run_log, col).tobytes()


class TestBatchedStep:
    """The batched step against the per-object loop of `oracle`."""

    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo", "remax"])
    def test_parity_with_oracle_and_kernel(self, algorithm):
        stream = small_stream(120, d=3)
        hp = HyperParams(actor_lr=0.01, baseline_lr=0.01, kl_coeff=0.1)
        cfg = TrainConfig(algorithm=algorithm, outer_iteration_len=40)
        got = train_one(stream, cfg, hp, member=1, seed=5)
        assert not np.all(got.params.answer_weights == 0.0)
        assert_close_runs(got, *oracle_train(stream, cfg, hp, member=1, seed=5))

    @pytest.mark.parametrize("algorithm,es,reason", [
        ("remax", EarlyStopConfig(window=6, gibberish_threshold=0.3), "gibberish"),
        ("grpo", EarlyStopConfig(window=10, extreme_mass_threshold=0.3), "extreme_mass"),
    ])
    def test_early_stop_parity(self, algorithm, es, reason):
        stream = small_stream(150, d=3)
        hp = HyperParams(actor_lr=0.05)
        cfg = TrainConfig(algorithm=algorithm, outer_iteration_len=9, early_stop=es)
        got = train_one(stream, cfg, hp, seed=2)
        assert got.stop_reason == reason and len(got.run_log) < 150
        assert_close_runs(got, *oracle_train(stream, cfg, hp, seed=2))

    @pytest.mark.parametrize("algorithm", ["grpo", "remax"])
    def test_member_is_byte_identical_alone_and_in_a_batch(self, algorithm):
        stream = small_stream(80, d=3)
        hp = HyperParams(actor_lr=0.01, baseline_lr=0.01)
        cfg = TrainConfig(algorithm=algorithm, outer_iteration_len=25)
        members = [0, 4, 2]
        batch = train_members(stream, cfg, hp, members=members, seed=4)
        for m, got in zip(members, batch):
            (alone,) = train_members(stream, cfg, hp, members=[m], seed=4)
            assert_identical_runs(got, alone)

    def test_stopped_members_freeze_while_others_train(self, monkeypatch):
        """One member aborts on a non-finite gradient and another stops
        early; each ends exactly as it would alone, and so does the
        survivor."""
        stream = small_stream(60)
        poison_baseline(monkeypatch, member=0, index=30)
        hp = HyperParams(actor_lr=0.01)
        cfg = TrainConfig(
            algorithm="remax", outer_iteration_len=4,
            early_stop=EarlyStopConfig(window=10, gibberish_threshold=0.4),
        )
        members = [0, 1, 6]
        with np.errstate(invalid="ignore", over="ignore"):
            batch = train_members(stream, cfg, hp, members=members, seed=1)
            alone = [train_members(stream, cfg, hp, members=[m], seed=1)[0] for m in members]
        aborted, survivor, stopped = batch
        assert "index 30" in aborted.numeric_error and len(aborted.run_log) == 30
        assert (survivor.stop_reason, survivor.numeric_error) == (None, None) and len(survivor.run_log) == 60
        assert stopped.stop_reason == "gibberish" and stopped.numeric_error is None and len(stopped.run_log) == 40
        for got, ref in zip(batch, alone):
            assert_identical_runs(got, ref)
        # the last good state is the span boundary before the failure
        with np.errstate(invalid="ignore", over="ignore"):
            (clean,) = train_members(make_dataset(list(stream)[:28]), cfg, hp, members=[0], seed=1)
        assert aborted.params.answer_weights.tobytes() == clean.params.answer_weights.tobytes()
        assert aborted.params.baseline.tobytes() == clean.params.baseline.tobytes()

    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo"])
    def test_algorithms_without_a_baseline_hand_out_none(self, algorithm):
        """Checkpoint callbacks and the last-good state carry no baseline
        for GRPO and Modified-GRPO, like a finished run."""
        stream = small_stream(30)
        stream.features[25] = [np.inf, 0.0]
        cfg = TrainConfig(algorithm=algorithm, checkpoint_every=10)
        seen = []
        with np.errstate(invalid="ignore", over="ignore"):
            results = train_members(
                stream, cfg, HyperParams(actor_lr=0.01), members=[0, 1],
                checkpoint_cb=lambda member, params, index, log: seen.append(params.baseline),
                seed=6,
            )
        assert len(seen) == 4 and all(b is None for b in seen)
        assert all(r.numeric_error is not None and r.params.baseline is None for r in results)
        (finished,) = train_members(small_stream(30), cfg, HyperParams(actor_lr=0.01), seed=6)
        assert finished.params.baseline is None

    def test_members_validated(self):
        stream = small_stream(5)
        for bad in ([], [0, 0], [-1]):
            with pytest.raises(ValidationError, match="members"):
                train_members(stream, TrainConfig(), HyperParams(), members=bad, seed=0)

    def test_dpo_members_match_single_runs(self):
        stream = small_stream(30)
        hp = HyperParams(dpo_lr=1e-3)
        a, b = train_members(stream, TrainConfig(algorithm="dpo"), hp, members=[0, 1], seed=11)
        for m, got in ((0, a), (1, b)):
            ref = train_dpo(stream, TrainConfig(algorithm="dpo"), hp, member=m, seed=11)
            assert got.params.answer_weights.tobytes() == ref.params.answer_weights.tobytes()


class TestVectorizedPredict:
    def test_matches_per_question_path_byte_for_byte(self):
        """Dataset prediction agrees exactly with one question at a time,
        on trained policies, an argmax tie, and an abstaining policy."""
        stream = small_stream(300, d=3, seed=2)
        hp = HyperParams(actor_lr=0.02)
        trained = [r.params for r in train_members(stream, TrainConfig(), hp, members=[0, 1, 2], seed=3)]
        tie = PolicyParams.zeros(3)
        tie.answer_weights[0, [40, 7, 93]] = 2.0
        abstain = PolicyParams.zeros(3)
        abstain.answer_weights[1, ABSTAIN] = 3.0  # abstains where feature 0 is positive
        for params in trained + [tie, abstain]:
            expected = [predict_probability(params, x) for x in stream.features]
            assert [None if np.isnan(p) else p for p in predict_dataset(params, stream).tolist()] == expected
        assert predict(tie, next(iter(stream))) == 0.07
        assert np.isnan(predict_dataset(abstain, stream)).any()

        members = trained + [abstain]
        ensemble = ensemble_predict_dataset(np.stack([predict_dataset(m, stream) for m in members]))
        for x, got in zip(stream.features, ensemble.tolist()):
            present = [p for p in (predict_probability(m, x) for m in members) if p is not None]
            if not present:
                assert np.isnan(got)
            elif min(present) == max(present):
                assert got == present[0]
            else:
                assert got == sum(present) / len(present)


class TestTrainingMemory:
    """Training holds nothing per question but the run log it returns."""

    @staticmethod
    def _traced_peak(n: int) -> int:
        """tracemalloc peak of training 4 GRPO members on n questions in
        one span, the returned results still held."""
        stream = small_stream(n)
        cfg = TrainConfig(algorithm="grpo", outer_iteration_len=n)
        tracemalloc.start()
        try:
            results = train_members(stream, cfg, HyperParams(actor_lr=0.01), members=[0, 1, 2, 3], seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(r.run_log) for r in results] == [n] * 4
        return peak

    def test_peak_grows_by_less_than_200_bytes_per_member_question(self):
        """The run-log columns (17 B per member-question at G = 4) and the
        returned RunLogs' copies of them measure about 30 B; float run-log
        columns measured about 100 B, and uniforms drawn for the whole
        stream would add 288 B."""
        growth = (self._traced_peak(2000) - self._traced_peak(1000)) / (4 * 1000)
        assert growth < 200

    def test_uniforms_are_drawn_a_block_at_a_time(self, monkeypatch):
        """Each member's generator fills at most REF_BLOCK questions of
        uniforms at a time: two members stop inside a block while the third
        trains on their blocks' rows and then draws the rest of the stream
        once.  The run is the pinned `gibberish_stop` run."""
        draws = {}

        class Recording:
            def __init__(self, rng, member):
                self.rng, self.member = rng, member

            def random(self, out):
                draws.setdefault(self.member, []).append(out.shape[0])
                self.rng.random(out=out)

        monkeypatch.setattr(trainer, "substream", lambda seed, name, m: Recording(substream(seed, name, m), m))
        monkeypatch.setattr(trainer, "REF_BLOCK", 16)
        cfg = TrainConfig(algorithm="remax", outer_iteration_len=9,
                          early_stop=EarlyStopConfig(window=20, gibberish_threshold=0.36))
        results = train_members(small_stream(150, d=3), cfg, HyperParams(actor_lr=0.05), members=[0, 1, 2],
                                seed=1)
        assert [run_digest(r) for r in results] == TestStepDigests.DIGESTS["gibberish_stop"]
        assert [len(r.run_log) for r in results] == [41, 36, 150]
        assert draws == {0: [16] * 3, 1: [16] * 3, 2: [16] * 9 + [6]}


def run_digest(result) -> str:
    """sha256 of a member's ending, its final (or last good) weights and
    its run log's floats.  The ending is named as when a numeric abort was
    a `NumericAbort` and every other ending a `TrainResult`, so the pinned
    digests hold."""
    h = hashlib.sha256(b"TrainResult" if result.numeric_error is None else b"NumericAbort")
    h.update(result.params.content_weights.tobytes())
    h.update(result.params.answer_weights.tobytes())
    h.update(b"none" if result.params.baseline is None else result.params.baseline.tobytes())
    h.update("\n".join(result.run_log.question_ids).encode())
    h.update(repr((result.stop_reason is not None, result.stop_reason)).encode())
    for values in float_columns(result.run_log).values():
        h.update(values.tobytes())
    return h.hexdigest()


def step_runs() -> dict:
    """Two-member runs of every online algorithm, one early stop per
    collapse mode (members stopping at different questions, one running
    on) and a numeric abort, each crossing several reference resets."""
    hp = HyperParams(actor_lr=0.01, baseline_lr=0.01, kl_coeff=0.1)
    runs = {
        algo: train_members(small_stream(200, d=3), TrainConfig(algorithm=algo, outer_iteration_len=40),
                            hp, members=[0, 1], seed=5)
        for algo in ("grpo", "modified_grpo", "remax")
    }
    fast = HyperParams(actor_lr=0.05)
    for name, algo, es, members in (
        ("gibberish_stop", "remax", EarlyStopConfig(window=20, gibberish_threshold=0.36), [0, 1, 2]),
        ("extreme_stop", "grpo", EarlyStopConfig(window=10, extreme_mass_threshold=0.3), [0, 1]),
    ):
        cfg = TrainConfig(algorithm=algo, outer_iteration_len=9, early_stop=es)
        runs[name] = train_members(small_stream(150, d=3), cfg, fast, members=members, seed=1)
    stream = small_stream(60)
    stream.features[33] = [np.inf, 0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        runs["numeric_abort"] = train_members(
            stream, TrainConfig(algorithm="remax", outer_iteration_len=20),
            HyperParams(actor_lr=0.01, baseline_lr=0.01), members=[0, 1], seed=6,
        )
    return runs


class TestStepDigests:
    # sha256 (`run_digest`) of every member of `step_runs`, as the step wrote
    # them when each head kept its own weight arrays and every question took
    # its own reference log-probs.  The fused step must reproduce them bit
    # for bit.
    DIGESTS = {
        "grpo": ["027687ca1db5beedc524e1a22197542788188fb0b9e2f92a8ade24667978eadd",
                 "b660fe6be4c3aa191bf8f1a75748ac4c4917a50884f102407984a480f5ba7a79"],
        "modified_grpo": ["ecac9704507d8852e2043df9d4c425a595ee72289421aae3c38f3e2574fc07d6",
                          "76b44a74a2b57dc9435ce18018dc5563712abb3a056798ed29a6f33cf83da1b8"],
        "remax": ["50f192c8f02daa5f7f8ebd97873012ea1586d50ec704ccbcb55d91f856d4aa42",
                  "b187700a2504a5aaa2fae9abce5604135fe4e7ca945fb97a0d520e504beb0d75"],
        "gibberish_stop": ["c1f85c6245a888dcef708c35956436bb966ceb70c02df3298a9ea9ed9287ef65",
                           "e576f5993e31d0c87e3c35dae6ce2bfe38e2ff55cef7380489a40eb3b6925f76",
                           "e1bcb56825aeee93cbcae0d3f164c5e6b56edfe8e66da634abae319c3be7864f"],
        "extreme_stop": ["912014ee83bc4eb35aaf884f4356234456830ce7ffe6022bba34d54f8fa91158",
                         "26f48313e1000abd9a92c735202f52dd8e2a6f042c0a5b9028cae91080c3b1d8"],
        "numeric_abort": ["0636514ca09209cfd4769aa0012daaf586807f86f6d392524462552c7154f5d4",
                          "aea2d9781079d1e3471990a32cb464154b12563f76ccd7010d8b863760bffdc1"],
    }

    def test_runs_match_the_pinned_digests(self):
        runs = step_runs()
        assert [(len(r.run_log), r.stop_reason) for r in runs["gibberish_stop"]] == \
            [(41, "gibberish"), (36, "gibberish"), (150, None)]
        assert [(len(r.run_log), r.stop_reason) for r in runs["extreme_stop"]] == \
            [(17, "extreme_mass"), (28, "extreme_mass")]
        assert all(r.numeric_error is not None and len(r.run_log) == 33 for r in runs["numeric_abort"])
        assert {name: [run_digest(r) for r in results] for name, results in runs.items()} == self.DIGESTS

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_reference_block_size_is_invisible(self, monkeypatch, block):
        """Reference log-probs taken one question at a time, in blocks that
        straddle the early stops, or a span at a time give the same bits."""
        monkeypatch.setattr(trainer, "REF_BLOCK", block)
        assert {name: [run_digest(r) for r in results] for name, results in step_runs().items()} == self.DIGESTS


def dpo_runs() -> dict:
    """DPO runs over several minibatches per epoch: the defaults, active
    clipping, guard rails off, and random initial weights with one pair per
    minibatch, at L = 4 and at L = 12."""
    stream = small_stream(60)
    hp = HyperParams(dpo_lr=1e-3, dpo_batch=16)
    runs = {
        "default": train_members(stream, TrainConfig(algorithm="dpo"), hp, members=[0, 1], seed=11),
        "clipped": train_members(stream, TrainConfig(algorithm="dpo"),
                                 HyperParams(dpo_lr=1e-3, dpo_batch=16, grad_clip_norm=1e-4), members=[2], seed=3),
        "no_guardrails": train_members(stream, TrainConfig(algorithm="dpo", guardrails_enabled=False), hp,
                                       members=[2], seed=3),
    }
    rng = np.random.default_rng(31)
    for name, d, L, batch in (("one_pair_batches", 3, 8, 1), ("random_init_l4", 3, 4, 8), ("random_init_l12", 4, 12, 8)):
        init = PolicyParams.zeros(d, L)
        init.content_weights[:] = rng.normal(size=init.content_weights.shape) * 0.5
        init.answer_weights[:] = rng.normal(size=init.answer_weights.shape) * 0.5
        cfg = TrainConfig(algorithm="dpo", content_length=L)
        hp_wd = HyperParams(dpo_lr=1e-3, dpo_batch=batch, dpo_epochs=3, weight_decay=0.01)
        runs[name] = train_members(small_stream(50, d=d, seed=4), cfg, hp_wd, members=[0, 3], init_params=init,
                                   seed=7)
    return runs


class TestDpoDigests:
    # sha256 (`run_digest`) of every member of `dpo_runs`, as DPO wrote them
    # when each head kept its own weight arrays and AdamW moments.
    DIGESTS = {
        "default": ["86e1c90622e9306103a8a9b667a56b85b06695422a1c9c594b376c7852500273",
                    "bfafdf5006a297ab4cbfc11982cb4ca698520fed5bab44b0d1c5483e66b17e82"],
        "clipped": ["e6a6a1f5442426314686b64e003c0431ef95b7d4f0c6d567dbb084e0a51b1ddc"],
        "no_guardrails": ["caa8b2b5df7f0ee38a5569eb9652359c1cc1e7f91db0a73a53c458b5b245d111"],
        "one_pair_batches": ["d2924d894f07258371972383881b9fdea2e1e51507a8fcbd68ed0e988eb21479",
                             "3f24d9eeead32a0fa67ad38d8c2dab28d2e9fd61ba500af1ad705960d9e26d04"],
        "random_init_l4": ["cf8b1dd6635bcb3eb810095f427731fc7c4f20180bd8071101dca9b37d142183",
                           "5029cbad0a375cc7060ef469a0d17fa194aedcd1b32d3681c1fc7ea343a95915"],
        "random_init_l12": ["55eb7e1fc642562ff0b5b77c6fde61b9069ea1907f8dabb37e69099347b8f67f",
                            "ef8fb1d803f1e37a05e3cd34f1b11fae03edb7e1245592d68246f5e9eced30ac"],
    }

    def test_runs_match_the_pinned_digests(self):
        assert {name: [run_digest(r) for r in results] for name, results in dpo_runs().items()} == self.DIGESTS
