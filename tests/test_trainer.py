import numpy as np
import pytest

from conftest import make_dataset, make_question
from forecast_rl import kernels
from forecast_rl.algorithms import (
    GroupRollout,
    HyperParams,
    OptimizerState,
    adamw_step,
    baseline_loss_and_grad,
    baseline_predict,
    grpo_advantages,
    grpo_objective_and_grad,
    modified_grpo_advantages,
    remax_advantages,
    remax_objective_and_grad,
)
from forecast_rl.data import Dataset, SyntheticConfig, generate_synthetic_stream
from forecast_rl.errors import NumericAbort, ValidationError
from forecast_rl.policy import (
    ABSTAIN,
    PolicyParams,
    Vocabulary,
    predict_probability,
    sample_response,
    snapshot_reference,
)
from forecast_rl.reward import PenaltyConfig, assess_guardrails, total_reward
from forecast_rl.rng import substream
from forecast_rl.trainer import (
    EarlyStopConfig,
    EnsembleSpec,
    RunLog,
    TrainConfig,
    check_early_stop,
    ensemble_predict,
    ensemble_predict_dataset,
    predict,
    predict_dataset,
    resolve_backend,
    train,
    train_dpo,
    train_members,
    train_online,
)


def small_stream(n=30, d=2, seed=0):
    stream, _ = generate_synthetic_stream(
        SyntheticConfig(n_questions=n, feature_dim=d, market_noise=None, seed=seed)
    )
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
        cfg = TrainConfig(algorithm=algorithm, seed=3)
        result = train_online(stream, cfg, frozen_hp())
        assert np.all(result.params.content_weights == 0.0)
        assert np.all(result.params.answer_weights == 0.0)
        assert len(result.run_log) == 10

    def test_dpo_params_do_not_move(self):
        stream = small_stream(20)
        result = train_dpo(stream, TrainConfig(algorithm="dpo", seed=3), frozen_hp())
        assert np.all(result.params.content_weights == 0.0)
        assert np.all(result.params.answer_weights == 0.0)


class TestRunLogSemantics:
    def test_log_matches_independent_resampling(self):
        """With zero learning rates the policy is frozen, so every logged
        quantity can be recomputed outside the trainer."""
        stream = small_stream(12, d=3, seed=5)
        cfg = TrainConfig(algorithm="remax", seed=9, member=2)
        hp = frozen_hp()
        result = train_online(stream, cfg, hp, backend="numpy")

        params = PolicyParams.zeros(3)
        U = substream(9, "sampling", 2).random((12, hp.group_size, 9))
        pcfg = PenaltyConfig()
        for i, q in enumerate(stream.questions):
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
            logged = result.run_log.parsed[i]
            assert (p0 is None and np.isnan(logged)) or logged == p0
            assert result.run_log.rewards[i] == pytest.approx(np.mean(totals), abs=1e-12)
            assert result.run_log.gibberish[i] == pytest.approx(np.mean(gps), abs=1e-12)
            assert result.run_log.question_ids[i] == q.id

    def test_summary_fields(self):
        log = RunLog(
            ["a", "b", "c", "d"],
            np.array([0.05, np.nan, 0.5, 0.95]),
            np.array([-0.1, -0.2, -0.3, -0.4]),
            np.zeros(4), np.zeros(4), np.zeros(4),
        )
        s = log.summary()
        assert s["n_questions"] == 4
        assert s["abstain_rate"] == 0.25
        assert s["extreme_bucket_mass"] == pytest.approx(2 / 3)
        assert s["mean_reward"] == pytest.approx(-0.25)
        assert s["stopped"] is False

    def test_records_round_trip(self, tmp_path):
        import json

        log = RunLog(["a", "b"], np.array([np.nan, 0.4]), np.array([-1.0, -0.36]),
                     np.zeros(2), np.zeros(2), np.ones(2))
        path = tmp_path / "runlog.jsonl"
        log.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["parsed"] is None and rows[1]["parsed"] == 0.4
        assert rows[1]["reward"] == -0.36


class TestDeterminism:
    def test_same_seed_replays_exactly(self):
        stream = small_stream(25)
        cfg = TrainConfig(algorithm="grpo", seed=7)
        hp = HyperParams(actor_lr=0.05)
        a = train_online(stream, cfg, hp)
        b = train_online(stream, TrainConfig(algorithm="grpo", seed=7), HyperParams(actor_lr=0.05))
        assert np.array_equal(a.params.content_weights, b.params.content_weights)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)
        assert np.array_equal(a.run_log.rewards, b.run_log.rewards)

    def test_members_draw_distinct_streams(self):
        stream = small_stream(25)
        hp = HyperParams(actor_lr=0.05)
        a = train_online(stream, TrainConfig(algorithm="grpo", seed=7, member=0), hp)
        b = train_online(stream, TrainConfig(algorithm="grpo", seed=7, member=1), hp)
        assert not np.array_equal(a.run_log.rewards, b.run_log.rewards)
        assert not np.array_equal(a.params.answer_weights, b.params.answer_weights)

    def test_span_partition_is_invisible(self):
        """outer_iteration_len only matters through the KL reference, and
        checkpoint boundaries never perturb the trajectory."""
        stream = small_stream(40)
        hp = HyperParams(actor_lr=0.05, kl_coeff=0.0)
        a = train_online(stream, TrainConfig(algorithm="remax", seed=1, outer_iteration_len=7), hp)
        b = train_online(stream, TrainConfig(algorithm="remax", seed=1, outer_iteration_len=500), hp)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)

        hp_kl = HyperParams(actor_lr=0.05, kl_coeff=0.1)
        c = train_online(stream, TrainConfig(algorithm="remax", seed=1, checkpoint_every=11), hp_kl)
        d = train_online(stream, TrainConfig(algorithm="remax", seed=1, checkpoint_every=0), hp_kl)
        assert np.array_equal(c.params.answer_weights, d.params.answer_weights)

    def test_reference_reset_changes_the_trajectory(self):
        stream = small_stream(60)
        hp = HyperParams(actor_lr=0.05, kl_coeff=0.5)
        short = train_online(stream, TrainConfig(algorithm="remax", seed=1, outer_iteration_len=10), hp)
        never = train_online(stream, TrainConfig(algorithm="remax", seed=1, outer_iteration_len=600), hp)
        assert not np.array_equal(short.params.answer_weights, never.params.answer_weights)


class TestEarlyStop:
    def test_gibberish_collapse_detected(self):
        stream = small_stream(50)
        cfg = TrainConfig(
            algorithm="remax", seed=2,
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=0.001),
        )
        result = train_online(stream, cfg, frozen_hp())
        # uniform policy keeps ~1/3 gibberish, far above the threshold
        assert result.stopped and result.stop_reason == "gibberish"
        assert len(result.run_log) == 5
        assert result.run_log.stopped and result.run_log.stop_reason == "gibberish"
        assert result.run_log.summary()["stopped"] is True

    def test_extreme_mass_collapse_detected(self):
        stream = small_stream(200)
        cfg = TrainConfig(
            algorithm="remax", seed=2,
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=1.0, extreme_mass_threshold=0.001),
        )
        result = train_online(stream, cfg, frozen_hp())
        assert result.stopped and result.stop_reason == "extreme_mass"
        assert len(result.run_log) % 1 == 0 and len(result.run_log) >= 5

    def test_disabled_guard_runs_to_completion(self):
        stream = small_stream(50)
        cfg = TrainConfig(
            algorithm="remax", seed=2,
            early_stop=EarlyStopConfig(window=5, gibberish_threshold=0.001, enabled=False),
        )
        result = train_online(stream, cfg, frozen_hp())
        assert not result.stopped and len(result.run_log) == 50

    def test_window_larger_than_stream_never_fires(self):
        stream = small_stream(20)
        cfg = TrainConfig(
            algorithm="remax", seed=2,
            early_stop=EarlyStopConfig(window=21, gibberish_threshold=0.001),
        )
        result = train_online(stream, cfg, frozen_hp())
        assert not result.stopped and len(result.run_log) == 20


class TestCheckpointCallback:
    def test_boundary_indices_and_partial_logs(self):
        stream = small_stream(35)
        calls = []

        def cb(params, baseline, index, partial):
            calls.append((index, len(partial), list(partial.question_ids)))

        cfg = TrainConfig(algorithm="remax", seed=4, checkpoint_every=10)
        result = train_online(stream, cfg, HyperParams(actor_lr=0.01), checkpoint_cb=cb)
        assert [c[0] for c in calls] == [10, 20, 30]
        for index, n_logged, ids in calls:
            assert n_logged == index
            assert ids == result.run_log.question_ids[:index]

    def test_no_callback_without_checkpoint_every(self):
        stream = small_stream(30)
        calls = []
        cfg = TrainConfig(algorithm="remax", seed=4, checkpoint_every=0)
        train_online(stream, cfg, frozen_hp(), checkpoint_cb=lambda *a: calls.append(a))
        assert calls == []


class TestValidationAndEdgeCases:
    def test_empty_stream_needs_init_params(self):
        empty = Dataset(questions=[], split="train")
        with pytest.raises(ValidationError):
            train_online(empty, TrainConfig(), HyperParams())
        init = PolicyParams.zeros(2)
        result = train_online(empty, TrainConfig(), HyperParams(), init_params=init)
        assert len(result.run_log) == 0 and result.baseline is None
        assert result.params is not init  # insulated copy

    def test_unsorted_stream_rejected(self):
        qs = [make_question("a", pred_ts=200), make_question("b", pred_ts=100)]
        bad = Dataset(questions=qs, split="train")  # bypasses sorting on purpose
        with pytest.raises(ValidationError, match="sorted"):
            train_online(bad, TrainConfig(), HyperParams())

    def test_grpo_needs_group_of_two(self):
        stream = small_stream(5)
        with pytest.raises(ValidationError, match="group_size"):
            train_online(stream, TrainConfig(algorithm="grpo"), HyperParams(group_size=1))
        # ReMax accepts singleton groups
        result = train_online(stream, TrainConfig(algorithm="remax"), frozen_hp(group_size=1))
        assert len(result.run_log) == 5

    def test_dpo_not_trainable_online(self):
        with pytest.raises(ValidationError, match="dpo"):
            train_online(small_stream(5), TrainConfig(algorithm="dpo"), HyperParams())

    def test_init_params_dim_mismatch(self):
        with pytest.raises(ValidationError):
            train_online(small_stream(5, d=2), TrainConfig(), HyperParams(),
                         init_params=PolicyParams.zeros(4))

    def test_config_validation(self):
        for bad in (
            TrainConfig(algorithm="ppo"),
            TrainConfig(outer_iteration_len=0),
            TrainConfig(checkpoint_every=-1),
            TrainConfig(member=-1),
            TrainConfig(content_length=0),
            TrainConfig(early_stop=EarlyStopConfig(window=0)),
            TrainConfig(early_stop=EarlyStopConfig(gibberish_threshold=0.0)),
            TrainConfig(early_stop=EarlyStopConfig(extreme_mass_threshold=1.5)),
        ):
            with pytest.raises(ValidationError):
                bad.validate()

    def test_resolve_backend(self):
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("auto") in ("numba", "numpy")
        with pytest.raises(ValidationError):
            resolve_backend("cuda")


class TestNumericAbort:
    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_abort_carries_last_good_state(self, backend):
        qs = [make_question(f"q{i}", pred_ts=100 + i, features=[0.1 * i, -0.2]) for i in range(5)]
        qs[3].features = np.array([np.inf, 0.0])  # poisoned mid-stream
        stream = make_dataset(qs)
        cfg = TrainConfig(algorithm="remax", seed=6, outer_iteration_len=2)
        hp = HyperParams(actor_lr=0.01)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericAbort) as exc_info:
            train_online(stream, cfg, hp, backend=backend)
        abort = exc_info.value
        assert len(abort.run_log) == 3
        assert abort.run_log.question_ids == ["q0", "q1", "q2"]

        # last good parameters are the span boundary before the failure:
        # identical to training on just the first two questions
        clean = train_online(
            make_dataset(qs[:2]), TrainConfig(algorithm="remax", seed=6, outer_iteration_len=2), hp,
            backend=backend,
        )
        assert np.array_equal(abort.params.answer_weights, clean.params.answer_weights)
        assert np.array_equal(abort.params.content_weights, clean.params.content_weights)


class TestDpo:
    def test_moves_and_is_deterministic(self):
        stream = small_stream(60)
        cfg = TrainConfig(algorithm="dpo", seed=11)
        hp = HyperParams(dpo_lr=1e-3)
        a = train_dpo(stream, cfg, hp)
        b = train_dpo(stream, TrainConfig(algorithm="dpo", seed=11), HyperParams(dpo_lr=1e-3))
        assert not np.all(a.params.answer_weights == 0.0)
        assert np.array_equal(a.params.answer_weights, b.params.answer_weights)
        assert a.baseline is None and len(a.run_log) == 60

    def test_member_substream(self):
        stream = small_stream(40)
        hp = HyperParams(dpo_lr=1e-3)
        a = train_dpo(stream, TrainConfig(algorithm="dpo", seed=11, member=0), hp)
        b = train_dpo(stream, TrainConfig(algorithm="dpo", seed=11, member=1), hp)
        assert not np.array_equal(a.run_log.rewards, b.run_log.rewards)

    def test_log_matches_independent_resampling(self):
        stream = small_stream(15, d=2, seed=8)
        cfg = TrainConfig(algorithm="dpo", seed=13, member=1)
        hp = HyperParams()
        result = train_dpo(stream, cfg, hp)

        params = PolicyParams.zeros(2)
        U = substream(13, "dpo", 1).random((15, 2, 9))
        pcfg = PenaltyConfig()
        for i, q in enumerate(stream.questions):
            pair = [sample_response(params, q.features, uniforms=U[i, k]) for k in range(2)]
            totals = [
                total_reward(r.parse_probability(), q.outcome, assess_guardrails(r), pcfg).total
                for r in pair
            ]
            assert result.run_log.rewards[i] == pytest.approx(np.mean(totals), abs=1e-12)

    def test_all_tied_pairs_rejected(self):
        # a policy saturated on one answer ties every pair once guard-rails
        # are off, leaving nothing to train on
        stream = small_stream(10)
        init = PolicyParams.zeros(2)
        init.answer_weights[0, 50] = 1000.0
        cfg = TrainConfig(algorithm="dpo", seed=1, guardrails_enabled=False)
        with pytest.raises(ValidationError, match="tied"):
            train_dpo(stream, cfg, HyperParams(), init_params=init)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError):
            train_dpo(Dataset(questions=[], split="train"), TrainConfig(algorithm="dpo"), HyperParams())

    def test_train_dispatch(self):
        stream = small_stream(30)
        via_dispatch = train(stream, TrainConfig(algorithm="dpo", seed=11), HyperParams(dpo_lr=1e-3))
        direct = train_dpo(stream, TrainConfig(algorithm="dpo", seed=11), HyperParams(dpo_lr=1e-3))
        assert np.array_equal(via_dispatch.params.answer_weights, direct.params.answer_weights)


class TestPredict:
    def test_zero_policy_predicts_lowest_grid_point(self):
        params = PolicyParams.zeros(2)
        q = make_question("q", features=[0.3, -0.4])
        assert predict(params, q) == 0.0
        assert predict_dataset(params, make_dataset([q])) == {"q": 0.0}

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
        spec = EnsembleSpec([params.copy() for _ in range(3)])
        assert ensemble_predict(spec, q) == single == 0.37

    def test_mean_and_abstain_skipping(self):
        lo = PolicyParams.zeros(2)
        lo.answer_weights[0, 20] = 50.0
        hi = PolicyParams.zeros(2)
        hi.answer_weights[0, 60] = 50.0
        out = PolicyParams.zeros(2)
        out.answer_weights[0, ABSTAIN] = 50.0
        q = make_question("q")
        assert ensemble_predict(EnsembleSpec([lo, hi]), q) == pytest.approx(0.4)
        assert ensemble_predict(EnsembleSpec([lo, hi, out]), q) == pytest.approx(0.4)
        assert ensemble_predict(EnsembleSpec([out, out]), q) is None

    def test_dataset_helper(self):
        spec = EnsembleSpec([PolicyParams.zeros(2)])
        ds = make_dataset([make_question("a"), make_question("b", pred_ts=200)])
        assert ensemble_predict_dataset(spec, ds) == {"a": 0.0, "b": 0.0}

    def test_validation(self):
        with pytest.raises(ValidationError):
            EnsembleSpec([]).validate()
        with pytest.raises(ValidationError):
            EnsembleSpec([PolicyParams.zeros(2), PolicyParams.zeros(3)]).validate()
        with pytest.raises(ValidationError):
            EnsembleSpec(
                [PolicyParams.zeros(2), PolicyParams.zeros(2, Vocabulary(4))]
            ).validate()


def oracle_train(stream, cfg, hp, penalties=None):
    """Reference online loop for one member, built from per-response
    objects and the modular `algorithms` primitives: sample each response,
    audit and score it, form the advantages, build a GroupRollout, take
    the objective's gradient and one AdamW step."""
    pcfg = penalties if penalties is not None else PenaltyConfig()
    n, d = len(stream), stream.feature_dim
    G, L = hp.group_size, cfg.content_length
    params = PolicyParams.zeros(d, Vocabulary(L))
    baseline = np.zeros(d + 1)
    actor_state = OptimizerState.for_params(
        {"content": params.content_weights, "answer": params.answer_weights}
    )
    base_state = OptimizerState.for_params({"baseline": baseline})
    actor_lr = hp.resolve_actor_lr(cfg.algorithm)
    X, Y, ids = stream.feature_matrix(), stream.outcomes(), stream.ids()
    U = substream(cfg.seed, "sampling", cfg.member).random((n, G, L + 1))
    logs = {k: np.zeros(n) for k in ("parsed", "reward", "gib", "nep", "expq")}
    es = cfg.early_stop
    ref = snapshot_reference(params)
    for i in range(n):
        if i > 0 and i % cfg.outer_iteration_len == 0:
            ref = snapshot_reference(params)
        x, y = X[i], int(Y[i])
        responses = [sample_response(params, x, uniforms=U[i, g]) for g in range(G)]
        assessments = [assess_guardrails(r) for r in responses]
        rewards = np.array([
            total_reward(r.parse_probability(), y, a, pcfg, schema_valid=r.schema_valid).total
            for r, a in zip(responses, assessments)
        ])
        if cfg.algorithm == "grpo":
            advs = grpo_advantages(rewards)
        elif cfg.algorithm == "modified_grpo":
            advs = modified_grpo_advantages(rewards)
        else:
            advs = remax_advantages(rewards, baseline_predict(baseline, x))
        group = GroupRollout.from_sampling(ids[i], x, responses, rewards, advs, params)
        objective = remax_objective_and_grad if cfg.algorithm == "remax" else grpo_objective_and_grad
        _, grads = objective(group, params, ref, hp)
        adamw_step(
            {"content": params.content_weights, "answer": params.answer_weights},
            {name: -g for name, g in grads.items()},
            actor_state, hp, actor_lr,
        )
        if cfg.algorithm == "remax":
            _, bgrads = baseline_loss_and_grad(baseline, x, rewards, hp)
            adamw_step({"baseline": baseline}, bgrads, base_state, hp, hp.baseline_lr)

        p0 = responses[0].parse_probability()
        logs["parsed"][i] = np.nan if p0 is None else p0
        logs["reward"][i] = rewards.mean()
        logs["gib"][i] = np.mean([a.gibberish_proportion for a in assessments])
        logs["nep"][i] = np.mean([a.non_english_proportion for a in assessments])
        logs["expq"][i] = np.mean([a.explanation_quality for a in assessments])
        if es.enabled and i + 1 >= es.window:
            lo = i + 1 - es.window
            hit, reason = check_early_stop(logs["parsed"][lo : i + 1], logs["gib"][lo : i + 1], es)
            if hit:
                log = RunLog(ids[: i + 1], *(v[: i + 1] for v in logs.values()), True, reason)
                return params, baseline, log
    return params, baseline, RunLog(ids, *logs.values())


def plain_kernel(monkeypatch):
    """Make the numba backend run `kernels.run_span` as plain Python."""
    monkeypatch.setattr(kernels, "run_span", getattr(kernels.run_span, "py_func", kernels.run_span))


LOG_COLUMNS = ("rewards", "gibberish", "non_english", "explanation")


def assert_close_runs(got, params, baseline, log, atol=1e-10):
    assert np.allclose(got.params.content_weights, params.content_weights, rtol=0, atol=atol)
    assert np.allclose(got.params.answer_weights, params.answer_weights, rtol=0, atol=atol)
    if got.baseline is not None:
        assert np.allclose(got.baseline, baseline, rtol=0, atol=atol)
    assert got.run_log.question_ids == log.question_ids
    assert (got.run_log.stopped, got.run_log.stop_reason) == (log.stopped, log.stop_reason)
    assert np.array_equal(got.run_log.parsed, log.parsed, equal_nan=True)
    for col in LOG_COLUMNS:
        assert np.allclose(getattr(got.run_log, col), getattr(log, col), rtol=0, atol=atol)


def assert_identical_runs(a, b):
    assert type(a) is type(b)
    for x, y in ((a.params.content_weights, b.params.content_weights),
                 (a.params.answer_weights, b.params.answer_weights)):
        assert x.tobytes() == y.tobytes()
    assert (a.baseline is None) == (b.baseline is None)
    if a.baseline is not None:
        assert a.baseline.tobytes() == b.baseline.tobytes()
    assert a.run_log.question_ids == b.run_log.question_ids
    assert (a.run_log.stopped, a.run_log.stop_reason) == (b.run_log.stopped, b.run_log.stop_reason)
    for col in ("parsed",) + LOG_COLUMNS:
        assert getattr(a.run_log, col).tobytes() == getattr(b.run_log, col).tobytes()


class TestBatchedStep:
    """The batched numpy step against the per-object loop and the kernel."""

    @pytest.mark.parametrize("algorithm", ["grpo", "modified_grpo", "remax"])
    def test_parity_with_oracle_and_kernel(self, algorithm, monkeypatch):
        plain_kernel(monkeypatch)
        stream = small_stream(120, d=3)
        hp = HyperParams(actor_lr=0.01, baseline_lr=0.01, kl_coeff=0.1)
        cfg = TrainConfig(algorithm=algorithm, seed=5, member=1, outer_iteration_len=40)
        got = train_online(stream, cfg, hp, backend="numpy")
        assert not np.all(got.params.answer_weights == 0.0)
        assert_close_runs(got, *oracle_train(stream, cfg, hp))
        kernel = train_online(stream, cfg, hp, backend="numba")
        assert_close_runs(got, kernel.params, kernel.baseline, kernel.run_log)

    @pytest.mark.parametrize("algorithm,es,reason", [
        ("remax", EarlyStopConfig(window=6, gibberish_threshold=0.3), "gibberish"),
        ("grpo", EarlyStopConfig(window=10, extreme_mass_threshold=0.3), "extreme_mass"),
    ])
    def test_early_stop_parity(self, algorithm, es, reason, monkeypatch):
        plain_kernel(monkeypatch)
        stream = small_stream(150, d=3)
        hp = HyperParams(actor_lr=0.05)
        cfg = TrainConfig(algorithm=algorithm, seed=2, outer_iteration_len=9, early_stop=es)
        got = train_online(stream, cfg, hp, backend="numpy")
        assert got.stop_reason == reason and len(got.run_log) < 150
        assert_close_runs(got, *oracle_train(stream, cfg, hp))
        kernel = train_online(stream, cfg, hp, backend="numba")
        assert_close_runs(got, kernel.params, kernel.baseline, kernel.run_log)

    @pytest.mark.parametrize("algorithm", ["grpo", "remax"])
    def test_member_is_byte_identical_alone_and_in_a_batch(self, algorithm):
        stream = small_stream(80, d=3)
        hp = HyperParams(actor_lr=0.01, baseline_lr=0.01)
        cfg = TrainConfig(algorithm=algorithm, seed=4, outer_iteration_len=25)
        members = [0, 4, 2]
        batch = train_members(stream, cfg, hp, members=members, backend="numpy")
        for m, got in zip(members, batch):
            (alone,) = train_members(stream, cfg, hp, members=[m], backend="numpy")
            assert_identical_runs(got, alone)

    def test_stopped_members_freeze_while_others_train(self):
        """One member aborts on a non-finite gradient and another stops
        early; each ends exactly as it would alone, and so does the
        survivor."""
        stream = small_stream(60)
        stream.questions[30].features = np.array([2e152, 0.0])
        hp = HyperParams(actor_lr=0.01)
        cfg = TrainConfig(
            algorithm="remax", seed=1, outer_iteration_len=4,
            early_stop=EarlyStopConfig(window=10, gibberish_threshold=0.4),
        )
        members = [0, 1, 3]
        with np.errstate(invalid="ignore", over="ignore"):
            batch = train_members(stream, cfg, hp, members=members, backend="numpy")
            alone = [train_members(stream, cfg, hp, members=[m], backend="numpy")[0] for m in members]
        aborted, survivor, stopped = batch
        assert isinstance(aborted, NumericAbort) and len(aborted.run_log) == 30
        assert "index 30" in str(aborted)
        assert not survivor.stopped and len(survivor.run_log) == 60
        assert stopped.stopped and stopped.stop_reason == "gibberish" and len(stopped.run_log) == 34
        for got, ref in zip(batch, alone):
            assert_identical_runs(got, ref)
        # the last good state is the span boundary before the failure
        with np.errstate(invalid="ignore", over="ignore"):
            (clean,) = train_members(make_dataset(stream.questions[:28]), cfg, hp, members=[0])
        assert aborted.params.answer_weights.tobytes() == clean.params.answer_weights.tobytes()
        assert aborted.baseline.tobytes() == clean.baseline.tobytes()

    def test_members_validated(self):
        stream = small_stream(5)
        for bad in ([], [0, 0], [-1]):
            with pytest.raises(ValidationError, match="members"):
                train_members(stream, TrainConfig(), HyperParams(), members=bad)

    def test_dpo_members_match_single_runs(self):
        stream = small_stream(30)
        hp = HyperParams(dpo_lr=1e-3)
        a, b = train_members(stream, TrainConfig(algorithm="dpo", seed=11), hp, members=[0, 1])
        for m, got in ((0, a), (1, b)):
            ref = train_dpo(stream, TrainConfig(algorithm="dpo", seed=11, member=m), hp)
            assert got.params.answer_weights.tobytes() == ref.params.answer_weights.tobytes()


class TestVectorizedPredict:
    def test_matches_per_question_path_byte_for_byte(self):
        """Dataset prediction agrees exactly with one question at a time,
        on trained policies, an argmax tie, and an abstaining policy."""
        stream = small_stream(300, d=3, seed=2)
        hp = HyperParams(actor_lr=0.02)
        trained = [r.params for r in train_members(stream, TrainConfig(seed=3), hp, members=[0, 1, 2])]
        tie = PolicyParams.zeros(3)
        tie.answer_weights[0, [40, 7, 93]] = 2.0
        abstain = PolicyParams.zeros(3)
        abstain.answer_weights[1, ABSTAIN] = 3.0  # abstains where feature 0 is positive
        for params in trained + [tie, abstain]:
            expected = {q.id: predict_probability(params, q.features) for q in stream}
            assert predict_dataset(params, stream) == expected
        assert predict(tie, stream.questions[0]) == 0.07
        assert None in predict_dataset(abstain, stream).values()

        spec = EnsembleSpec(trained + [abstain])
        ensemble = ensemble_predict_dataset(spec, stream)
        for q in stream:
            present = [p for p in (predict_probability(m, q.features) for m in spec.members) if p is not None]
            if not present:
                assert ensemble[q.id] is None
            elif min(present) == max(present):
                assert ensemble[q.id] == present[0]
            else:
                assert ensemble[q.id] == sum(present) / len(present)
