import dataclasses

import numpy as np
import pytest

from olsofu.errors import (
    DataExhaustedError,
    InvalidArgumentError,
    RunError,
    UndefinedCorrelationError,
)
from olsofu.estimator import bbse_estimate, confusion_matrix, regularize_confusion
from olsofu.harness import (
    CHUNK_STEPS,
    CSV_BLOCK_ROWS,
    OnlineTrace,
    Scenario,
    improvement_check,
    oracle_trace,
    pearson,
    pretrain,
    ordering_bias_test,
    run_bare_ols,
    run_online,
)
from olsofu.models import ModelParams, SslSpec, TrainConfig, accuracy
from olsofu.numkit import make_rng
from olsofu.ofu import (
    OfuState,
    Predictor,
    compose_output,
    feature_update,
    ols_ofu_step,
)
from olsofu.ols import make_strategy
from olsofu.synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    default_means,
    default_pattern,
    draw_class_inputs,
    sample_batch,
    uniform_simplex,
)

from conftest import reference_marginals


def constant_at_uniform(k, horizon):
    u = uniform_simplex(k)
    return ShiftPattern("constant", u, u, horizon)


def run_with_undrawable_step(sc, pre, monkeypatch, step):
    """Run ``sc`` with the marginal of ``step`` made NaN inside the chunk
    draw; returns the ``RunError`` it raises."""
    from olsofu import harness

    original = harness.sample_batches
    drawn = {"steps": 0}

    def poisoning(qs, *args):
        row = step - drawn["steps"] - 1
        if 0 <= row < len(qs):
            qs = qs.copy()
            qs[row, 0] = np.nan
        out = original(qs, *args)
        drawn["steps"] += len(qs)
        return out

    monkeypatch.setattr(harness, "sample_batches", poisoning)
    with pytest.raises(RunError) as err:
        run_online(sc, pre)
    return err


def run_until_pool_exhausts(sc, pre, monkeypatch, **changes):
    """Run ``sc`` with ``changes`` on a pool without class 3 under a
    bernoulli shift from one-hot class 0 to uniform, whose first step that
    puts mass on class 3 cannot be drawn. Returns that step, the
    ``RunError`` the run raises, the estimates ``ols_ofu_step`` got and the
    refreshes that ran."""
    from olsofu import harness

    keep = pre.pool.labels != 3
    pool = LabeledSet(pre.pool.inputs[keep], pre.pool.labels[keep])
    shift = ShiftPattern("bernoulli", uniform_simplex(4), np.eye(4)[0], 150,
                         switch_prob=0.05)
    sc = dataclasses.replace(sc, shift=shift, shift_seed=3, **changes)
    qs = reference_marginals(shift, make_rng(sc.shift_seed))
    first = 1 + int(np.flatnonzero(qs[:, 3])[0])
    stepped, refreshes = [], count_refreshes(monkeypatch)
    original = harness.ols_ofu_step

    def counting(state, inputs, est):
        stepped.append(est)
        return original(state, inputs, est)

    monkeypatch.setattr(harness, "ols_ofu_step", counting)
    with pytest.raises(RunError) as err:
        run_online(sc, dataclasses.replace(pre, pool=pool))
    return first, err, stepped, refreshes


class TestRunOnline:
    def test_base_error_matches_held_out_reference(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario,
            algorithm="none",
            shift=constant_at_uniform(4, 200),
        )
        trace = run_online(sc, small_pretrained)
        reference = 1 - accuracy(small_pretrained.model, small_pretrained.pool)
        assert abs(trace.avg_error - reference) < 0.02

    def test_fth_converges_to_constant_marginal(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario,
            algorithm="fth",
            shift=constant_at_uniform(4, 200),
        )
        trace = run_online(sc, small_pretrained)
        assert np.abs(trace.snapshots[-1] - uniform_simplex(4)).sum() < 0.05

    def test_identical_seeds_identical_traces(self, small_scenario, small_pretrained):
        a = run_online(small_scenario, small_pretrained)
        b = run_online(small_scenario, small_pretrained)
        np.testing.assert_array_equal(a.errors, b.errors)
        np.testing.assert_array_equal(a.s, b.s)

    def test_repeated_runs_with_refreshes_write_identical_traces(
        self, small_scenario, small_pretrained, tmp_path
    ):
        # Each run keeps its own head-retrain curvature, so a second run on
        # the same pretrained model starts as cold as the first.
        sc = dataclasses.replace(small_scenario, ssl=SslSpec(kind="rotation", ba=5))
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_online(sc, small_pretrained).to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cumulative_errors_nondecreasing_and_bounded(self, small_scenario, small_pretrained):
        trace = run_online(small_scenario, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        assert np.all(np.diff(trace.cum_errors) >= 0)

    def test_update_first_order_completes(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(small_scenario, order="update_first")
        trace = run_online(sc, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        assert trace.horizon == small_scenario.horizon

    def test_errors_annotated_with_step(self, small_scenario, small_pretrained, monkeypatch):
        err = run_with_undrawable_step(small_scenario, small_pretrained, monkeypatch, 3)
        assert err.value.step == 3
        assert "step 3" in str(err.value)

    def test_errors_in_a_later_chunk_annotated_with_step(self, small_scenario,
                                                         small_pretrained, monkeypatch):
        step = CHUNK_STEPS + 2
        err = run_with_undrawable_step(small_scenario, small_pretrained, monkeypatch, step)
        assert err.value.step == step
        assert f"step {step}: q_t must be finite" in str(err.value)

    def test_exhausted_pool_fails_at_its_step(self, small_scenario, small_pretrained,
                                              monkeypatch):
        # The first undrawable step lies inside a chunk, and every step
        # before it has run.
        first, err, stepped, _ = run_until_pool_exhausts(small_scenario, small_pretrained,
                                                         monkeypatch)
        assert 1 < first and (first - 1) % CHUNK_STEPS  # mid-chunk
        assert err.value.step == first
        assert isinstance(err.value.__cause__, DataExhaustedError)
        assert f"step {first}: test pool has no entries for class 3" in str(err.value)
        assert len(stepped) == first - 1

    def test_exhausted_pool_fails_at_its_step_after_refreshes(self, small_scenario,
                                                              small_pretrained, monkeypatch):
        # A refresh every 5 steps: the chunk holding the first undrawable
        # step was sampled at least two refreshes before that step, and the
        # segments before it still ran, refreshes and all.
        first, err, stepped, refreshes = run_until_pool_exhausts(
            small_scenario, small_pretrained, monkeypatch,
            ssl=SslSpec(kind="rotation", ba=5), retrain_max_iter=40,
        )
        assert (first - 1) % CHUNK_STEPS >= 2 * 5
        assert err.value.step == first
        assert isinstance(err.value.__cause__, DataExhaustedError)
        assert len(stepped) == first - 1
        assert len(refreshes) == (first - 1) // 5

    def test_trace_csv_round_trips(self, small_scenario, small_pretrained, tmp_path):
        import csv

        trace = run_online(small_scenario, small_pretrained)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (
            ["t"] + [f"q{i}" for i in range(4)] + [f"s{i}" for i in range(4)]
            + ["errors", "cum_errors"]
        )
        assert len(rows) == trace.horizon + 1
        assert float(rows[1][1]) == trace.q[0, 0]
        assert int(rows[-1][-1]) == int(trace.cum_errors[-1])


def reference_trace_csv(trace, path):
    """``trace``'s CSV through ``csv.writer``, one row of cells per step."""
    import csv

    k = trace.q.shape[1]
    cum = trace.cum_errors
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"q{i}" for i in range(k)] + [f"s{i}" for i in range(k)]
                        + ["errors", "cum_errors"])
        writer.writerows(
            [t + 1] + [repr(float(v)) for v in trace.q[t]]
            + [repr(float(v)) for v in trace.s[t]]
            + [int(trace.errors[t]), int(cum[t])]
            for t in range(trace.horizon)
        )


class TestTraceCsv:
    AWKWARD = [1e-05, -0.0, 0.1 + 0.2, 1e16, 5e-324, 0.25, 1.0, 2.5e-310, 123456789.0]

    @pytest.mark.parametrize("horizon", [1, CSV_BLOCK_ROWS + 1, 1000])
    def test_bytes_match_csv_writer(self, horizon, tmp_path):
        rng = make_rng(horizon)
        values = np.array(self.AWKWARD)
        trace = OnlineTrace(
            q=rng.choice(values, size=(horizon, 3)), s=rng.choice(values, size=(horizon, 3)),
            errors=rng.integers(0, 11, size=horizon), batch_size=10,
            sigma_min=np.ones(horizon),
        )
        trace.to_csv(tmp_path / "new.csv")
        reference_trace_csv(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestPretrain:
    def test_confusion_is_the_loops_measurement(self, small_scenario, small_pretrained):
        # The loops read the confusion pretraining measured from the
        # calibration's validation logits; it must equal measuring it anew.
        pre = small_pretrained
        fresh = regularize_confusion(confusion_matrix(pre.model, pre.val),
                                     small_scenario.reg_lambda)
        np.testing.assert_array_equal(pre.confusion.matrix, fresh.matrix)
        assert pre.confusion.sigma_min == fresh.sigma_min
        assert pre.confusion.model_uid == fresh.model_uid == pre.model.uid

    def test_infonce_pretraining_reads_only_the_infonce_settings_of_ssl(
        self, small_scenario
    ):
        sc = dataclasses.replace(small_scenario, pretrain_ssl="infonce",
                                 train_cfg=TrainConfig(epochs=2))

        def pretrained_theta(**ssl):
            return pretrain(dataclasses.replace(sc, ssl=SslSpec(**ssl))).model.theta

        base = pretrained_theta()
        for changed in ({"infonce_temperature": 0.2}, {"augment_noise": 0.3}):
            assert not np.array_equal(pretrained_theta(**changed), base), changed
        for unread in ({"ssl_lr": 0.5}, {"ba": 7}, {"inner_steps": 3},
                       {"kind": "rotation"}):
            np.testing.assert_array_equal(pretrained_theta(**unread), base, str(unread))


class TestOracle:
    def test_no_shift_oracle_equals_base(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario, algorithm="none", shift=constant_at_uniform(4, 150)
        )
        base = run_online(sc, small_pretrained)
        oracle = oracle_trace(sc, frozen=True, pretrained=small_pretrained)
        np.testing.assert_array_equal(base.errors, oracle.errors)

    def test_frozen_and_unfrozen_agree_without_ssl(self, small_scenario, small_pretrained):
        frozen = oracle_trace(small_scenario, frozen=True, pretrained=small_pretrained)
        unfrozen = oracle_trace(small_scenario, frozen=False, pretrained=small_pretrained)
        np.testing.assert_array_equal(frozen.errors, unfrozen.errors)

    def test_improvement_check_degenerates_without_ssl(self, small_scenario, small_pretrained):
        lhs, rhs, _ = improvement_check(small_scenario, small_pretrained)
        assert abs(lhs - rhs) < 0.01

    def test_oracle_beats_base_under_shift(self, small_scenario, small_pretrained):
        base = run_online(
            dataclasses.replace(small_scenario, algorithm="none"), small_pretrained
        )
        oracle = oracle_trace(small_scenario, frozen=True, pretrained=small_pretrained)
        assert oracle.avg_error < base.avg_error

    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    def test_frozen_oracle_reweights_pretrained_model_by_true_marginal(
        self, small_scenario, small_pretrained, order
    ):
        # Rebuild the batch stream from the shift seed and count, per step,
        # the errors of f_0 reweighted by q_t / q0. The frozen oracle must
        # ignore both the strategy and the SSL settings of the scenario.
        pre = small_pretrained
        sc = dataclasses.replace(
            small_scenario,
            algorithm="uogd",
            ssl=SslSpec(kind="rotation", ba=5),
            retrain_max_iter=20,
            order=order,
        )
        shift_rng = make_rng(sc.shift_seed)
        expected = []
        for q_t in reference_marginals(sc.shift, shift_rng):
            inputs, labels = sample_batch(
                q_t, sc.batch_size, pre.pool, sc.corruption, shift_rng
            )
            predicted = Predictor(pre.model, q_t / pre.q0).predict(inputs)
            expected.append(int(np.sum(predicted != labels)))
        trace = oracle_trace(sc, frozen=True, pretrained=pre)
        np.testing.assert_array_equal(trace.errors, expected)


class TestWrapperDegeneracy:
    @pytest.mark.parametrize("algorithm", ["fth", "rogd", "uogd"])
    def test_wrapper_equals_bare(self, small_scenario, small_pretrained, algorithm):
        sc = dataclasses.replace(small_scenario, algorithm=algorithm)
        wrapper = run_online(sc, small_pretrained)
        bare = run_bare_ols(sc, small_pretrained)
        np.testing.assert_array_equal(wrapper.errors, bare.errors)
        np.testing.assert_array_equal(wrapper.s, bare.s)
        for a, b in zip(wrapper.snapshots, bare.snapshots):
            np.testing.assert_array_equal(a, b)


def per_step_reference(sc, pre, true_marginal=False):
    """The online protocol one batch at a time: ``reference_marginals``,
    then per step a draw, ``bbse_estimate``, ``ols_ofu_step`` and
    ``Predictor.predict``. Returns (q, s, sigma_min, errors, snapshots),
    sigma_min that of the confusion before each step."""
    shift_rng = make_rng(sc.shift_seed)
    qs = reference_marginals(sc.shift, shift_rng)
    strategy = make_strategy(sc.algorithm, pre.q0, sc.horizon, pre.model,
                             pre.confusion.sigma_min, sc.algo_params)
    state = OfuState(
        model=pre.model, confusion=pre.confusion, strategy=strategy, train=pre.train,
        val=pre.val, ssl=sc.ssl, reg_lambda=sc.reg_lambda,
        rng=make_rng(sc.run_seed), retrain_max_iter=sc.retrain_max_iter,
    )
    predictor = compose_output(state.model, strategy)
    s, sigma_min, errors, snapshots = [], [], [], []
    for q_t in qs:
        inputs, labels = sample_batch(q_t, sc.batch_size, pre.pool, sc.corruption,
                                      shift_rng)
        est = bbse_estimate(state.model, state.confusion, inputs)
        sigma_min.append(state.confusion.sigma_min)
        if sc.order == "update_first":
            predictor = ols_ofu_step(state, inputs, est)
        deployed = Predictor(state.model, q_t / pre.q0) if true_marginal else predictor
        errors.append(int(np.sum(deployed.predict(inputs) != labels)))
        if sc.order == "predict_first":
            predictor = ols_ofu_step(state, inputs, est)
        s.append(est.s)
        snapshots.append(state.strategy.snapshot())
    return qs, np.array(s), np.array(sigma_min), np.array(errors), snapshots


def assert_loops_match_per_step_reference(sc, pre, **changes):
    """``run_online``, the matching oracle and, without SSL, ``run_bare_ols``
    on ``sc`` with ``changes`` over 2 * CHUNK_STEPS + 13 steps agree with
    ``per_step_reference``: marginals, sigma_min and error counts exactly,
    estimates and snapshots to rounding."""
    shift = changes.pop("shift", sc.shift)
    sc = dataclasses.replace(
        sc, **changes, retrain_max_iter=40,
        shift=dataclasses.replace(shift, horizon=2 * CHUNK_STEPS + 13),
    )
    oracle_sc = dataclasses.replace(sc, algorithm="none")
    runs = [(run_online(sc, pre), per_step_reference(sc, pre)),
            (oracle_trace(sc, frozen=sc.ssl.kind == "none", pretrained=pre),
             per_step_reference(oracle_sc, pre, true_marginal=True))]
    if sc.ssl.kind == "none":
        runs.append((run_bare_ols(sc, pre), runs[0][1]))
    for trace, (q, s, sigma_min, errors, snapshots) in runs:
        np.testing.assert_array_equal(trace.q, q)
        np.testing.assert_array_equal(trace.sigma_min, sigma_min)
        np.testing.assert_array_equal(trace.errors, errors)
        assert np.abs(trace.s - s).max() <= 1e-14
        assert len(trace.snapshots) == len(snapshots)
        for a, b in zip(trace.snapshots, snapshots):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestSegmentPath:
    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    @pytest.mark.parametrize(
        "ssl",
        [SslSpec(), SslSpec(kind="rotation", ba=5),
         SslSpec(kind="rotation", ba=CHUNK_STEPS + 7)],
        ids=["none", "rotation", "rotation-long-segment"],
    )
    @pytest.mark.parametrize("algorithm", ["fth", "ftfwh", "rogd", "flhftl", "uogd", "atlas"])
    def test_loops_match_per_step_reference(self, small_scenario, small_pretrained,
                                            algorithm, ssl, order):
        # The horizon is not a multiple of the chunk size, so the last
        # chunk is short; with rotation every refresh also ends a segment
        # within a sampled chunk, and a segment longer than a chunk spans
        # two chunks of one model.
        assert_loops_match_per_step_reference(small_scenario, small_pretrained,
                                              algorithm=algorithm, ssl=ssl, order=order)

    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    @pytest.mark.parametrize("ba", [3, CHUNK_STEPS], ids=["uneven", "chunk"])
    @pytest.mark.parametrize("algorithm", ["flhftl", "atlas"])
    def test_segments_within_sampled_chunks_match_per_step_reference(
        self, small_scenario, small_pretrained, algorithm, ba, order
    ):
        # Batches are sampled a chunk at a time across refreshes and each
        # segment forwards its own rows: at ba=3 a segment straddles every
        # sampled chunk's end, at ba=CHUNK_STEPS the two coincide.
        assert_loops_match_per_step_reference(
            small_scenario, small_pretrained, algorithm=algorithm, order=order,
            ssl=SslSpec(kind="rotation", ba=ba),
        )

    def test_batches_are_sampled_a_chunk_at_a_time_across_refreshes(
        self, small_scenario, small_pretrained, monkeypatch
    ):
        from olsofu import harness

        calls, original = [], harness.sample_batches

        def counting(qs, *args):
            calls.append(len(qs))
            return original(qs, *args)

        monkeypatch.setattr(harness, "sample_batches", counting)
        refreshes = count_refreshes(monkeypatch)
        horizon = 2 * CHUNK_STEPS + 13
        sc = dataclasses.replace(
            small_scenario, algorithm="fth", ssl=SslSpec(kind="rotation", ba=5),
            shift=dataclasses.replace(small_scenario.shift, horizon=horizon),
            retrain_max_iter=40,
        )
        run_online(sc, small_pretrained)
        assert len(refreshes) == horizon // 5
        assert calls == [CHUNK_STEPS, CHUNK_STEPS, 13]  # ceil(horizon / CHUNK_STEPS)

    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    @pytest.mark.parametrize("algorithm", ["fth", "atlas"])
    def test_corrupted_loops_match_per_step_reference(self, small_scenario,
                                                      small_pretrained, algorithm, order):
        # Gaussian noise is drawn per batch in the chunk draw and added in one
        # pass; the runs still see the per-step reference's batches.
        assert_loops_match_per_step_reference(
            small_scenario, small_pretrained, algorithm=algorithm, order=order,
            ssl=SslSpec(kind="rotation", ba=5),
            corruption=CorruptionSpec(kind="gaussian_noise", severity=0.5),
        )

    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    def test_bernoulli_loops_match_per_step_reference(self, small_scenario,
                                                      small_pretrained, order):
        # A bernoulli pattern draws its switches from the shift rng before
        # any batch; the stream's marginal path must match the step-by-step
        # ``reference_marginals``, and the batches after it.
        assert_loops_match_per_step_reference(
            small_scenario, small_pretrained, algorithm="flhftl", order=order,
            ssl=SslSpec(kind="rotation", ba=5), shift=default_pattern("bernoulli", 4, 150),
        )

    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    def test_estimates_come_from_pre_batch_model(self, small_scenario, small_pretrained,
                                                 monkeypatch, order):
        # Ordering audit of the loop: each step's estimate is computed from
        # the model the previous step ended with, never one adapted on its
        # own batch.
        from olsofu import harness

        est_uids, end_uids = [], []
        estimates, step = harness.bbse_estimates, harness.ols_ofu_step

        def recording_estimates(*args, **kwargs):
            out = estimates(*args, **kwargs)
            est_uids.extend(e.model_uid for e in out)
            return out

        def recording_step(state, *args, **kwargs):
            out = step(state, *args, **kwargs)
            end_uids.append(state.model.uid)
            return out

        monkeypatch.setattr(harness, "bbse_estimates", recording_estimates)
        monkeypatch.setattr(harness, "ols_ofu_step", recording_step)
        pre = small_pretrained
        sc = dataclasses.replace(
            small_scenario, algorithm="fth", order=order,
            ssl=SslSpec(kind="rotation", ssl_lr=0.02, ba=2),
            shift=dataclasses.replace(small_scenario.shift, horizon=60),
            retrain_max_iter=40,
        )
        run_online(sc, pre)
        assert est_uids == [pre.model.uid] + end_uids[:-1]
        assert len(set(end_uids)) == 31  # 30 refreshes and f0


class TestProp1:
    def test_exact_estimator_has_zero_bias(self):
        # Widely separated classes with saturated logits give exactly
        # one-hot predictions, so each trial recovers q exactly.
        k, d = 3, 4
        data = DataSpec(
            k=k, d=d, class_means=default_means(k, d, 60.0),
            class_cov_scale=1e-4, n_train=150, n_test_pool=60,
        )
        sc = Scenario(
            data=data,
            shift=default_pattern("constant", k, 5),
            train_cfg=TrainConfig(epochs=25),
        )
        pre = pretrain(sc)
        scaled = dataclasses.replace(
            pre.model, linear_w=pre.model.linear_w * 200.0,
            linear_b=pre.model.linear_b * 200.0,
        )
        q = np.eye(k)[1]
        bias, _, _ = ordering_bias_test(
            scaled, q, data, pre.train, n_trials=1000, batch_size=5,
            violate_order=False, rng=make_rng(8), clean_val_per_class=2000,
        )
        np.testing.assert_allclose(bias, 0.0, atol=1e-12)
        # On this saturated model the violating trials' entropy step has an
        # exactly zero gradient and leaves the model as it is, so the half
        # below checks the unchanged model's estimate; P4 is the check on a
        # model that the step moves.
        batch = draw_class_inputs(data.class_means, data.class_cov_scale,
                                  np.full(5, 1), make_rng(9))
        bumped = feature_update(scaled, batch, SslSpec(kind="entropy", ssl_lr=0.5),
                                make_rng(9))
        np.testing.assert_array_equal(bumped.theta, scaled.theta)
        bias_v, _, _ = ordering_bias_test(
            scaled, q, data, pre.train, n_trials=1000, batch_size=5,
            violate_order=True, rng=make_rng(9), violate_val_per_class=500,
        )
        assert np.abs(bias_v).max() < 5e-3

    def test_requires_enough_trials(self, small_pretrained, small_scenario):
        with pytest.raises(InvalidArgumentError):
            ordering_bias_test(
                small_pretrained.model, uniform_simplex(4), small_scenario.data,
                small_pretrained.train, n_trials=10, batch_size=5,
                violate_order=False, rng=make_rng(0),
            )


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_reference_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pearson([1, 2], [1, 2, 3])


def count_refreshes(monkeypatch) -> list:
    """A list that gets one entry per ``ofu.refresh`` call from now on."""
    from olsofu import ofu

    calls, refresh = [], ofu.refresh

    def counting(*args, **kwargs):
        calls.append(None)
        return refresh(*args, **kwargs)

    monkeypatch.setattr(ofu, "refresh", counting)
    return calls


class TestEndToEnd:
    def test_bernoulli_shift_runs(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario,
            algorithm="flhftl",
            shift=default_pattern("bernoulli", 4, 150),
        )
        trace = run_online(sc, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        assert trace.shift_severity > 0

    def test_infonce_batch_accumulation_run(self, small_scenario, small_pretrained,
                                            monkeypatch):
        refreshes = count_refreshes(monkeypatch)
        sc = dataclasses.replace(
            small_scenario,
            algorithm="fth",
            shift=dataclasses.replace(small_scenario.shift, horizon=25),
            ssl=SslSpec(kind="infonce", ssl_lr=0.005, ba=10),
            retrain_max_iter=40,
        )
        trace = run_online(sc, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        # two buffer flushes in 25 steps at ba=10
        assert len(refreshes) == 2

    def test_uogd_with_feature_updates_runs(self, small_scenario, small_pretrained,
                                            monkeypatch):
        refreshes = count_refreshes(monkeypatch)
        sc = dataclasses.replace(
            small_scenario,
            algorithm="uogd",
            shift=dataclasses.replace(small_scenario.shift, horizon=40),
            ssl=SslSpec(kind="entropy", ssl_lr=0.01, ba=8),
            retrain_max_iter=40,
        )
        trace = run_online(sc, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        assert len(refreshes) == 5


class TestSeedIsolation:
    def test_algorithms_share_batch_stream(self, small_scenario, small_pretrained):
        # Scenarios differing only in algorithm see identical marginals and
        # estimates (the run seed feeds algorithm-side randomness only).
        a = run_online(
            dataclasses.replace(small_scenario, algorithm="fth"), small_pretrained
        )
        b = run_online(
            dataclasses.replace(small_scenario, algorithm="flhftl"), small_pretrained
        )
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.s, b.s)
