import dataclasses

import numpy as np
import pytest

from olsofu.errors import (
    InvalidArgumentError,
    RunError,
    UndefinedCorrelationError,
)
from olsofu.harness import (
    CHUNK_STEPS,
    Scenario,
    base_error_reference,
    improvement_check,
    oracle_trace,
    pearson,
    pretrain,
    ordering_bias_test,
    run_bare_ols,
    run_online,
)
from olsofu.models import ModelParams, TrainConfig
from olsofu.numkit import make_rng
from olsofu.ofu import (
    OfuRuntime,
    Predictor,
    SslSpec,
    compose_output,
    init_ofu_state,
    ols_ofu_step,
)
from olsofu.ols import make_strategy
from olsofu.synthdata import (
    DataSpec,
    ShiftPattern,
    default_means,
    default_pattern,
    marginal_at,
    realize_pattern,
    sample_batch,
    uniform_simplex,
)


def constant_at_uniform(k, horizon):
    u = uniform_simplex(k)
    return ShiftPattern("constant", u, u, horizon)


class TestRunOnline:
    def test_base_error_matches_held_out_reference(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario,
            algorithm="none",
            shift=constant_at_uniform(4, 200),
        )
        trace = run_online(sc, small_pretrained)
        reference = base_error_reference(small_pretrained)
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
        import olsofu.harness as harness_mod

        calls = {"n": 0}
        original = harness_mod.sample_batch

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise InvalidArgumentError("injected failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness_mod, "sample_batch", failing)
        with pytest.raises(RunError) as err:
            run_online(small_scenario, small_pretrained)
        assert err.value.step == 3
        assert "step 3" in str(err.value)

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
        pattern = realize_pattern(sc.shift, shift_rng)
        expected = []
        for t in range(1, sc.horizon + 1):
            q_t = marginal_at(pattern, t)
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
    """The online protocol one batch at a time: draw, ``ols_ofu_step``
    (which estimates from its own forward) and ``Predictor.predict``.
    Returns (s, errors, snapshots)."""
    shift_rng = make_rng(sc.shift_seed)
    pattern = realize_pattern(sc.shift, shift_rng)
    runtime = OfuRuntime(
        train=pre.train, val=pre.val, q0=pre.q0, ssl=sc.ssl,
        reg_lambda=sc.reg_lambda, rng=make_rng(sc.run_seed),
        retrain_max_iter=sc.retrain_max_iter, retrain_grad_tol=sc.retrain_grad_tol,
    )
    strategy = make_strategy(sc.algorithm, pre.q0, sc.horizon, pre.model,
                             pre.sigma_min, sc.algo_params)
    state = init_ofu_state(pre.model, strategy, runtime)
    predictor = compose_output(state.model, strategy, pre.q0)
    s, errors, snapshots = [], [], []
    for t in range(1, sc.horizon + 1):
        q_t = marginal_at(pattern, t)
        inputs, labels = sample_batch(q_t, sc.batch_size, pre.pool, sc.corruption,
                                      shift_rng)
        if sc.order == "update_first":
            predictor, rec = ols_ofu_step(state, inputs, runtime)
        deployed = Predictor(state.model, q_t / pre.q0) if true_marginal else predictor
        errors.append(int(np.sum(deployed.predict(inputs) != labels)))
        if sc.order == "predict_first":
            predictor, rec = ols_ofu_step(state, inputs, runtime)
        s.append(rec.s_raw)
        snapshots.append(rec.snapshot)
    return np.array(s), np.array(errors), snapshots


class TestSegmentPath:
    @pytest.mark.parametrize("order", ["predict_first", "update_first"])
    @pytest.mark.parametrize(
        "ssl",
        [SslSpec(), SslSpec(kind="rotation", ba=5),
         SslSpec(kind="rotation", ba=CHUNK_STEPS + 7)],
        ids=["none", "rotation", "rotation-long-segment"],
    )
    @pytest.mark.parametrize("algorithm", ["fth", "uogd"])
    def test_loops_match_per_step_reference(self, small_scenario, small_pretrained,
                                            algorithm, ssl, order):
        # The horizon is not a multiple of the chunk size, so the last
        # chunk is short; with rotation every refresh also cuts a chunk, and
        # a segment longer than a chunk spans two chunks of one model.
        pre = small_pretrained
        sc = dataclasses.replace(
            small_scenario, algorithm=algorithm, ssl=ssl, order=order,
            shift=dataclasses.replace(small_scenario.shift,
                                      horizon=2 * CHUNK_STEPS + 13),
            retrain_max_iter=40,
        )
        oracle_sc = dataclasses.replace(sc, algorithm="none")
        runs = [(run_online(sc, pre), per_step_reference(sc, pre)),
                (oracle_trace(sc, frozen=ssl.kind == "none", pretrained=pre),
                 per_step_reference(oracle_sc, pre, true_marginal=True))]
        if ssl.kind == "none":
            runs.append((run_bare_ols(sc, pre), runs[0][1]))
        for trace, (s, errors, snapshots) in runs:
            np.testing.assert_array_equal(trace.errors, errors)
            assert np.abs(trace.s - s).max() <= 1e-14
            assert len(trace.snapshots) == len(snapshots)
            for a, b in zip(trace.snapshots, snapshots):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


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
        bias_v, _, _ = ordering_bias_test(
            scaled, q, data, pre.train, n_trials=1000, batch_size=5,
            violate_order=True, rng=make_rng(9), violate_val_per_class=500,
            retrain_max_iter=25,
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

    def test_infonce_batch_accumulation_run(self, small_scenario, small_pretrained):
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
        assert len(set(trace.end_model_uids)) == 3

    def test_uogd_with_feature_updates_runs(self, small_scenario, small_pretrained):
        sc = dataclasses.replace(
            small_scenario,
            algorithm="uogd",
            shift=dataclasses.replace(small_scenario.shift, horizon=40),
            ssl=SslSpec(kind="entropy", ssl_lr=0.01, ba=8),
            retrain_max_iter=40,
        )
        trace = run_online(sc, small_pretrained)
        assert 0.0 <= trace.avg_error <= 1.0
        assert len(set(trace.end_model_uids)) == 6


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
