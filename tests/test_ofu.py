import dataclasses

import numpy as np
import pytest

from olsofu.errors import ContractViolationError, InvalidArgumentError
from olsofu.estimator import MarginalEstimate
from olsofu.harness import Scenario, run_online
from olsofu.models import forward, init_model, with_updates
from olsofu.numkit import make_rng
from olsofu.ofu import (
    OfuRuntime,
    Predictor,
    SslSpec,
    compose_output,
    feature_update,
    init_ofu_state,
    ols_ofu_step,
    ssl_loss_grad,
)
from olsofu.ols import make_strategy


def make_runtime(pre, ssl, run_seed=99, retrain_max_iter=40):
    return OfuRuntime(
        train=pre.train,
        val=pre.val,
        q0=pre.q0,
        ssl=ssl,
        reg_lambda=0.01,
        rng=make_rng(run_seed),
        retrain_max_iter=retrain_max_iter,
        retrain_grad_tol=Scenario.retrain_grad_tol,
    )


class TestSslLoss:
    def test_entropy_of_saturated_model_is_zero(self):
        m = init_model(4, 3, rng=make_rng(0))
        m = with_updates(m, linear_w=m.linear_w * 1e4)
        loss, _ = ssl_loss_grad(SslSpec(kind="entropy"), np.eye(4)[:3] * 10, m, make_rng(1))
        assert loss < 1e-6

    def test_entropy_of_uniform_model_is_log_k(self, rng):
        m = init_model(4, 5, rng=make_rng(0))
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        x = rng.standard_normal((6, 4))
        loss, _ = ssl_loss_grad(SslSpec(kind="entropy"), x, m, make_rng(1))
        assert loss == pytest.approx(np.log(5), abs=1e-9)

    def test_classification_head_gradient_zeroed(self, rng):
        m = init_model(4, 3, rng=make_rng(2))
        x = rng.standard_normal((6, 4))
        _, grads = ssl_loss_grad(SslSpec(kind="entropy"), x, m, make_rng(3))
        g = m.views(grads)
        assert np.abs(g.linear_w).max() == 0.0
        assert any(np.abs(w).max() > 0 for w in g.feat_weights)

    def test_infonce_requires_two_inputs(self, rng):
        m = init_model(4, 3, rng=make_rng(2))
        with pytest.raises(InvalidArgumentError):
            ssl_loss_grad(SslSpec(kind="infonce"), rng.standard_normal((1, 4)), m,
                          make_rng(3))


class TestFeatureUpdate:
    def test_zero_learning_rate_is_identity(self, rng):
        m = init_model(4, 3, rng=make_rng(0))
        out = feature_update(
            m, rng.standard_normal((5, 4)), SslSpec(kind="entropy", ssl_lr=0.0),
            make_rng(1),
        )
        for wa, wb in zip(m.feat_weights, out.feat_weights):
            np.testing.assert_array_equal(wa, wb)

    def test_none_kind_rejected(self, rng):
        m = init_model(4, 3, rng=make_rng(0))
        with pytest.raises(ContractViolationError):
            feature_update(m, rng.standard_normal((5, 4)), SslSpec(kind="none"),
                           make_rng(1))

    def test_entropy_step_descends(self, rng):
        from olsofu.models import entropy_loss_grad

        m = init_model(4, 3, rng=make_rng(4))
        x = rng.standard_normal((16, 4))
        before = entropy_loss_grad(m, x)[0]
        stepped = feature_update(
            m, x, SslSpec(kind="entropy", ssl_lr=0.05), make_rng(5)
        )
        assert entropy_loss_grad(stepped, x)[0] < before

    def test_classification_head_untouched(self, rng):
        m = init_model(4, 3, rng=make_rng(6))
        out = feature_update(
            m, rng.standard_normal((8, 4)), SslSpec(kind="rotation", ssl_lr=0.1),
            make_rng(7),
        )
        np.testing.assert_array_equal(m.linear_w, out.linear_w)
        np.testing.assert_array_equal(m.linear_b, out.linear_b)
        assert not np.array_equal(m.ssl_w, out.ssl_w)  # rotation head co-trains


class TestOlsOfuStep:
    def test_labels_cannot_reach_adaptation(self, small_pretrained, rng):
        pre = small_pretrained
        runtime = make_runtime(pre, SslSpec(kind="none"))
        strategy = make_strategy("fth", pre.q0, 100, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        batch = pre.pool.inputs[:10]
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, (batch, np.zeros(10, dtype=int)), runtime)

    def test_batch_accumulation_schedule(self, small_pretrained):
        pre = small_pretrained
        ssl = SslSpec(kind="entropy", ssl_lr=0.01, ba=5)
        runtime = make_runtime(pre, ssl)
        strategy = make_strategy("fth", pre.q0, 100, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        for t in range(1, 24):
            ols_ofu_step(state, pre.pool.inputs[10 * t : 10 * (t + 1)], runtime)
            assert len(state.buffer) < 5
            if t % 5 == 0:
                assert len(state.buffer) == 0
        assert state.feature_updates_done == 23 // 5

    @pytest.mark.parametrize("algorithm", ["fth", "rogd", "uogd"])
    def test_refresh_reuses_forwards_exactly(self, small_pretrained, algorithm):
        # A refresh reuses the retrain's train features and the
        # calibration's validation logits; that must equal recomputing both.
        # It builds only the context fields the strategy reads.
        from olsofu.estimator import confusion_matrix, regularize_confusion
        from olsofu.ofu import build_context
        from olsofu.ols import CONTEXT_FIELDS

        pre = small_pretrained
        runtime = make_runtime(pre, SslSpec(kind="rotation", ssl_lr=0.05))
        strategy = make_strategy(algorithm, pre.q0, 100, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        ols_ofu_step(state, pre.pool.inputs[:10], runtime)
        assert state.feature_updates_done == 1
        fresh = build_context(state.model, pre.train, pre.q0)
        for name in ("xt", "train_probs", "class_counts"):
            if name in CONTEXT_FIELDS and name not in strategy.reads:
                assert getattr(state.ctx, name) is None
                continue
            np.testing.assert_array_equal(getattr(state.ctx, name), getattr(fresh, name))
        conf = regularize_confusion(confusion_matrix(state.model, pre.val), 0.01)
        np.testing.assert_array_equal(state.confusion.matrix, conf.matrix)
        assert state.confusion.sigma_min == conf.sigma_min
        assert state.confusion.model_uid == state.model.uid

    def test_estimate_from_another_model_rejected(self, small_pretrained):
        from olsofu.estimator import bbse_estimate

        pre = small_pretrained
        runtime = make_runtime(pre, SslSpec(kind="rotation", ssl_lr=0.05))
        strategy = make_strategy("fth", pre.q0, 100, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        batch = pre.pool.inputs[:10]
        est = bbse_estimate(state.model, state.confusion, batch)
        ols_ofu_step(state, batch, runtime, est)  # refreshes the model
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, pre.pool.inputs[10:20], runtime, est)
        s = np.full(4, 0.25)
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, batch, runtime, MarginalEstimate(s, s))

    def test_ssl_none_keeps_model_fixed(self, small_pretrained):
        pre = small_pretrained
        runtime = make_runtime(pre, SslSpec(kind="none"))
        strategy = make_strategy("flhftl", pre.q0, 50, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        for t in range(10):
            ols_ofu_step(state, pre.pool.inputs[10 * t : 10 * (t + 1)], runtime)
        assert state.model.uid == pre.model.uid

    def test_estimate_uses_pre_batch_model(self, small_pretrained, monkeypatch):
        # Ordering audit: every estimate is computed from the model
        # finalized before the current batch was revealed.
        import olsofu.ofu as ofu_mod

        est_uids, end_uids = [], []
        original = ofu_mod.bbse_estimate

        def recording(model, *args, **kwargs):
            est_uids.append(model.uid)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(ofu_mod, "bbse_estimate", recording)
        pre = small_pretrained
        ssl = SslSpec(kind="rotation", ssl_lr=0.02, ba=2)
        runtime = make_runtime(pre, ssl)
        strategy = make_strategy("fth", pre.q0, 60, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        for t in range(12):
            _, rec = ols_ofu_step(state, pre.pool.inputs[10 * t : 10 * (t + 1)], runtime)
            end_uids.append(rec.end_model_uid)
        assert est_uids[0] == pre.model.uid
        for t in range(1, 12):
            assert est_uids[t] == end_uids[t - 1]
        assert len(set(end_uids)) == 7  # six updates plus the initial model


class TestComposeOutput:
    def test_identity_reweight_equals_base(self, small_pretrained, rng):
        pre = small_pretrained
        strategy = make_strategy("fth", pre.q0, 100, pre.model, pre.sigma_min)
        predictor = compose_output(pre.model, strategy, pre.q0)
        x = rng.standard_normal((10, 8))
        base_probs, _, _ = forward(pre.model, x)
        np.testing.assert_allclose(predictor.predict_proba(x), base_probs, atol=1e-12)

    def test_head_strategy_ignores_reweighting(self, small_pretrained, rng):
        pre = small_pretrained
        strategy = make_strategy("uogd", pre.q0, 100, pre.model, pre.sigma_min)
        predictor = compose_output(pre.model, strategy, pre.q0)
        assert predictor.ratio is None
        w, b = strategy.head()
        np.testing.assert_array_equal(predictor.head[0], w)
        np.testing.assert_array_equal(predictor.head[1], b)
        x = rng.standard_normal((10, 8))
        expected, _, _ = forward(with_updates(pre.model, linear_w=w, linear_b=b), x)
        np.testing.assert_array_equal(predictor.predict_proba(x), expected)

    def test_reweights_base_by_p_over_q0(self, small_pretrained, rng):
        from olsofu.estimator import MarginalEstimate
        from olsofu.numkit import project_simplex

        pre = small_pretrained
        strategy = make_strategy("flhftl", pre.q0, 100, pre.model, pre.sigma_min)
        s = project_simplex(np.array([0.5, 0.3, 0.4, -0.1]))
        strategy.step(None, MarginalEstimate(s, s))
        predictor = compose_output(pre.model, strategy, pre.q0)
        reference = Predictor(pre.model, strategy.reweight_vector() / pre.q0)
        for _ in range(20):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(predictor.predict_proba(x),
                                       reference.predict_proba(x), atol=1e-12)

class TestFeatureDriftGuardrail:
    def test_source_accuracy_preserved_under_updates(self, small_scenario, small_pretrained):
        # A few hundred steps of entropy updates on shifted batches must not
        # degrade source-distribution accuracy by more than five points.
        from olsofu.models import accuracy

        pre = small_pretrained
        sc = dataclasses.replace(
            small_scenario,
            shift=dataclasses.replace(small_scenario.shift, horizon=300),
            ssl=SslSpec(kind="entropy", ssl_lr=0.01, ba=5),
            retrain_max_iter=60,
        )
        runtime = make_runtime(pre, sc.ssl)
        strategy = make_strategy("fth", pre.q0, 300, pre.model, pre.sigma_min)
        state = init_ofu_state(pre.model, strategy, runtime)
        rng = make_rng(11)
        for t in range(300):
            rows = rng.integers(len(pre.pool), size=10)
            ols_ofu_step(state, pre.pool.inputs[rows], runtime)
        base_acc = accuracy(pre.model, pre.pool)
        final_acc = accuracy(state.model, pre.pool)
        assert final_acc >= base_acc - 0.05
