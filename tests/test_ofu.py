import dataclasses

import numpy as np
import pytest

from olsofu.errors import ContractViolationError, InvalidArgumentError
from olsofu.estimator import MarginalEstimate, bbse_estimate
from olsofu.models import SslSpec, backward, forward, head_output, init_model, with_updates
from olsofu.numkit import make_rng
from olsofu.ofu import (
    OfuState,
    Predictor,
    calibrate,
    compose_output,
    feature_update,
    ols_ofu_step,
    predict_stacked,
    refresh,
)
from olsofu.ols import make_strategy, reweight_probs


def make_state(pre, ssl, algorithm="fth", horizon=100, run_seed=99, retrain_max_iter=40):
    strategy = make_strategy(algorithm, pre.q0, horizon, pre.model, pre.confusion.sigma_min)
    return OfuState(
        model=pre.model,
        confusion=pre.confusion,
        strategy=strategy,
        train=pre.train,
        val=pre.val,
        ssl=ssl,
        reg_lambda=0.01,
        rng=make_rng(run_seed),
        retrain_max_iter=retrain_max_iter,
    )


def step(state, x):
    """``ols_ofu_step`` on the estimate from the model before the batch."""
    return ols_ofu_step(state, x, bbse_estimate(state.model, state.confusion, x))


class TestSslLoss:
    def test_entropy_of_saturated_model_is_zero(self):
        m = init_model(4, 3, rng=make_rng(0))
        m = with_updates(m, linear_w=m.linear_w * 1e4)
        loss, _ = backward(m, np.eye(4)[:3] * 10, SslSpec(kind="entropy"), make_rng(1))
        assert loss < 1e-6

    def test_entropy_of_uniform_model_is_log_k(self, rng):
        m = init_model(4, 5, rng=make_rng(0))
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        x = rng.standard_normal((6, 4))
        loss, _ = backward(m, x, SslSpec(kind="entropy"), make_rng(1))
        assert loss == pytest.approx(np.log(5), abs=1e-9)

    def test_classification_head_gradient_zeroed(self, rng):
        # Entropy's gradient reaches the classification head; the update
        # moves only the feature extractor.
        m = init_model(4, 3, rng=make_rng(2))
        x = rng.standard_normal((6, 4))
        spec = SslSpec(kind="entropy", ssl_lr=0.1)
        _, g = backward(m, x, spec, make_rng(3))
        assert np.abs(m.views(g).linear_w).max() > 0
        out = feature_update(m, x, spec, make_rng(3))
        np.testing.assert_array_equal(m.linear_w, out.linear_w)
        np.testing.assert_array_equal(m.linear_b, out.linear_b)
        assert not np.array_equal(m.feat_weights[0], out.feat_weights[0])

    def test_infonce_requires_two_inputs(self, rng):
        m = init_model(4, 3, rng=make_rng(2))
        with pytest.raises(InvalidArgumentError):
            backward(m, rng.standard_normal((1, 4)), SslSpec(kind="infonce"), make_rng(3))


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
        state = make_state(pre, SslSpec(kind="none"))
        batch = pre.pool.inputs[:10]
        est = bbse_estimate(state.model, state.confusion, batch)
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, (batch, np.zeros(10, dtype=int)), est)

    def test_batch_accumulation_schedule(self, small_pretrained):
        pre = small_pretrained
        state = make_state(pre, SslSpec(kind="entropy", ssl_lr=0.01, ba=5))
        for t in range(1, 24):
            step(state, pre.pool.inputs[10 * t : 10 * (t + 1)])
            assert len(state.buffer) < 5
            if t % 5 == 0:
                assert len(state.buffer) == 0
        assert state.feature_updates_done == 23 // 5

    @pytest.mark.parametrize(
        "algorithm, refreshes",
        [(a, 1) for a in ("fth", "rogd", "uogd")] + [(a, 0) for a in ("fth", "rogd", "uogd")],
        ids=["fth", "rogd", "uogd", "fth-constructed", "rogd-constructed", "uogd-constructed"],
    )
    def test_refresh_reuses_forwards_exactly(self, small_pretrained, algorithm, refreshes):
        # A refresh reuses the retrain's train features and the
        # calibration's validation logits; that must equal recomputing both.
        # The state's construction and each refresh build only the context
        # fields the strategy reads.
        from olsofu.estimator import confusion_matrix, regularize_confusion
        from olsofu.ofu import build_context
        from olsofu.ols import CONTEXT_FIELDS

        pre = small_pretrained
        state = make_state(pre, SslSpec(kind="rotation", ssl_lr=0.05), algorithm)
        if refreshes:
            step(state, pre.pool.inputs[:10])
        assert state.feature_updates_done == refreshes
        assert (state.model.uid == pre.model.uid) == (refreshes == 0)
        fresh = build_context(state.model, pre.train)
        # class_sums are built with xt, own_probs with train_probs.
        for name, read in (("xt", "xt"), ("class_sums", "xt"), ("train_probs", "train_probs"),
                           ("own_probs", "train_probs")):
            assert read in CONTEXT_FIELDS
            if read not in state.strategy.reads:
                assert getattr(state.ctx, name) is None
                continue
            np.testing.assert_array_equal(getattr(state.ctx, name), getattr(fresh, name))
        assert state.ctx.classes.slices == fresh.classes.slices
        conf = regularize_confusion(confusion_matrix(state.model, pre.val), 0.01)
        np.testing.assert_array_equal(state.confusion.matrix, conf.matrix)
        assert state.confusion.sigma_min == conf.sigma_min
        assert state.confusion.model_uid == state.model.uid

    @pytest.mark.parametrize("algorithm", ["rogd", "uogd"])
    def test_a_refresh_leaves_the_last_refreshs_outputs_alone(self, small_pretrained, algorithm):
        # Every refresh's retrain overwrites the run's one design matrix;
        # nothing an earlier refresh handed out may be a view of it.
        pre = small_pretrained
        state = make_state(pre, SslSpec(kind="rotation", ssl_lr=0.05), algorithm)
        refresh(state, pre.pool.inputs[:10])
        model, ctx, conf, design = state.model, state.ctx, state.confusion, state.curvature.design
        arrays = [model.theta, conf.matrix] + [
            a for a in (ctx.xt, ctx.class_sums, ctx.train_probs, ctx.own_probs) if a is not None
        ]
        saved = [a.copy() for a in arrays]
        refresh(state, pre.pool.inputs[10:20])
        assert state.curvature.design is design
        assert state.model.uid != model.uid
        for a, b in zip(arrays, saved):
            np.testing.assert_array_equal(a, b)

    def test_estimate_from_another_model_rejected(self, small_pretrained):
        pre = small_pretrained
        state = make_state(pre, SslSpec(kind="rotation", ssl_lr=0.05))
        batch = pre.pool.inputs[:10]
        est = bbse_estimate(state.model, state.confusion, batch)
        ols_ofu_step(state, batch, est)  # refreshes the model
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, pre.pool.inputs[10:20], est)
        s = np.full(4, 0.25)
        with pytest.raises(ContractViolationError):
            ols_ofu_step(state, batch, MarginalEstimate(s, s))

    def test_ssl_none_keeps_model_fixed(self, small_pretrained):
        pre = small_pretrained
        state = make_state(pre, SslSpec(kind="none"), "flhftl", horizon=50)
        for t in range(10):
            step(state, pre.pool.inputs[10 * t : 10 * (t + 1)])
        assert state.model.uid == pre.model.uid


class TestWarmCalibration:
    def test_each_refresh_starts_from_the_model_it_replaces(
        self, small_scenario, small_pretrained, monkeypatch
    ):
        # A P8-style run: rotation SSL, a refresh every 5 steps. Each
        # refresh's calibration starts from the temperature of the model it
        # replaces and lands where a cold search on the same logits does.
        import olsofu.models
        import olsofu.ofu
        from olsofu.harness import run_online

        real_softmax = olsofu.models.softmax
        real_calibrate = olsofu.ofu.calibrate_temperature
        counting, softmax_calls, starts, temps, colds = [False], [0], [], [], []

        def softmax_spy(*args, **kwargs):
            softmax_calls[0] += counting[0]
            return real_softmax(*args, **kwargs)

        def calibrate_spy(m, val, logits, start_temperature):
            counting[0] = True
            out = real_calibrate(m, val, logits, start_temperature)
            counting[0] = False
            starts.append(start_temperature)
            temps.append(out.temperature)
            colds.append(real_calibrate(m, val, logits).temperature)
            return out

        monkeypatch.setattr(olsofu.models, "softmax", softmax_spy)
        monkeypatch.setattr(olsofu.ofu, "calibrate_temperature", calibrate_spy)
        sc = dataclasses.replace(
            small_scenario,
            shift=dataclasses.replace(small_scenario.shift, horizon=60),
            algorithm="flhftl",
            ssl=SslSpec(kind="rotation", ssl_lr=0.05, ba=5),
            retrain_max_iter=40,
        )
        run_online(sc, small_pretrained)
        assert len(starts) == 12
        assert starts == [small_pretrained.model.temperature] + temps[:-1]
        assert softmax_calls[0] <= 4 * len(starts)
        for t, cold in zip(temps, colds):
            assert abs(t - cold) <= 1e-10 * cold

    @pytest.mark.parametrize("start", [1.0, 0.6])
    def test_calibrates_on_forwards_logits(self, small_pretrained, start):
        # ``calibrate`` forwards the validation set for its logits alone;
        # the temperature and the confusion are those calibrated on
        # ``forward``'s logits, bit for bit.
        from olsofu.estimator import confusion_matrix, regularize_confusion
        from olsofu.models import calibrate_temperature

        pre = small_pretrained
        model = with_updates(pre.model, temperature=1.0)
        logits = forward(model, pre.val.inputs)[2]
        want = calibrate_temperature(model, pre.val, logits, start)
        conf = regularize_confusion(confusion_matrix(want, pre.val, logits), 0.01)
        got, got_conf = calibrate(model, pre.val, 0.01, start)
        assert got.temperature == want.temperature
        np.testing.assert_array_equal(got_conf.matrix, conf.matrix)
        assert got_conf.sigma_min == conf.sigma_min
        assert got_conf.model_uid == got.uid

    def test_pretraining_calibrates_cold(self, small_pretrained):
        from olsofu.models import calibrate_temperature

        pre = small_pretrained
        assert pre.model.temperature == calibrate_temperature(pre.model, pre.val).temperature


class TestComposeOutput:
    def test_identity_reweight_equals_base(self, small_pretrained, rng):
        pre = small_pretrained
        strategy = make_strategy("fth", pre.q0, 100, pre.model, pre.confusion.sigma_min)
        predictor = compose_output(pre.model, strategy)
        x = rng.standard_normal((10, 8))
        base_probs, _, _ = forward(pre.model, x)
        np.testing.assert_allclose(predictor.predict_proba(x), base_probs, atol=1e-12)

    def test_head_strategy_ignores_reweighting(self, small_pretrained, rng):
        pre = small_pretrained
        strategy = make_strategy("uogd", pre.q0, 100, pre.model, pre.confusion.sigma_min)
        predictor = compose_output(pre.model, strategy)
        assert predictor.ratio is None
        w, b = strategy.head()
        np.testing.assert_array_equal(predictor.head[0], w)
        np.testing.assert_array_equal(predictor.head[1], b)
        x = rng.standard_normal((10, 8))
        expected, _, _ = forward(with_updates(pre.model, linear_w=w, linear_b=b), x)
        np.testing.assert_array_equal(predictor.predict_proba(x), expected)

    def test_reweights_base_by_p_over_q0(self, small_pretrained, rng):
        from olsofu.numkit import project_simplex

        pre = small_pretrained
        strategy = make_strategy("flhftl", pre.q0, 100, pre.model, pre.confusion.sigma_min)
        s = project_simplex(np.array([0.5, 0.3, 0.4, -0.1]))
        strategy.step(None, MarginalEstimate(s, s))
        predictor = compose_output(pre.model, strategy)
        reference = Predictor(pre.model, strategy.reweight_vector() / pre.q0)
        for _ in range(20):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(predictor.predict_proba(x),
                                       reference.predict_proba(x), atol=1e-12)

    @pytest.mark.parametrize("algorithm", ["fth", "ftfwh", "rogd", "flhftl"])
    def test_ratio_is_p_over_the_strategys_q0(self, small_pretrained, algorithm):
        # A reweighting strategy holds q0; the deployed ratio divides its p
        # by it, bit for bit as by the pretrained marginal.
        from olsofu.ofu import build_context

        pre = small_pretrained
        strategy = make_strategy(algorithm, pre.q0, 100, pre.model, pre.confusion.sigma_min)
        ctx = build_context(pre.model, pre.train, reads=strategy.reads)
        for t in range(5):
            est = bbse_estimate(pre.model, pre.confusion, pre.pool.inputs[10 * t : 10 * t + 10])
            strategy.step(ctx, est)
            np.testing.assert_array_equal(compose_output(pre.model, strategy).ratio,
                                          strategy.p / pre.q0)

    def test_head_then_ratio_on_the_forwarded_features(self, small_pretrained, rng):
        # A head replaces the base head on the base model's features; the
        # ratio then reweights its output. The one-policy stack agrees.
        pre = small_pretrained
        w, b = 0.5 * pre.model.linear_w, pre.model.linear_b + 0.1
        ratio = np.array([0.4, 1.3, 0.9, 1.7])
        predictor = Predictor(pre.model, ratio, (w, b))
        x = rng.standard_normal((10, 8))
        base_probs, feats, _ = forward(pre.model, x)
        expected = reweight_probs(head_output(pre.model, feats, (w, b))[0], ratio)
        np.testing.assert_array_equal(predictor.predict_proba(x), expected)
        np.testing.assert_array_equal(predict_stacked([predictor], base_probs[None], feats[None]),
                                      np.argmax(expected, axis=-1)[None])

    @pytest.mark.parametrize("kind", ["ratio", "head", "head and ratio"])
    def test_stacked_policies_predict_as_each_alone(self, small_pretrained, rng, kind):
        # m policies, one batch each, scored from the batches' forward in one
        # stacked pass: bit for bit each policy's own predict.
        pre = small_pretrained
        k, h = pre.model.linear_w.shape
        policies = []
        for _ in range(7):
            ratio = rng.uniform(0.2, 2.0, k) if "ratio" in kind else None
            head = None
            if "head" in kind:
                head = (pre.model.linear_w + 0.3 * rng.standard_normal((k, h)),
                        pre.model.linear_b + 0.3 * rng.standard_normal(k))
            policies.append(Predictor(pre.model, ratio, head))
        x = rng.standard_normal((7, 10, 8))
        base_probs, feats, _ = forward(pre.model, x.reshape(70, 8))
        got = predict_stacked(policies, base_probs.reshape(7, 10, k), feats.reshape(7, 10, h))
        for p, xi, row in zip(policies, x, got):
            np.testing.assert_array_equal(row, p.predict(xi))

    def test_stacked_policies_share_a_base_and_a_kind(self, small_pretrained):
        pre = small_pretrained
        ratio = np.ones(4)
        head = (pre.model.linear_w, pre.model.linear_b)
        probs, feats = np.full((2, 3, 4), 0.25), np.zeros((2, 3, 32))
        other = dataclasses.replace(pre.model)  # a copy draws a fresh uid
        for mixed in ([Predictor(pre.model, ratio), Predictor(pre.model, head=head)],
                      [Predictor(pre.model, ratio), Predictor(other, ratio)]):
            with pytest.raises(ContractViolationError, match="share a base model"):
                predict_stacked(mixed, probs, feats)


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
        state = make_state(pre, sc.ssl, horizon=300)
        rng = make_rng(11)
        for t in range(300):
            rows = rng.integers(len(pre.pool), size=10)
            step(state, pre.pool.inputs[rows])
        base_acc = accuracy(pre.model, pre.pool)
        final_acc = accuracy(state.model, pre.pool)
        assert final_acc >= base_acc - 0.05
