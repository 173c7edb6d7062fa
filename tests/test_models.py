import dataclasses

import numpy as np
import pytest

import olsofu.models as models_mod
from olsofu.errors import InvalidArgumentError, TrainingDivergedError
from olsofu.models import (
    RETRAIN_GRAD_TOL,
    RETRAIN_RIDGE,
    HeadCurvature,
    ModelParams,
    SslSpec,
    TrainConfig,
    accuracy,
    backward,
    calibrate_temperature,
    cross_entropy_loss_grad,
    feat_activations,
    forward,
    forward_logits,
    head_output,
    init_model,
    load_model,
    mean_nll,
    nll_at_temperature,
    retrain_linear,
    save_model,
    train_supervised,
    with_theta,
    with_updates,
)
from olsofu.numkit import make_rng, softmax
from olsofu.synthdata import DataSpec, LabeledSet, default_means, make_source_data


def identity_model(k=2, scale=1.0, temperature=1.0):
    """ReLU identity features with an identity head: logits equal x for
    nonnegative inputs, letting tests pin exact values."""
    eye = np.eye(k)
    return ModelParams(
        feat_weights=(eye.copy(),),
        feat_biases=(np.zeros(k),),
        linear_w=scale * eye.copy(),
        linear_b=np.zeros(k),
        ssl_w=np.zeros((4, k)),
        ssl_b=np.zeros(4),
        temperature=temperature,
        activation="relu",
    )


class TestForward:
    def test_zero_weights_give_uniform(self):
        m = init_model(5, 3, rng=make_rng(0))
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        probs, _, _ = forward(m, np.ones(5))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)

    def test_high_temperature_flattens(self):
        m = with_updates(init_model(5, 3, rng=make_rng(0)), temperature=1e9)
        probs, _, _ = forward(m, np.ones(5))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-6)

    def test_identity_network_reference_value(self):
        m = identity_model(k=2)
        probs, feats, logits = forward(m, np.array([1.0, 2.0]))
        np.testing.assert_allclose(logits, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(probs, [0.26894, 0.73106], atol=5e-6)
        np.testing.assert_allclose(feats, [1.0, 2.0], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = init_model(5, 3, rng=make_rng(0))
        with pytest.raises(InvalidArgumentError):
            forward(m, np.ones(4))

    @pytest.mark.parametrize("m, n", [(1, 10), (7, 10), (25, 1), (25, 10)])
    def test_stacked_heads_match_each_head(self, rng, m, n):
        # A stack of heads on stacked features gives, bit for bit, each
        # head's own logits and probabilities on its own features.
        model = with_updates(init_model(8, 4, rng=make_rng(1), hidden=(32,)), temperature=1.7)
        feats = rng.standard_normal((m * n, 32)).reshape(m, n, 32)
        w, b = rng.standard_normal((m, 4, 32)), rng.standard_normal((m, 4))
        probs, logits = head_output(model, feats, (w, b[:, None, :]))
        for i in range(m):
            p_i, z_i = head_output(model, feats[i], (w[i], b[i]))
            np.testing.assert_array_equal(logits[i], z_i)
            np.testing.assert_array_equal(probs[i], p_i)

    def test_logits_alone_are_forwards_logits_with_its_checks(self, rng):
        m = init_model(6, 4, rng=make_rng(1))
        x = rng.standard_normal((32, 6))
        np.testing.assert_array_equal(forward_logits(m, x), forward(m, x)[2])
        bad_x = x.copy()
        bad_x[3, 1] = np.nan
        huge = with_updates(m, linear_b=np.full(4, np.inf))
        for model, inputs in ((m, x[:, :5]), (m, bad_x), (huge, x)):
            for f in (forward, forward_logits):
                with pytest.raises(InvalidArgumentError):
                    f(model, inputs)

    def test_probs_on_simplex_for_batches(self, rng):
        m = init_model(6, 4, rng=make_rng(1))
        probs, _, _ = forward(m, rng.standard_normal((32, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() >= 0


class TestBackward:
    def test_rejects_unknown_kind_and_scope(self):
        with pytest.raises(InvalidArgumentError):
            SslSpec(kind="hinge")

    def test_rejects_kind_none(self, rng):
        m = init_model(4, 2, rng=make_rng(0))
        with pytest.raises(InvalidArgumentError):
            backward(m, rng.standard_normal((3, 4)), SslSpec(kind="none"), make_rng(1))

    def test_empty_batch_rejected(self):
        m = init_model(4, 2, rng=make_rng(0))
        with pytest.raises(InvalidArgumentError):
            backward(m, np.zeros((0, 4)), SslSpec(kind="entropy"), make_rng(1))

    def test_confident_correct_prediction_has_tiny_loss_and_gradient(self):
        m = identity_model(k=2, scale=200.0)
        x = np.array([[1.0, 0.0]])
        loss, grads = cross_entropy_loss_grad(m, x, np.array([0]))
        assert loss < 1e-12
        assert np.abs(m.views(grads).linear_w).max() < 1e-12

    def test_mean_nll_of_a_zero_probability_label_is_finite(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert mean_nll(probs, np.array([1, 0])) == -(np.log(1e-300) + np.log(0.5)) / 2
        assert mean_nll(probs[:1], np.array([1])) == -np.log(1e-300)

    def test_gradients_match_finite_differences(self, rng):
        # Every coordinate of a small model, biases included, for every
        # loss kind; same error measure and bound as acceptance check P2.
        from olsofu.models import (
            entropy_loss_grad,
            infonce_loss_grad,
            rotation_loss_grad,
            with_theta,
        )

        m = with_updates(init_model(5, 3, hidden=(6, 4), rng=make_rng(3)), temperature=1.3)
        assert m.theta.size == 99
        x = rng.standard_normal((6, 5))
        y = rng.integers(3, size=6)
        deg = rng.integers(4, size=6)
        x_aug = x + 0.05 * rng.standard_normal(x.shape)
        cases = {
            "ce": lambda mm: cross_entropy_loss_grad(mm, x, y),
            "entropy": lambda mm: entropy_loss_grad(mm, x),
            "rotation": lambda mm: rotation_loss_grad(mm, x, deg),
            "infonce": lambda mm: infonce_loss_grad(mm, x, x_aug, 0.07),
        }
        eps = 1e-5
        for name, fn in cases.items():
            _, g = fn(m)
            for i in range(m.theta.size):
                up, down = m.theta.copy(), m.theta.copy()
                up[i] += eps
                down[i] -= eps
                fd = (fn(with_theta(m, up))[0] - fn(with_theta(m, down))[0]) / (2 * eps)
                rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-8)
                assert rel < 1e-4, (name, i)


class TestTraining:
    def test_separable_data_reaches_high_accuracy(self):
        data = DataSpec(
            k=2, d=4, class_means=default_means(2, 4, 4.0),
            class_cov_scale=0.05, n_train=400, n_test_pool=100,
        )
        train, _, _, _ = make_source_data(data, seed=0)
        m = train_supervised(train, TrainConfig(epochs=15), k=2)
        assert accuracy(m, train) > 0.99

    def test_ssl_weight_zero_is_pure_supervised(self):
        data = DataSpec(
            k=2, d=4, class_means=default_means(2, 4, 2.0),
            class_cov_scale=1.0, n_train=200, n_test_pool=100,
        )
        train, _, _, _ = make_source_data(data, seed=1)
        plain = train_supervised(train, TrainConfig(epochs=3), k=2)
        weighted = train_supervised(
            train, TrainConfig(epochs=3), k=2, ssl=SslSpec(kind="rotation"), ssl_weight=0.0
        )
        for a, b in zip(plain.feat_weights, weighted.feat_weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(plain.linear_w, weighted.linear_w)

    def test_defaults_match_documented_values(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-4
        assert cfg.seed == 4242

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_epoch(self):
        data = DataSpec(
            k=2, d=4, class_means=default_means(2, 4, 2.0),
            class_cov_scale=1.0, n_train=200, n_test_pool=100,
        )
        train, _, _, _ = make_source_data(data, seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            train_supervised(
                train, TrainConfig(epochs=5, learning_rate=1e155), k=2
            )
        assert isinstance(err.value.epoch, int)

    def test_training_is_bit_reproducible(self):
        data = DataSpec(
            k=3, d=5, class_means=default_means(3, 5, 2.0),
            class_cov_scale=1.0, n_train=300, n_test_pool=100,
        )
        train, _, _, _ = make_source_data(data, seed=2)
        rotation = SslSpec(kind="rotation")
        a = train_supervised(train, TrainConfig(epochs=4), k=3, ssl=rotation)
        b = train_supervised(train, TrainConfig(epochs=4), k=3, ssl=rotation)
        np.testing.assert_array_equal(a.linear_w, b.linear_w)
        for wa, wb in zip(a.feat_weights, b.feat_weights):
            np.testing.assert_array_equal(wa, wb)
        assert not np.shares_memory(a.theta, b.theta)
        assert a.uid != b.uid

    def test_loss_decreases_over_training(self):
        data = DataSpec(
            k=3, d=5, class_means=default_means(3, 5, 2.0),
            class_cov_scale=1.0, n_train=600, n_test_pool=100,
        )
        train, _, _, _ = make_source_data(data, seed=3)
        short = train_supervised(train, TrainConfig(epochs=1), k=3)
        long = train_supervised(train, TrainConfig(epochs=20), k=3)
        ce = lambda m: cross_entropy_loss_grad(m, train.inputs, train.labels)[0]
        assert ce(long) < ce(short)


def reference_train(train, cfg, k, ssl, ssl_weight):
    """``train_supervised``'s SGD written with one new model per step: the
    CE gradient plus ``ssl_weight`` times ``backward``'s, then
    ``v = mu*v + g + wd*p`` and ``p - lr*v`` through ``with_theta``."""
    x, y = train.inputs, train.labels
    rng = make_rng(cfg.seed)
    m = init_model(x.shape[1], k, rng=rng)
    velocity = np.zeros_like(m.theta)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if ssl.kind == "infonce" and idx.size < 2:
                continue
            _, g = cross_entropy_loss_grad(m, x[idx], y[idx])
            if ssl.kind != "none":
                _, ssl_g = backward(m, x[idx], ssl, rng)
                g += ssl_weight * ssl_g
            velocity = cfg.momentum * velocity + g + cfg.weight_decay * m.theta
            m = with_theta(m, m.theta - cfg.learning_rate * velocity)
    return m


class TestTrainingMatchesReference:
    # 2 * 16 + 5 rows leave a last batch of 5; 2 * 16 + 1 leave InfoNCE a
    # single-row last batch, which both loops skip.
    @pytest.mark.parametrize("ssl_kind, n_train", [
        ("none", 37), ("rotation", 37), ("entropy", 37), ("infonce", 37), ("infonce", 33),
    ])
    def test_theta_is_bit_identical(self, ssl_kind, n_train):
        rng = make_rng(5)
        y = np.arange(n_train) % 3
        train = LabeledSet(rng.standard_normal((n_train, 4)) + y[:, None], y)
        cfg = TrainConfig(epochs=3, batch_size=16)
        ssl = SslSpec(kind=ssl_kind)
        got = train_supervised(train, cfg, k=3, ssl=ssl, ssl_weight=0.5)
        want = reference_train(train, cfg, 3, ssl, 0.5)
        np.testing.assert_array_equal(got.theta, want.theta)


def head_grad(m, train, feats=None):
    """Gradient of the retrain objective (mean CE at temperature 1 plus the
    ridge) over the head [w, b], on ``feats`` or else m's features."""
    if feats is None:
        feats = feat_activations(m, train.inputs)[-1]
    xt = np.hstack([feats, np.ones((len(feats), 1))])
    wt = np.hstack([m.linear_w, m.linear_b[:, None]])
    d = softmax(xt @ wt.T)
    d[np.arange(len(d)), train.labels] -= 1.0
    return (d / len(d)).T @ xt + RETRAIN_RIDGE * wt


def reference_retrain(m, feats, labels, max_iter=500, grad_tol=1e-6):
    """A full-space damped Newton solve of the retrain objective: it builds
    the K(h+1) square Hessian from all K(K+1)/2 weighted Gram blocks and
    starts from the head as it is. Returns the head [w, b]."""
    n, k = feats.shape[0], m.n_classes
    xt = np.hstack([feats, np.ones((n, 1))])
    width = xt.shape[1]
    wt = np.hstack([m.linear_w, m.linear_b[:, None]])
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[rows, labels] = 1.0

    def objective(wt):
        probs = softmax(xt @ wt.T)
        ce = -np.mean(np.log(np.maximum(probs[rows, labels], 1e-300)))
        return float(ce + 0.5 * RETRAIN_RIDGE * (wt * wt).sum()), probs

    loss, probs = objective(wt)
    hess = np.empty((k, width, k, width))
    for _ in range(max_iter):
        g = ((probs - onehot) / n).T @ xt + RETRAIN_RIDGE * wt
        if np.sqrt((g * g).sum()) < grad_tol:
            break
        s = probs[:, :, None] * (np.eye(k) - probs[:, None, :]) / n
        for i in range(k):
            for j in range(i, k):
                block = (xt * s[:, i, j, None]).T @ xt
                hess[i, :, j, :] = block
                hess[j, :, i, :] = block
        h2 = hess.reshape(k * width, k * width)
        h2[np.diag_indices(k * width)] += RETRAIN_RIDGE
        step = np.linalg.solve(h2, g.ravel()).reshape(k, width)
        decrease = float((g * step).sum())
        alpha = 1.0
        while alpha > 1e-10:
            loss_new, probs_new = objective(wt - alpha * step)
            if loss_new <= loss - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            break
        wt, loss, probs = wt - alpha * step, loss_new, probs_new
    return wt


def retrain_problem(k, seed=0):
    """A head to re-train on K-class features: labels drawn from a softmax
    of the features (so the CE has a finite minimiser) and a warm start
    near the generating head with a mean row of norm ~5, which the
    minimiser does not have."""
    rng = make_rng(seed)
    n, h = 300, 6
    feats = np.tanh(rng.standard_normal((n, h)))
    true_w = 4.0 * rng.standard_normal((k, h))
    labels = np.array([rng.choice(k, p=p) for p in softmax(feats @ true_w.T)])
    labels[:k] = np.arange(k)
    m = with_updates(
        init_model(3, k, hidden=(h,), rng=rng),
        linear_w=true_w + 0.3 * rng.standard_normal((k, h)) + 2.0 * rng.standard_normal(h),
        linear_b=0.3 * rng.standard_normal(k) + 1.5,
    )
    return m, feats, LabeledSet(rng.standard_normal((n, 3)), labels)


class TestRetrainLinear:
    def test_convex_optimum_is_init_independent(self, small_pretrained):
        pre = small_pretrained
        rng = make_rng(99)
        other = with_updates(
            pre.model,
            linear_w=rng.standard_normal(pre.model.linear_w.shape),
            linear_b=rng.standard_normal(pre.model.linear_b.shape),
        )
        # The default tolerance is tight enough that the heads compare
        # optima, not stopping points.
        a = retrain_linear(pre.model, pre.train)
        b = retrain_linear(other, pre.train)
        np.testing.assert_allclose(a.linear_w, b.linear_w, atol=1e-5)
        np.testing.assert_allclose(a.linear_b, b.linear_b, atol=1e-5)

    def test_converges_within_cap(self, small_pretrained):
        pre = small_pretrained
        new = retrain_linear(pre.model, pre.train, max_iter=80)
        assert np.linalg.norm(head_grad(new, pre.train)) < RETRAIN_GRAD_TOL

    def test_separable_features_give_finite_head(self):
        # Identity features on three well-separated clusters: without the
        # ridge the CE has no finite minimiser.
        rng = make_rng(3)
        labels = np.repeat(np.arange(3), 20)
        inputs = 5.0 * np.eye(3)[labels] + 0.1 * rng.random((60, 3))
        train = LabeledSet(inputs, labels)
        m = with_updates(identity_model(k=3), linear_w=np.zeros((3, 3)))
        new = retrain_linear(m, train, max_iter=50)
        assert np.isfinite(new.theta).all()
        assert np.linalg.norm(head_grad(new, train)) < RETRAIN_GRAD_TOL
        assert accuracy(new, train) == 1.0

    def test_features_frozen_bit_exact(self, small_pretrained):
        pre = small_pretrained
        new = retrain_linear(pre.model, pre.train)
        for wa, wb in zip(pre.model.feat_weights, new.feat_weights):
            np.testing.assert_array_equal(wa, wb)
        for ba_, bb in zip(pre.model.feat_biases, new.feat_biases):
            np.testing.assert_array_equal(ba_, bb)

    def test_retrained_head_matches_original_validation_accuracy(self, small_pretrained):
        pre = small_pretrained
        new = retrain_linear(pre.model, pre.train)
        assert accuracy(new, pre.val) >= accuracy(pre.model, pre.val) - 0.01

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_matches_full_space_newton(self, k):
        # The same optimum as the full-space Newton solve, and rows that sum
        # to zero (measured: at most 1.03e-8 from it over K in {2, 3, 4, 6}
        # and three seeds).
        for seed in range(3):
            m, feats, train = retrain_problem(k, seed)
            new = retrain_linear(m, train, feats=feats, grad_tol=1e-10)
            ref = reference_retrain(m, feats, train.labels, grad_tol=1e-12)
            head = np.hstack([new.linear_w, new.linear_b[:, None]])
            assert np.abs(head - ref).max() <= 1e-7
            assert np.abs(head.sum(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("k", [3, 4])
    def test_shared_curvature_across_drifting_features(self, k, monkeypatch):
        # A chain of warm-started solves on drifting features, as an online
        # run's refreshes are, sharing one curvature holder: each reaches
        # the tolerance and lands on the optimum a cold solve finds, and the
        # chain builds the exact Hessian only a few times (measured: once).
        m, feats, train = retrain_problem(k)
        drift = make_rng(10).standard_normal(feats.shape)
        builds = []
        build = models_mod._reduced_hessian
        monkeypatch.setattr(
            models_mod, "_reduced_hessian", lambda *a: builds.append(1) or build(*a)
        )
        holder, chain_builds = HeadCurvature(), 0
        for t in range(10):
            feats_t = feats + 0.03 * t * drift
            cold = retrain_linear(m, train, feats=feats_t, grad_tol=1e-11)
            before = len(builds)
            m = retrain_linear(m, train, feats=feats_t, curvature=holder)
            chain_builds += len(builds) - before
            assert np.linalg.norm(head_grad(m, train, feats_t)) < RETRAIN_GRAD_TOL
            np.testing.assert_allclose(m.theta, cold.theta, rtol=0, atol=1e-6)
        assert 1 <= chain_builds <= 3

    @pytest.mark.parametrize(
        "size, design", [(14, (7, 200)), (18, (6, 300))], ids=["14", "18"]
    )
    def test_curvature_of_another_shape_is_rebuilt(self, size, design):
        # K=4, h=6 and n=300 give a 21x21 reduced Hessian and a 7x300
        # design matrix; a holder sized for K=3 (14) and n=200, or for h=5
        # (18 and a 6-row design), is dropped, so the solve is a cold one.
        m, feats, train = retrain_problem(4)
        old = np.zeros(design)
        holder = HeadCurvature(np.eye(size), old)
        warm = retrain_linear(m, train, feats=feats, curvature=holder)
        cold = retrain_linear(m, train, feats=feats)
        np.testing.assert_array_equal(warm.theta, cold.theta)
        assert holder.inverse.shape == (21, 21)
        assert holder.design.shape == (7, 300) and holder.design is not old
        np.testing.assert_array_equal(old, 0.0)

    def test_warm_retrains_reuse_the_design_storage(self):
        m, feats, train = retrain_problem(4)
        holder = HeadCurvature()
        m = retrain_linear(m, train, feats=feats, curvature=holder)
        design, residual, labelled = holder.design, holder.residual, holder.labelled
        retrain_linear(m, train, feats=0.9 * feats, curvature=holder)
        assert holder.design is design
        assert holder.residual is residual and holder.labelled is labelled
        np.testing.assert_array_equal(design[:-1], (0.9 * feats).T)
        np.testing.assert_array_equal(design[-1], 1.0)

    def test_warm_retrain_allocates_no_design(self, small_pretrained):
        # The second solve on a holder writes the features into the stored
        # design matrix; its peak allocation stays below one such matrix.
        import tracemalloc

        pre = small_pretrained
        feats = feat_activations(pre.model, pre.train.inputs)[-1]
        holder = HeadCurvature()
        first = retrain_linear(pre.model, pre.train, feats=feats, curvature=holder)
        design_bytes = feats.shape[0] * (feats.shape[1] + 1) * 8
        tracemalloc.start()
        try:
            retrain_linear(first, pre.train, feats=feats, curvature=holder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design_bytes

    def test_buffers_for_another_class_count_are_rebuilt(self):
        # K=3 and K=4 problems share h and n, so the design matrix fits
        # both; the K-row buffers do not, and a K=4 solve on a K=3 holder
        # is a cold one.
        holder = HeadCurvature()
        m3, feats3, train3 = retrain_problem(3)
        retrain_linear(m3, train3, feats=feats3, curvature=holder)
        m, feats, train = retrain_problem(4)
        warm = retrain_linear(m, train, feats=feats, curvature=holder)
        cold = retrain_linear(m, train, feats=feats)
        np.testing.assert_array_equal(warm.theta, cold.theta)
        assert holder.residual.shape == (4, 300) and holder.labelled.shape == (300,)

    def test_nan_head_is_rejected(self):
        # The loss evaluation's softmax checks the logits, so the solve
        # raises rather than returning a NaN head.
        m, feats, train = retrain_problem(4)
        w = m.linear_w.copy()
        w[1, 2] = np.nan
        with pytest.raises(InvalidArgumentError):
            retrain_linear(with_updates(m, linear_w=w), train, feats=feats)

    def test_layout_of_feats_is_a_speed_choice(self):
        # Row-major and column-major features give the same head, bit for bit.
        m, feats, train = retrain_problem(4)
        a = retrain_linear(m, train, feats=np.ascontiguousarray(feats))
        b = retrain_linear(m, train, feats=np.asfortranarray(feats))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_input_model_unchanged(self, small_pretrained):
        # The solve updates its head and buffers in place; the model's
        # arrays (views into theta) and the given features must not move.
        m = small_pretrained.model
        feats = feat_activations(m, small_pretrained.train.inputs)[-1]
        theta, feats_before = m.theta.copy(), feats.copy()
        retrain_linear(m, small_pretrained.train, feats=feats)
        np.testing.assert_array_equal(m.theta, theta)
        np.testing.assert_array_equal(feats, feats_before)


def reference_calibrate(m, val) -> float:
    """The golden-section calibration the Newton solve replaced: 60
    iterations on log-temperature over [-3, 3], ties resolving to 1."""
    _, _, logits = forward(m, val.inputs)

    def f(u):
        return nll_at_temperature(logits, val.labels, float(np.exp(u)))

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = -3.0, 3.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    u_best = c if fc < fd else d
    if nll_at_temperature(logits, val.labels, 1.0) <= f(u_best) + 1e-12:
        return 1.0
    return float(np.exp(u_best))


def p11_models():
    """The 20 (model, validation set) pairs acceptance check P11 draws."""
    rng = make_rng(1111)
    for _ in range(20):
        m = init_model(5, 4, rng=rng)
        scale = float(rng.uniform(0.3, 6.0))
        m = with_updates(m, linear_w=m.linear_w * scale, linear_b=m.linear_b * scale)
        yield m, LabeledSet(rng.standard_normal((200, 5)), rng.integers(4, size=200))


class TestCalibration:
    def _calibrated_setup(self, scale, seed=0, n=4000):
        # Labels sampled from the model's own probabilities make the model
        # perfectly calibrated at temperature 1; scaling the head by
        # ``scale`` then plants a known recoverable temperature.
        rng = make_rng(seed)
        m = init_model(6, 4, rng=rng)
        x = rng.standard_normal((n, 6))
        probs, _, _ = forward(m, x)
        y = np.array([rng.choice(4, p=p) for p in probs])
        scaled = with_updates(
            m, linear_w=m.linear_w * scale, linear_b=m.linear_b * scale
        )
        from olsofu.synthdata import LabeledSet

        return scaled, LabeledSet(x, y)

    def test_calibrated_model_keeps_temperature_near_one(self):
        m, val = self._calibrated_setup(scale=1.0)
        out = calibrate_temperature(m, val)
        assert 0.8 <= out.temperature <= 1.25

    def test_overconfident_scale_recovered(self):
        m, val = self._calibrated_setup(scale=5.0)
        out = calibrate_temperature(m, val)
        assert out.temperature == pytest.approx(5.0, rel=0.1)

    @staticmethod
    def _starts(cold):
        """Where a warm-started search may begin: both ends of the range,
        the cold search's temperature and 20% either side of it."""
        return (np.exp(-3.0), np.exp(3.0), cold, 0.8 * cold, 1.2 * cold)

    def test_flat_logits_tie_break_to_one(self):
        rng = make_rng(3)
        m = init_model(4, 3, rng=rng)
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        from olsofu.synthdata import LabeledSet

        val = LabeledSet(rng.standard_normal((50, 4)), rng.integers(3, size=50))
        for start in self._starts(1.0):
            assert calibrate_temperature(m, val, start_temperature=start).temperature == 1.0

    def test_never_worse_than_unit_temperature(self, rng):
        from olsofu.synthdata import LabeledSet

        for seed in range(5):
            m = init_model(5, 3, rng=make_rng(seed))
            val = LabeledSet(rng.standard_normal((100, 5)), rng.integers(3, size=100))
            _, _, logits = forward(m, val.inputs)
            cold = calibrate_temperature(m, val).temperature
            for start in (1.0, *self._starts(cold)):
                out = calibrate_temperature(m, val, logits, start)
                assert (
                    nll_at_temperature(logits, val.labels, out.temperature)
                    <= nll_at_temperature(logits, val.labels, 1.0) + 1e-12
                )


    def _count_softmax(self, monkeypatch):
        import olsofu.models

        calls = []
        real = olsofu.models.softmax

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(olsofu.models, "softmax", counting)
        return calls

    def test_matches_golden_section_reference(self, monkeypatch):
        cases = list(p11_models())
        cases += [self._calibrated_setup(scale) for scale in (0.25, 1.0, 5.0)]
        calls = self._count_softmax(monkeypatch)
        for m, val in cases:
            expected = reference_calibrate(m, val)
            _, _, logits = forward(m, val.inputs)
            calls.clear()
            t = calibrate_temperature(m, val, logits).temperature
            assert len(calls) <= 12
            # The reference stops where NLL differences fall below rounding,
            # which leaves it up to ~5e-7 relative from the optimum here.
            assert abs(t - expected) <= 1e-6 * expected
            assert (
                nll_at_temperature(logits, val.labels, t)
                <= nll_at_temperature(logits, val.labels, expected) + 1e-12
            )

    def test_warm_start_lands_on_the_cold_temperature(self, monkeypatch):
        cases = list(p11_models())
        cases += [self._calibrated_setup(scale) for scale in (0.25, 1.0, 5.0)]
        calls = self._count_softmax(monkeypatch)
        for m, val in cases:
            _, _, logits = forward(m, val.inputs)
            cold = calibrate_temperature(m, val, logits).temperature
            assert calibrate_temperature(m, val, logits, 1.0).temperature == cold
            for start in self._starts(cold):
                calls.clear()
                t = calibrate_temperature(m, val, logits, start).temperature
                assert abs(t - cold) <= 1e-10 * cold
                if start == cold:
                    # One evaluation at the optimum, one at temperature 1.
                    assert len(calls) <= 4

    @pytest.mark.parametrize("start", [0.0, -1.0, np.inf, np.nan])
    def test_start_temperature_must_be_positive_and_finite(self, start):
        m, val = self._calibrated_setup(scale=1.0, n=100)
        with pytest.raises(InvalidArgumentError, match="start_temperature"):
            calibrate_temperature(m, val, start_temperature=start)

    @pytest.mark.parametrize("scale", [0.25, 1.0, 5.0])
    def test_layout_of_logits_is_a_speed_choice(self, scale):
        # Row-major and class-major logits give the same temperature, bit
        # for bit.
        m, val = self._calibrated_setup(scale, n=1000)
        _, _, logits = forward(m, val.inputs)
        a = calibrate_temperature(m, val, np.ascontiguousarray(logits))
        b = calibrate_temperature(m, val, np.asfortranarray(logits))
        assert a.temperature == b.temperature

    def test_precomputed_logits_give_the_same_model(self):
        m, val = self._calibrated_setup(scale=3.0)
        _, _, logits = forward(m, val.inputs)
        a = calibrate_temperature(m, val)
        b = calibrate_temperature(m, val, logits)
        assert a.temperature == b.temperature

    def _logit_labelled(self, pick):
        # Labels at each row's largest (or smallest) logit: the NLL then
        # falls (or rises) with beta = 1/T everywhere.
        rng = make_rng(5)
        m = init_model(6, 4, rng=rng)
        x = rng.standard_normal((300, 6))
        _, _, logits = forward(m, x)
        return m, LabeledSet(x, pick(logits, axis=1))

    def test_separable_validation_clamps_to_lowest_temperature(self):
        m, val = self._logit_labelled(np.argmax)
        for start in (1.0, *self._starts(np.exp(-3.0))):
            assert calibrate_temperature(m, val, start_temperature=start).temperature \
                == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_anti_correlated_labels_clamp_to_highest_temperature(self):
        m, val = self._logit_labelled(np.argmin)
        for start in (1.0, *self._starts(np.exp(3.0))):
            assert calibrate_temperature(m, val, start_temperature=start).temperature \
                == pytest.approx(np.exp(3.0), rel=1e-12)


class TestCheckpoints:
    def test_binary_roundtrip_bit_exact(self, tmp_path):
        m = with_updates(init_model(5, 3, rng=make_rng(7)), temperature=1.7)
        path = tmp_path / "model.npz"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.temperature == m.temperature
        assert loaded.activation == m.activation
        for wa, wb in zip(m.feat_weights, loaded.feat_weights):
            assert wa.tobytes() == wb.tobytes()
        assert m.linear_w.tobytes() == loaded.linear_w.tobytes()
        assert m.ssl_w.tobytes() == loaded.ssl_w.tobytes()

    @pytest.mark.parametrize(
        "field, bad", [("ssl_w", (4, 5)), ("linear_b", (7,))], ids=["ssl_w", "linear_b"]
    )
    def test_malformed_shape_rejected_at_load(self, tmp_path, field, bad):
        path = tmp_path / "model.npz"
        save_model(init_model(5, 3, rng=make_rng(7)), path)
        with np.load(path) as data:
            payload = dict(data)
        payload[field] = np.zeros(bad)
        np.savez(path, **payload)
        with pytest.raises(InvalidArgumentError, match=field):
            load_model(path)


class TestModelValue:
    def test_with_updates_bumps_uid(self):
        m = init_model(4, 2, rng=make_rng(0))
        m2 = with_updates(m, temperature=2.0)
        assert m2.uid != m.uid
        assert m2.temperature == 2.0 and m.temperature == 1.0

    def test_replace_copy_gets_a_fresh_uid(self, rng):
        # A copy made with dataclasses.replace is another model: it must not
        # pass for its source when paired with the source's confusion.
        from olsofu.estimator import bbse_estimate, confusion_matrix

        m = init_model(4, 3, rng=make_rng(0))
        copy = dataclasses.replace(m, linear_w=3 * m.linear_w)
        assert copy.uid != m.uid
        val = LabeledSet(rng.standard_normal((30, 4)), np.arange(30) % 3)
        with pytest.raises(InvalidArgumentError, match="different model"):
            bbse_estimate(copy, confusion_matrix(m, val), rng.standard_normal((5, 4)))

    def test_feature_activation_shapes(self, rng):
        m = init_model(6, 3, hidden=(16, 8), rng=make_rng(1))
        acts = feat_activations(m, rng.standard_normal((10, 6)))
        assert [a.shape[1] for a in acts] == [6, 16, 8]
