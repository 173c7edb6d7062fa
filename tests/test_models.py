import numpy as np
import pytest

from olsofu.errors import InvalidArgumentError, TrainingDivergedError
from olsofu.models import (
    ModelParams,
    TrainConfig,
    accuracy,
    backward,
    calibrate_temperature,
    cross_entropy_loss_grad,
    feat_activations,
    forward,
    init_model,
    load_model,
    nll_at_temperature,
    retrain_linear,
    save_model,
    train_supervised,
    with_updates,
)
from olsofu.numkit import make_rng
from olsofu.synthdata import DataSpec, default_means, make_source_data


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

    def test_probs_on_simplex_for_batches(self, rng):
        m = init_model(6, 4, rng=make_rng(1))
        probs, _, _ = forward(m, rng.standard_normal((32, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() >= 0


class TestBackward:
    def test_rejects_unknown_kind_and_scope(self, rng):
        m = init_model(4, 2, rng=make_rng(0))
        x = rng.standard_normal((3, 4))
        with pytest.raises(InvalidArgumentError):
            backward(m, (x, None), "hinge")
        with pytest.raises(InvalidArgumentError):
            backward(m, (x, None), "entropy", scope="heads_only")

    def test_cross_entropy_requires_labels(self, rng):
        m = init_model(4, 2, rng=make_rng(0))
        with pytest.raises(InvalidArgumentError):
            backward(m, (rng.standard_normal((3, 4)), None), "cross_entropy")

    def test_empty_batch_rejected(self):
        m = init_model(4, 2, rng=make_rng(0))
        with pytest.raises(InvalidArgumentError):
            backward(m, (np.zeros((0, 4)), None), "entropy")

    def test_confident_correct_prediction_has_tiny_loss_and_gradient(self):
        m = identity_model(k=2, scale=200.0)
        x = np.array([[1.0, 0.0]])
        loss, grads = cross_entropy_loss_grad(m, x, np.array([0]))
        assert loss < 1e-12
        assert np.abs(grads.linear_w).max() < 1e-12

    def test_scope_masks_gradients(self, rng):
        m = init_model(4, 3, rng=make_rng(2))
        x = rng.standard_normal((6, 4))
        y = rng.integers(3, size=6)
        _, g_feat = backward(m, (x, y), "cross_entropy", scope="feat_only")
        assert np.abs(g_feat.linear_w).max() == 0.0
        assert any(np.abs(w).max() > 0 for w in g_feat.feat_w)
        _, g_lin = backward(m, (x, y), "cross_entropy", scope="linear_only")
        assert all(np.abs(w).max() == 0.0 for w in g_lin.feat_w)
        assert np.abs(g_lin.linear_w).max() > 0

    def test_gradients_match_finite_differences(self, rng):
        # Compact version of the acceptance-level check: one coordinate per
        # parameter family and loss kind.
        from olsofu.models import entropy_loss_grad, infonce_loss_grad, rotation_loss_grad

        m = init_model(5, 3, rng=make_rng(3))
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
        for fn in cases.values():
            _, g = fn(m)
            fw = [w.copy() for w in m.feat_weights]
            fw[0][0, 1] += eps
            up = fn(with_updates(m, feat_weights=tuple(fw)))[0]
            fw[0][0, 1] -= 2 * eps
            down = fn(with_updates(m, feat_weights=tuple(fw)))[0]
            fd = (up - down) / (2 * eps)
            a = g.feat_w[0][0, 1]
            assert abs(a - fd) / max(abs(a), abs(fd), 1e-8) < 1e-4


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
            train, TrainConfig(epochs=3), k=2, ssl_kind="rotation", ssl_weight=0.0
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
        a = train_supervised(train, TrainConfig(epochs=4), k=3, ssl_kind="rotation")
        b = train_supervised(train, TrainConfig(epochs=4), k=3, ssl_kind="rotation")
        np.testing.assert_array_equal(a.linear_w, b.linear_w)
        for wa, wb in zip(a.feat_weights, b.feat_weights):
            np.testing.assert_array_equal(wa, wb)

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


class TestRetrainLinear:
    def test_convex_optimum_is_init_independent(self, small_pretrained):
        pre = small_pretrained
        a = retrain_linear(pre.model, pre.train, rng=make_rng(1))
        b = retrain_linear(pre.model, pre.train, rng=make_rng(99))
        ce = lambda m: cross_entropy_loss_grad(
            m, pre.train.inputs, pre.train.labels
        )[0]
        assert abs(ce(a) - ce(b)) < 1e-3

    def test_features_frozen_bit_exact(self, small_pretrained):
        pre = small_pretrained
        new = retrain_linear(pre.model, pre.train, rng=make_rng(5))
        for wa, wb in zip(pre.model.feat_weights, new.feat_weights):
            np.testing.assert_array_equal(wa, wb)
        for ba_, bb in zip(pre.model.feat_biases, new.feat_biases):
            np.testing.assert_array_equal(ba_, bb)

    def test_retrained_head_matches_original_validation_accuracy(self, small_pretrained):
        pre = small_pretrained
        new = retrain_linear(pre.model, pre.train, rng=make_rng(6))
        assert accuracy(new, pre.val) >= accuracy(pre.model, pre.val) - 0.01


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

    def test_flat_logits_tie_break_to_one(self):
        rng = make_rng(3)
        m = init_model(4, 3, rng=rng)
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        from olsofu.synthdata import LabeledSet

        val = LabeledSet(rng.standard_normal((50, 4)), rng.integers(3, size=50))
        assert calibrate_temperature(m, val).temperature == 1.0

    def test_never_worse_than_unit_temperature(self, rng):
        from olsofu.synthdata import LabeledSet

        for seed in range(5):
            m = init_model(5, 3, rng=make_rng(seed))
            val = LabeledSet(rng.standard_normal((100, 5)), rng.integers(3, size=100))
            out = calibrate_temperature(m, val)
            _, _, logits = forward(m, val.inputs)
            assert (
                nll_at_temperature(logits, val.labels, out.temperature)
                <= nll_at_temperature(logits, val.labels, 1.0) + 1e-12
            )


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

class TestModelValue:
    def test_with_updates_bumps_uid(self):
        m = init_model(4, 2, rng=make_rng(0))
        m2 = with_updates(m, temperature=2.0)
        assert m2.uid != m.uid
        assert m2.temperature == 2.0 and m.temperature == 1.0

    def test_feature_activation_shapes(self, rng):
        m = init_model(6, 3, hidden=(16, 8), rng=make_rng(1))
        acts = feat_activations(m, rng.standard_normal((10, 6)))
        assert [a.shape[1] for a in acts] == [6, 16, 8]
