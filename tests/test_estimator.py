import numpy as np
import pytest

from olsofu.errors import IllConditionedConfusionError, InvalidArgumentError
from olsofu.estimator import (
    ConfusionMatrix,
    bbse_estimate,
    confusion_matrix,
    regularize_confusion,
)
from olsofu.models import ModelParams, forward, init_model, with_updates
from olsofu.numkit import is_simplex, make_rng
from olsofu.synthdata import LabeledSet


def table_model(columns: np.ndarray) -> ModelParams:
    """A model whose prediction on the one-hot input e_j is columns[:, j].

    ReLU identity features plus a log-probability head turn softmax into a
    lookup table, so confusion matrices can be pinned exactly.
    """
    k = columns.shape[0]
    return ModelParams(
        feat_weights=(np.eye(k),),
        feat_biases=(np.zeros(k),),
        linear_w=np.log(columns),
        linear_b=np.zeros(k),
        ssl_w=np.zeros((4, k)),
        ssl_b=np.zeros(4),
        activation="relu",
    )


def one_hot_val(k: int, reps: int = 3) -> LabeledSet:
    labels = np.repeat(np.arange(k), reps)
    return LabeledSet(np.eye(k)[labels], labels)


class TestConfusionMatrix:
    def test_perfect_classifier_gives_identity(self):
        # Saturated logits make the predictions exactly one-hot.
        m = table_model(np.array([[0.5, 0.5], [0.5, 0.5]]))
        m = with_updates(m, linear_w=np.array([[3000.0, -3000.0], [-3000.0, 3000.0]]))
        conf = confusion_matrix(m, one_hot_val(2))
        np.testing.assert_array_equal(conf.matrix, np.eye(2))
        assert conf.sigma_min == pytest.approx(1.0, abs=1e-12)

    def test_uniform_classifier_rejected(self):
        m = init_model(3, 3, rng=make_rng(0))
        m = with_updates(m, linear_w=np.zeros_like(m.linear_w),
                         linear_b=np.zeros_like(m.linear_b))
        rng = make_rng(1)
        val = LabeledSet(rng.standard_normal((30, 3)), np.repeat(np.arange(3), 10))
        with pytest.raises(IllConditionedConfusionError):
            confusion_matrix(m, val)

    def test_hand_computed_two_class_table(self):
        cols = np.array([[0.9, 0.2], [0.1, 0.8]])
        conf = confusion_matrix(table_model(cols), one_hot_val(2))
        np.testing.assert_allclose(conf.matrix, cols, atol=1e-12)

    def test_columns_sum_to_one(self, small_pretrained):
        conf = confusion_matrix(small_pretrained.model, small_pretrained.val)
        np.testing.assert_allclose(conf.matrix.sum(axis=0), 1.0, atol=1e-9)
        assert conf.matrix.min() >= 0 and conf.matrix.max() <= 1

    def test_missing_class_rejected(self):
        m = init_model(3, 3, rng=make_rng(2))
        val = LabeledSet(np.zeros((4, 3)), np.array([0, 0, 1, 1]))
        with pytest.raises(InvalidArgumentError, match=r"missing classes \[2\]$"):
            confusion_matrix(m, val)

    def test_layout_of_logits_is_a_speed_choice(self, small_pretrained):
        # Row-major and class-major logits give the confusion that a forward
        # of the validation set gives, bit for bit.
        pre = small_pretrained
        m = with_updates(pre.model, temperature=1.3)
        _, _, logits = forward(m, pre.val.inputs)
        ref = confusion_matrix(m, pre.val)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            conf = confusion_matrix(m, pre.val, layout(logits))
            np.testing.assert_array_equal(conf.matrix, ref.matrix)
            assert conf.sigma_min == ref.sigma_min


class TestRegularize:
    def degenerate(self, k=4):
        return ConfusionMatrix(np.full((k, k), 1.0 / k), 0.0, model_uid=-1)

    def test_zero_lambda_is_noop(self):
        c = self.degenerate()
        assert regularize_confusion(c, 0.0) is c

    def test_full_lambda_is_identity(self):
        out = regularize_confusion(self.degenerate(), 1.0)
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_uniform_degenerate_sigma(self):
        # (1 - lam) * rank-one + lam * I has eigenvalues {1, lam, ...}.
        out = regularize_confusion(self.degenerate(), 0.1)
        assert out.sigma_min == pytest.approx(0.1, abs=1e-12)

    def test_columns_stay_stochastic(self, small_pretrained):
        conf = confusion_matrix(small_pretrained.model, small_pretrained.val)
        out = regularize_confusion(conf, 0.37)
        np.testing.assert_allclose(out.matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_lambda_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            regularize_confusion(self.degenerate(), 1.5)


class TestBbseEstimate:
    def test_identity_confusion_returns_mean_prediction(self):
        cols = np.array([[0.9, 0.2], [0.1, 0.8]])
        m = table_model(cols)
        conf = ConfusionMatrix(np.eye(2), 1.0, m.uid)
        est = bbse_estimate(m, conf, np.eye(2)[[0, 0]])
        np.testing.assert_allclose(est.s, [0.9, 0.1], atol=1e-12)

    def test_symmetric_fixed_point(self):
        cols = np.array([[0.9, 0.1], [0.1, 0.9]])
        m = table_model(cols)
        conf = confusion_matrix(m, one_hot_val(2))
        est = bbse_estimate(m, conf, np.eye(2)[[0, 1]])  # mean pred (0.5, 0.5)
        np.testing.assert_allclose(est.s, [0.5, 0.5], atol=1e-12)

    def test_two_class_inverse(self):
        cols = np.array([[0.9, 0.1], [0.1, 0.9]])
        m = table_model(cols)
        conf = confusion_matrix(m, one_hot_val(2))
        est = bbse_estimate(m, conf, np.eye(2)[[0, 0, 0]])  # mean pred (0.9, 0.1)
        np.testing.assert_allclose(est.s, [1.0, 0.0], atol=1e-10)
        assert is_simplex(est.clipped)

    def test_stale_confusion_rejected(self, small_pretrained):
        pre = small_pretrained
        conf = confusion_matrix(pre.model, pre.val)
        other = with_updates(pre.model, temperature=2.0)
        with pytest.raises(InvalidArgumentError):
            bbse_estimate(other, conf, pre.val.inputs[:5])

    def test_clipped_is_always_simplex(self, small_pretrained, rng):
        pre = small_pretrained
        conf = confusion_matrix(pre.model, pre.val)
        for _ in range(20):
            batch = pre.pool.inputs[rng.integers(len(pre.pool), size=5)]
            est = bbse_estimate(pre.model, conf, batch)
            assert is_simplex(est.clipped)

    def test_confusion_maps_marginal_to_mean_prediction(self, small_pretrained, rng):
        # C q approximates the expected mean prediction under label
        # marginal q (Monte Carlo).
        pre = small_pretrained
        conf = confusion_matrix(pre.model, pre.val)
        q = np.array([0.5, 0.25, 0.15, 0.10])
        idx = [np.flatnonzero(pre.pool.labels == c) for c in range(4)]
        labels = rng.choice(4, size=20_000, p=q)
        rows = np.array([idx[int(c)][rng.integers(idx[int(c)].size)] for c in labels])
        probs, _, _ = forward(pre.model, pre.pool.inputs[rows])
        np.testing.assert_allclose(
            conf.matrix @ q, probs.mean(axis=0), atol=0.02
        )
