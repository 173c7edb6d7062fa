"""Soft confusion matrices and the black-box label-marginal estimator.

The estimator recovers the test-time label marginal as C^{-1} times the
mean classifier output over an unlabeled batch, where C is the soft
confusion of the same classifier measured on labeled validation data.
The raw estimate may leave the simplex; a projected copy is kept alongside
for consumers that need a valid distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedConfusionError,
    InvalidArgumentError,
)
from .models import ModelParams, forward
from .numkit import min_singular_value, project_simplex, softmax, solve_linear

# Below this the confusion is treated as effectively rank-deficient.
SIGMA_MIN_FLOOR = 1e-8

DEFAULT_REG_LAMBDA = 0.01


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic soft confusion with its cached sigma_min.

    ``model_uid`` records which model the matrix was measured from so the
    estimator can refuse mismatched pairings.
    """

    matrix: np.ndarray
    sigma_min: float
    model_uid: int

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MarginalEstimate:
    """Raw estimate s (possibly off-simplex) and its simplex projection;
    ``model_uid`` names the model the estimator forwarded, when known."""

    s: np.ndarray
    clipped: np.ndarray
    model_uid: int | None = None


def confusion_matrix(
    f: ModelParams, val, logits: np.ndarray | None = None
) -> ConfusionMatrix:
    """Soft confusion: column j is the mean predicted probability vector
    over validation points of class j.

    ``logits`` are ``f``'s validation logits if the caller already has
    them (the probabilities are then ``softmax(logits, f.temperature)``,
    exactly as ``forward`` computes them); otherwise ``val`` is forwarded.
    """
    k = f.n_classes
    labels = val.labels
    present = np.unique(labels)
    if present.size != k:
        missing = sorted(set(range(k)) - set(present.tolist()))
        raise InvalidArgumentError(f"validation set is missing classes {missing}")
    if logits is None:
        probs, _, _ = forward(f, val.inputs)
    else:
        probs = softmax(logits, f.temperature)
    c = np.empty((k, k))
    for j in range(k):
        c[:, j] = probs[labels == j].mean(axis=0)
    sigma = min_singular_value(c)
    if sigma < SIGMA_MIN_FLOOR:
        raise IllConditionedConfusionError(
            f"confusion matrix is rank-deficient (sigma_min={sigma:.3e})", sigma
        )
    return ConfusionMatrix(c, sigma, f.uid)


def regularize_confusion(c: ConfusionMatrix, lam: float) -> ConfusionMatrix:
    """Blend toward the identity: C' = (1 - lam) C + lam I.

    Keeps columns stochastic and bounds sigma_min away from zero for the
    inversion; lam = 0 is a no-op.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError("lambda must lie in [0, 1]")
    if lam == 0.0:
        return c
    blended = (1.0 - lam) * c.matrix + lam * np.eye(c.n_classes)
    return ConfusionMatrix(blended, min_singular_value(blended), c.model_uid)


def bbse_estimate(f: ModelParams, c: ConfusionMatrix, batch_inputs) -> MarginalEstimate:
    """Solve C s = mean_x f(x) for the unbiased marginal estimate.

    ``c`` must have been built (and possibly regularized) from the same
    model instance ``f``; pairing a stale confusion with a newer model
    silently breaks unbiasedness, so it is rejected.
    """
    probs, _, _ = forward(f, batch_inputs)
    probs = np.atleast_2d(probs)
    return bbse_estimates(f, c, probs, probs.shape[0])[0]


def bbse_estimates(
    f: ModelParams, c: ConfusionMatrix, probs: np.ndarray, batch_size: int
) -> list[MarginalEstimate]:
    """``bbse_estimate`` for consecutive batches from one forward of them.

    ``probs`` are ``f``'s predictions for the batches' rows stacked in
    order, ``batch_size`` rows per batch. One multi-RHS solve, with one
    condition check of C, gives every batch's estimate.
    """
    if c.model_uid != f.uid:
        raise InvalidArgumentError(
            "confusion matrix was built from a different model than the one "
            "supplied; rebuild it from the current model"
        )
    if probs.shape[1] != c.n_classes:
        raise InvalidArgumentError("batch prediction width != confusion size")
    mean_preds = probs.reshape(-1, batch_size, c.n_classes).mean(axis=1)
    s_all = solve_linear(c.matrix, mean_preds.T).T
    return [MarginalEstimate(s, project_simplex(s), f.uid) for s in s_all]
