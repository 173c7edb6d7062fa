"""Synthetic data generation and online shift-process simulation.

Class-conditional Gaussians with known means stand in for image data: the
source marginal is uniform, the test-time marginal follows a configured
shift process, and covariate corruptions emulate generalized label shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataExhaustedError, InvalidArgumentError, require
from .numkit import as_array, check_simplex, make_rng

SHIFT_KINDS = ("sinusoidal", "bernoulli", "constant", "monotone")
CORRUPTION_KINDS = ("none", "rotate2d", "gaussian_noise", "affine")


def default_means(k: int, d: int, sep: float = 2.0, layout: str = "axis") -> np.ndarray:
    """Class mean matrix (K x d).

    ``axis`` puts class k at sep * e_k. ``ring2d`` spaces the classes on a
    circle of radius sep in the first two coordinates, which makes planar
    rotations act directly on the class structure.
    """
    require(k >= 1, "k", "must be >= 1")
    require(sep >= 0, "sep", "must be >= 0")
    if layout == "axis":
        require(k <= d, "d", f"must be >= K for the axis layout ({d} < {k})")
        means = np.zeros((k, d))
        means[np.arange(k), np.arange(k)] = sep
        return means
    if layout == "ring2d":
        require(d >= 2, "d", "must be >= 2 for the ring2d layout")
        angles = 2.0 * np.pi * np.arange(k) / k
        means = np.zeros((k, d))
        means[:, 0] = sep * np.cos(angles)
        means[:, 1] = sep * np.sin(angles)
        return means
    raise InvalidArgumentError(f"layout {layout!r} is not axis or ring2d", "layout")


@dataclass(frozen=True)
class DataSpec:
    """Synthetic source-data configuration."""

    k: int
    d: int
    class_means: np.ndarray
    class_cov_scale: float = 1.0
    n_train: int = 2000
    n_val: int | None = None  # None -> n_train // 4 (4:1 split)
    n_test_pool: int = 2000

    def __post_init__(self):
        require(self.k >= 2, "k", "must be >= 2")
        require(self.d >= 2, "d", "must be >= 2 (rotation acts on two coordinates)")
        means = as_array(self.class_means, "class_means")
        require(means.shape == (self.k, self.d), "class_means",
                f"must be ({self.k}, {self.d}), got {means.shape}")
        object.__setattr__(self, "class_means", means)
        require(self.class_cov_scale >= 0, "class_cov_scale", "must be >= 0")
        require(self.n_train >= self.k, "n_train", f"must be >= k={self.k}")
        require(self.val_count >= self.k, "n_train" if self.n_val is None else "n_val",
                f"gives {self.val_count} validation rows, fewer than the k={self.k} "
                "classes the confusion matrix needs")
        require(self.n_test_pool >= 1, "n_test_pool", "must be >= 1")

    @property
    def val_count(self) -> int:
        return self.n_val if self.n_val is not None else self.n_train // 4


@dataclass
class LabeledSet:
    """Inputs with integer labels in [0, K)."""

    inputs: np.ndarray
    labels: np.ndarray
    _class_idx: dict | None = field(default=None, repr=False, compare=False)
    _class_order: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = as_array(self.inputs, "inputs")
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise InvalidArgumentError("inputs must be n x d, labels length n")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InvalidArgumentError("inputs and labels disagree on n")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def class_indices(self, k: int) -> dict[int, np.ndarray]:
        if self._class_idx is None or len(self._class_idx) != k:
            self._class_idx = {
                c: np.flatnonzero(self.labels == c) for c in range(k)
            }
        return self._class_idx

    def class_order(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices sorted by class (the ``class_indices`` concatenated),
        with each class's start offset in that order and its size."""
        if self._class_order is None or self._class_order[2].size != k:
            idx = self.class_indices(k)
            sizes = np.array([idx[c].size for c in range(k)])
            order = np.concatenate([idx[c] for c in range(k)])
            self._class_order = (order, np.cumsum(sizes) - sizes, sizes)
        return self._class_order


@dataclass(frozen=True)
class ShiftPattern:
    """Label-marginal process q_t = alpha_t * q + (1 - alpha_t) * q_prime."""

    kind: str
    q: np.ndarray
    q_prime: np.ndarray
    horizon: int
    switch_prob: float | None = None  # bernoulli only; None -> 1 - 1/sqrt(T)
    alphas: np.ndarray | None = None  # realized sequence (bernoulli)

    def __post_init__(self):
        require(self.kind in SHIFT_KINDS, "kind", f"{self.kind!r} is not one of {SHIFT_KINDS}")
        object.__setattr__(self, "q", check_simplex(self.q, "q"))
        object.__setattr__(self, "q_prime", check_simplex(self.q_prime, "q_prime"))
        require(self.q.shape == self.q_prime.shape, "q", "must have the length of q_prime")
        require(self.horizon >= 1, "horizon", "must be >= 1")
        require(self.switch_prob is None or 0.0 <= self.switch_prob <= 1.0,
                "switch_prob", "must lie in [0, 1]")


def uniform_simplex(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


def one_hot(k: int, index: int = 0) -> np.ndarray:
    v = np.zeros(k)
    v[index] = 1.0
    return v


def default_pattern(kind: str, k: int, horizon: int, switch_prob=None) -> ShiftPattern:
    """Pattern between uniform q and a one-hot q' on class 0."""
    return ShiftPattern(kind, uniform_simplex(k), one_hot(k, 0), horizon, switch_prob)


def default_switch_prob(horizon: int) -> float:
    """Bernoulli flip probability when none is configured: 1 - 1/sqrt(T)."""
    return 1.0 - 1.0 / np.sqrt(horizon)


def realize_pattern(pattern: ShiftPattern, rng: np.random.Generator) -> ShiftPattern:
    """Draw the random bits a bernoulli pattern needs; no-op otherwise.

    The bit starts at 0 (the process starts at q_prime) and flips at each
    subsequent step with probability switch_prob, defaulting to
    1 - 1/sqrt(T).
    """
    if pattern.kind != "bernoulli":
        return pattern
    p = pattern.switch_prob
    if p is None:
        p = default_switch_prob(pattern.horizon)
    alphas = np.empty(pattern.horizon)
    bit = 0.0
    for t in range(pattern.horizon):
        if t > 0 and rng.random() < p:
            bit = 1.0 - bit
        alphas[t] = bit
    return replace(pattern, alphas=alphas)


def marginal_at(pattern: ShiftPattern, t: int) -> np.ndarray:
    """True label marginal q_t for step t in [1, T]."""
    if not 1 <= t <= pattern.horizon:
        raise InvalidArgumentError(
            f"t={t} outside [1, {pattern.horizon}]"
        )
    if pattern.kind == "constant":
        alpha = 1.0
    elif pattern.kind == "monotone":
        # Ramp from q' (t=1) to q (t=T); the full path length is then
        # exactly ||q - q'||_1.
        alpha = 1.0 if pattern.horizon == 1 else (t - 1) / (pattern.horizon - 1)
    elif pattern.kind == "sinusoidal":
        period = max(1, round(np.sqrt(pattern.horizon)))
        i = t % period
        alpha = np.sin(np.pi * i / period)
    else:  # bernoulli
        if pattern.alphas is None:
            raise InvalidArgumentError(
                "bernoulli pattern must be realized with an rng first"
            )
        alpha = pattern.alphas[t - 1]
    return alpha * pattern.q + (1.0 - alpha) * pattern.q_prime


def marginal_path(pattern: ShiftPattern) -> np.ndarray:
    """All marginals stacked as a (T x K) array."""
    return np.stack([marginal_at(pattern, t) for t in range(1, pattern.horizon + 1)])


def path_length(qs: np.ndarray) -> float:
    """Shift severity: sum over t >= 2 of ||q_t - q_{t-1}||_1."""
    if qs.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(qs, axis=0)).sum())


@dataclass(frozen=True)
class CorruptionSpec:
    """Covariate transform applied to test inputs (generalized shift)."""

    kind: str = "none"
    severity: float = 0.0
    angle: float = 0.0  # degrees, rotate2d only

    def __post_init__(self):
        require(self.kind in CORRUPTION_KINDS, "kind",
                f"{self.kind!r} is not one of {CORRUPTION_KINDS}")
        require(self.severity >= 0, "severity", "must be >= 0")


def corrupt(x: np.ndarray, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply the corruption to a vector or a batch of row vectors."""
    x = as_array(x, "x")
    if spec.kind == "none":
        return x.copy()
    if spec.kind == "rotate2d":
        theta = np.deg2rad(spec.angle)
        c, s = np.cos(theta), np.sin(theta)
        out = x.copy()
        x0 = x[..., 0].copy()
        x1 = x[..., 1].copy()
        out[..., 0] = c * x0 - s * x1
        out[..., 1] = s * x0 + c * x1
        return out
    if spec.kind == "gaussian_noise":
        return x + spec.severity * rng.standard_normal(x.shape)
    # affine
    return (1.0 + spec.severity) * x + spec.severity


def make_source_data(
    spec: DataSpec, seed: int
) -> tuple[LabeledSet, LabeledSet, LabeledSet, np.ndarray]:
    """Draw (train, val, test_pool, q0) from the spec's Gaussian classes.

    Train and validation labels are i.i.d. from the uniform source marginal
    q0, and each split must hold every class; the test pool is
    class-stratified so any test-time marginal can be sampled from it with
    replacement.
    """
    means = spec.class_means
    if spec.class_cov_scale == 0.0:
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() == 0.0:
            raise InvalidArgumentError(
                "identical class means with zero covariance are degenerate"
            )
    rng = make_rng(seed)
    q0 = uniform_simplex(spec.k)

    def draw(labels):
        return LabeledSet(draw_class_inputs(means, spec.class_cov_scale, labels, rng), labels)

    def draw_split(n, split, field):
        labels = rng.choice(spec.k, size=n, p=q0)
        missing = np.setdiff1d(np.arange(spec.k), labels).tolist()
        require(not missing, field,
                f"gives a {split} split without class(es) {missing}; increase it")
        return draw(labels)

    train = draw_split(spec.n_train, "train", "n_train")
    val = draw_split(spec.val_count, "validation",
                     "n_train" if spec.n_val is None else "n_val")
    per_class = max(1, spec.n_test_pool // spec.k)
    pool = draw(np.repeat(np.arange(spec.k), per_class))
    return train, val, pool, q0


def draw_class_inputs(
    means: np.ndarray, cov_scale: float, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Inputs for ``labels`` from the isotropic Gaussian classes: row i is
    ``means[labels[i]]`` plus N(0, cov_scale I) noise, drawn in one
    ``rng.standard_normal`` call."""
    return means[labels] + np.sqrt(cov_scale) * rng.standard_normal(
        (labels.size, means.shape[1])
    )


def sample_batch(
    q_t: np.ndarray,
    batch_size: int,
    pool: LabeledSet,
    corruption: CorruptionSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a test batch: labels ~ q_t, inputs resampled from the pool.

    The returned labels are for error accounting only and must never reach
    adaptation code.
    """
    q_t = check_simplex(q_t, "q_t")
    order, starts, sizes = pool.class_order(q_t.shape[0])
    empty = np.flatnonzero((q_t > 0) & (sizes == 0))
    if empty.size:
        raise DataExhaustedError(f"test pool has no entries for class {int(empty[0])}")
    # The labels rng.choice(k, size=batch_size, p=q_t) draws, from the same
    # uniforms; then one uniform member of each label's class per row.
    cdf = q_t.cumsum()
    cdf /= cdf[-1]
    labels = cdf.searchsorted(rng.random(batch_size), side="right")
    rows = order[starts[labels] + rng.integers(sizes[labels])]
    inputs = corrupt(pool.inputs[rows], corruption, rng)
    return inputs, labels


def bayes_error_mc(
    means: np.ndarray,
    cov_scale: float,
    q: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo Bayes error of the Gaussian mixture under marginal q.

    The Bayes rule is known in closed form (argmax of log q_k minus squared
    distance over 2*cov), so only the expectation is sampled.
    """
    means = as_array(means, "means")
    q = check_simplex(q, "q")
    labels = rng.choice(q.shape[0], size=n_samples, p=q)
    x = draw_class_inputs(means, cov_scale, labels, rng)
    if cov_scale <= 0:
        d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        pred = np.argmin(d2, axis=1)
        return float(np.mean(pred != labels))
    with np.errstate(divide="ignore"):
        logq = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
    scores = logq[None, :] - ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2) / (
        2.0 * cov_scale
    )
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred != labels))

