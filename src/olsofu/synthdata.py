"""Synthetic data generation and online shift-process simulation.

Class-conditional Gaussians with known means stand in for image data: the
source marginal is uniform, the test-time marginal follows a configured
shift process, and covariate corruptions emulate generalized label shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataExhaustedError, InvalidArgumentError, require
from .numkit import SIMPLEX_ATOL, as_array, check_simplex, make_rng, rotate2d

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
        if self.class_cov_scale == 0.0:
            gaps = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
            require(gaps[np.triu_indices(self.k, 1)].min() > 0.0, "class_cov_scale",
                    "must be > 0 when two class means are identical")
        require(self.n_train >= self.k, "n_train", f"must be >= k={self.k}")
        require(self.val_count >= self.k, "n_train" if self.n_val is None else "n_val",
                f"gives {self.val_count} validation rows, fewer than the k={self.k} "
                "classes the confusion matrix needs")
        require(self.n_test_pool >= 1, "n_test_pool", "must be >= 1")

    @property
    def val_count(self) -> int:
        return self.n_val if self.n_val is not None else self.n_train // 4


class ClassLayout(NamedTuple):
    """Where the classes sit once a set's rows are sorted by class: row i of
    the class-ordered set is row ``order[i]`` of the set, class k is the
    basic slice ``slices[k]``, ``counts[k]`` rows from row ``starts[k]``,
    and ``labels`` holds each class-ordered row's class."""

    order: np.ndarray
    slices: tuple
    counts: np.ndarray
    starts: np.ndarray
    labels: np.ndarray


def class_layout(sizes) -> ClassLayout:
    """The layout of consecutive class runs of the given sizes, of rows
    that are already in class order (``order`` is the identity)."""
    counts = np.asarray(sizes)
    starts = np.cumsum(counts) - counts
    return ClassLayout(
        order=np.arange(counts.sum()),
        slices=tuple(slice(a, a + n) for a, n in zip(starts, counts)),
        counts=counts,
        starts=starts,
        labels=np.repeat(np.arange(counts.size), counts),
    )


@dataclass
class LabeledSet:
    """Inputs with integer labels in [0, K)."""

    inputs: np.ndarray
    labels: np.ndarray
    _layout: ClassLayout | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.inputs = as_array(self.inputs, "inputs")
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise InvalidArgumentError("inputs must be n x d, labels length n")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InvalidArgumentError("inputs and labels disagree on n")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def class_layout(self, k: int) -> ClassLayout:
        """The set's rows grouped by class, stably (each class keeps its rows
        in their order), for K = ``k`` classes; built once per set."""
        if self._layout is None or self._layout.counts.size != k:
            sizes = np.bincount(self.labels, minlength=k)[:k]
            order = np.argsort(self.labels, kind="stable")
            self._layout = class_layout(sizes)._replace(order=order)
        return self._layout


@dataclass(frozen=True)
class ShiftPattern:
    """Label-marginal process q_t = alpha_t * q + (1 - alpha_t) * q_prime."""

    kind: str
    q: np.ndarray
    q_prime: np.ndarray
    horizon: int
    switch_prob: float | None = None  # bernoulli only; None -> 1 - 1/sqrt(T)

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


def marginal_path(pattern: ShiftPattern, rng: np.random.Generator) -> np.ndarray:
    """True label marginals q_1..q_T stacked as a (T, K) array.

    A bernoulli pattern draws its T - 1 switches from ``rng`` in one call:
    alpha starts at 0 (the process starts at q_prime) and flips at each
    later step with probability switch_prob, defaulting to 1 - 1/sqrt(T).
    The other kinds draw nothing.
    """
    horizon = pattern.horizon
    t = np.arange(1, horizon + 1)
    if pattern.kind == "constant":
        alpha = np.ones(horizon)
    elif pattern.kind == "monotone":
        # Ramp from q' (t=1) to q (t=T); the full path length is then
        # exactly ||q - q'||_1.
        alpha = np.ones(horizon) if horizon == 1 else (t - 1) / (horizon - 1)
    elif pattern.kind == "sinusoidal":
        period = max(1, round(np.sqrt(horizon)))
        alpha = np.sin(np.pi * (t % period) / period)
    else:  # bernoulli
        p = pattern.switch_prob
        p = default_switch_prob(horizon) if p is None else p
        alpha = np.zeros(horizon)
        alpha[1:] = np.cumsum(rng.random(horizon - 1) < p) % 2
    return alpha[:, None] * pattern.q + (1.0 - alpha)[:, None] * pattern.q_prime


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
    noise = rng.standard_normal(x.shape) if spec.kind == "gaussian_noise" else None
    return _corrupted(x, spec, noise)


def _corrupted(x: np.ndarray, spec: CorruptionSpec, noise: np.ndarray | None) -> np.ndarray:
    """``x`` under a corruption other than none; ``noise``, shaped like
    ``x``, holds the standard normals that gaussian_noise scales and adds."""
    if spec.kind == "rotate2d":
        return rotate2d(x, spec.angle)
    if spec.kind == "gaussian_noise":
        return x + spec.severity * noise
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
    """Draw a test batch: labels ~ q_t, inputs resampled from the pool; the
    one-row case of ``sample_batches``.

    The returned labels are for error accounting only and must never reach
    adaptation code.
    """
    q_t = check_simplex(q_t, "q_t")
    inputs, labels = sample_batches(q_t[None], batch_size, pool, corruption, rng)
    return inputs[0], labels[0]


def sample_batches(
    qs: np.ndarray,
    batch_size: int,
    pool: LabeledSet,
    corruption: CorruptionSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one test batch per row of the (m, K) marginals ``qs``: inputs
    (m, batch_size, d) and labels (m, batch_size), bit for bit what
    ``sample_batch`` on each row in turn draws, and leaving ``rng`` where
    those calls leave it.

    Every row is checked before anything is drawn. A row that
    ``sample_batch`` refuses raises the error it raises, for the first
    such row, with that row's index as the error's ``row`` attribute, so a
    caller can draw the rows before it. Each batch's draws (its labels'
    uniforms, its pool members and, for gaussian_noise, its noise) keep
    their stream order; the pool rows are gathered and corrupted in one
    pass over all the batches.

    The returned labels are for error accounting only and must never reach
    adaptation code.
    """
    qs = np.asarray(qs, dtype=float)
    require(qs.ndim == 2 and qs.shape[1] >= 1, "qs", "must be an (m, K) array with K >= 1")
    layout = pool.class_layout(qs.shape[1])
    counts = layout.counts
    with np.errstate(invalid="ignore"):  # a row holding inf and -inf sums to NaN
        bad = (~np.isfinite(qs).all(axis=1) | (qs.min(axis=1) < -SIMPLEX_ATOL)
               | (np.abs(qs.sum(axis=1) - 1.0) > SIMPLEX_ATOL))
    if not counts.all():
        bad |= (qs[:, counts == 0] > 0).any(axis=1)
    for row in np.flatnonzero(bad):
        try:
            _check_marginal(qs[row], counts)
        except (InvalidArgumentError, DataExhaustedError) as exc:
            exc.row = int(row)
            raise
    # Row i's labels are those rng.choice(k, size=batch_size, p=qs[i]) draws,
    # from the same uniforms; then one uniform member of each label's class.
    cdfs = qs.cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    labels = np.empty((qs.shape[0], batch_size), dtype=np.intp)
    picks = np.empty_like(labels)
    noise = None
    if corruption.kind == "gaussian_noise":
        noise = np.empty((*labels.shape, pool.inputs.shape[1]))
    for i, cdf in enumerate(cdfs):
        labels[i] = cdf.searchsorted(rng.random(batch_size), side="right")
        picks[i] = rng.integers(counts[labels[i]])
        if noise is not None:
            rng.standard_normal(out=noise[i])
    inputs = pool.inputs[layout.order[layout.starts[labels] + picks]]  # a fresh array
    if corruption.kind != "none":
        inputs = _corrupted(inputs, corruption, noise)
    return inputs, labels


def _check_marginal(q_t: np.ndarray, counts: np.ndarray) -> None:
    """Refuse a marginal off the simplex, or with mass on a class whose
    pool ``counts`` are zero."""
    q_t = check_simplex(q_t, "q_t")
    empty = np.flatnonzero((q_t > 0) & (counts == 0))
    if empty.size:
        raise DataExhaustedError(f"test pool has no entries for class {int(empty[0])}")


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

