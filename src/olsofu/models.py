"""Small dense network with manual forward/backward passes.

The network is a tanh MLP feature extractor, a linear classification head
producing temperature-scaled probabilities, and a 4-way auxiliary head used
for rotation prediction. All gradients are computed analytically; the test
suite checks every loss against central finite differences.

A model's parameters live in one flat float vector ``theta``; the named
fields are views into it. Every gradient is a vector with the same layout,
so an optimiser step is vector arithmetic on ``theta`` and ``with_theta``
turns the result back into a model.

Models are values: every training operation returns a new instance and the
``uid`` field tracks lineage so downstream caches can pair artifacts with
the exact model that produced them, across processes: a uid carries its pid.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, TrainingDivergedError, require
from .numkit import as_array, make_rng, rotate2d, softmax

SSL_KINDS = ("rotation", "entropy", "infonce", "none")
ROTATION_DEGREES = (0.0, 90.0, 180.0, 270.0)

_uid_counter = itertools.count(1)


def _new_uid() -> int:
    return os.getpid() << 32 | next(_uid_counter)


class _Views(NamedTuple):
    """A vector laid out like ``ModelParams.theta``, split by field name."""

    feat_weights: tuple
    feat_biases: tuple
    linear_w: np.ndarray
    linear_b: np.ndarray
    ssl_w: np.ndarray
    ssl_b: np.ndarray


@functools.lru_cache(maxsize=64)
def _check_layout(shapes: tuple, n_layers: int) -> tuple:
    """Check a model's parameter shapes, given in field order, and return
    each array's (start, stop, shape) in ``theta``. Cached per architecture:
    every retrain and calibration builds a model."""
    weights, biases, heads = shapes[:n_layers], shapes[n_layers:-4], shapes[-4:]
    two_d = all(len(s) == 2 for s in (*weights, heads[0]))
    if not weights or len(biases) != n_layers or not two_d:
        raise InvalidArgumentError("need 2-D weights and one bias per feature layer")
    for (o1, _), (_, i2) in zip(weights, weights[1:]):
        if o1 != i2:
            raise InvalidArgumentError("feature layer dimensions do not chain")
    h, k, r = weights[-1][0], heads[0][0], len(ROTATION_DEGREES)
    names = [f"feat_biases[{i}]" for i in range(n_layers)]
    names += ["linear_w", "linear_b", "ssl_w", "ssl_b"]
    expected = [(o,) for o, _ in weights] + [(k, h), (k,), (r, h), (r,)]
    for name, got, want in zip(names, biases + heads, expected):
        if got != want:
            raise InvalidArgumentError(f"{name} has shape {got}, expected {want}")
    layout, start = [], 0
    for shape in shapes:
        layout.append((start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return tuple(layout)


@dataclass(frozen=True)
class ModelParams:
    """Feature extractor + classification head + auxiliary rotation head.

    The constructor copies the six parameter families into one flat vector
    ``theta``, rebinds the fields as views into it and draws a fresh
    ``uid``, also for a copy made with ``dataclasses.replace``.
    """

    feat_weights: tuple  # each (out, in)
    feat_biases: tuple  # each (out,)
    linear_w: np.ndarray  # (K, h)
    linear_b: np.ndarray  # (K,)
    ssl_w: np.ndarray  # (4, h)
    ssl_b: np.ndarray  # (4,)
    temperature: float = 1.0
    activation: str = "tanh"
    uid: int = field(default_factory=_new_uid, init=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidArgumentError("temperature must be > 0")
        if self.activation not in ("tanh", "relu"):
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")
        arrays = [
            *self.feat_weights, *self.feat_biases,
            self.linear_w, self.linear_b, self.ssl_w, self.ssl_b,
        ]
        shapes = tuple(np.shape(a) for a in arrays)
        object.__setattr__(self, "_layout", _check_layout(shapes, len(self.feat_weights)))
        self._bind(np.concatenate([np.ravel(a) for a in arrays], dtype=float))

    def _bind(self, theta: np.ndarray) -> None:
        object.__setattr__(self, "theta", theta)
        for name, view in zip(_Views._fields, self.views(theta)):
            object.__setattr__(self, name, view)

    def views(self, vec: np.ndarray) -> _Views:
        """Split a vector laid out like ``theta`` (a gradient, a velocity)
        into views named like the model's fields."""
        # Plain slicing: this runs several times per SGD step.
        parts = [vec[start:stop].reshape(shape) for start, stop, shape in self._layout]
        n = len(self.feat_weights)
        return _Views(tuple(parts[:n]), tuple(parts[n : 2 * n]), *parts[2 * n :])

    @property
    def n_classes(self) -> int:
        return self.linear_w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.feat_weights[0].shape[1]


def with_updates(m: ModelParams, **changes) -> ModelParams:
    """Copy a model with some fields replaced and a fresh uid."""
    return replace(m, **changes)


def with_theta(m: ModelParams, theta: np.ndarray) -> ModelParams:
    """Copy a model with every parameter taken from ``theta``, a vector laid
    out like ``m.theta``; temperature and activation are kept."""
    if np.shape(theta) != m.theta.shape:
        raise InvalidArgumentError(f"theta must have shape {m.theta.shape}")
    # The layout is m's, so skip the constructor's shape checks and packing:
    # every online feature update builds a model.
    new = copy.copy(m)
    object.__setattr__(new, "uid", _new_uid())
    new._bind(np.array(theta, dtype=float))
    return new


def init_model(
    d: int,
    k: int,
    hidden=(32, 32),
    rng: np.random.Generator | None = None,
    activation: str = "tanh",
) -> ModelParams:
    """Symmetric uniform init scaled by 1/sqrt(fan_in)."""
    rng = rng if rng is not None else make_rng(0)

    def layer(n_out, n_in):
        bound = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        b = rng.uniform(-bound, bound, size=n_out)
        return w, b

    sizes = [d, *hidden]
    feat = [layer(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
    lin_w, lin_b = layer(k, sizes[-1])
    ssl_w, ssl_b = layer(len(ROTATION_DEGREES), sizes[-1])
    return ModelParams(
        feat_weights=tuple(w for w, _ in feat),
        feat_biases=tuple(b for _, b in feat),
        linear_w=lin_w,
        linear_b=lin_b,
        ssl_w=ssl_w,
        ssl_b=ssl_b,
        activation=activation,
    )


def _act(m: ModelParams, z: np.ndarray) -> np.ndarray:
    """The activation of pre-activations ``z``, computed in place."""
    return np.tanh(z, out=z) if m.activation == "tanh" else np.maximum(z, 0.0, out=z)


def _act_deriv_from_output(m: ModelParams, a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a if m.activation == "tanh" else (a > 0).astype(float)


def feat_activations(m: ModelParams, x: np.ndarray) -> list:
    """Forward through the feature stack; returns [input, a_1, ..., features]."""
    acts = [x]
    for w, b in zip(m.feat_weights, m.feat_biases):
        z = acts[-1] @ w.T
        z += b
        acts.append(_act(m, z))
    return acts


def _head_logits(m: ModelParams, feats: np.ndarray, head: tuple | None = None) -> np.ndarray:
    w, b = (m.linear_w, m.linear_b) if head is None else head
    return feats @ w.swapaxes(-1, -2) + b


def head_output(
    m: ModelParams, feats: np.ndarray, head: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, logits) of the classification head on features ``feats``;
    ``forward`` computes its outputs with exactly this arithmetic. A stack
    of m heads, ``w`` (m, K, h) and ``b`` (m, 1, K), maps stacked features
    (m, n, h) to stacked outputs (m, n, K), each as its own head would."""
    logits = _head_logits(m, feats, head)
    return softmax(logits, m.temperature), logits


def _features(m: ModelParams, x) -> tuple[np.ndarray, bool]:
    """The features of ``x``, one input vector or a batch of row vectors,
    which must be finite and of ``m``'s input width, as a batch; and
    whether ``x`` was one vector."""
    x = as_array(x, "x")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != m.input_dim:
        raise InvalidArgumentError(
            f"input dimension {batch.shape[1]} != model dimension {m.input_dim}"
        )
    return feat_activations(m, batch)[-1], single


def forward(m: ModelParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model forward pass: (probs, features, logits).

    Accepts one input vector or a batch of row vectors; output shapes
    mirror the input.
    """
    feats, single = _features(m, x)
    probs, logits = head_output(m, feats)
    if single:
        return probs[0], feats[0], logits[0]
    return probs, feats, logits


def forward_logits(m: ModelParams, x) -> np.ndarray:
    """The logits of a batch ``x``, ``forward(m, x)[2]`` bit for bit, for
    a caller that reads no probabilities: the same checks (finite inputs
    of ``m``'s width, and finite logits, which the softmax requires) and
    the same arithmetic, without the softmax."""
    return as_array(_head_logits(m, _features(m, x)[0]), "logits")


def _backprop_features(m: ModelParams, acts: list, dfeats: np.ndarray, gv: _Views):
    """Write into ``gv``'s feature-layer entries the gradient of a loss whose
    derivative with respect to the features ``acts[-1]`` is ``dfeats``, which
    serves as scratch."""
    delta = dfeats
    for layer in reversed(range(len(m.feat_weights))):
        delta *= _act_deriv_from_output(m, acts[layer + 1])
        np.matmul(delta.T, acts[layer], out=gv.feat_weights[layer])
        delta.sum(axis=0, out=gv.feat_biases[layer])
        if layer:  # no caller reads the gradient of the input
            delta = delta @ m.feat_weights[layer]


def _zero_grad(m: ModelParams) -> tuple[np.ndarray, _Views]:
    """A zero vector laid out like ``m.theta`` and its views."""
    g = np.zeros_like(m.theta)
    return g, m.views(g)


def _head_grad(
    m: ModelParams, acts: list, dlogits: np.ndarray, head: str, out: tuple | None = None
) -> np.ndarray:
    """Gradient, laid out like ``m.theta``, of a loss whose derivative with
    respect to the logits ``acts[-1] @ w.T + b`` of ``head`` is ``dlogits``.
    It is written into ``out``, a ``(vector, views)`` pair whose other
    head's entries are zero, or into a new vector."""
    g, gv = _zero_grad(m) if out is None else out
    np.matmul(dlogits.T, acts[-1], out=getattr(gv, f"{head}_w"))
    dlogits.sum(axis=0, out=getattr(gv, f"{head}_b"))
    _backprop_features(m, acts, dlogits @ getattr(m, f"{head}_w"), gv)
    return g


def mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of each row's label; a probability
    below 1e-300 counts as 1e-300, so the result is finite."""
    return _mean_neg_log(probs[np.arange(len(labels)), labels])


def _mean_neg_log(picked: np.ndarray) -> float:
    """``mean_nll`` of the labelled probabilities ``picked``, which it
    overwrites."""
    np.maximum(picked, 1e-300, out=picked)
    np.log(picked, out=picked)
    # The sum over the count is np.mean's arithmetic, without its overhead;
    # rounding is symmetric, so -sum(a) is sum(-a) bit for bit.
    return float(-picked.sum() / len(picked))


def _labelled_ce_grad(
    m: ModelParams, x: np.ndarray, labels: np.ndarray, head: str, temperature: float,
    out: tuple | None = None,
) -> tuple[float, np.ndarray]:
    """Mean CE of ``head``'s softmax at ``temperature`` against ``labels``
    on inputs ``x``, and its gradient laid out like ``m.theta``, written
    into ``out`` as ``_head_grad`` describes."""
    n = x.shape[0]
    acts = feat_activations(m, x)
    logits = acts[-1] @ getattr(m, f"{head}_w").T
    logits += getattr(m, f"{head}_b")
    probs = softmax(logits, temperature, out=logits)
    loss = mean_nll(probs, labels)
    probs[np.arange(n), labels] -= 1.0
    probs /= n * temperature
    return loss, _head_grad(m, acts, probs, head, out)


def cross_entropy_loss_grad(
    m: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    return _labelled_ce_grad(
        m, as_array(x, "x"), np.asarray(y, dtype=int), "linear", m.temperature
    )


def entropy_loss_grad(m: ModelParams, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean prediction entropy H(f(x)) = -sum_k f(x)_k log f(x)_k."""
    x = as_array(x, "x")
    n = x.shape[0]
    acts = feat_activations(m, x)
    probs, _ = head_output(m, acts[-1])
    logp = np.log(np.maximum(probs, 1e-300))
    ent = -(probs * logp).sum(axis=1)
    loss = float(np.mean(ent))
    # dH/du_j = -p_j (log p_j + H) for u = logits / temperature
    dlogits = -probs * (logp + ent[:, None]) / (n * m.temperature)
    return loss, _head_grad(m, acts, dlogits, "linear")


def rotation_loss_grad(
    m: ModelParams, x: np.ndarray, degree_idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """Rotation prediction: the auxiliary head classifies which of
    {0, 90, 180, 270} degrees was applied. ``degree_idx`` fixes the draw so
    gradients can be checked against finite differences."""
    degree_idx = np.asarray(degree_idx, dtype=int)
    degrees = np.asarray(ROTATION_DEGREES)[degree_idx]
    x_rot = rotate2d(as_array(x, "x"), degrees)
    return _labelled_ce_grad(m, x_rot, degree_idx, "ssl", 1.0)


def infonce_loss_grad(
    m: ModelParams,
    x: np.ndarray,
    x_aug: np.ndarray,
    temperature: float,
) -> tuple[float, np.ndarray]:
    """InfoNCE on cosine similarity of features: row i's positive is its own
    augmentation, the other augmented rows are negatives."""
    x = as_array(x, "x")
    x_aug = as_array(x_aug, "x_aug")
    n = x.shape[0]
    if n < 2:
        raise InvalidArgumentError("infonce needs a batch of at least 2 inputs")
    if temperature <= 0:
        raise InvalidArgumentError("infonce temperature must be > 0")
    acts_a = feat_activations(m, x)
    acts_b = feat_activations(m, x_aug)
    za, zb = acts_a[-1], acts_b[-1]
    # Row-normalise; keep norms for the chain rule through the cosine.
    ra = np.maximum(np.linalg.norm(za, axis=1, keepdims=True), 1e-12)
    rb = np.maximum(np.linalg.norm(zb, axis=1, keepdims=True), 1e-12)
    u, v = za / ra, zb / rb
    # One n x n buffer holds the similarities, their softmax and its gradient.
    sims = np.matmul(u, v.T)
    sims /= temperature
    dsims = softmax(sims, out=sims)
    loss = mean_nll(dsims, np.arange(n))
    dsims[np.arange(n), np.arange(n)] -= 1.0
    dsims /= n * temperature
    du = dsims @ v
    dv = dsims.T @ u
    del sims, dsims  # free the n x n buffer before the backward passes
    dza = (du - (du * u).sum(axis=1, keepdims=True) * u) / ra
    dzb = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / rb
    (g, gv), (g_b, gv_b) = _zero_grad(m), _zero_grad(m)
    _backprop_features(m, acts_a, dza, gv)
    _backprop_features(m, acts_b, dzb, gv_b)
    g += g_b  # branch a's gradient plus branch b's
    return loss, g


@dataclass(frozen=True)
class SslSpec:
    """Self-supervised loss choice and its update hyperparameters."""

    kind: str = "none"
    ssl_lr: float = 0.01  # feature-update step size
    # Batch-accumulation period (update every ba steps); None -> 50 for
    # infonce, whose loss needs many inputs per update, else 1.
    ba: int | None = None
    inner_steps: int = 1  # gradient steps per update
    infonce_temperature: float = 0.07
    augment_noise: float = 0.1

    def __post_init__(self):
        require(self.kind in SSL_KINDS, "kind", f"{self.kind!r} is not one of {SSL_KINDS}")
        if self.ba is None:
            object.__setattr__(self, "ba", 50 if self.kind == "infonce" else 1)
        require(self.ssl_lr >= 0, "ssl_lr", "must be >= 0")
        require(self.ba >= 1, "ba", "must be >= 1")
        require(self.inner_steps >= 1, "inner_steps", "must be >= 1")
        require(self.infonce_temperature > 0, "infonce_temperature", "must be > 0")
        require(self.augment_noise >= 0, "augment_noise", "must be >= 0")


def backward(
    m: ModelParams, x: np.ndarray, spec: SslSpec, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """Batch-mean self-supervised loss ``spec.kind`` on inputs ``x`` and its
    analytic gradient, laid out like ``m.theta``.

    Rotation and InfoNCE draw their degrees / augmentations from ``rng`` and
    delegate to the explicit-argument variants above; InfoNCE takes its
    temperature and augmentation noise from ``spec``.
    """
    if spec.kind == "none":
        raise InvalidArgumentError("backward needs an ssl kind other than 'none'")
    x = as_array(x, "inputs")
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgumentError("batch inputs must be a nonempty n x d matrix")
    if spec.kind == "entropy":
        return entropy_loss_grad(m, x)
    if spec.kind == "rotation":
        degree_idx = rng.integers(len(ROTATION_DEGREES), size=x.shape[0])
        return rotation_loss_grad(m, x, degree_idx)
    x_aug = x + spec.augment_noise * rng.standard_normal(x.shape)
    return infonce_loss_grad(m, x, x_aug, spec.infonce_temperature)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 4242

    def __post_init__(self):
        require(self.epochs >= 1, "epochs", "must be >= 1")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.learning_rate > 0, "learning_rate", "must be > 0")
        require(self.momentum >= 0, "momentum", "must be >= 0")
        require(self.weight_decay >= 0, "weight_decay", "must be >= 0")
        require(self.seed >= 0, "seed", "must be >= 0")


def train_supervised(
    train,
    cfg: TrainConfig,
    k: int,
    ssl: SslSpec = SslSpec(),
    ssl_weight: float = 1.0,
    hidden=(32, 32),
    activation: str = "tanh",
) -> ModelParams:
    """Mini-batch SGD with momentum and weight decay on CE plus, when
    ``ssl.kind`` is not 'none', ssl_weight times the self-supervised loss
    ``backward`` computes on the same batch.

    The loop owns the model ``init_model`` returns and updates its ``theta``
    in place; the returned model is a copy with a fresh uid.
    """
    x, y = as_array(train.inputs, "x"), np.asarray(train.labels, dtype=int)
    if np.unique(y).size != k:
        raise InvalidArgumentError("train set must cover all classes")
    rng = make_rng(cfg.seed)
    m = init_model(x.shape[1], k, hidden=hidden, rng=rng, activation=activation)
    theta, velocity, scratch = m.theta, np.zeros_like(m.theta), np.empty_like(m.theta)
    ce_grad = _zero_grad(m)  # its ssl head entries stay zero
    n = x.shape[0]
    kind = ssl.kind if ssl_weight != 0.0 else "none"  # weight 0: pure supervised
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            xb = x_epoch[start : start + cfg.batch_size]
            yb = y_epoch[start : start + cfg.batch_size]
            if kind == "infonce" and yb.size < 2:
                continue
            try:
                loss, g = _labelled_ce_grad(m, xb, yb, "linear", m.temperature, ce_grad)
                if kind != "none":
                    ssl_loss, ssl_g = backward(m, xb, ssl, rng)
                    loss += ssl_weight * ssl_loss
                    ssl_g *= ssl_weight
                    # Summed into ssl_g, so the CE buffer's ssl head stays
                    # zero; addition commutes, so this is g + w * ssl_g.
                    ssl_g += g
                    g = ssl_g
            except InvalidArgumentError as exc:
                if np.isfinite(theta).all():
                    raise
                raise TrainingDivergedError(
                    f"training diverged (non-finite parameters) in epoch {epoch}",
                    epoch,
                ) from exc
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite in epoch {epoch}", epoch
                )
            epoch_loss += loss
            n_batches += 1
            # SGD with momentum: v = mu*v + g + wd*p, then p -= lr*v.
            velocity *= cfg.momentum
            velocity += g
            velocity += np.multiply(theta, cfg.weight_decay, out=scratch)
            theta -= np.multiply(velocity, cfg.learning_rate, out=scratch)
        if n_batches and not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite in epoch {epoch}", epoch
            )
    return with_theta(m, theta)


# Ridge on the head in the retrain objective. Adding one vector to every
# class row leaves the softmax unchanged; the retrain's zero-sum
# parametrisation removes that null space, and the ridge still pins the
# minimiser's mean row at 0 and gives linearly separable features a finite
# optimum.
RETRAIN_RIDGE = 1e-6
# Norm of the full gradient (ridge included) below which the retrain stops.
# It is small enough that the head hardly depends on the warm start: over
# P8's first two runs every head lies within 7.5e-5 of the exact optimum
# (1.6e-3 at 1e-6). It is large enough to stay clear of the line search's
# rounding floor, which 1e-10 hits.
RETRAIN_GRAD_TOL = 1e-8
# The retrain's default iteration cap, also ``Scenario.retrain_max_iter``'s.
RETRAIN_MAX_ITER = 500


@dataclass
class HeadCurvature:
    """The inverse of the retrain objective's reduced Hessian, carried from
    one ``retrain_linear`` call to the next. An online run keeps one, so
    each refresh starts from the curvature the previous solve ended with.
    ``inverse`` is None until a solve builds it, and after a step that
    needed backtracking. The other fields are the storage a solve on a
    train set of n rows and K classes overwrites, so a run's refreshes
    allocate it once: ``design`` holds the (h+1, n) design matrix
    ``[feats.T; 1]``, ``residual`` each gradient's class-major (K, n)
    probabilities minus one-hot labels, and ``labelled`` each loss
    evaluation's n probabilities of the rows' labels."""

    inverse: np.ndarray | None = None
    design: np.ndarray | None = None
    residual: np.ndarray | None = None
    labelled: np.ndarray | None = None


def _reduced_hessian(probs: np.ndarray, xt_t: np.ndarray) -> np.ndarray:
    """The exact Hessian of the retrain objective over the first K-1 head
    rows ``u`` (the last row is ``-sum(u)``), at softmax outputs ``probs``
    of the features ``xt_t`` (h+1, n): ``sum_i S_i (x) x_i x_i^T / n +
    ridge (I + 11^T) (x) I`` with ``S_i = diag(p_<K) + p_K 11^T - d d^T``
    and ``d = p_<K - p_K``."""
    n, k = probs.shape
    r, width = k - 1, xt_t.shape[0]
    hess = np.empty((r, width, r, width))
    scaled = np.empty((width, n))  # one block's weighted features
    diag = np.arange(width)
    # Block (a, b) of the CE part is xt_t @ diag(S[:, a, b] / n) @ xt_t.T.
    # S[:, a, a] = p_a (1 - p_a) + p_K (1 - p_K + 2 p_a) is >= 0 term by
    # term, so a diagonal block is scaled @ scaled.T with scaled = xt_t @
    # diag(sqrt(S[:, a, a] / n)).
    p_last = probs[:, r]
    d = probs[:, :r] - probs[:, r:]
    for a in range(r):
        p_a = probs[:, a]
        s_aa = p_a * (1.0 - p_a) + p_last * (1.0 - p_last + 2.0 * p_a)
        np.multiply(xt_t, np.sqrt(s_aa / n), out=scaled)
        hess[a, :, a, :] = scaled @ scaled.T
        hess[a, diag, a, diag] += 2.0 * RETRAIN_RIDGE
        for b in range(a + 1, r):
            np.multiply(xt_t, (p_last - d[:, a] * d[:, b]) / n, out=scaled)
            block = scaled @ xt_t.T
            block[diag, diag] += RETRAIN_RIDGE
            hess[a, :, b, :] = hess[b, :, a, :] = block
    return hess.reshape(r * width, r * width)


def retrain_linear(
    m: ModelParams,
    train,
    max_iter: int = RETRAIN_MAX_ITER,
    grad_tol: float = RETRAIN_GRAD_TOL,
    feats: np.ndarray | None = None,
    curvature: HeadCurvature | None = None,
) -> ModelParams:
    """Re-train the classification head on frozen features.

    Minimises the mean CE at temperature 1 plus ``RETRAIN_RIDGE / 2`` times
    the squared norm of the head ``[w, b]`` by BFGS, warm-started from the
    head ``m`` holds with its mean row removed (which keeps the CE and
    cannot raise the ridge). The minimiser's rows sum to zero, so the solve
    runs over the first K-1 rows ``u`` with the last row ``-sum(u)``. Each
    of at most ``max_iter`` iterations steps along the inverse reduced
    Hessian times the reduced gradient, expanded to K rows, and backtracks
    on it with the Armijo test; a full step updates the inverse by BFGS
    (skipping a pair with y.s <= 0). The inverse comes from ``curvature``,
    which the solve reads and updates in place: when it holds none, or one
    of another shape, or the last step needed backtracking, the exact
    Hessian (``_reduced_hessian``) is built and inverted at the current
    iterate. The design matrix and the loss and gradient temporaries go
    into ``curvature``'s buffers, allocated only when it holds none of the
    right shape; each loss evaluation is one in-place softmax, and the
    labelled probabilities are read through flat indices built once per
    solve. A call without ``curvature`` starts from an empty holder. A head
    or features holding NaN or infinity raise ``InvalidArgumentError``
    (from the softmax). The solve stops once the full gradient's norm is
    below ``grad_tol``. The returned model keeps the feature extractor
    bit-identical and resets the temperature to 1 (calibration is a
    separate step). ``feats`` are ``m``'s train features if the caller
    already has them; otherwise they are computed here.
    """
    y = train.labels
    if feats is None:
        feats = feat_activations(m, train.inputs)[-1]
    n = feats.shape[0]
    k = m.n_classes
    r = k - 1
    width = feats.shape[1] + 1
    if curvature is None:
        curvature = HeadCurvature()
    if curvature.inverse is not None and curvature.inverse.shape != (r * width, r * width):
        curvature.inverse = None
    if np.shape(curvature.design) != (width, n) or np.shape(curvature.residual) != (k, n):
        curvature.design = np.empty((width, n))
        curvature.residual, curvature.labelled = np.empty((k, n)), np.empty(n)
    xt_t = curvature.design  # features by row, bias as a constant one
    xt_t[:-1] = feats.T
    xt_t[-1] = 1.0
    residual, labelled = curvature.residual, curvature.labelled
    wt = np.hstack([m.linear_w, m.linear_b[:, None]])  # (K, h+1)
    wt -= wt.mean(axis=0)
    # Logits, probabilities, the one-hot and the residual are stored
    # class-major, (K, n), and the softmax and the gradient's GEMM use them
    # through their (n, K) transposes: the softmax's per-row maxima and
    # sums then run over contiguous class columns. The values are
    # bit-identical to row-major storage. Row i's label sits at flat index
    # y_i * n + i of a class-major array.
    flat = y * n + np.arange(n)
    onehot = np.zeros((k, n))
    onehot.reshape(-1)[flat] = 1.0

    def objective(wt):
        z = (wt @ xt_t).T
        probs = softmax(z, out=z)  # z itself as out: no divide pass
        # The indices are in range; "clip" lets take write out unbuffered.
        nll = _mean_neg_log(np.take(probs.T, flat, out=labelled, mode="clip"))
        return nll + 0.5 * RETRAIN_RIDGE * float((wt * wt).sum()), probs

    def gradient(probs, wt):
        np.subtract(probs.T, onehot, out=residual)
        g = (xt_t @ residual.T).T / n + RETRAIN_RIDGE * wt
        return g, (g[:r] - g[r]).ravel()  # full, and over the first K-1 rows

    loss, probs = objective(wt)
    g, g_red = gradient(probs, wt)
    step = np.empty_like(wt)
    for _ in range(max_iter):
        if np.sqrt((g * g).sum()) < grad_tol:
            break
        if curvature.inverse is None:
            curvature.inverse = np.linalg.inv(_reduced_hessian(probs, xt_t))
        step_red = curvature.inverse @ g_red
        step[:r] = step_red.reshape(r, width)
        step[r] = -step[:r].sum(axis=0)
        decrease = float(g_red @ step_red)
        alpha = 1.0
        while alpha > 1e-10:
            loss_new, probs_new = objective(wt - alpha * step)
            if loss_new <= loss - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            break  # no decrease along the step: rounding floor
        wt -= alpha * step
        loss, probs = loss_new, probs_new
        g, g_next = gradient(probs, wt)
        if alpha < 1.0:
            # The curvature mispredicted this step: the next one rebuilds it.
            curvature.inverse = None
        else:
            # BFGS with the step s and the reduced gradient's change dg:
            # H <- (I - s dg^T / sy) H (I - dg s^T / sy) + s s^T / sy, which
            # is H + v s^T + s v^T with v = ((1 + dg.H dg / sy) s / 2 - H dg) / sy.
            s, dg = -step_red, g_next - g_red
            sy = float(s @ dg)
            if sy > 0.0:
                hy = curvature.inverse @ dg
                vs = np.outer((0.5 * (1.0 + float(dg @ hy) / sy) * s - hy) / sy, s)
                curvature.inverse += vs
                curvature.inverse += vs.T
        g_red = g_next
    return with_updates(m, linear_w=wt[:, :-1], linear_b=wt[:, -1], temperature=1.0)


def nll_at_temperature(logits: np.ndarray, y: np.ndarray, temperature: float) -> float:
    return mean_nll(softmax(logits, temperature), y)


# Calibration searches temperatures in [e^-3, e^3], i.e. beta = 1/T in the
# same range. Newton stops once its step is below CALIBRATION_STEP_RTOL
# times beta and takes that last step without evaluating it (quadratic
# convergence leaves an error of order its square); the evaluation cap only
# bounds the bracket bisections.
CALIBRATION_BETA_RANGE = (math.exp(-3.0), math.exp(3.0))
CALIBRATION_STEP_RTOL = 1e-6
CALIBRATION_MAX_EVALS = 60


def _nll_derivatives(logits: np.ndarray, y: np.ndarray, labelled: np.ndarray, beta: float):
    """Validation NLL at temperature 1/beta and its first two derivatives
    in beta: mean(E_p[z] - z_y) and mean(Var_p[z]), from one softmax.
    ``labelled`` holds each row's labelled logit z_y."""
    probs = softmax(logits, 1.0 / beta)
    n = len(y)
    nll = mean_nll(probs, y)
    mean_z = (probs * logits).sum(axis=1)
    grad = float((mean_z - labelled).sum() / n)
    curv = float((probs * (logits - mean_z[:, None]) ** 2).sum(axis=1).sum() / n)
    return nll, grad, curv


def calibrate_temperature(
    m: ModelParams, val, logits: np.ndarray | None = None, start_temperature: float = 1.0
) -> ModelParams:
    """Pick the temperature minimising validation NLL.

    The NLL of ``softmax(beta * z)`` is convex in beta = 1/T (a mean of
    log-sum-exps of linear maps), so safeguarded Newton on beta finds the
    minimiser over [e^-3, e^3]. The search starts at ``start_temperature``
    (clamped into that range): 1 by default, which makes the result depend
    only on the logits; a refresh starts from the temperature of the model
    it replaces, near which the new minimiser usually lies. Each evaluation
    is one softmax giving the NLL and both derivatives; every evaluated
    beta narrows a bracket of the minimiser, and a step that leaves the
    bracket goes to the range bound the first time, else to the bracket's
    geometric midpoint. A minimiser on a bound (a derivative pointing out
    of the range there) ends the search at that bound. Ties (and any search
    loss vs. temperature 1) resolve to temperature 1, so the result never
    has higher NLL than the uncalibrated model; a search that does not
    start at 1 takes one more softmax for the NLL there. The tie is judged
    at the last evaluated beta, which depends on the start, so where
    temperature 1 is within about 1e-12 of the optimum's NLL one start may
    return 1 and another the optimum; elsewhere the start moves the result
    by rounding only.

    ``logits`` are ``m``'s validation logits if the caller already has
    them; otherwise they are computed here.
    """
    if len(val) == 0:
        raise InvalidArgumentError("validation set must be nonempty")
    require(math.isfinite(start_temperature) and start_temperature > 0,
            "start_temperature", "must be finite and > 0")
    if logits is None:
        logits = forward_logits(m, val.inputs)
    y = val.labels
    labelled = logits[np.arange(len(y)), y]
    lo, hi = CALIBRATION_BETA_RANGE
    lo_seen = hi_seen = False  # whether lo / hi is an evaluated point
    beta = min(max(1.0 / start_temperature, lo), hi)
    nll_one = None  # at beta = 1
    for _ in range(CALIBRATION_MAX_EVALS):
        nll, g, h = _nll_derivatives(logits, y, labelled, beta)
        if beta == 1.0:
            nll_one = nll
        if g > 0:
            hi, hi_seen = beta, True
        elif g < 0:
            lo, lo_seen = beta, True
        if g == 0 or lo == hi or h <= 0:
            break
        new = beta - g / h
        # A step that rounds to zero lands on the bracket's end, not beyond.
        if new > hi:
            new = math.sqrt(lo * hi) if hi_seen else hi
        elif new < lo:
            new = math.sqrt(lo * hi) if lo_seen else lo
        if abs(new - beta) <= CALIBRATION_STEP_RTOL * beta:
            beta = new
            break
        beta = new
    if nll_one is None:
        nll_one = nll_at_temperature(logits, y, 1.0)
    if nll_one <= nll + 1e-12:
        return with_updates(m, temperature=1.0)
    return with_updates(m, temperature=1.0 / beta)


def accuracy(m: ModelParams, dataset) -> float:
    probs, _, _ = forward(m, dataset.inputs)
    return float(np.mean(np.argmax(probs, axis=1) == dataset.labels))


CHECKPOINT_VERSION = 1


def save_model(m: ModelParams, path) -> None:
    """Binary checkpoint (npz); round-trips bit-exactly."""
    payload = {
        "version": np.asarray(CHECKPOINT_VERSION),
        "activation": np.asarray(m.activation),
        "n_feat_layers": np.asarray(len(m.feat_weights)),
        "linear_w": m.linear_w,
        "linear_b": m.linear_b,
        "ssl_w": m.ssl_w,
        "ssl_b": m.ssl_b,
        "temperature": np.asarray(m.temperature),
    }
    for i, (w, b) in enumerate(zip(m.feat_weights, m.feat_biases)):
        payload[f"feat_w_{i}"] = w
        payload[f"feat_b_{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_model(path) -> ModelParams:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise InvalidArgumentError(f"unsupported checkpoint version {version}")
        n = int(data["n_feat_layers"])
        return ModelParams(
            feat_weights=tuple(data[f"feat_w_{i}"] for i in range(n)),
            feat_biases=tuple(data[f"feat_b_{i}"] for i in range(n)),
            linear_w=data["linear_w"],
            linear_b=data["linear_b"],
            ssl_w=data["ssl_w"],
            ssl_b=data["ssl_b"],
            temperature=float(data["temperature"]),
            activation=str(data["activation"]),
        )

