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
the exact model that produced them.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, TrainingDivergedError, require
from .numkit import as_array, make_rng, softmax

LOSS_KINDS = ("cross_entropy", "entropy", "rotation", "infonce")
ROTATION_DEGREES = (0.0, 90.0, 180.0, 270.0)

_uid_counter = itertools.count(1)


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
    every SGD step builds a model."""
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
    ``theta`` and rebinds the fields as views into it.
    """

    feat_weights: tuple  # each (out, in)
    feat_biases: tuple  # each (out,)
    linear_w: np.ndarray  # (K, h)
    linear_b: np.ndarray  # (K,)
    ssl_w: np.ndarray  # (4, h)
    ssl_b: np.ndarray  # (4,)
    temperature: float = 1.0
    activation: str = "tanh"
    uid: int = field(default_factory=lambda: next(_uid_counter), compare=False)
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
    import dataclasses

    changes.setdefault("uid", next(_uid_counter))
    return dataclasses.replace(m, **changes)


def with_theta(m: ModelParams, theta: np.ndarray) -> ModelParams:
    """Copy a model with every parameter taken from ``theta``, a vector laid
    out like ``m.theta``; temperature and activation are kept."""
    if np.shape(theta) != m.theta.shape:
        raise InvalidArgumentError(f"theta must have shape {m.theta.shape}")
    # The layout is m's, so skip the constructor's shape checks and packing:
    # every SGD step builds a model.
    new = copy.copy(m)
    object.__setattr__(new, "uid", next(_uid_counter))
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
    return np.tanh(z) if m.activation == "tanh" else np.maximum(z, 0.0)


def _act_deriv_from_output(m: ModelParams, a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a if m.activation == "tanh" else (a > 0).astype(float)


def feat_activations(m: ModelParams, x: np.ndarray) -> list:
    """Forward through the feature stack; returns [input, a_1, ..., features]."""
    acts = [x]
    a = x
    for w, b in zip(m.feat_weights, m.feat_biases):
        a = _act(m, a @ w.T + b)
        acts.append(a)
    return acts


def head_output(
    m: ModelParams, feats: np.ndarray, head: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, logits) of the classification head on features ``feats``;
    ``forward`` computes its outputs with exactly this arithmetic."""
    w, b = (m.linear_w, m.linear_b) if head is None else head
    logits = feats @ w.T + b
    return softmax(logits, m.temperature), logits


def forward(
    m: ModelParams, x, head: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model forward pass: (probs, features, logits).

    Accepts one input vector or a batch of row vectors; output shapes
    mirror the input. ``head``, a ``(w, b)`` pair, stands in for the
    model's classification head without building a new model.
    """
    x = as_array(x, "x")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != m.input_dim:
        raise InvalidArgumentError(
            f"input dimension {batch.shape[1]} != model dimension {m.input_dim}"
        )
    feats = feat_activations(m, batch)[-1]
    probs, logits = head_output(m, feats, head)
    if single:
        return probs[0], feats[0], logits[0]
    return probs, feats, logits


def _backprop_features(m: ModelParams, acts: list, dfeats: np.ndarray, gv: _Views):
    delta = dfeats
    for layer in reversed(range(len(m.feat_weights))):
        dz = delta * _act_deriv_from_output(m, acts[layer + 1])
        gv.feat_weights[layer][...] += dz.T @ acts[layer]
        gv.feat_biases[layer][...] += dz.sum(axis=0)
        delta = dz @ m.feat_weights[layer]


def _head_grad(m: ModelParams, acts: list, dlogits: np.ndarray, head: str) -> np.ndarray:
    """Gradient, laid out like ``m.theta``, of a loss whose derivative with
    respect to the logits ``acts[-1] @ w.T + b`` of ``head`` is ``dlogits``."""
    g = np.zeros_like(m.theta)
    gv = m.views(g)
    getattr(gv, f"{head}_w")[...] += dlogits.T @ acts[-1]
    getattr(gv, f"{head}_b")[...] += dlogits.sum(axis=0)
    _backprop_features(m, acts, dlogits @ getattr(m, f"{head}_w"), gv)
    return g


def cross_entropy_loss_grad(
    m: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    x = as_array(x, "x")
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    acts = feat_activations(m, x)
    feats = acts[-1]
    logits = feats @ m.linear_w.T + m.linear_b
    probs = softmax(logits, m.temperature)
    eps_p = np.maximum(probs[np.arange(n), y], 1e-300)
    loss = float(-np.mean(np.log(eps_p)))
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n * m.temperature
    return loss, _head_grad(m, acts, dlogits, "linear")


def entropy_loss_grad(m: ModelParams, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean prediction entropy H(f(x)) = -sum_k f(x)_k log f(x)_k."""
    x = as_array(x, "x")
    n = x.shape[0]
    acts = feat_activations(m, x)
    feats = acts[-1]
    logits = feats @ m.linear_w.T + m.linear_b
    probs = softmax(logits, m.temperature)
    logp = np.log(np.maximum(probs, 1e-300))
    ent = -(probs * logp).sum(axis=1)
    loss = float(np.mean(ent))
    # dH/du_j = -p_j (log p_j + H) for u = logits / temperature
    dlogits = -probs * (logp + ent[:, None]) / (n * m.temperature)
    return loss, _head_grad(m, acts, dlogits, "linear")


def rotate_first_two(x: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each row's first two coordinates by its own angle."""
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    out = x.copy()
    out[:, 0] = c * x[:, 0] - s * x[:, 1]
    out[:, 1] = s * x[:, 0] + c * x[:, 1]
    return out


def rotation_loss_grad(
    m: ModelParams, x: np.ndarray, degree_idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """Rotation prediction: the auxiliary head classifies which of
    {0, 90, 180, 270} degrees was applied. ``degree_idx`` fixes the draw so
    gradients can be checked against finite differences."""
    x = as_array(x, "x")
    degree_idx = np.asarray(degree_idx, dtype=int)
    n = x.shape[0]
    degrees = np.asarray(ROTATION_DEGREES)[degree_idx]
    x_rot = rotate_first_two(x, degrees)
    acts = feat_activations(m, x_rot)
    feats = acts[-1]
    logits = feats @ m.ssl_w.T + m.ssl_b
    probs = softmax(logits)
    loss = float(
        -np.mean(np.log(np.maximum(probs[np.arange(n), degree_idx], 1e-300)))
    )
    dlogits = probs.copy()
    dlogits[np.arange(n), degree_idx] -= 1.0
    dlogits /= n
    return loss, _head_grad(m, acts, dlogits, "ssl")


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
    sims = (u @ v.T) / temperature
    p = softmax(sims)
    loss = float(
        -np.mean(np.log(np.maximum(p[np.arange(n), np.arange(n)], 1e-300)))
    )
    dsims = p.copy()
    dsims[np.arange(n), np.arange(n)] -= 1.0
    dsims /= n * temperature
    du = dsims @ v
    dv = dsims.T @ u
    dza = (du - (du * u).sum(axis=1, keepdims=True) * u) / ra
    dzb = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / rb
    g = np.zeros_like(m.theta)
    gv = m.views(g)
    _backprop_features(m, acts_a, dza, gv)
    _backprop_features(m, acts_b, dzb, gv)
    return loss, g


def backward(
    m: ModelParams,
    batch,
    loss_kind: str,
    rng: np.random.Generator | None = None,
    *,
    infonce_temperature: float,
    augment_noise: float,
) -> tuple[float, np.ndarray]:
    """Batch-mean loss and its analytic gradient, laid out like ``m.theta``.

    ``batch`` is ``(inputs, labels)``; labels may be None except for
    cross_entropy. Rotation and InfoNCE draw their degrees / augmentations
    from ``rng`` and delegate to the explicit-argument variants above;
    ``infonce_temperature`` and ``augment_noise`` are InfoNCE's.
    """
    if loss_kind not in LOSS_KINDS:
        raise InvalidArgumentError(f"unknown loss kind {loss_kind!r}")
    x, y = batch
    x = as_array(x, "inputs")
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgumentError("batch inputs must be a nonempty n x d matrix")
    if loss_kind == "cross_entropy":
        if y is None:
            raise InvalidArgumentError("cross_entropy requires labels")
        return cross_entropy_loss_grad(m, x, y)
    if loss_kind == "entropy":
        return entropy_loss_grad(m, x)
    if rng is None:
        raise InvalidArgumentError(f"{loss_kind} requires an rng")
    if loss_kind == "rotation":
        degree_idx = rng.integers(len(ROTATION_DEGREES), size=x.shape[0])
        return rotation_loss_grad(m, x, degree_idx)
    x_aug = x + augment_noise * rng.standard_normal(x.shape)
    return infonce_loss_grad(m, x, x_aug, infonce_temperature)


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
    k: int | None = None,
    ssl_kind: str = "none",
    ssl_weight: float = 1.0,
    hidden=(32, 32),
    activation: str = "tanh",
    infonce_temperature: float = 0.07,
    augment_noise: float = 0.1,
) -> ModelParams:
    """Mini-batch SGD with momentum and weight decay on CE plus, when an SSL
    kind is set, ssl_weight times the self-supervised loss on the same batch.
    """
    x, y = train.inputs, train.labels
    if k is None:
        k = int(y.max()) + 1
    if np.unique(y).size != k:
        raise InvalidArgumentError("train set must cover all classes")
    rng = make_rng(cfg.seed)
    m = init_model(x.shape[1], k, hidden=hidden, rng=rng, activation=activation)
    velocity = np.zeros_like(m.theta)
    n = x.shape[0]
    if ssl_weight == 0.0:
        ssl_kind = "none"  # weight 0 is pure supervised training
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if ssl_kind == "infonce" and idx.size < 2:
                continue
            try:
                loss, g = cross_entropy_loss_grad(m, x[idx], y[idx])
                if ssl_kind != "none":
                    ssl_loss, ssl_g = backward(
                        m,
                        (x[idx], None),
                        ssl_kind,
                        rng=rng,
                        infonce_temperature=infonce_temperature,
                        augment_noise=augment_noise,
                    )
                    loss += ssl_weight * ssl_loss
                    g += ssl_weight * ssl_g
            except InvalidArgumentError as exc:
                if np.isfinite(m.theta).all():
                    raise
                raise TrainingDivergedError(
                    f"training diverged (non-finite parameters) in epoch {epoch}",
                    epoch,
                ) from exc
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite in epoch {epoch}", epoch
                )
            epoch_loss += loss
            n_batches += 1
            # SGD with momentum: v = mu*v + g + wd*p, then p -= lr*v.
            velocity = cfg.momentum * velocity + g + cfg.weight_decay * m.theta
            m = with_theta(m, m.theta - cfg.learning_rate * velocity)
        if n_batches and not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite in epoch {epoch}", epoch
            )
    return m


# Ridge on the head in the retrain objective. Adding one vector to every
# class row leaves the softmax unchanged; the retrain's zero-sum
# parametrisation removes that null space, and the ridge still pins the
# minimiser's mean row at 0 and gives linearly separable features a finite
# optimum.
RETRAIN_RIDGE = 1e-6


def retrain_linear(
    m: ModelParams,
    train,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
    feats: np.ndarray | None = None,
) -> ModelParams:
    """Re-train the classification head on frozen features.

    Minimises the mean CE at temperature 1 plus ``RETRAIN_RIDGE / 2`` times
    the squared norm of the head ``[w, b]`` by damped Newton, warm-started
    from the head ``m`` holds with its mean row removed (which keeps the CE
    and cannot raise the ridge). The minimiser's rows sum to zero, so the
    solve runs over the first K-1 rows ``u`` with the last row ``-sum(u)``:
    each of at most ``max_iter`` iterations solves the (K-1)(h+1) square
    Newton system of that parametrisation, whose Hessian is
    ``sum_i S_i (x) x_i x_i^T / n + ridge (I + 11^T) (x) I`` with
    ``S_i = diag(p_<K) + p_K 11^T - d d^T`` and ``d = p_<K - p_K``, expands
    the step to K rows and backtracks on it with the Armijo test. The
    iterates are full-space Newton's from the centred start. The solve
    stops once the full gradient's norm is below ``grad_tol``. The returned
    model keeps the feature extractor bit-identical and resets the
    temperature to 1 (calibration is a separate step). ``feats`` are
    ``m``'s train features if the caller already has them; otherwise they
    are computed here.
    """
    y = train.labels
    if feats is None:
        feats = feat_activations(m, train.inputs)[-1]
    n = feats.shape[0]
    k = m.n_classes
    width = feats.shape[1] + 1
    xt_t = np.empty((width, n))  # features by row, bias as a constant one
    xt_t[:-1] = feats.T
    xt_t[-1] = 1.0
    xt = xt_t.T
    wt = np.hstack([m.linear_w, m.linear_b[:, None]])  # (K, h+1)
    wt -= wt.mean(axis=0)
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[rows, y] = 1.0

    def objective(wt):
        probs = softmax(xt @ wt.T)
        ce = -np.mean(np.log(np.maximum(probs[rows, y], 1e-300)))
        return float(ce + 0.5 * RETRAIN_RIDGE * (wt * wt).sum()), probs

    loss, probs = objective(wt)
    r = k - 1
    hess = np.empty((r, width, r, width))
    h2 = hess.reshape(r * width, r * width)
    ridge = RETRAIN_RIDGE * np.kron(np.eye(r) + 1.0, np.eye(width))
    scaled = np.empty((width, n))  # one block's weighted features
    step = np.empty_like(wt)
    for _ in range(max_iter):
        g = ((probs - onehot) / n).T @ xt + RETRAIN_RIDGE * wt
        if np.sqrt((g * g).sum()) < grad_tol:
            break
        # Block (a, b) of the reduced CE Hessian is xt.T @ diag(S[:, a, b] /
        # n) @ xt. S[:, a, a] = p_a (1 - p_a) + p_K (1 - p_K + 2 p_a) is >= 0
        # term by term, so a diagonal block is scaled @ scaled.T with
        # scaled = xt.T @ diag(sqrt(S[:, a, a] / n)).
        p_last = probs[:, r]
        d = probs[:, :r] - probs[:, r:]
        for a in range(r):
            p_a = probs[:, a]
            s_aa = p_a * (1.0 - p_a) + p_last * (1.0 - p_last + 2.0 * p_a)
            np.multiply(xt_t, np.sqrt(s_aa / n), out=scaled)
            hess[a, :, a, :] = scaled @ scaled.T
            for b in range(a + 1, r):
                np.multiply(xt_t, (p_last - d[:, a] * d[:, b]) / n, out=scaled)
                hess[a, :, b, :] = hess[b, :, a, :] = scaled @ xt
        h2 += ridge
        step[:r] = np.linalg.solve(h2, (g[:r] - g[r]).ravel()).reshape(r, width)
        step[r] = -step[:r].sum(axis=0)
        decrease = float((g * step).sum())
        alpha = 1.0
        while alpha > 1e-10:
            loss_new, probs_new = objective(wt - alpha * step)
            if loss_new <= loss - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            break  # no decrease along the Newton step: rounding floor
        wt -= alpha * step
        loss, probs = loss_new, probs_new
    return with_updates(m, linear_w=wt[:, :-1], linear_b=wt[:, -1], temperature=1.0)


def nll_at_temperature(logits: np.ndarray, y: np.ndarray, temperature: float) -> float:
    probs = softmax(logits, temperature)
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300))))


# Calibration searches temperatures in [e^-3, e^3], i.e. beta = 1/T in the
# same range. Newton stops once its step is below CALIBRATION_STEP_RTOL
# times beta and takes that last step without evaluating it (quadratic
# convergence leaves an error of order its square); the evaluation cap only
# bounds the bracket bisections.
CALIBRATION_BETA_RANGE = (math.exp(-3.0), math.exp(3.0))
CALIBRATION_STEP_RTOL = 1e-6
CALIBRATION_MAX_EVALS = 60


def _nll_derivatives(logits: np.ndarray, y: np.ndarray, beta: float):
    """Validation NLL at temperature 1/beta and its first two derivatives
    in beta: mean(E_p[z] - z_y) and mean(Var_p[z]), from one softmax."""
    probs = softmax(logits, 1.0 / beta)
    rows = np.arange(len(y))
    nll = float(-np.mean(np.log(np.maximum(probs[rows, y], 1e-300))))
    mean_z = (probs * logits).sum(axis=1)
    grad = float(np.mean(mean_z - logits[rows, y]))
    curv = float(np.mean((probs * (logits - mean_z[:, None]) ** 2).sum(axis=1)))
    return nll, grad, curv


def calibrate_temperature(
    m: ModelParams, val, logits: np.ndarray | None = None
) -> ModelParams:
    """Pick the temperature minimising validation NLL.

    The NLL of ``softmax(beta * z)`` is convex in beta = 1/T (a mean of
    log-sum-exps of linear maps), so safeguarded Newton on beta finds the
    minimiser over [e^-3, e^3]. It starts cold at beta = 1, so the result
    depends only on the logits. Each evaluation is one softmax giving the
    NLL and both derivatives; every evaluated beta narrows a bracket of
    the minimiser, and a step that leaves the bracket goes to the range
    bound the first time, else to the bracket's geometric midpoint. A
    minimiser on a bound (a derivative pointing out of the range there)
    ends the search at that bound. Ties (and any search loss vs.
    temperature 1) resolve to temperature 1, so the result never has
    higher NLL than the uncalibrated model.

    ``logits`` are ``m``'s validation logits if the caller already has
    them; otherwise they are computed here.
    """
    if len(val) == 0:
        raise InvalidArgumentError("validation set must be nonempty")
    if logits is None:
        _, _, logits = forward(m, val.inputs)
    y = val.labels
    lo, hi = CALIBRATION_BETA_RANGE
    lo_seen = hi_seen = False  # whether lo / hi is an evaluated point
    beta = 1.0
    for i in range(CALIBRATION_MAX_EVALS):
        nll, g, h = _nll_derivatives(logits, y, beta)
        if i == 0:
            nll_one = nll  # at beta = 1
        if g > 0:
            hi, hi_seen = beta, True
        elif g < 0:
            lo, lo_seen = beta, True
        if g == 0 or lo == hi or h <= 0:
            break
        new = beta - g / h
        if new >= hi:
            new = math.sqrt(lo * hi) if hi_seen else hi
        elif new <= lo:
            new = math.sqrt(lo * hi) if lo_seen else lo
        if abs(new - beta) <= CALIBRATION_STEP_RTOL * beta:
            beta = new
            break
        beta = new
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

