"""Small dense network with manual forward/backward passes.

The network is a tanh MLP feature extractor, a linear classification head
producing temperature-scaled probabilities, and a 4-way auxiliary head used
for rotation prediction. All gradients are computed analytically; the test
suite checks every loss against central finite differences.

Models are values: every training operation returns a new instance and the
``uid`` field tracks lineage so downstream caches can pair artifacts with
the exact model that produced them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, TrainingDivergedError
from .numkit import as_array, make_rng, softmax

LOSS_KINDS = ("cross_entropy", "entropy", "rotation", "infonce")
SCOPES = ("all", "feat_only", "linear_only")
ROTATION_DEGREES = (0.0, 90.0, 180.0, 270.0)

_uid_counter = itertools.count(1)


@dataclass(frozen=True)
class ModelParams:
    """Feature extractor + classification head + auxiliary rotation head."""

    feat_weights: tuple  # each (out, in)
    feat_biases: tuple
    linear_w: np.ndarray  # (K, h)
    linear_b: np.ndarray  # (K,)
    ssl_w: np.ndarray  # (4, h)
    ssl_b: np.ndarray  # (4,)
    temperature: float = 1.0
    activation: str = "tanh"
    uid: int = field(default_factory=lambda: next(_uid_counter), compare=False)

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidArgumentError("temperature must be > 0")
        if self.activation not in ("tanh", "relu"):
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")
        dims = [w.shape for w in self.feat_weights]
        for (o1, i1), (o2, i2) in zip(dims, dims[1:]):
            if o1 != i2:
                raise InvalidArgumentError("feature layer dimensions do not chain")
        h = self.feat_weights[-1].shape[0] if self.feat_weights else None
        if h is not None and self.linear_w.shape[1] != h:
            raise InvalidArgumentError("linear head width mismatch")

    @property
    def n_classes(self) -> int:
        return self.linear_w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.feat_weights[0].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.feat_weights[-1].shape[0]


def with_updates(m: ModelParams, **changes) -> ModelParams:
    """Copy a model with some fields replaced and a fresh uid."""
    import dataclasses

    changes.setdefault("uid", next(_uid_counter))
    return dataclasses.replace(m, **changes)


@dataclass
class Gradients:
    """Gradient container shaped like ModelParams (temperature excluded)."""

    feat_w: list
    feat_b: list
    linear_w: np.ndarray
    linear_b: np.ndarray
    ssl_w: np.ndarray
    ssl_b: np.ndarray


def zero_gradients(m: ModelParams) -> Gradients:
    return Gradients(
        [np.zeros_like(w) for w in m.feat_weights],
        [np.zeros_like(b) for b in m.feat_biases],
        np.zeros_like(m.linear_w),
        np.zeros_like(m.linear_b),
        np.zeros_like(m.ssl_w),
        np.zeros_like(m.ssl_b),
    )


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


def forward(m: ModelParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model forward pass: (probs, features, logits).

    Accepts one input vector or a batch of row vectors; output shapes
    mirror the input.
    """
    x = as_array(x, "x")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != m.input_dim:
        raise InvalidArgumentError(
            f"input dimension {batch.shape[1]} != model dimension {m.input_dim}"
        )
    feats = feat_activations(m, batch)[-1]
    logits = feats @ m.linear_w.T + m.linear_b
    probs = softmax(logits, m.temperature)
    if single:
        return probs[0], feats[0], logits[0]
    return probs, feats, logits


def _backprop_features(m: ModelParams, acts: list, dfeats: np.ndarray, grads: Gradients):
    delta = dfeats
    for layer in reversed(range(len(m.feat_weights))):
        dz = delta * _act_deriv_from_output(m, acts[layer + 1])
        grads.feat_w[layer] += dz.T @ acts[layer]
        grads.feat_b[layer] += dz.sum(axis=0)
        delta = dz @ m.feat_weights[layer]


def _apply_scope(grads: Gradients, m: ModelParams, scope: str) -> Gradients:
    if scope == "feat_only":
        grads.linear_w = np.zeros_like(m.linear_w)
        grads.linear_b = np.zeros_like(m.linear_b)
        grads.ssl_w = np.zeros_like(m.ssl_w)
        grads.ssl_b = np.zeros_like(m.ssl_b)
    elif scope == "linear_only":
        grads.feat_w = [np.zeros_like(w) for w in m.feat_weights]
        grads.feat_b = [np.zeros_like(b) for b in m.feat_biases]
        grads.ssl_w = np.zeros_like(m.ssl_w)
        grads.ssl_b = np.zeros_like(m.ssl_b)
    return grads


def cross_entropy_loss_grad(
    m: ModelParams, x: np.ndarray, y: np.ndarray, scope: str = "all"
) -> tuple[float, Gradients]:
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
    grads = zero_gradients(m)
    grads.linear_w += dlogits.T @ feats
    grads.linear_b += dlogits.sum(axis=0)
    _backprop_features(m, acts, dlogits @ m.linear_w, grads)
    return loss, _apply_scope(grads, m, scope)


def entropy_loss_grad(
    m: ModelParams, x: np.ndarray, scope: str = "all"
) -> tuple[float, Gradients]:
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
    grads = zero_gradients(m)
    grads.linear_w += dlogits.T @ feats
    grads.linear_b += dlogits.sum(axis=0)
    _backprop_features(m, acts, dlogits @ m.linear_w, grads)
    return loss, _apply_scope(grads, m, scope)


def rotate_first_two(x: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each row's first two coordinates by its own angle."""
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    out = x.copy()
    out[:, 0] = c * x[:, 0] - s * x[:, 1]
    out[:, 1] = s * x[:, 0] + c * x[:, 1]
    return out


def rotation_loss_grad(
    m: ModelParams, x: np.ndarray, degree_idx: np.ndarray, scope: str = "all"
) -> tuple[float, Gradients]:
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
    grads = zero_gradients(m)
    grads.ssl_w += dlogits.T @ feats
    grads.ssl_b += dlogits.sum(axis=0)
    _backprop_features(m, acts, dlogits @ m.ssl_w, grads)
    return loss, _apply_scope(grads, m, scope)


def infonce_loss_grad(
    m: ModelParams,
    x: np.ndarray,
    x_aug: np.ndarray,
    temperature: float,
    scope: str = "all",
) -> tuple[float, Gradients]:
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
    grads = zero_gradients(m)
    _backprop_features(m, acts_a, dza, grads)
    _backprop_features(m, acts_b, dzb, grads)
    return loss, _apply_scope(grads, m, scope)


def backward(
    m: ModelParams,
    batch,
    loss_kind: str,
    scope: str = "all",
    rng: np.random.Generator | None = None,
    infonce_temperature: float = 0.07,
    augment_noise: float = 0.1,
) -> tuple[float, Gradients]:
    """Batch-mean loss and its analytic gradient for the requested scope.

    ``batch`` is ``(inputs, labels)``; labels may be None except for
    cross_entropy. Rotation and InfoNCE draw their degrees / augmentations
    from ``rng`` and delegate to the explicit-argument variants above.
    """
    if loss_kind not in LOSS_KINDS:
        raise InvalidArgumentError(f"unknown loss kind {loss_kind!r}")
    if scope not in SCOPES:
        raise InvalidArgumentError(f"unknown scope {scope!r}")
    x, y = batch
    x = as_array(x, "inputs")
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidArgumentError("batch inputs must be a nonempty n x d matrix")
    if loss_kind == "cross_entropy":
        if y is None:
            raise InvalidArgumentError("cross_entropy requires labels")
        return cross_entropy_loss_grad(m, x, y, scope)
    if loss_kind == "entropy":
        return entropy_loss_grad(m, x, scope)
    if rng is None:
        raise InvalidArgumentError(f"{loss_kind} requires an rng")
    if loss_kind == "rotation":
        degree_idx = rng.integers(len(ROTATION_DEGREES), size=x.shape[0])
        return rotation_loss_grad(m, x, degree_idx, scope)
    x_aug = x + augment_noise * rng.standard_normal(x.shape)
    return infonce_loss_grad(m, x, x_aug, infonce_temperature, scope)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 4242

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise InvalidArgumentError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning_rate must be positive")
        if self.momentum < 0 or self.weight_decay < 0:
            raise InvalidArgumentError("momentum and weight_decay must be >= 0")


def _params_finite(m: ModelParams) -> bool:
    arrays = [*m.feat_weights, *m.feat_biases, m.linear_w, m.linear_b, m.ssl_w, m.ssl_b]
    return all(np.all(np.isfinite(a)) for a in arrays)


def _add_scaled(dst: Gradients, src: Gradients, scale: float):
    for i in range(len(dst.feat_w)):
        dst.feat_w[i] += scale * src.feat_w[i]
        dst.feat_b[i] += scale * src.feat_b[i]
    dst.linear_w += scale * src.linear_w
    dst.linear_b += scale * src.linear_b
    dst.ssl_w += scale * src.ssl_w
    dst.ssl_b += scale * src.ssl_b


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
    velocity = zero_gradients(m)
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
                loss, grads = cross_entropy_loss_grad(m, x[idx], y[idx])
                if ssl_kind != "none":
                    ssl_loss, ssl_grads = backward(
                        m,
                        (x[idx], None),
                        ssl_kind,
                        scope="all",
                        rng=rng,
                        infonce_temperature=infonce_temperature,
                        augment_noise=augment_noise,
                    )
                    loss += ssl_weight * ssl_loss
                    _add_scaled(grads, ssl_grads, ssl_weight)
            except InvalidArgumentError as exc:
                if _params_finite(m):
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
            new_fw, new_fb = [], []
            for i in range(len(m.feat_weights)):
                velocity.feat_w[i] = (
                    cfg.momentum * velocity.feat_w[i]
                    + grads.feat_w[i]
                    + cfg.weight_decay * m.feat_weights[i]
                )
                velocity.feat_b[i] = (
                    cfg.momentum * velocity.feat_b[i]
                    + grads.feat_b[i]
                    + cfg.weight_decay * m.feat_biases[i]
                )
                new_fw.append(m.feat_weights[i] - cfg.learning_rate * velocity.feat_w[i])
                new_fb.append(m.feat_biases[i] - cfg.learning_rate * velocity.feat_b[i])
            velocity.linear_w = (
                cfg.momentum * velocity.linear_w + grads.linear_w + cfg.weight_decay * m.linear_w
            )
            velocity.linear_b = (
                cfg.momentum * velocity.linear_b + grads.linear_b + cfg.weight_decay * m.linear_b
            )
            velocity.ssl_w = (
                cfg.momentum * velocity.ssl_w + grads.ssl_w + cfg.weight_decay * m.ssl_w
            )
            velocity.ssl_b = (
                cfg.momentum * velocity.ssl_b + grads.ssl_b + cfg.weight_decay * m.ssl_b
            )
            m = with_updates(
                m,
                feat_weights=tuple(new_fw),
                feat_biases=tuple(new_fb),
                linear_w=m.linear_w - cfg.learning_rate * velocity.linear_w,
                linear_b=m.linear_b - cfg.learning_rate * velocity.linear_b,
                ssl_w=m.ssl_w - cfg.learning_rate * velocity.ssl_w,
                ssl_b=m.ssl_b - cfg.learning_rate * velocity.ssl_b,
            )
        if n_batches and not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"training loss became non-finite in epoch {epoch}", epoch
            )
    return m


def retrain_linear(
    m: ModelParams,
    train,
    rng: np.random.Generator | None = None,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
) -> ModelParams:
    """Re-train the classification head on frozen features.

    The head restarts from a random init and full-batch gradient descent
    with Armijo backtracking minimises the mean CE at temperature 1; the
    returned model keeps the feature extractor bit-identical and resets the
    temperature to 1 (calibration is a separate step).
    """
    rng = rng if rng is not None else make_rng(0)
    x, y = train.inputs, train.labels
    feats = feat_activations(m, x)[-1]
    n, h = feats.shape
    k = m.n_classes
    bound = 1.0 / np.sqrt(h)
    w = rng.uniform(-bound, bound, size=(k, h))
    b = rng.uniform(-bound, bound, size=k)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    def loss_only(w, b):
        probs = softmax(feats @ w.T + b)
        return float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], 1e-300))))

    def loss_grad(w, b):
        probs = softmax(feats @ w.T + b)
        loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], 1e-300))))
        d = (probs - onehot) / n
        return loss, d.T @ feats, d.sum(axis=0)

    loss, gw, gb = loss_grad(w, b)
    alpha = 1.0
    for _ in range(max_iter):
        gnorm2 = float((gw * gw).sum() + (gb * gb).sum())
        if np.sqrt(gnorm2) < grad_tol:
            break
        alpha = min(alpha * 2.0, 1e3)
        while alpha > 1e-12:
            w_new = w - alpha * gw
            b_new = b - alpha * gb
            loss_new = loss_only(w_new, b_new)
            if loss_new <= loss - 1e-4 * alpha * gnorm2:
                break
            alpha *= 0.5
        w, b = w_new, b_new
        loss, gw, gb = loss_grad(w, b)
    return with_updates(m, linear_w=w, linear_b=b, temperature=1.0)


def nll_at_temperature(logits: np.ndarray, y: np.ndarray, temperature: float) -> float:
    probs = softmax(logits, temperature)
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300))))


def calibrate_temperature(m: ModelParams, val) -> ModelParams:
    """Pick the temperature minimising validation NLL.

    Golden-section search on log-temperature over [-3, 3]; ties (and any
    search loss vs. temperature 1) resolve to temperature 1, so the result
    never has higher NLL than the uncalibrated model.
    """
    if len(val) == 0:
        raise InvalidArgumentError("validation set must be nonempty")
    _, _, logits = forward(m, val.inputs)
    y = val.labels

    def f(u):
        return nll_at_temperature(logits, y, float(np.exp(u)))

    lo, hi = -3.0, 3.0
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
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
    t_best = float(np.exp(u_best))
    if nll_at_temperature(logits, y, 1.0) <= f(u_best) + 1e-12:
        t_best = 1.0
    return with_updates(m, temperature=t_best)


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

