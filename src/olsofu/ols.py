"""The six online label-shift adaptation strategies.

Each strategy is a small stateful object stepped once per time step with
the latest marginal estimate. Reweighting strategies (FTH, FTFWH, ROGD,
FLHFTL) maintain a simplex vector used to reweight the current base model;
last-layer strategies (ATLAS, and UOGD as its one-expert case) maintain
their own classification head on top of the current feature extractor.
Strategies consume no randomness, so trajectories are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, require
from .estimator import MarginalEstimate
from .models import ModelParams
from .numkit import project_simplex

ALGORITHMS = ("none", "fth", "ftfwh", "rogd", "flhftl", "uogd", "atlas")


def reweight_probs(probs: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Multiply row-wise by the ratio vector and renormalize."""
    weighted = probs * ratio
    total = weighted.sum(axis=-1, keepdims=True)
    return weighted / np.maximum(total, 1e-300)


# The OlsContext fields that cost a pass over the train set; a strategy's
# ``reads`` names those it needs.
CONTEXT_FIELDS = ("train_probs", "xt")


@dataclass
class OlsContext:
    """Artifacts of the current f_t'' that strategies read.

    Every per-sample field holds the train set in class order, the stable
    order of ``LabeledSet.class_order``: class k is the basic slice
    ``class_slices[k]`` of it. ``train_probs`` are f_t'' predictions on the
    train set, one row per sample (ROGD risk surface). ``xt`` holds the
    train features under the current extractor, one column per sample,
    with a ones row appended for the bias: shape (h+1, n); ``class_sums``
    (K, h+1) are its column sums per class, the label part of the
    UOGD/ATLAS risk and gradient. The wrapper refreshes the context
    whenever the model changes, building ``train_probs`` and ``xt`` (with
    ``class_sums``) only for a strategy whose ``reads`` names them.
    """

    q0: np.ndarray
    class_slices: tuple
    train_probs: np.ndarray | None = None
    xt: np.ndarray | None = None
    class_sums: np.ndarray | None = None


def head_risks_and_grads(
    xt: np.ndarray,
    class_slices: tuple,
    class_sums: np.ndarray,
    heads: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of sum_k s_k * R_k for N stacked heads.

    ``heads`` has shape (N, K, h+1), each head ``[w, b]``; R_k is the mean
    CE of a head over the class-k slice ``class_slices[k]`` of the
    class-ordered features ``xt`` (h+1, n), whose column sums over that
    slice are ``class_sums[k]``. Returns the risks (N,) and their
    gradients (N, K, h+1). ATLAS passes its N experts; UOGD is the N=1
    case.

    All heads share one logits GEMM and one softmax along the class axis.
    With m_i a sample's largest logit and w_k = s_k / n_k, the risk is
    sum_i w_(y_i) (m_i + log sum_j e^(z_ji - m_i)) minus the label term
    sum_k w_k <head_k, class_sums[k]>: no clamp, and finite whenever the
    logits are. The pass that normalises the softmax also weights each
    sample by w_(y_i), so the gradient is sum_k P_k X_k^T minus
    w_k e_k class_sums[k]^T: one GEMM per class slice, whose short inner
    dimension runs faster than one long product.
    """
    n_heads, k, width = heads.shape
    z = (heads.reshape(n_heads * k, width) @ xt).reshape(n_heads, k, -1)
    if not np.isfinite(z).all():
        raise InvalidArgumentError("head logits must be finite")
    top = z.max(axis=1)
    z -= top[:, None, :]
    counts = np.array([sl.stop - sl.start for sl in class_slices])
    w = np.divide(s, counts, out=np.zeros(k), where=counts > 0)
    per_sample = np.repeat(w, counts)
    np.exp(z, out=z)
    total = z.sum(axis=1)
    risks = (np.log(total) + top) @ per_sample - (heads * class_sums).sum(axis=2) @ w
    z *= (per_sample / total)[:, None, :]
    weighted = z.reshape(n_heads * k, -1)
    grads = sum(weighted[:, sl] @ xt[:, sl].T for sl in class_slices).reshape(heads.shape)
    grads -= w[:, None] * class_sums
    return risks, grads


def per_class_risk_jacobian(
    train_probs: np.ndarray,
    class_slices: tuple,
    p: np.ndarray,
    q0: np.ndarray,
) -> np.ndarray:
    """Jacobian J[k, m] = d/dp_m of the class-k surrogate risk
    1 - mean_{x in class k} g(x; f, p/q0)[k] of the reweighted model.

    ``train_probs`` holds the train predictions in class order, and the
    basic slices ``class_slices`` cut it into the classes' consecutive
    row runs, as the context's do. One pass over all rows computes each
    row's denominator and own-class term; the per-class means are sums over
    those runs."""
    counts = np.array([sl.stop - sl.start for sl in class_slices])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise InvalidArgumentError(f"train set has no examples of class {int(empty[0])}")
    k_classes = p.shape[0]
    starts = np.array([sl.start for sl in class_slices])
    labels = np.repeat(np.arange(k_classes), counts)
    ratio = p / q0
    denom = train_probs @ ratio
    own = train_probs[np.arange(labels.size), labels]
    g = own * ratio[labels] / denom
    # d g_k / d ratio_m = (delta_km * a_k - g_k * a_m) / denom
    term = (g / denom)[:, None] * train_probs
    jac = np.add.reduceat(term, starts, axis=0) / counts[:, None] / q0
    jac[np.diag_indices(k_classes)] -= np.add.reduceat(own / denom, starts) / counts / q0
    return jac


@dataclass(frozen=True)
class AlgoParams:
    """Per-algorithm hyperparameters; None means the documented default.
    The strategies read them from here as they are: their ranges are
    checked here."""

    eta: float | None = None  # rogd / uogd step size
    window: int = 100  # ftfwh
    flh_eta: float | None = None  # flhftl, default K/2
    meta_eps: float | None = None  # atlas, default sqrt(8/T)
    radius: float = 100.0  # uogd / atlas domain
    warmup: int = 50  # rogd L-hat estimation window

    def __post_init__(self):
        require(self.eta is None or self.eta >= 0, "eta", "must be >= 0")
        require(self.window >= 1, "window", "must be >= 1")
        require(self.flh_eta is None or self.flh_eta >= 0, "flh_eta", "must be >= 0")
        require(self.meta_eps is None or self.meta_eps > 0, "meta_eps", "must be > 0")
        require(self.radius > 0, "radius", "must be > 0")
        require(self.warmup >= 1, "warmup", "must be >= 1")


class BaseStrategy:
    """No adaptation: keeps the identity reweighting forever. Every
    reweighting strategy keeps its simplex vector in ``p``, from q0 on."""

    kind = "reweight"
    reads = ()

    def __init__(self, q0: np.ndarray):
        self.q0 = np.asarray(q0, dtype=float)
        self.p = self.q0.copy()

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        return None

    def reweight_vector(self) -> np.ndarray:
        return self.p.copy()

    def snapshot(self) -> np.ndarray:
        return self.reweight_vector()


class FthStrategy(BaseStrategy):
    """Running mean of the clipped marginal estimates."""

    def __init__(self, q0: np.ndarray):
        super().__init__(q0)
        self.running_sum = np.zeros_like(self.q0)
        self.t = 0

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        self.running_sum += est.clipped
        self.t += 1
        self.p = self.running_sum / self.t


class FtfwhStrategy(BaseStrategy):
    """Mean of the clipped estimates over a fixed trailing window."""

    def __init__(self, q0: np.ndarray, params: AlgoParams = AlgoParams()):
        super().__init__(q0)
        self.window = params.window
        self.history: list[np.ndarray] = []

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        self.history.append(est.clipped.copy())
        if len(self.history) > self.window:
            self.history.pop(0)
        self.p = np.mean(self.history, axis=0)


class RogdStrategy(BaseStrategy):
    """Projected gradient steps on the reweighting vector.

    The descent direction is J_p(p_t)^T s_t with the raw (unclipped)
    estimate. Unless ``params.eta`` fixes it, the step size is
    sqrt(2/T) / L_hat, where L_hat is the largest gradient norm observed
    during the first ``params.warmup`` steps and is frozen afterwards.
    """

    reads = ("train_probs",)

    def __init__(self, q0: np.ndarray, horizon: int, params: AlgoParams = AlgoParams()):
        super().__init__(q0)
        self.horizon = horizon
        self.eta = params.eta
        self.warmup = params.warmup
        self.lhat = 0.0
        self.t = 0

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        if ctx.train_probs is None:
            raise InvalidArgumentError("ROGD needs train predictions in the context")
        jac = per_class_risk_jacobian(
            ctx.train_probs, ctx.class_slices, self.p, ctx.q0
        )
        grad = jac.T @ est.s
        self.t += 1
        if self.t <= self.warmup:
            self.lhat = max(self.lhat, float(np.linalg.norm(grad)))
        if self.eta is not None:
            eta_t = self.eta
        elif self.lhat > 0:
            eta_t = math.sqrt(2.0 / self.horizon) / self.lhat
        else:
            eta_t = 0.0
        self.p = project_simplex(self.p - eta_t * grad)


class FlhftlStrategy(BaseStrategy):
    """Follow-the-leading-history over follow-the-leader base learners.

    Expert j is born at step j and predicts the mean of the clipped
    estimates it has seen. Expert weights decay multiplicatively in the
    squared prediction error; each step injects a fresh expert with a
    1/(t+1) share of the mass. The prediction is the weight-averaged expert
    forecast projected to the simplex.

    Experts expire by their geometric lifetime (Hazan & Seshadhri, 2009):
    expert j = r * 2^m, r odd, is dropped at step j + 4 * 2^m, after that
    step's weight update and before its prediction. So the live set after
    step t, {j <= t : j + 4 * 2^m > t}, follows from t alone and holds
    O(log t) experts, at most 2 * (floor(log2 t) + 1).
    """

    def __init__(self, q0: np.ndarray, params: AlgoParams = AlgoParams()):
        super().__init__(q0)
        k = self.q0.shape[0]
        self.eta = params.flh_eta if params.flh_eta is not None else k / 2.0
        self.sums = np.zeros((0, k))
        self.births = np.zeros(0, dtype=int)
        self.weights = np.zeros(0)
        self.t = 0

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        s = est.clipped
        self.t += 1
        if self.weights.size:
            preds = self.sums / (self.t - self.births)[:, None]
            losses = ((preds - s) ** 2).sum(axis=1)
            # Subtract the min before exponentiating for stability.
            logw = np.log(np.maximum(self.weights, 1e-300)) - self.eta * losses
            logw -= logw.max()
            w = np.exp(logw)
            self.weights = w / w.sum()
        new_share = 1.0 / (self.t + 1.0)
        self.weights = np.concatenate([self.weights * (1.0 - new_share), [new_share]])
        self.weights = self.weights / self.weights.sum()
        self.sums = np.vstack([self.sums + s, s[None, :]])
        self.births = np.append(self.births, self.t)
        live = self.births + 4 * (self.births & -self.births) > self.t
        if not live.all():
            self.weights = self.weights[live] / self.weights[live].sum()
            self.sums, self.births = self.sums[live], self.births[live]
        preds = self.sums / (self.t + 1 - self.births)[:, None]
        self.p = project_simplex(self.weights @ preds)


def atlas_pool_size(horizon: int) -> int:
    return 1 + math.ceil(0.5 * math.log2(1 + 2 * horizon))


def atlas_step_pool(horizon: int, k: int, sigma_min: float) -> np.ndarray:
    """Geometric step-size pool eta_i = base * 2^(i-1)."""
    base = sigma_min / math.sqrt(k * horizon)
    n = atlas_pool_size(horizon)
    return base * (2.0 ** np.arange(n))


class AtlasStrategy:
    """Meta-ensemble of UOGD experts over a step-size pool.

    Each expert descends on the classification head ``[w, b]`` along the
    s_t-weighted per-class risk gradient under the *current* features,
    and is projected back into the Frobenius-norm ball of ``params.radius``
    when it leaves it. The experts are one (N, K, h+1) array ``heads``
    with step sizes ``etas``, moved together by one
    :func:`head_risks_and_grads` call. Meta weights ``meta`` are
    exponential, at rate ``eps``, in the experts' cumulative risk
    ``cum_risk``; the played head is their meta-weighted average.
    """

    kind = "head"
    reads = ("xt",)

    def __init__(self, f0: ModelParams, etas, eps: float,
                 params: AlgoParams = AlgoParams()):
        etas = np.asarray(etas, dtype=float)
        if etas.size == 0:
            raise InvalidArgumentError("step-size pool must be nonempty")
        if np.any(etas < 0):
            raise InvalidArgumentError("eta must be >= 0")
        self.etas = etas
        self.eps = eps
        self.radius = params.radius
        self.played = np.column_stack([f0.linear_w, f0.linear_b])
        self.heads = np.repeat(self.played[None], etas.size, axis=0)
        self.cum_risk = np.zeros(etas.size)
        self.meta = np.full(etas.size, 1.0 / etas.size)

    def step(self, ctx: OlsContext, est: MarginalEstimate) -> None:
        if ctx.xt is None:
            raise InvalidArgumentError("head strategies need train features in the context")
        heads = self.heads
        risks, grads = head_risks_and_grads(ctx.xt, ctx.class_slices, ctx.class_sums, heads, est.s)
        heads -= self.etas[:, None, None] * grads
        norms = np.sqrt((heads * heads).sum(axis=(1, 2)))
        outside = norms > self.radius
        if outside.any():
            heads[outside] *= (self.radius / norms[outside])[:, None, None]
        self.cum_risk += risks
        logits = -self.eps * self.cum_risk
        logits -= logits.max()
        w = np.exp(logits)
        self.meta = w / w.sum()
        self.played = (self.meta[:, None, None] * heads).sum(axis=0)

    def head(self) -> tuple[np.ndarray, np.ndarray]:
        return self.played[:, :-1].copy(), self.played[:, -1].copy()

    def snapshot(self) -> np.ndarray:
        return np.concatenate([self.played[:, :-1].ravel(), self.played[:, -1]])


class UogdStrategy(AtlasStrategy):
    """UOGD: ATLAS with the single step size ``eta``. Its one meta weight
    stays 1, so the meta rate is irrelevant and the played head is the
    expert's."""

    def __init__(self, f0: ModelParams, eta: float, params: AlgoParams = AlgoParams()):
        super().__init__(f0, [eta], 0.0, params)


def make_strategy(
    algorithm: str,
    q0: np.ndarray,
    horizon: int,
    f0: ModelParams,
    sigma_min: float,
    params: AlgoParams = AlgoParams(),
):
    """Instantiate a strategy with the hyperparameters ``params`` holds.

    ``sigma_min`` is the minimum singular value of the pretrained model's
    confusion matrix; it sets the UOGD step size and the ATLAS pool base.
    """
    q0 = np.asarray(q0, dtype=float)
    k = q0.shape[0]
    if algorithm == "none":
        return BaseStrategy(q0)
    if algorithm == "fth":
        return FthStrategy(q0)
    if algorithm == "ftfwh":
        return FtfwhStrategy(q0, params)
    if algorithm == "rogd":
        return RogdStrategy(q0, horizon, params)
    if algorithm == "flhftl":
        return FlhftlStrategy(q0, params)
    if algorithm == "uogd":
        eta = params.eta if params.eta is not None else atlas_step_pool(horizon, k, sigma_min)[0]
        return UogdStrategy(f0, eta, params)
    if algorithm == "atlas":
        etas = atlas_step_pool(horizon, k, sigma_min)
        eps = params.meta_eps if params.meta_eps is not None else math.sqrt(8.0 / horizon)
        return AtlasStrategy(f0, etas, eps, params)
    raise InvalidArgumentError(f"unknown algorithm {algorithm!r}")
