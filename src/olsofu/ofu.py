"""The online feature-update wrapper around an adaptation strategy.

Per time step the wrapper (1) estimates the label marginal from the
current calibrated model and steps the OLS strategy, (2) applies a
self-supervised gradient step to the feature extractor (optionally
buffering batches and updating only every ``ba`` steps), and (3) re-trains
the classification head on the source train set and re-calibrates on the
validation set. The ordering is normative: the estimate consumed in (1)
is always computed from a model with no data-flow dependence on the
current batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError
from .estimator import (
    ConfusionMatrix,
    bbse_estimate,
    confusion_matrix,
    regularize_confusion,
)
from .models import (
    ModelParams,
    backward,
    calibrate_temperature,
    forward,
    retrain_linear,
    with_updates,
)
from .ols import OlsContext, reweight_probs

SSL_KINDS = ("rotation", "entropy", "infonce", "none")


@dataclass(frozen=True)
class SslSpec:
    """Self-supervised loss choice and its update hyperparameters."""

    kind: str = "none"
    ssl_lr: float = 0.01  # feature-update step size
    ba: int = 1  # batch-accumulation period (update every ba steps)
    inner_steps: int = 1  # gradient steps per update
    infonce_temperature: float = 0.07
    augment_noise: float = 0.1

    def __post_init__(self):
        if self.kind not in SSL_KINDS:
            raise InvalidArgumentError(f"unknown ssl kind {self.kind!r}")
        if self.ssl_lr < 0:
            raise InvalidArgumentError("ssl_lr must be >= 0")
        if self.ba < 1 or self.inner_steps < 1:
            raise InvalidArgumentError("ba and inner_steps must be >= 1")
        if self.infonce_temperature <= 0:
            raise InvalidArgumentError("infonce_temperature must be > 0")
        if self.augment_noise < 0:
            raise InvalidArgumentError("augment_noise must be >= 0")


def ssl_loss_grad(
    kind: str,
    batch_inputs: np.ndarray,
    m: ModelParams,
    rng: np.random.Generator,
    spec: SslSpec | None = None,
):
    """Self-supervised loss and its gradient over the feature extractor and
    the auxiliary head; the classification head's own entries are zeroed."""
    spec = spec or SslSpec(kind=kind)
    loss, grads = backward(
        m,
        (batch_inputs, None),
        kind,
        scope="all",
        rng=rng,
        infonce_temperature=spec.infonce_temperature,
        augment_noise=spec.augment_noise,
    )
    grads.linear_w = np.zeros_like(grads.linear_w)
    grads.linear_b = np.zeros_like(grads.linear_b)
    return loss, grads


def feature_update(
    m: ModelParams,
    batch_inputs: np.ndarray,
    spec: SslSpec,
    rng: np.random.Generator,
) -> ModelParams:
    """One self-supervised gradient step on the feature extractor.

    For rotation the auxiliary head co-trains; the classification head is
    never touched here.
    """
    if spec.kind == "none":
        raise ContractViolationError("feature_update called with ssl kind 'none'")
    _, grads = ssl_loss_grad(spec.kind, batch_inputs, m, rng, spec)
    new_fw = tuple(
        w - spec.ssl_lr * g for w, g in zip(m.feat_weights, grads.feat_w)
    )
    new_fb = tuple(
        b - spec.ssl_lr * g for b, g in zip(m.feat_biases, grads.feat_b)
    )
    return with_updates(
        m,
        feat_weights=new_fw,
        feat_biases=new_fb,
        ssl_w=m.ssl_w - spec.ssl_lr * grads.ssl_w,
        ssl_b=m.ssl_b - spec.ssl_lr * grads.ssl_b,
    )


@dataclass(frozen=True)
class Predictor:
    """Composed prediction model: a base network plus an optional
    reweighting ratio."""

    base: ModelParams
    ratio: np.ndarray | None = None

    def predict_proba(self, x) -> np.ndarray:
        probs, _, _ = forward(self.base, x)
        if self.ratio is None:
            return probs
        return reweight_probs(probs, self.ratio)

    def predict(self, x) -> np.ndarray:
        probs = self.predict_proba(x)
        # argmax breaks ties toward the lowest class index
        return np.argmax(probs, axis=-1)


def compose_output(base_model: ModelParams, strategy, q0: np.ndarray) -> Predictor:
    """Build the deployed model: reweighting strategies reweight the fresh
    calibrated model by p/q0; last-layer strategies install their own head
    on the current features and ignore reweighting."""
    if strategy.kind == "reweight":
        ratio = strategy.reweight_vector() / np.asarray(q0, dtype=float)
        return Predictor(base_model, ratio)
    w, b = strategy.head()
    return Predictor(with_updates(base_model, linear_w=w, linear_b=b), None)


@dataclass
class OfuRuntime:
    """Fixed per-run resources: source data, estimator settings and the
    run-level rng that feeds SSL draws and retrain initialisations."""

    train: object
    val: object
    q0: np.ndarray
    ssl: SslSpec
    reg_lambda: float
    rng: np.random.Generator
    retrain_max_iter: int = 500
    retrain_grad_tol: float = 1e-6


@dataclass
class StepRecord:
    """Per-step bookkeeping the harness stores into the trace."""

    s_raw: np.ndarray
    sigma_min: float
    snapshot: np.ndarray
    end_model_uid: int


@dataclass
class OfuState:
    """Mutable single-owner state of one online run."""

    model: ModelParams  # f_t'': calibrated, independent of the current batch
    strategy: object
    confusion: ConfusionMatrix
    ctx: OlsContext
    buffer: list = field(default_factory=list)
    t: int = 0
    feature_updates_done: int = 0


def build_context(model: ModelParams, train, q0: np.ndarray) -> OlsContext:
    probs, feats, _ = forward(model, train.inputs)
    k = q0.shape[0]
    slices = train.class_indices(k)
    return OlsContext(
        q0=np.asarray(q0, dtype=float),
        train_labels=train.labels,
        class_slices=slices,
        train_probs=probs,
        train_feats=feats,
    )


def init_ofu_state(
    f0_calibrated: ModelParams, strategy, runtime: OfuRuntime
) -> OfuState:
    conf = regularize_confusion(
        confusion_matrix(f0_calibrated, runtime.val), runtime.reg_lambda
    )
    ctx = build_context(f0_calibrated, runtime.train, runtime.q0)
    return OfuState(model=f0_calibrated, strategy=strategy, confusion=conf, ctx=ctx)


def _refresh_model(state: OfuState, runtime: OfuRuntime, new_model: ModelParams):
    state.model = new_model
    state.confusion = regularize_confusion(
        confusion_matrix(new_model, runtime.val), runtime.reg_lambda
    )
    state.ctx = build_context(new_model, runtime.train, runtime.q0)


def ols_ofu_step(
    state: OfuState, batch_inputs: np.ndarray, runtime: OfuRuntime
) -> tuple[Predictor, StepRecord]:
    """Advance one time step; mutates ``state`` and returns the model to
    deploy next plus the step record.

    ``batch_inputs`` must be unlabeled; passing a (inputs, labels) pair is
    rejected so hidden labels cannot leak into adaptation.
    """
    if isinstance(batch_inputs, (tuple, list)):
        raise ContractViolationError(
            "adaptation receives unlabeled inputs only; labels must stay on "
            "the evaluation path"
        )
    batch_inputs = np.asarray(batch_inputs, dtype=float)
    state.t += 1

    # (1) Estimate from the pre-update model, then step the OLS strategy.
    est = bbse_estimate(state.model, state.confusion, batch_inputs)
    sigma_used = state.confusion.sigma_min
    state.strategy.step(state.ctx, est)

    # (2) Feature update on the buffered batches, every ``ba`` steps.
    ssl = runtime.ssl
    if ssl.kind != "none":
        state.buffer.append(batch_inputs)
        if len(state.buffer) >= ssl.ba:
            inputs = np.vstack(state.buffer)
            state.buffer.clear()
            carrier = state.model
            if state.strategy.kind == "head":
                w, b = state.strategy.head()
                carrier = with_updates(carrier, linear_w=w, linear_b=b)
            for _ in range(ssl.inner_steps):
                carrier = feature_update(carrier, inputs, ssl, runtime.rng)
            updated = with_updates(
                state.model,
                feat_weights=carrier.feat_weights,
                feat_biases=carrier.feat_biases,
                ssl_w=carrier.ssl_w,
                ssl_b=carrier.ssl_b,
            )
            # (3) Re-train the head on source data and re-calibrate.
            retrained = retrain_linear(
                updated,
                runtime.train,
                rng=runtime.rng,
                max_iter=runtime.retrain_max_iter,
                grad_tol=runtime.retrain_grad_tol,
            )
            calibrated = calibrate_temperature(retrained, runtime.val)
            _refresh_model(state, runtime, calibrated)
            state.feature_updates_done += 1

    predictor = compose_output(state.model, state.strategy, state.ctx.q0)
    record = StepRecord(
        s_raw=est.s.copy(),
        sigma_min=sigma_used,
        snapshot=state.strategy.snapshot(),
        end_model_uid=state.model.uid,
    )
    return predictor, record
