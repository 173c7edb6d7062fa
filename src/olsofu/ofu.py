"""The online feature-update wrapper around an adaptation strategy.

Per time step the wrapper (1) estimates the label marginal from the
current calibrated model and steps the OLS strategy, (2) applies a
self-supervised gradient step to the feature extractor (optionally
buffering batches and updating only every ``ba`` steps), and (3) re-trains
the classification head on the source train set and re-calibrates on the
validation set. The ordering is normative: the estimate consumed in (1)
is always computed from a model with no data-flow dependence on the
current batch.

A refresh (step 3) forwards each source set once. The train features of
the updated extractor feed both the head retrain and the strategies'
``OlsContext`` (the retrain leaves the extractor frozen, so they are the
same features); the validation logits feed both the temperature
calibration and the soft confusion of the calibrated model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, require
from .estimator import (
    ConfusionMatrix,
    MarginalEstimate,
    bbse_estimate,
    confusion_matrix,
    regularize_confusion,
)
from .models import (
    ModelParams,
    backward,
    calibrate_temperature,
    feat_activations,
    forward,
    head_output,
    retrain_linear,
    with_theta,
    with_updates,
)
from .ols import CONTEXT_FIELDS, OlsContext, reweight_probs

SSL_KINDS = ("rotation", "entropy", "infonce", "none")


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


def ssl_loss_grad(
    spec: SslSpec,
    batch_inputs: np.ndarray,
    m: ModelParams,
    rng: np.random.Generator,
):
    """Self-supervised loss ``spec.kind`` and its gradient over the feature
    extractor and the auxiliary head; the classification head's own entries
    are zeroed."""
    loss, g = backward(
        m,
        (batch_inputs, None),
        spec.kind,
        rng=rng,
        infonce_temperature=spec.infonce_temperature,
        augment_noise=spec.augment_noise,
    )
    gv = m.views(g)
    gv.linear_w[...] = 0.0
    gv.linear_b[...] = 0.0
    return loss, g


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
    _, g = ssl_loss_grad(spec, batch_inputs, m, rng)
    return with_theta(m, m.theta - spec.ssl_lr * g)


@dataclass(frozen=True)
class Predictor:
    """Composed prediction model: a base network plus an optional
    reweighting ratio or an optional ``(w, b)`` head that replaces the base
    network's classification head."""

    base: ModelParams
    ratio: np.ndarray | None = None
    head: tuple | None = None

    def predict_proba(self, x) -> np.ndarray:
        probs, _, _ = forward(self.base, x, self.head)
        return self._reweight(probs)

    def predict(self, x) -> np.ndarray:
        # argmax breaks ties toward the lowest class index
        return np.argmax(self.predict_proba(x), axis=-1)

    def predict_forwarded(self, base_probs: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """``predict`` for inputs that ``forward(self.base, x)`` already
        mapped to ``base_probs`` and ``feats``; only the head is applied."""
        if self.head is not None:
            base_probs, _ = head_output(self.base, feats, self.head)
        return np.argmax(self._reweight(base_probs), axis=-1)

    def _reweight(self, probs: np.ndarray) -> np.ndarray:
        if self.ratio is None:
            return probs
        return reweight_probs(probs, self.ratio)


def compose_output(base_model: ModelParams, strategy, q0: np.ndarray) -> Predictor:
    """Build the deployed model: reweighting strategies reweight the fresh
    calibrated model by p/q0; last-layer strategies install their own head
    on the current features and ignore reweighting."""
    if strategy.kind == "reweight":
        ratio = strategy.reweight_vector() / np.asarray(q0, dtype=float)
        return Predictor(base_model, ratio)
    return Predictor(base_model, head=strategy.head())


@dataclass
class OfuRuntime:
    """Fixed per-run resources: source data, estimator settings, the
    run-level rng that feeds SSL draws, and the head retrain's iteration
    cap and gradient tolerance."""

    train: object
    val: object
    q0: np.ndarray
    ssl: SslSpec
    reg_lambda: float
    rng: np.random.Generator
    retrain_max_iter: int
    retrain_grad_tol: float


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


def build_context(
    model: ModelParams,
    train,
    q0: np.ndarray,
    feats: np.ndarray | None = None,
    reads: tuple = CONTEXT_FIELDS,
) -> OlsContext:
    """The strategies' view of ``model`` on the train set.

    Of the fields that cost a pass over the train set, only those named in
    ``reads`` (a strategy's ``reads``) are built. ``feats`` are ``model``'s
    train features if the caller already has them (a refresh does);
    otherwise the train set is forwarded here when a field needs it.
    """
    if reads and feats is None:
        feats = feat_activations(model, train.inputs)[-1]
    k = q0.shape[0]
    slices = train.class_indices(k)
    xt = None
    if "xt" in reads:
        xt = np.empty((feats.shape[1] + 1, feats.shape[0]))
        xt[:-1] = feats.T
        xt[-1] = 1.0
    return OlsContext(
        q0=np.asarray(q0, dtype=float),
        train_labels=train.labels,
        class_slices=slices,
        class_counts=np.array([slices[c].size for c in range(k)], dtype=float),
        train_probs=head_output(model, feats)[0] if "train_probs" in reads else None,
        xt=xt,
    )


def calibrate(model: ModelParams, val) -> tuple[ModelParams, ConfusionMatrix]:
    """Calibrate ``model``'s temperature on ``val`` and measure the soft
    confusion of the calibrated model there, from one forward of ``val``."""
    _, _, logits = forward(model, val.inputs)
    calibrated = calibrate_temperature(model, val, logits)
    return calibrated, confusion_matrix(calibrated, val, logits)


def init_ofu_state(
    f0_calibrated: ModelParams, strategy, runtime: OfuRuntime
) -> OfuState:
    conf = regularize_confusion(
        confusion_matrix(f0_calibrated, runtime.val), runtime.reg_lambda
    )
    ctx = build_context(f0_calibrated, runtime.train, runtime.q0, reads=strategy.reads)
    return OfuState(model=f0_calibrated, strategy=strategy, confusion=conf, ctx=ctx)


def steps_before_refresh(state: OfuState, runtime: OfuRuntime) -> int | None:
    """How many steps, the next one included, estimate from ``state.model``;
    the model refreshes at the end of the last of them. None when no step
    refreshes it (ssl kind 'none')."""
    if runtime.ssl.kind == "none":
        return None
    return runtime.ssl.ba - len(state.buffer)


def ols_ofu_step(
    state: OfuState,
    batch_inputs: np.ndarray,
    runtime: OfuRuntime,
    est: MarginalEstimate | None = None,
) -> tuple[Predictor, StepRecord]:
    """Advance one time step; mutates ``state`` and returns the model to
    deploy next plus the step record.

    ``batch_inputs`` must be unlabeled; passing a (inputs, labels) pair is
    rejected so hidden labels cannot leak into adaptation. ``est`` is this
    batch's marginal estimate if the caller computed it ahead (the harness
    does, a chunk of batches at a time); it must come from ``state.model``,
    the model finalized before this batch, and is rejected otherwise.
    Without it the step estimates here.
    """
    if isinstance(batch_inputs, (tuple, list)):
        raise ContractViolationError(
            "adaptation receives unlabeled inputs only; labels must stay on "
            "the evaluation path"
        )
    if est is not None and est.model_uid != state.model.uid:
        raise ContractViolationError(
            "the estimate must come from the model finalized before this batch"
        )
    batch_inputs = np.asarray(batch_inputs, dtype=float)
    state.t += 1

    # (1) Estimate from the pre-update model, then step the OLS strategy.
    if est is None:
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
            # (3) Re-train the head on source data and re-calibrate. The
            # solve is warm-started from the previous refresh's optimum,
            # which a head strategy's carrier does not hold.
            if state.strategy.kind == "head":
                carrier = with_updates(
                    carrier,
                    linear_w=state.model.linear_w,
                    linear_b=state.model.linear_b,
                )
            feats = feat_activations(carrier, runtime.train.inputs)[-1]
            retrained = retrain_linear(
                carrier,
                runtime.train,
                max_iter=runtime.retrain_max_iter,
                grad_tol=runtime.retrain_grad_tol,
                feats=feats,
            )
            state.model, conf = calibrate(retrained, runtime.val)
            state.confusion = regularize_confusion(conf, runtime.reg_lambda)
            state.ctx = build_context(
                state.model, runtime.train, runtime.q0, feats, state.strategy.reads
            )
            state.feature_updates_done += 1

    predictor = compose_output(state.model, state.strategy, state.ctx.q0)
    record = StepRecord(
        s_raw=est.s.copy(),
        sigma_min=sigma_used,
        snapshot=state.strategy.snapshot(),
        end_model_uid=state.model.uid,
    )
    return predictor, record
