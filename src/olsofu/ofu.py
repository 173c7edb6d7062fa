"""The online feature-update wrapper around an adaptation strategy.

Per time step the wrapper (1) steps the OLS strategy on the label-marginal
estimate the caller supplies, computed from the calibrated model finalised
before the batch, (2) buffers the batch and, every ``ba`` steps, applies
self-supervised gradient steps to the feature extractor, and (3) then
re-trains the classification head on the source train set and
re-calibrates on the validation set. ``ols_ofu_step`` does (1) and the
buffering; ``refresh`` does the rest of (2) and all of (3), and is the one
place a run's model, confusion and context change. The ordering is
normative: the estimate consumed in (1) never has a data-flow dependence
on the current batch.

A refresh forwards each source set once. The train features of the
updated extractor feed both the head retrain and the strategies'
``OlsContext`` (the retrain leaves the extractor frozen, so they are the
same features); the validation logits feed both the temperature
calibration and the soft confusion of the calibrated model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .estimator import (
    ConfusionMatrix,
    MarginalEstimate,
    bbse_estimate,  # noqa: F401 - perfbench's tracer wraps it here
    confusion_matrix,
    regularize_confusion,
)
from .models import (
    HeadCurvature,
    ModelParams,
    SslSpec,
    backward,
    calibrate_temperature,
    feat_activations,
    forward,
    forward_logits,
    head_output,
    retrain_linear,
    with_theta,
    with_updates,
)
from .ols import CONTEXT_FIELDS, OlsContext, reweight_probs


def feature_update(
    m: ModelParams,
    batch_inputs: np.ndarray,
    spec: SslSpec,
    rng: np.random.Generator,
) -> ModelParams:
    """One self-supervised gradient step on the feature extractor.

    For rotation the auxiliary head co-trains; the classification head is
    never touched here: its entries of the gradient are zeroed.
    """
    if spec.kind == "none":
        raise ContractViolationError("feature_update called with ssl kind 'none'")
    _, g = backward(m, batch_inputs, spec, rng)
    gv = m.views(g)
    gv.linear_w[...] = 0.0
    gv.linear_b[...] = 0.0
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
        probs, feats, _ = forward(self.base, x)
        return _deployed_probs(self.base, probs, feats, self.head, self.ratio)

    def predict(self, x) -> np.ndarray:
        # argmax breaks ties toward the lowest class index
        return np.argmax(self.predict_proba(x), axis=-1)


def _deployed_probs(base: ModelParams, base_probs: np.ndarray, feats: np.ndarray,
                    head: tuple | None, ratio: np.ndarray | None) -> np.ndarray:
    """What a ``Predictor`` on ``base`` deploys for inputs that
    ``forward(base, x)`` mapped to ``base_probs`` and ``feats``: the head,
    if any, on ``feats`` in place of ``base_probs``, then the ratio, if any.
    Stacked policies pass stacked arrays, which broadcast row by row."""
    probs = base_probs if head is None else head_output(base, feats, head)[0]
    return probs if ratio is None else reweight_probs(probs, ratio)


def predict_stacked(policies: list, base_probs: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Predictions (m, n) of m deployed ``policies`` on one batch each, from
    the batches' (m, n, K) ``base_probs`` and (m, n, h) ``feats`` under the
    policies' shared base model: row i is ``policies[i].predict`` on batch
    i, bit for bit. The heads go through one matmul and one softmax, the
    ratios one reweighting. The policies must agree in their base model and
    in whether they have a head and a ratio."""
    first = policies[0]
    if any(p.base.uid != first.base.uid or (p.head is None) != (first.head is None)
           or (p.ratio is None) != (first.ratio is None) for p in policies):
        raise ContractViolationError("stacked policies must share a base model and a kind")
    head = ratio = None
    if first.head is not None:
        w, b = zip(*(p.head for p in policies))
        head = np.array(w), np.array(b)[:, None, :]
    if first.ratio is not None:
        ratio = np.array([p.ratio for p in policies])[:, None, :]
    return np.argmax(_deployed_probs(first.base, base_probs, feats, head, ratio), axis=-1)


def compose_output(base_model: ModelParams, strategy) -> Predictor:
    """Build the deployed model: reweighting strategies reweight the fresh
    calibrated model by p/q0, their own q0; last-layer strategies install
    their own head on the current features and ignore reweighting."""
    if strategy.kind == "reweight":
        return Predictor(base_model, strategy.reweight_vector() / strategy.q0)
    return Predictor(base_model, head=strategy.head())


def build_context(
    model: ModelParams,
    train,
    feats: np.ndarray | None = None,
    reads: tuple = CONTEXT_FIELDS,
) -> OlsContext:
    """The strategies' view of ``model`` on the train set, in the class
    order of the train set's layout for ``model``'s K classes.

    Of the fields that cost a pass over the train set, only those named in
    ``reads`` (a strategy's ``reads``) are built. ``feats`` are ``model``'s
    train features if the caller already has them (a refresh does);
    otherwise the train set is forwarded here when a field needs it.
    """
    if reads and feats is None:
        feats = feat_activations(model, train.inputs)[-1]
    classes = train.class_layout(model.n_classes)
    order = classes.order
    xt = class_sums = train_probs = own_probs = None
    if "train_probs" in reads:
        train_probs = head_output(model, feats)[0][order]
        own_probs = train_probs[np.arange(order.size), classes.labels]
    if "xt" in reads:
        xt = np.empty((feats.shape[1] + 1, feats.shape[0]))
        xt[:-1] = feats[order].T
        xt[-1] = 1.0
        class_sums = np.stack([xt[:, sl].sum(axis=1) for sl in classes.slices])
    return OlsContext(
        classes=classes,
        train_probs=train_probs,
        own_probs=own_probs,
        xt=xt,
        class_sums=class_sums,
    )


def calibrate(
    model: ModelParams, val, reg_lambda: float, start_temperature: float = 1.0
) -> tuple[ModelParams, ConfusionMatrix]:
    """Calibrate ``model``'s temperature on ``val``, searching from
    ``start_temperature``, and measure the soft confusion of the calibrated
    model there, regularized by ``reg_lambda``, from one forward of
    ``val``. The forward computes the logits only (``forward_logits``:
    ``forward``'s checks and arithmetic, without the probabilities, which
    neither step reads). Both read a class-major copy of the logits, whose
    per-row softmax runs over contiguous class columns."""
    logits = np.asfortranarray(forward_logits(model, val.inputs))
    calibrated = calibrate_temperature(model, val, logits, start_temperature)
    return calibrated, regularize_confusion(confusion_matrix(calibrated, val, logits), reg_lambda)


@dataclass
class OfuState:
    """Mutable single-owner state of one online run, with the run's fixed
    resources: the source data, the estimator's regularization, the
    run-level rng that feeds SSL draws and the head retrain's iteration
    cap. ``confusion`` is of ``model``, and ``ctx`` is built from it;
    ``model``'s temperature is where the next refresh's calibration starts.
    ``curvature`` is the run's head-retrain curvature, which each refresh's
    solve starts from and leaves for the next, and the storage of the
    solve's design matrix."""

    model: ModelParams  # f_t'': calibrated, independent of the current batch
    confusion: ConfusionMatrix
    strategy: object
    train: object
    val: object
    ssl: SslSpec
    reg_lambda: float
    rng: np.random.Generator
    retrain_max_iter: int
    ctx: OlsContext = field(init=False)
    buffer: list = field(default_factory=list)
    feature_updates_done: int = 0
    curvature: HeadCurvature = field(default_factory=HeadCurvature, init=False)

    def __post_init__(self):
        self.ctx = build_context(self.model, self.train, reads=self.strategy.reads)


def steps_before_refresh(state: OfuState) -> int | None:
    """How many steps, the next one included, estimate from ``state.model``;
    the model refreshes at the end of the last of them. None when no step
    refreshes it (ssl kind 'none')."""
    if state.ssl.kind == "none":
        return None
    return state.ssl.ba - len(state.buffer)


def refresh(state: OfuState, inputs: np.ndarray) -> None:
    """Steps (2)-(3) on the buffered ``inputs``: feature-update the model,
    re-train its head, re-calibrate it, and rebuild the confusion and the
    strategy's context from the result. The calibration's search starts
    from the temperature of the model it replaces."""
    # The old model's context is dead from here on; dropping it now keeps
    # its arrays out of the feature update's peak memory.
    state.ctx = None
    carrier = state.model
    if state.strategy.kind == "head":
        w, b = state.strategy.head()
        carrier = with_updates(carrier, linear_w=w, linear_b=b)
    for _ in range(state.ssl.inner_steps):
        carrier = feature_update(carrier, inputs, state.ssl, state.rng)
    # The solve is warm-started from the previous refresh's optimum, which a
    # head strategy's carrier does not hold.
    if state.strategy.kind == "head":
        carrier = with_updates(
            carrier, linear_w=state.model.linear_w, linear_b=state.model.linear_b
        )
    feats = feat_activations(carrier, state.train.inputs)[-1]
    retrained = retrain_linear(
        carrier, state.train, max_iter=state.retrain_max_iter, feats=feats,
        curvature=state.curvature,
    )
    state.model, state.confusion = calibrate(
        retrained, state.val, state.reg_lambda, state.model.temperature
    )
    state.ctx = build_context(state.model, state.train, feats, state.strategy.reads)
    state.feature_updates_done += 1


def ols_ofu_step(
    state: OfuState, batch_inputs: np.ndarray, est: MarginalEstimate
) -> Predictor:
    """Advance one time step; mutates ``state`` and returns the model to
    deploy next.

    ``batch_inputs`` must be unlabeled; passing a (inputs, labels) pair is
    rejected so hidden labels cannot leak into adaptation. ``est`` is this
    batch's marginal estimate; it must come from ``state.model``, the model
    finalized before this batch, and is rejected otherwise.
    """
    if isinstance(batch_inputs, (tuple, list)):
        raise ContractViolationError(
            "adaptation receives unlabeled inputs only; labels must stay on "
            "the evaluation path"
        )
    if est.model_uid != state.model.uid:
        raise ContractViolationError(
            "the estimate must come from the model finalized before this batch"
        )
    state.strategy.step(state.ctx, est)
    if state.ssl.kind != "none":
        state.buffer.append(np.asarray(batch_inputs, dtype=float))
        if len(state.buffer) >= state.ssl.ba:
            inputs = np.vstack(state.buffer)
            state.buffer.clear()
            refresh(state, inputs)
    return compose_output(state.model, state.strategy)
