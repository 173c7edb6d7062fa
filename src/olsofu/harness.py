"""Online evaluation loop, oracle comparators, metrics and the estimator
bias experiment.

Three seed streams keep runs comparable: the data seed fixes the source
draw and pretraining, the shift seed fixes the marginal process and batch
sampling, and the run seed feeds only algorithm-side randomness (the SSL
draws; the head retrain draws nothing). Two scenarios differing only in
algorithm or SSL choice therefore see byte-identical batch streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError, RunError, UndefinedCorrelationError, require
from .estimator import (
    ConfusionMatrix,
    bbse_estimate,
    bbse_estimates,
    confusion_matrix,
    regularize_confusion,
)
from .models import (
    ModelParams,
    TrainConfig,
    calibrate_temperature,  # noqa: F401 - perfbench's tracer wraps it here too
    forward,
    retrain_linear,
    train_supervised,
)
from .numkit import make_rng, min_singular_value
from .ofu import (
    SSL_KINDS,
    OfuRuntime,
    Predictor,
    SslSpec,
    build_context,
    calibrate,
    compose_output,
    feature_update,
    init_ofu_state,
    ols_ofu_step,
    steps_before_refresh,
)
from .ols import ALGORITHMS, AlgoParams, make_strategy
from .synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    draw_class_inputs,
    make_source_data,
    marginal_at,
    path_length,
    realize_pattern,
    sample_batch,
)

ORDERS = ("predict_first", "update_first")

# Steps whose batches are drawn, forwarded and BBSE-solved together. The
# per-call overheads of the forward and the solve are spread over the
# chunk; its rows (CHUNK_STEPS * batch_size) stay few enough that memory
# does not grow.
CHUNK_STEPS = 25


@dataclass(frozen=True)
class Scenario:
    """Complete experiment configuration."""

    data: DataSpec
    shift: ShiftPattern
    corruption: CorruptionSpec = CorruptionSpec()
    algorithm: str = "flhftl"
    ssl: SslSpec = SslSpec()
    batch_size: int = 10
    order: str = "predict_first"
    data_seed: int = 1
    shift_seed: int = 2
    run_seed: int = 8610
    train_cfg: TrainConfig = TrainConfig()
    pretrain_ssl: str = "none"
    pretrain_ssl_weight: float = 1.0
    algo_params: AlgoParams = AlgoParams()
    reg_lambda: float = 0.01
    hidden: tuple = (32, 32)
    activation: str = "tanh"
    retrain_max_iter: int = 500
    retrain_grad_tol: float = 1e-6

    def __post_init__(self):
        require(self.algorithm in ALGORITHMS, "algorithm",
                f"{self.algorithm!r} is not one of {ALGORITHMS}")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.order in ORDERS, "order", f"{self.order!r} is not one of {ORDERS}")
        for name in ("data_seed", "shift_seed", "run_seed"):
            require(getattr(self, name) >= 0, name, "must be >= 0")
        require(self.pretrain_ssl in SSL_KINDS, "pretrain_ssl",
                f"{self.pretrain_ssl!r} is not one of {SSL_KINDS}")
        require(self.pretrain_ssl_weight >= 0, "pretrain_ssl_weight", "must be >= 0")
        require(0 <= self.reg_lambda <= 1, "reg_lambda", "must lie in [0, 1]")
        require(all(h >= 1 for h in self.hidden), "hidden", "widths must be >= 1")
        require(self.retrain_max_iter >= 1, "retrain_max_iter", "must be >= 1")
        require(self.shift.q.size == self.data.k, "shift.q", "must have data.k entries")
        require(self.ssl.kind != "infonce" or self.batch_size * self.ssl.ba >= 2, "ssl.ba",
                "is too small: infonce needs batch_size * ssl.ba >= 2 inputs per update")

    @property
    def horizon(self) -> int:
        return self.shift.horizon


@dataclass
class OnlineTrace:
    """Per-step record of one online run plus summary metrics."""

    q: np.ndarray  # (T, K) true marginals
    s: np.ndarray  # (T, K) raw estimates
    errors: np.ndarray  # (T,) per-step 0-1 error counts
    batch_size: int
    sigma_min: np.ndarray  # (T,) sigma of the confusion used per step
    snapshots: list = field(default_factory=list)
    end_model_uids: list = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.q.shape[0]

    @property
    def cum_errors(self) -> np.ndarray:
        return np.cumsum(self.errors)

    @property
    def avg_error(self) -> float:
        return float(self.errors.sum()) / (self.horizon * self.batch_size)

    @property
    def shift_severity(self) -> float:
        return path_length(self.q)

    def summary(self) -> dict:
        return {
            "avg_error": self.avg_error,
            "shift_severity": self.shift_severity,
            "horizon": self.horizon,
            "batch_size": self.batch_size,
        }

    def to_csv(self, path) -> None:
        k = self.q.shape[1]
        cum = self.cum_errors
        header = (["t"] + [f"q{i}" for i in range(k)] + [f"s{i}" for i in range(k)]
                  + ["errors", "cum_errors"])
        write_csv(path, header, (
            [t + 1]
            + [repr(float(v)) for v in self.q[t]]
            + [repr(float(v)) for v in self.s[t]]
            + [int(self.errors[t]), int(cum[t])]
            for t in range(self.horizon)
        ))


def write_csv(path, header: list, rows) -> None:
    """Write a header row and then ``rows``, each a sequence of cells, as
    CSV to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class Pretrained:
    """Pretraining artifacts shared across runs of the same data config."""

    model: ModelParams  # calibrated f_0
    train: LabeledSet
    val: LabeledSet
    pool: LabeledSet
    q0: np.ndarray
    sigma_min: float  # of the regularized confusion of the calibrated f_0


def pretrain(sc: Scenario, model: ModelParams | None = None) -> Pretrained:
    """Draw the source data and produce the calibrated pretrained model.

    Pass ``model`` to reuse an existing uncalibrated checkpoint instead of
    training from scratch.
    """
    train, val, pool, q0 = make_source_data(sc.data, sc.data_seed)
    if model is None:
        model = train_supervised(
            train,
            sc.train_cfg,
            k=sc.data.k,
            ssl_kind=sc.pretrain_ssl,
            ssl_weight=sc.pretrain_ssl_weight,
            hidden=sc.hidden,
            activation=sc.activation,
            infonce_temperature=sc.ssl.infonce_temperature,
            augment_noise=sc.ssl.augment_noise,
        )
    calibrated, conf = calibrate(model, val)
    sigma_min = regularize_confusion(conf, sc.reg_lambda).sigma_min
    return Pretrained(calibrated, train, val, pool, q0, sigma_min)


class _BatchStream:
    """A run's batch stream, drawn, forwarded and BBSE-solved by chunk.

    Between two refreshes the model that estimates q_t is fixed, so the
    batches of a segment can share one forward and one multi-RHS solve.
    A chunk holds up to ``CHUNK_STEPS`` consecutive batches, drawn in
    stream order, and never crosses a refresh: it ends at the step whose
    refresh would change the model. So every estimate is computed, before
    its batch is adapted on, from the model finalized before the batch was
    revealed; ``ols_ofu_step`` rejects an estimate from any other model.
    Steps must be asked for in order. A draw that fails is re-raised when
    its step is reached.
    """

    def __init__(self, sc: Scenario, pre: Pretrained, pattern, rng):
        self.sc, self.pre, self.pattern, self.rng = sc, pre, pattern, rng
        self.start = self.stop = 1  # the chunk holds steps [start, stop)
        self.failure = None  # what drawing step ``stop`` raised

    def step(self, t: int, model: ModelParams, conf, segment_steps: int | None):
        """(q_t, inputs, estimate) of step t; ``model`` and ``conf`` are the
        ones estimating from step t for ``segment_steps`` steps (None: to
        the end of the run)."""
        if t == self.stop and self.failure is None:
            stop = min(t + CHUNK_STEPS, self.sc.horizon + 1)
            if segment_steps is not None:
                stop = min(stop, t + segment_steps)
            self._draw(t, stop, model, conf)
        if t == self.stop:
            raise self.failure
        i = t - self.start
        return self.q[i], self.inputs[i], self.estimates[i]

    def errors(self, t: int, predictor: Predictor) -> int:
        """Step t's 0-1 errors under ``predictor``; a predictor on the
        chunk's model reuses the chunk's forward."""
        i = t - self.start
        if predictor.base.uid == self.uid:
            predicted = predictor.predict_forwarded(self.probs[i], self.feats[i])
        else:
            predicted = predictor.predict(self.inputs[i])
        return int(np.sum(predicted != self.labels[i]))

    def _draw(self, start: int, stop: int, model: ModelParams, conf) -> None:
        sc, pre = self.sc, self.pre
        self.start, self.q, self.inputs, self.labels = start, [], [], []
        for t in range(start, stop):
            try:
                q_t = marginal_at(self.pattern, t)
                x, y = sample_batch(q_t, sc.batch_size, pre.pool, sc.corruption, self.rng)
            except Exception as exc:  # noqa: BLE001 - re-raised at step t
                self.failure = exc
                break
            self.q.append(q_t)
            self.inputs.append(x)
            self.labels.append(y)
        self.stop = start + len(self.q)
        if self.q:
            # Row i of probs / feats, shaped (n, B, .), is step start+i's batch.
            probs, feats, _ = forward(model, np.concatenate(self.inputs))
            self.estimates = bbse_estimates(model, conf, probs, sc.batch_size)
            self.probs = probs.reshape(len(self.q), sc.batch_size, -1)
            self.feats = feats.reshape(len(self.q), sc.batch_size, -1)
            self.uid = model.uid


def _empty_trace(sc: Scenario) -> OnlineTrace:
    t, k = sc.horizon, sc.data.k
    return OnlineTrace(
        q=np.zeros((t, k)),
        s=np.zeros((t, k)),
        errors=np.zeros(t, dtype=int),
        batch_size=sc.batch_size,
        sigma_min=np.zeros(t),
    )


def _online_loop(sc: Scenario, pre: Pretrained, true_marginal: bool) -> OnlineTrace:
    """The online protocol shared by ``run_online`` and ``oracle_trace``.

    Each step samples a batch from the true marginal, predicts with the
    deployed model, records 0-1 errors against the hidden labels, and then
    adapts (prediction and adaptation swap under order='update_first'). The
    deploy policy is the only difference between the two callers: the
    strategy's composed output, or with ``true_marginal`` the current model
    reweighted by q_t / q0. The batches, their forwards and their estimates
    come a chunk at a time from a ``_BatchStream``.
    """
    shift_rng = make_rng(sc.shift_seed)
    pattern = realize_pattern(sc.shift, shift_rng)
    runtime = OfuRuntime(
        train=pre.train,
        val=pre.val,
        q0=pre.q0,
        ssl=sc.ssl,
        reg_lambda=sc.reg_lambda,
        rng=make_rng(sc.run_seed),
        retrain_max_iter=sc.retrain_max_iter,
        retrain_grad_tol=sc.retrain_grad_tol,
    )
    strategy = make_strategy(
        sc.algorithm, pre.q0, sc.horizon, pre.model, pre.sigma_min, sc.algo_params
    )
    state = init_ofu_state(pre.model, strategy, runtime)
    predictor = None if true_marginal else compose_output(state.model, strategy, pre.q0)
    stream = _BatchStream(sc, pre, pattern, shift_rng)
    trace = _empty_trace(sc)
    for t in range(1, sc.horizon + 1):
        try:
            q_t, inputs, est = stream.step(
                t, state.model, state.confusion, steps_before_refresh(state, runtime)
            )
            if sc.order == "update_first":
                predictor, rec = ols_ofu_step(state, inputs, runtime, est)
            deployed = Predictor(state.model, q_t / pre.q0) if true_marginal else predictor
            errs = stream.errors(t, deployed)
            if sc.order == "predict_first":
                predictor, rec = ols_ofu_step(state, inputs, runtime, est)
        except Exception as exc:  # noqa: BLE001 - annotate with the step index
            raise RunError(f"step {t}: {exc}", t) from exc
        trace.q[t - 1] = q_t
        trace.s[t - 1] = rec.s_raw
        trace.errors[t - 1] = errs
        trace.sigma_min[t - 1] = rec.sigma_min
        trace.snapshots.append(rec.snapshot)
        trace.end_model_uids.append(rec.end_model_uid)
    return trace


def run_online(sc: Scenario, pretrained: Pretrained | None = None) -> OnlineTrace:
    """Run the full online protocol, deploying the strategy's output."""
    pre = pretrained if pretrained is not None else pretrain(sc)
    return _online_loop(sc, pre, true_marginal=False)


def run_bare_ols(sc: Scenario, pretrained: Pretrained | None = None) -> OnlineTrace:
    """The adaptation loop without the feature-update wrapper.

    Used to check that the wrapper with ssl='none' degenerates to exactly
    this behavior, so it deliberately does not share ``_online_loop``; it
    shares only the batch stream, so both see the same forwards and
    estimates.
    """
    pre = pretrained if pretrained is not None else pretrain(sc)
    shift_rng = make_rng(sc.shift_seed)
    pattern = realize_pattern(sc.shift, shift_rng)
    strategy = make_strategy(
        sc.algorithm, pre.q0, sc.horizon, pre.model, pre.sigma_min, sc.algo_params
    )
    conf = regularize_confusion(confusion_matrix(pre.model, pre.val), sc.reg_lambda)
    ctx = build_context(pre.model, pre.train, pre.q0, reads=strategy.reads)
    predictor = compose_output(pre.model, strategy, pre.q0)
    stream = _BatchStream(sc, pre, pattern, shift_rng)
    trace = _empty_trace(sc)
    for t in range(1, sc.horizon + 1):
        try:
            q_t, _, est = stream.step(t, pre.model, conf, None)
            if sc.order == "predict_first":
                errs = stream.errors(t, predictor)
            strategy.step(ctx, est)
            predictor = compose_output(pre.model, strategy, pre.q0)
            if sc.order == "update_first":
                errs = stream.errors(t, predictor)
        except Exception as exc:  # noqa: BLE001
            raise RunError(f"step {t}: {exc}", t) from exc
        trace.q[t - 1] = q_t
        trace.s[t - 1] = est.s
        trace.errors[t - 1] = errs
        trace.sigma_min[t - 1] = conf.sigma_min
        trace.snapshots.append(strategy.snapshot())
        trace.end_model_uids.append(pre.model.uid)
    return trace


def oracle_trace(
    sc: Scenario, frozen: bool, pretrained: Pretrained | None = None
) -> OnlineTrace:
    """Comparator run that reweights by the TRUE marginal q_t.

    frozen=True predicts with the pretrained calibrated model throughout;
    frozen=False lets the feature-update machinery (steps 2-3) run, so the
    base model evolves while the reweighting stays exact.
    """
    pre = pretrained if pretrained is not None else pretrain(sc)
    oracle = replace(sc, algorithm="none", ssl=SslSpec() if frozen else sc.ssl)
    return _online_loop(oracle, pre, true_marginal=True)


def improvement_check(
    sc: Scenario, pretrained: Pretrained | None = None
) -> tuple[float, float, bool]:
    """Compare the true-marginal oracle with updated features (lhs) against
    the frozen-feature oracle (rhs); feature updates help when lhs < rhs."""
    pre = pretrained if pretrained is not None else pretrain(sc)
    lhs = oracle_trace(sc, frozen=False, pretrained=pre).avg_error
    rhs = oracle_trace(sc, frozen=True, pretrained=pre).avg_error
    return lhs, rhs, lhs < rhs


def ordering_bias_test(
    f: ModelParams,
    q: np.ndarray,
    data: DataSpec,
    train: LabeledSet,
    n_trials: int,
    batch_size: int,
    violate_order: bool,
    rng: np.random.Generator,
    ssl_lr: float = 0.5,
    clean_val_per_class: int = 200_000,
    violate_val_per_class: int = 400,
    retrain_max_iter: int | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Monte-Carlo check of the estimator's bias under ordering violations.

    With violate_order=False the estimate is computed from the fixed model
    ``f`` and should be unbiased. With violate_order=True the model first
    takes one entropy feature-update step *using the same batch* and a head
    re-train before estimating, which breaks the independence the estimator
    needs; ``retrain_max_iter`` caps that retrain and must be given then.
    Returns (bias per class, standard error per class, flagged), flagged
    when any |bias| > 3 stderr.

    The clean ordering measures its confusion on a very large fresh sample
    (accumulated in chunks) so finite-validation noise stays far below the
    3-sigma bar; the violating pipeline rebuilds its confusion from the
    batch-dependent model each trial on a moderate fresh sample.
    """
    if n_trials < 1000:
        raise InvalidArgumentError("n_trials must be >= 1000")
    require(not violate_order or retrain_max_iter is not None, "retrain_max_iter",
            "is needed with violate_order=True")
    q = np.asarray(q, dtype=float)
    k = data.k

    def inputs(labels):
        return draw_class_inputs(data.class_means, data.class_cov_scale, labels, rng)

    def fresh_stratified(per_class):
        labels = np.repeat(np.arange(k), per_class)
        return LabeledSet(inputs(labels), labels)

    def draw_batch():
        return inputs(rng.choice(k, size=batch_size, p=q))

    def chunked_confusion(model, per_class, chunk=20_000):
        cols = np.zeros((k, k))
        for c in range(k):
            done = 0
            while done < per_class:
                m_now = min(chunk, per_class - done)
                probs, _, _ = forward(model, inputs(np.full(m_now, c)))
                cols[:, c] += probs.sum(axis=0)
                done += m_now
            cols[:, c] /= per_class
        return ConfusionMatrix(cols, min_singular_value(cols), model.uid)

    estimates = np.empty((n_trials, k))
    if not violate_order:
        conf = chunked_confusion(f, clean_val_per_class)
        for i in range(n_trials):
            estimates[i] = bbse_estimate(f, conf, draw_batch()).s
    else:
        val = fresh_stratified(violate_val_per_class)
        spec = SslSpec(kind="entropy", ssl_lr=ssl_lr)
        for i in range(n_trials):
            batch = draw_batch()
            bumped = feature_update(f, batch, spec, rng)
            retrained = retrain_linear(bumped, train, max_iter=retrain_max_iter)
            conf = confusion_matrix(retrained, val)
            estimates[i] = bbse_estimate(retrained, conf, batch).s
    bias = estimates.mean(axis=0) - q
    stderr = estimates.std(axis=0, ddof=1) / np.sqrt(n_trials)
    flagged = bool(np.any(np.abs(bias) > 3.0 * stderr))
    return bias, stderr, flagged


def pearson(xs, ys) -> float:
    """Sample Pearson correlation in [-1, 1]."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise InvalidArgumentError("pearson needs two equal-length sequences (>= 2)")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise UndefinedCorrelationError("zero variance sequence")
    r = float((xc * yc).sum() / denom)
    return max(-1.0, min(1.0, r))

