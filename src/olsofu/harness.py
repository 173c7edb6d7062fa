"""Online evaluation loop, oracle comparators, metrics and the estimator
bias experiment.

Seeds keep runs comparable: the data seed fixes the source draw,
``train.seed`` pretraining's initialisation and batch order, the shift
seed the marginal process and batch sampling, and the run seed only the
SSL draws (the head retrain draws nothing). Two scenarios differing only
in algorithm or SSL choice therefore see byte-identical batch streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError, RunError, UndefinedCorrelationError, require
from .estimator import ConfusionMatrix, bbse_estimate, bbse_estimates, confusion_matrix
from .models import (
    HIDDEN_WIDTHS,
    PRETRAIN_SSL_WEIGHT,
    RETRAIN_MAX_ITER,
    SSL_KINDS,
    HeadCurvature,
    ModelParams,
    SslSpec,
    TrainConfig,
    calibrate_temperature,  # noqa: F401 - perfbench's tracer wraps it here too
    forward,
    retrain_linear,
    train_supervised,
    with_updates,
)
from .numkit import make_rng, min_singular_value
from .ofu import (
    OfuState,
    Predictor,
    build_context,
    calibrate,
    compose_output,
    feature_update,
    ols_ofu_step,
    predict_stacked,
)
from .ols import ALGORITHMS, AlgoParams, make_strategy
from .synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    draw_class_inputs,
    make_source_data,
    marginal_path,
    path_length,
    sample_batch,  # noqa: F401 - perfbench's tracer wraps it here
    sample_batches,
)

ORDERS = ("predict_first", "update_first")

# Steps whose batches are drawn together, across refreshes; the forward
# and the BBSE solve run per segment of one model within the chunk. The
# per-call overheads of the draw, and between refreshes of the forward and
# the solve, are spread over the chunk; its rows (CHUNK_STEPS *
# batch_size) stay few enough that memory does not grow.
CHUNK_STEPS = 25

# Rows that ``OnlineTrace.to_csv`` formats per string. A block's Python
# floats and text are transient: 256-row blocks raised the peak RSS of a
# 1000-step run by about 0.1 MB, 100-row blocks did not.
CSV_BLOCK_ROWS = 100


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
    pretrain_ssl_weight: float = PRETRAIN_SSL_WEIGHT
    algo_params: AlgoParams = AlgoParams()
    reg_lambda: float = 0.01
    hidden: tuple = HIDDEN_WIDTHS
    activation: str = ModelParams.activation
    retrain_max_iter: int = RETRAIN_MAX_ITER

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
        require(self.pretrain_ssl != "infonce" or self.pretrain_ssl_weight == 0
                or self.train_cfg.batch_size >= 2, "train.batch_size",
                "is too small: infonce pretraining needs batches of >= 2 inputs")
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
        header = (["t"] + [f"q{i}" for i in range(k)] + [f"s{i}" for i in range(k)]
                  + ["errors", "cum_errors"])
        write_csv(path, header, self._csv_blocks())

    def _csv_blocks(self):
        """The rows as CSV text, ``CSV_BLOCK_ROWS`` lines per string: each
        cell is the ``repr`` of its value, which is what the csv module
        writes for these numbers, and none of them needs quoting."""
        cum = self.cum_errors
        for lo in range(0, self.horizon, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, self.horizon)
            rows = zip(range(lo + 1, hi + 1), self.q[lo:hi].tolist(),
                       self.s[lo:hi].tolist(), self.errors[lo:hi].tolist(),
                       cum[lo:hi].tolist())
            yield "".join(",".join(map(repr, (t, *q, *s, e, c))) + "\r\n"
                          for t, q, s, e, c in rows)


def write_csv(path, header: list, rows) -> None:
    """Write a header row and then ``rows`` as CSV to ``path``. An item of
    ``rows`` is either a sequence of cells, which the csv module quotes as
    needed, or a string of whole CRLF-terminated lines, written as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


@dataclass
class Pretrained:
    """Pretraining artifacts shared across runs of the same data config."""

    model: ModelParams  # calibrated f_0
    train: LabeledSet
    val: LabeledSet
    pool: LabeledSet
    q0: np.ndarray
    confusion: ConfusionMatrix  # regularized, of the calibrated f_0 on val


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
            ssl=replace(sc.ssl, kind=sc.pretrain_ssl),  # InfoNCE settings from ssl.*
            ssl_weight=sc.pretrain_ssl_weight,
            hidden=sc.hidden,
            activation=sc.activation,
        )
    calibrated, conf = calibrate(model, val, sc.reg_lambda)
    return Pretrained(calibrated, train, val, pool, q0, conf)


class _BatchStream:
    """A run's batch stream, sampled by chunk, forwarded, BBSE-solved and
    scored by segment, and the one writer of the run's ``OnlineTrace``.

    The draws read only the shift rng, never the model, so the stream
    samples ``CHUNK_STEPS`` consecutive batches at a time, in stream
    order, whatever the model does meanwhile. Between two refreshes the
    model that estimates q_t is fixed, so the batches of a segment share
    one forward and one multi-RHS solve: a segment holds the sampled
    batches from its first step up to the step whose refresh would change
    the model, or to the end of the sampled chunk, whichever comes first.
    So every estimate is computed, before its batch is adapted on, from
    the model finalized before the batch was revealed; ``ols_ofu_step``
    rejects an estimate from any other model. Steps must be asked for in
    order. A chunk's draw stops before the first batch that cannot be
    drawn, whose error is re-raised when its step is reached, after every
    earlier step has run. Each segment writes its steps' rows of
    ``trace.s`` and, from the segment's confusion, ``trace.sigma_min``.
    The loop hands the stream, at the end of each step, its deployed
    ``Predictor`` and the strategy's snapshot, and the segment's last step
    counts every step's errors into ``trace.errors``. A refresh ends its
    segment, so only the last step's policy can sit on another model (the
    one refreshed at that step, under update_first), which gets a forward
    of its own; the others are scored in one stacked pass over the
    segment's forward. The shift seed alone fixes the marginal path,
    ``trace.q``, and the batch draws.
    """

    def __init__(self, sc: Scenario, pre: Pretrained):
        self.sc, self.pre, self.rng = sc, pre, make_rng(sc.shift_seed)
        t, k = sc.horizon, sc.data.k
        self.trace = OnlineTrace(
            q=marginal_path(sc.shift, self.rng),
            s=np.zeros((t, k)),
            errors=np.zeros(t, dtype=int),
            batch_size=sc.batch_size,
            sigma_min=np.zeros(t),
        )
        self.start = self.stop = 1  # the segment: steps [start, stop)
        self.chunk_start = self.chunk_stop = 1  # the sampled chunk's steps
        self.failure = None  # what drawing step ``chunk_stop`` raised

    def step(self, t: int, model: ModelParams, conf, segment_steps: int | None):
        """(q_t, inputs, estimate) of step t; ``model`` and ``conf`` are the
        ones estimating from step t for ``segment_steps`` steps (None: to
        the end of the run)."""
        if t == self.stop:
            if t == self.chunk_stop and self.failure is None:
                self._sample(t)
            if t == self.chunk_stop:
                raise self.failure
            stop = self.chunk_stop
            if segment_steps is not None:
                stop = min(stop, t + segment_steps)
            self._forward(t, stop, model, conf)
        i = t - self.start
        return self.trace.q[t - 1], self.inputs[i], self.estimates[i]

    def end_step(self, t: int, predictor: Predictor, snapshot: np.ndarray) -> None:
        """Record step t's deployed model and the strategy's snapshot after
        the step; the segment's last step scores all its steps."""
        self.deployed.append(predictor)
        self.trace.snapshots.append(snapshot)
        if t == self.stop - 1:
            self._score()

    def _sample(self, start: int) -> None:
        sc, pre = self.sc, self.pre
        qs = self.trace.q[start - 1 : min(start + CHUNK_STEPS, sc.horizon + 1) - 1]
        self.chunk_start = self.chunk_stop = start
        try:
            batches = sample_batches(qs, sc.batch_size, pre.pool, sc.corruption, self.rng)
        except Exception as exc:  # noqa: BLE001 - re-raised at its step
            self.failure, qs = exc, qs[: getattr(exc, "row", 0)]
            if not len(qs):
                return
            batches = sample_batches(qs, sc.batch_size, pre.pool, sc.corruption, self.rng)
        self.chunk_stop, (self.chunk_inputs, self.chunk_labels) = start + len(qs), batches

    def _forward(self, start: int, stop: int, model: ModelParams, conf) -> None:
        sc, trace, n = self.sc, self.trace, stop - start
        rows = slice(start - self.chunk_start, stop - self.chunk_start)
        self.start, self.stop, self.deployed = start, stop, []
        self.inputs, self.labels = self.chunk_inputs[rows], self.chunk_labels[rows]
        # Row i of probs / feats, shaped (n, B, .), is step start+i's batch.
        probs, feats, _ = forward(model, self.inputs.reshape(n * sc.batch_size, -1))
        self.estimates = bbse_estimates(model, conf, probs, sc.batch_size)
        steps = slice(start - 1, stop - 1)
        trace.s[steps] = [est.s for est in self.estimates]
        trace.sigma_min[steps] = conf.sigma_min
        self.probs = probs.reshape(n, sc.batch_size, -1)
        self.feats = feats.reshape(n, sc.batch_size, -1)
        self.uid = model.uid

    def _score(self) -> None:
        policies = self.deployed
        n = len(policies) - (policies[-1].base.uid != self.uid)
        predicted = np.empty_like(self.labels)
        if n:
            predicted[:n] = predict_stacked(policies[:n], self.probs[:n], self.feats[:n])
        if n < len(policies):
            predicted[n] = policies[n].predict(self.inputs[n])
        self.trace.errors[self.start - 1 : self.stop - 1] = (predicted != self.labels).sum(axis=1)


def _online_loop(sc: Scenario, pre: Pretrained, deploy) -> OnlineTrace:
    """The online protocol shared by ``run_online`` and ``oracle_trace``.

    Each step samples a batch from the true marginal, predicts with the
    deployed model, counts its 0-1 errors against the hidden labels, and
    then adapts (prediction and adaptation swap under order='update_first').
    The run is one trajectory, an ``OfuState`` that ``ols_ofu_step``
    advances with the scenario's strategy, plus one deploy policy:
    ``deploy(model, strategy, q_t)`` builds the ``Predictor`` deployed at
    the step whose true marginal is q_t, from the trajectory's current
    model and the strategy, when the step deploys. A ``_BatchStream``
    supplies the batches and their estimates and records the trace; the
    loop only advances the trajectory and hands the stream each step's
    deployed model and the strategy's snapshot.
    """
    strategy = make_strategy(sc.algorithm, pre.q0, sc.horizon, pre.model,
                             pre.confusion.sigma_min, sc.algo_params)
    state = OfuState(
        model=pre.model, confusion=pre.confusion, train=pre.train, val=pre.val,
        ssl=sc.ssl, reg_lambda=sc.reg_lambda, rng=make_rng(sc.run_seed),
        retrain_max_iter=sc.retrain_max_iter, reads=strategy.reads,
    )
    stream = _BatchStream(sc, pre)
    for t in range(1, sc.horizon + 1):
        try:
            q_t, inputs, est = stream.step(
                t, state.model, state.confusion, state.steps_before_refresh()
            )
            if sc.order == "update_first":
                ols_ofu_step(state, strategy, inputs, est)
            deployed = deploy(state.model, strategy, q_t)
            if sc.order == "predict_first":
                ols_ofu_step(state, strategy, inputs, est)
            stream.end_step(t, deployed, strategy.snapshot())
        except Exception as exc:  # noqa: BLE001 - annotate with the step index
            raise RunError(f"step {t}: {exc}", t) from exc
    return stream.trace


def run_online(sc: Scenario, pretrained: Pretrained) -> OnlineTrace:
    """Run the full online protocol, deploying the strategy's output."""
    return _online_loop(sc, pretrained, lambda m, strategy, _: compose_output(m, strategy))


def run_bare_ols(sc: Scenario, pretrained: Pretrained) -> OnlineTrace:
    """The adaptation loop without the feature-update wrapper.

    Used to check that the wrapper with ssl='none' degenerates to exactly
    this behavior, so it deliberately does not share ``_online_loop``; it
    shares only the batch stream, which records its trace, so both see the
    same forwards and estimates.
    """
    pre = pretrained
    strategy = make_strategy(sc.algorithm, pre.q0, sc.horizon, pre.model,
                             pre.confusion.sigma_min, sc.algo_params)
    ctx = build_context(pre.model, pre.train, reads=strategy.reads)
    stream = _BatchStream(sc, pre)
    for t in range(1, sc.horizon + 1):
        try:
            _, _, est = stream.step(t, pre.model, pre.confusion, None)
            if sc.order == "update_first":
                strategy.step(ctx, est)
            deployed = compose_output(pre.model, strategy)
            if sc.order == "predict_first":
                strategy.step(ctx, est)
            stream.end_step(t, deployed, strategy.snapshot())
        except Exception as exc:  # noqa: BLE001
            raise RunError(f"step {t}: {exc}", t) from exc
    return stream.trace


def oracle_trace(sc: Scenario, frozen: bool, pretrained: Pretrained) -> OnlineTrace:
    """Comparator run that reweights by the TRUE marginal q_t.

    frozen=True predicts with the pretrained calibrated model throughout;
    frozen=False lets the feature-update machinery (steps 2-3) run, so the
    base model evolves while the reweighting stays exact.
    """
    oracle = replace(sc, algorithm="none", ssl=SslSpec() if frozen else sc.ssl)
    return _online_loop(oracle, pretrained, lambda m, _, q_t: Predictor(m, q_t / pretrained.q0))


def improvement_check(sc: Scenario, pretrained: Pretrained) -> tuple[float, float, bool]:
    """Compare the true-marginal oracle with updated features (lhs) against
    the frozen-feature oracle (rhs); feature updates help when lhs < rhs."""
    lhs = oracle_trace(sc, frozen=False, pretrained=pretrained).avg_error
    rhs = oracle_trace(sc, frozen=True, pretrained=pretrained).avg_error
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
    clean_val_per_class: int = 200_000,
    violate_val_per_class: int = 400,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Monte-Carlo check of the estimator's bias under ordering violations.

    With violate_order=False the estimate is computed from the fixed model
    ``f`` and should be unbiased. With violate_order=True the model first
    takes one entropy feature-update step of size 0.5 *on the same batch*
    and a head re-train before estimating, which breaks the independence
    the estimator needs; the retrain runs to ``retrain_linear``'s own
    tolerance and iteration cap.
    As an online run's refreshes do, each trial's retrain starts from the
    head and the ``HeadCurvature`` the previous one ended with; the
    objective is strictly convex, so the start moves only the solver's path.
    Returns (bias per class, standard error per class, flagged), flagged
    when any |bias| > 3 stderr.

    The clean ordering measures its confusion on a very large fresh sample
    (accumulated in chunks) so finite-validation noise stays far below the
    3-sigma bar; the violating pipeline rebuilds its confusion from the
    batch-dependent model each trial on a moderate fresh sample.
    """
    if n_trials < 1000:
        raise InvalidArgumentError("n_trials must be >= 1000")
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
        spec = SslSpec(kind="entropy", ssl_lr=0.5)
        curvature = HeadCurvature()
        retrained = f
        for i in range(n_trials):
            batch = draw_batch()
            bumped = feature_update(f, batch, spec, rng)
            retrained = retrain_linear(
                with_updates(bumped, linear_w=retrained.linear_w, linear_b=retrained.linear_b),
                train, curvature=curvature,
            )
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

