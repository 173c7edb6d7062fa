"""Outside-in tracing of olsofu's public functions.

The tracer wraps each function at the module or class attribute where the
program looks it up (``olsofu.ofu.retrain_linear``,
``olsofu.harness.sample_batch``, ``FthStrategy.step``, ...), so ``src/``
carries no hooks. Each call becomes a span (name, start, end, parent, run)
kept in memory; self time is a span's duration minus the part its child
spans cover. Only the traced process installs the wrappers, and
``Tracer.installed`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from olsofu import models

SETUP = "setup"

STRATEGY_CLASSES = {
    "fth": "FthStrategy",
    "ftfwh": "FtfwhStrategy",
    "rogd": "RogdStrategy",
    "flhftl": "FlhftlStrategy",
    "uogd": "UogdStrategy",
    "atlas": "AtlasStrategy",
}

# Span name -> every (module, attribute path) the program looks it up by.
TARGETS = {
    "config.scenario_from_config": [("olsofu.config", "scenario_from_config")],
    "harness.pretrain": [("olsofu.harness", "pretrain")],
    "harness.run_online": [("olsofu.harness", "run_online")],
    "harness.oracle_trace": [("olsofu.harness", "oracle_trace")],
    "harness.run_bare_ols": [("olsofu.harness", "run_bare_ols")],
    "harness.OnlineTrace.to_csv": [("olsofu.harness", "OnlineTrace.to_csv")],
    "synthdata.make_source_data": [("olsofu.harness", "make_source_data")],
    "synthdata.sample_batch": [("olsofu.harness", "sample_batch")],
    "models.train_supervised": [("olsofu.harness", "train_supervised")],
    "models.retrain_linear": [
        ("olsofu.ofu", "retrain_linear"),
        ("olsofu.harness", "retrain_linear"),
    ],
    "models.calibrate_temperature": [
        ("olsofu.ofu", "calibrate_temperature"),
        ("olsofu.harness", "calibrate_temperature"),
    ],
    "estimator.bbse_estimate": [
        ("olsofu.ofu", "bbse_estimate"),
        ("olsofu.harness", "bbse_estimate"),
    ],
    "estimator.confusion_matrix": [
        ("olsofu.ofu", "confusion_matrix"),
        ("olsofu.harness", "confusion_matrix"),
    ],
    "numkit.solve_linear": [("olsofu.estimator", "solve_linear")],
    **{
        f"ols.{algo}.step": [("olsofu.ols", f"{cls}.step")]
        for algo, cls in STRATEGY_CLASSES.items()
    },
    "ofu.ols_ofu_step": [("olsofu.harness", "ols_ofu_step")],
    "ofu.feature_update": [("olsofu.ofu", "feature_update"), ("olsofu.harness", "feature_update")],
    "ofu.build_context": [("olsofu.ofu", "build_context"), ("olsofu.harness", "build_context")],
    "ofu.compose_output": [("olsofu.ofu", "compose_output"), ("olsofu.harness", "compose_output")],
    "ofu.Predictor.predict": [("olsofu.ofu", "Predictor.predict")],
}

# Calls to softmax are counted, not timed, under the innermost open span:
# inside retrain_linear each is one loss evaluation, inside
# calibrate_temperature one NLL evaluation (plus the one forward pass).
SOFTMAX = ("olsofu.models", "softmax")

SETUP_SPANS = (
    "harness.pretrain",
    "synthdata.make_source_data",
    "models.train_supervised",
    "config.scenario_from_config",
)

# Per-cycle statistics reported for each online span.
ONLINE_STATS = (
    ("harness.run_online", ("self_ms",)),
    ("harness.oracle_trace", ("self_ms",)),
    ("harness.run_bare_ols", ("self_ms",)),
    ("harness.OnlineTrace.to_csv", ("ms",)),
    ("synthdata.sample_batch", ("calls", "ms")),
    ("models.retrain_linear", ("calls", "ms")),
    ("models.calibrate_temperature", ("calls", "ms")),
    ("estimator.bbse_estimate", ("calls", "ms")),
    ("numkit.solve_linear", ("calls", "ms")),
    ("estimator.confusion_matrix", ("calls", "ms")),
    *((f"ols.{algo}.step", ("calls", "ms")) for algo in STRATEGY_CLASSES),
    ("ofu.ols_ofu_step", ("calls", "self_ms", "ms_p50", "ms_p99")),
    ("ofu.feature_update", ("calls", "ms")),
    ("ofu.build_context", ("calls", "ms")),
    ("ofu.compose_output", ("ms",)),
    ("ofu.Predictor.predict", ("calls", "ms")),
)

LAYERS = ("config", "harness", "synthdata", "models", "estimator", "numkit", "ols", "ofu")

_STAT_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "ms_p50": "ms", "ms_p99": "ms"}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.ms": "ms" for name in SETUP_SPANS}
    for name, stats in ONLINE_STATS:
        units.update({f"{name}.{stat}": _STAT_UNITS[stat] for stat in stats})
    units["models.retrain_linear.loss_evals"] = "count"
    units["models.retrain_linear.grad_norm_p50"] = "l2norm"
    units["models.calibrate_temperature.nll_evals"] = "count"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units["trace.overhead_frac"] = "frac"
    return units


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: str  # SETUP, or "<cycle>/<loop label>" for an online run


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, top = max(lo, reach), min(hi, s.end)
            if top > lo:
                covered += top - lo
            reach = max(reach, hi)
        out.append(s.end - s.start - covered)
    return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # a Span per call, by id; None while the call is open
        self.stack = []  # (id, name) of the open spans, innermost last
        self.run = SETUP
        self.errors = Counter()  # span name -> calls that raised
        self.softmax_calls = Counter()  # innermost span name -> online softmax calls
        self.retrained = []  # (returned model, train set) per online retrain
        self.missing = []  # targets absent from this version of olsofu

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.run)

        return wrapper

    def _retrain(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.run != SETUP:
                train = args[1] if len(args) > 1 else kwargs["train"]
                self.retrained.append((result, train))
            return result

        return wrapper

    def _count_softmax(self, fn):
        stack, counts = self.stack, self.softmax_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and self.run != SETUP:
                counts[stack[-1][1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []

        def patch(module, path, make):
            try:
                owner, attr = _resolve(module, path)
            except (AttributeError, ImportError):
                self.missing.append(f"{module}.{path}")
                return
            own = vars(owner)
            original = own[attr] if attr in own else getattr(owner, attr)
            setattr(owner, attr, make(original))
            undo.append((owner, attr, attr in own, original))

        try:
            for name, places in TARGETS.items():
                for module, path in places:
                    if name == "models.retrain_linear":
                        patch(module, path, lambda f, n=name: self._span(n, self._retrain(f)))
                    else:
                        patch(module, path, lambda f, n=name: self._span(n, f))
            patch(*SOFTMAX, self._count_softmax)
            yield self
        finally:
            for owner, attr, owned, original in reversed(undo):
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def dump(self, path) -> None:
        """Write the spans as TSV, times in microseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\trun\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{s.name}\t{(s.start - t0) * 1e6:.1f}\t"
                    f"{(s.end - t0) * 1e6:.1f}\t{s.parent}\t{s.run}\n"
                )


def head_grad_norm(m, train) -> float:
    """Norm of the mean-CE gradient over the head at ``m``'s head, on the
    features ``retrain_linear`` trained it on."""
    feats = models.feat_activations(m, train.inputs)[-1]
    logits = feats @ m.linear_w.T + m.linear_b
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(train.labels)), train.labels] -= 1.0
    d = probs / len(train.labels)
    return float(np.sqrt(np.sum((d.T @ feats) ** 2) + np.sum(d.sum(axis=0) ** 2)))


def layer_metrics(tracer: Tracer, n_cycles: int, overhead_frac: float):
    """Per-layer values (set-up spans per set-up, online spans per cycle),
    and the online self time per cycle of every span name, largest first."""
    selfs = self_times(tracer.spans)
    setups = sum(1 for s in tracer.spans if s.name == "harness.pretrain" and s.run == SETUP)
    calls, total, own = Counter(), Counter(), Counter()
    durations = defaultdict(list)
    setup_ms = Counter()
    for s, self_s in zip(tracer.spans, selfs):
        ms = (s.end - s.start) * 1e3
        if s.run == SETUP:
            setup_ms[s.name] += ms
            continue
        calls[s.name] += 1
        total[s.name] += ms
        own[s.name] += self_s * 1e3
        durations[s.name].append(ms)

    def stat(name, kind):
        if kind == "calls":
            return calls[name] / n_cycles
        if kind == "ms":
            return total[name] / n_cycles
        if kind == "self_ms":
            return own[name] / n_cycles
        q = 50 if kind == "ms_p50" else 99
        return float(np.percentile(durations[name], q)) if durations[name] else 0.0

    values = {f"{name}.ms": setup_ms[name] / max(setups, 1) for name in SETUP_SPANS}
    for name, stats in ONLINE_STATS:
        values.update({f"{name}.{kind}": stat(name, kind) for kind in stats})
    norms = [head_grad_norm(m, train) for m, train in tracer.retrained]
    values["models.retrain_linear.loss_evals"] = (
        tracer.softmax_calls["models.retrain_linear"] / n_cycles
    )
    values["models.retrain_linear.grad_norm_p50"] = float(np.median(norms)) if norms else 0.0
    values["models.calibrate_temperature.nll_evals"] = (
        tracer.softmax_calls["models.calibrate_temperature"] / n_cycles
    )
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(
            n for name, n in tracer.errors.items() if name.startswith(layer + ".")
        )
    values["trace.overhead_frac"] = overhead_frac
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    ranking = {name: ms / n_cycles for name, ms in own.most_common()}
    return metrics, ranking
