"""The benchmark's workloads and the checks every online run must pass.

Each workload is a config document plus a cycle: the online loops one
repeat runs. Everything goes through olsofu's public API
(``config.resolve_config`` -> ``config.scenario_from_config`` ->
``harness.pretrain`` -> the loops -> ``OnlineTrace.to_csv``). Functions
are looked up on their modules at call time (``harness.run_online``, not a
from-import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from olsofu import config, harness

ALGORITHMS = ("fth", "ftfwh", "rogd", "flhftl", "uogd", "atlas")

# The P8 acceptance scenario (``validate._scenario("p8")``) written as a
# config document, so that its set-up takes the same path as the others.
P8_DOC = {
    "data": {
        "k": 4,
        "d": 6,
        "class_sep": 2.2,
        "mean_layout": "ring2d",
        "cov_scale": 0.5,
        "n_train": 1600,
        "n_test_pool": 2000,
    },
    "shift": {"kind": "sinusoidal", "horizon": 500},
    "corruption": {"kind": "rotate2d", "angle": 30.0},
    "algorithm": "flhftl",
    "ssl": {"kind": "rotation", "ssl_lr": 0.05, "ba": 5},
    "train": {"epochs": 30},
    "pretrain_ssl": "rotation",
    "retrain_max_iter": 80,
}

# Smoke size: small data and few steps, but every loop still refreshes its
# model at least once (InfoNCE's default ba=50 < 60 steps).
TINY = {
    "data": {"n_train": 300, "n_test_pool": 200},
    "shift": {"horizon": 60},
    "train": {"epochs": 2},
    "retrain_max_iter": 20,
}


@dataclass(frozen=True)
class Loop:
    """One online run of a workload's cycle."""

    label: str
    run: object  # (Scenario, Pretrained) -> OnlineTrace
    adapted: bool  # counts toward avg_error; the true-marginal oracles do not


@dataclass(frozen=True, eq=False)
class Workload:
    name: str
    doc: dict
    loops: tuple


def _online(sc, pre, algorithm=None):
    if algorithm is not None:
        sc = dataclasses.replace(sc, algorithm=algorithm)
    return harness.run_online(sc, pre)


def _oracle(sc, pre, frozen):
    return harness.oracle_trace(sc, frozen, pre)


def _bare(sc, pre):
    return harness.run_bare_ols(sc, pre)


WORKLOADS = {
    # Adaptation path only: no feature update, so no head retrain.
    "ols-plain": Workload(
        "ols-plain",
        {},
        tuple(Loop(a, partial(_online, algorithm=a), True) for a in ALGORITHMS),
    ),
    # The paper's main experiment: the OFU run, both oracles of
    # improvement_check, and the bare-OLS reference.
    "ofu-rotation": Workload(
        "ofu-rotation",
        P8_DOC,
        (
            Loop("ofu", _online, True),
            Loop("oracle-updated", partial(_oracle, frozen=False), False),
            Loop("oracle-frozen", partial(_oracle, frozen=True), False),
            Loop("bare-ols", _bare, True),
        ),
    ),
    # Rare, large feature updates under a head strategy.
    "ofu-infonce": Workload(
        "ofu-infonce",
        {"ssl": {"kind": "infonce"}, "algorithm": "atlas"},
        (Loop("ofu", _online, True),),
    ),
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def seed_doc(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The workload's config document with the seed's shift and run seeds."""
    shift_seed, run_seed = (int(v) for v in np.random.SeedSequence(seed).generate_state(2))
    doc = _merge(workload.doc, TINY) if tiny else copy.deepcopy(workload.doc)
    doc["seeds"] = {"shift": shift_seed, "run": run_seed}
    return doc


@dataclass
class Setup:
    cfg: dict
    scenario: object
    pretrained: object

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.cfg, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup(workload: Workload, seed: int, tiny: bool = False) -> Setup:
    """Config plus pretrain: what a user waits for before the first step."""
    cfg = config.resolve_config(seed_doc(workload, seed, tiny))
    sc = config.scenario_from_config(cfg)
    return Setup(cfg, sc, harness.pretrain(sc))


def check_trace(trace, batch_size: int) -> list[str]:
    """Problems with one online run's outputs; empty when it is correct."""
    problems = []
    if not (np.all(np.isfinite(trace.q)) and np.all(np.isfinite(trace.s))):
        problems.append("q or s is non-finite")
    # BBSE with a column-stochastic confusion returns rows summing to 1.
    elif not np.allclose(trace.s.sum(axis=1), 1.0, rtol=0.0, atol=1e-8):
        problems.append("rows of s do not sum to 1")
    if np.any(trace.errors < 0) or np.any(trace.errors > batch_size):
        problems.append("errors outside [0, B]")
    return problems


@dataclass
class LoopResult:
    label: str
    seconds: float
    steps: int
    problems: list = field(default_factory=list)
    digest: str | None = None
    avg_error: float | None = None


def run_cycle(workload: Workload, st: Setup, out_dir: Path, tracer=None, tag="") -> list:
    """Run each loop once, writing its trace.csv; the time includes the write."""
    results = []
    for loop in workload.loops:
        if tracer is not None:
            tracer.run = f"{tag}/{loop.label}"
        path = out_dir / f"{workload.name}-{loop.label}.csv"
        start = time.perf_counter()
        try:
            trace = loop.run(st.scenario, st.pretrained)
            trace.to_csv(path)
        except Exception as exc:  # a failed run is counted; the others go on
            traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - start
            results.append(LoopResult(loop.label, seconds, 0, [f"raised {exc!r}"]))
            continue
        seconds = time.perf_counter() - start
        results.append(
            LoopResult(
                loop.label,
                seconds,
                trace.horizon,
                check_trace(trace, st.scenario.batch_size),
                hashlib.sha256(path.read_bytes()).hexdigest(),
                trace.avg_error,
            )
        )
    return results
