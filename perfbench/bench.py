"""Measurement and report for one workload; see README.md for the metrics.

The untraced run (``--trace 0``) reports the end-to-end metrics: set-up is
timed several times and its median reported, then whole cycles of the
workload run until ``--seconds`` is used up (at least two, so every loop's
trace digest is compared with an earlier repeat at the same seed). The
traced run (``--trace 1``) spends half its time untraced and half with the
tracer installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

N_SETUPS = 9
MIN_CYCLES = 2

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "avg_error": "frac",
    "ok_frac": "frac",
}


class Ledger:
    """Failure accounting across every online run of one process."""

    def __init__(self):
        self.digests = {}  # loop label -> trace.csv digest of its first run
        self.attempted = 0
        self.failed = 0
        self.first_cycle = None

    def record(self, results) -> None:
        for r in results:
            if r.digest is not None:
                earlier = self.digests.setdefault(r.label, r.digest)
                if r.digest != earlier:
                    r.problems.append("trace.csv digest differs from an earlier repeat")
            if r.problems:
                print(f"run {r.label} failed: {'; '.join(r.problems)}", file=sys.stderr)
            self.attempted += 1
            self.failed += bool(r.problems)
        if self.first_cycle is None:
            self.first_cycle = results


def run_cycles(workload, st, seconds, min_cycles, ledger, tracer=None) -> list:
    """Whole cycles until the next would overrun ``seconds``; returns the
    loop results of each cycle."""
    cycles = []
    start = time.perf_counter()
    while True:
        results = workloads.run_cycle(workload, st, OUT, tracer, tag=f"c{len(cycles)}")
        ledger.record(results)
        cycles.append(results)
        elapsed = time.perf_counter() - start
        if len(cycles) >= min_cycles and elapsed * (1 + 1 / len(cycles)) > seconds:
            return cycles


def steps_per_s(cycles) -> float:
    """Online steps of one cycle over the sum of each loop's fastest time.

    Every repeat of a loop does identical work (the trace digests prove
    it), and other load on the machine only ever adds time, so the fastest
    repeat is the steadiest estimate of the program's own cost. Runs that
    failed count neither steps nor time; ``ok_frac`` reports them."""
    fastest = {}
    for r in itertools.chain.from_iterable(cycles):
        if not r.problems:
            fastest[r.label] = min(fastest.get(r.label, r), r, key=lambda x: x.seconds)
    seconds = sum(r.seconds for r in fastest.values())
    return sum(r.steps for r in fastest.values()) / seconds if seconds else 0.0


def _loop_seconds(cycles) -> dict:
    times = defaultdict(list)
    for r in itertools.chain.from_iterable(cycles):
        times[r.label].append(r.seconds)
    return dict(times)


def _timed_setup(workload, args):
    t0 = time.perf_counter()
    st = workloads.setup(workload, args.seed, args.size == "tiny")
    return st, time.perf_counter() - t0


def avg_error(workload, ledger) -> float:
    """Mean 0-1 error of the adapted runs of the first cycle (runs are
    deterministic, so every cycle gives the same); 1.0 if none succeeded."""
    adapted = {loop.label for loop in workload.loops if loop.adapted}
    errs = [
        r.avg_error for r in ledger.first_cycle if r.label in adapted and not r.problems
    ]
    return float(np.mean(errs)) if errs else 1.0


def untraced(workload, args, ledger, info) -> dict:
    setup_times = []
    for _ in range(N_SETUPS):
        st, seconds = _timed_setup(workload, args)
        setup_times.append(seconds)
    info["config_hash"] = st.config_hash
    info["setup_s"] = setup_times
    cycles = run_cycles(workload, st, args.seconds, MIN_CYCLES, ledger)
    info["loop_seconds"] = _loop_seconds(cycles)
    info["avg_error_by_loop"] = {r.label: r.avg_error for r in ledger.first_cycle}
    values = {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": steps_per_s(cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_error": avg_error(workload, ledger),
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(workload, args, ledger, info) -> dict:
    half = args.seconds / 2.0
    st, _ = _timed_setup(workload, args)
    info["config_hash"] = st.config_hash
    plain = run_cycles(workload, st, half, 1, ledger)
    tracer = tracing.Tracer(time.perf_counter)
    with tracer.installed():
        st, _ = _timed_setup(workload, args)
        traced_cycles = run_cycles(workload, st, half, 1, ledger, tracer)
    traced_rate = steps_per_s(traced_cycles)
    overhead = steps_per_s(plain) / traced_rate - 1.0 if traced_rate else 0.0
    info.update(loop_seconds_untraced=_loop_seconds(plain),
                loop_seconds_traced=_loop_seconds(traced_cycles), missing_targets=tracer.missing)
    metrics, info["self_ms_top"] = tracing.layer_metrics(tracer, len(traced_cycles), overhead)
    tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.tsv")
    return metrics


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def main(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ledger = Ledger()
    info = manifest(args)
    metrics = (traced if args.trace else untraced)(workload, args, ledger, info)
    info["trace_digests"] = ledger.digests
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"manifest": info, **result}, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{workload.name:13s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
