"""Run the olsofu benchmark.

    python3 perfbench/run.py --workload ols-plain --seed 1 --seconds 30 --trace 0

prints one line per metric and, last, the JSON result
``{"correct", "attempted", "failed", "metrics"}``; ``--workload all`` runs
every workload in its own process and prints a table. The library is
imported from ``src/`` next to this directory, so the benchmark needs no
install. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("ols-plain", "ofu-rotation", "ofu-infonce")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a smoke run on small data and few steps")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak RSS is its own."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "summary.json").write_text(json.dumps(dict(rows), indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "olsofu" / "__init__.py").is_file():
        print(f"olsofu sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread: the arrays are small, and a second thread on a shared
    # two-core machine adds noise, not speed. Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench  # noqa: E402 - numpy must load after the thread settings

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
