"""Record, or compare, sha256 digests of a fixed golden set of online runs.

A refactor that must not change results records the set on the commit
before it and on the commit after it, then compares the two files:

    PYTHONPATH=src python scripts/golden_traces.py before.json
    PYTHONPATH=src python scripts/golden_traces.py after.json
    python scripts/golden_traces.py --compare before.json after.json

``--compare`` prints every key whose digest differs (or that only one file
has) and exits 1 if there is any. The file also keeps each trace's raw
estimates ``s`` and per-step error counts, so for a differing trace key
``--compare`` adds the drift: the largest |change| of any ``s`` entry and
the number of steps whose error count changed. Its last line sums the
drift up over every differing trace: the largest |change| of ``s`` and
the total of changed error counts. Recording takes about 20 s on two
cores.

The scenario is the test suite's ``small_scenario`` (K=4, d=8, 1200 train
and pool rows, sinusoidal shift over T=150) with ``retrain_max_iter=20``.
Each trace contributes three keys: the bytes ``OnlineTrace.to_csv``
writes, its per-step sigma_min and its strategy snapshots. The set:

- ``run_online`` over every algorithm x ssl {none, rotation ba=5} x both
  orders;
- ``oracle_trace`` frozen and updated with rotation, x both orders;
- ``run_bare_ols`` x both orders;
- atlas with entropy (ba=5) and with InfoNCE (ba=5, inner_steps=2);
- the pretrained model's arrays for ``pretrain_ssl`` none, rotation and
  infonce (the momentum path and the supervised + SSL gradient sum);
- the value acceptance check P2 prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

ORDERS = ("predict_first", "update_first")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _trace_digests(key: str, trace, raw: dict) -> dict:
    fd, tmp = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        trace.to_csv(tmp)
        with open(tmp, "rb") as fh:
            csv_bytes = fh.read()
    finally:
        os.unlink(tmp)
    raw[key] = {"s": trace.s.tolist(), "errors": trace.errors.tolist()}
    return {
        f"{key}/csv": _sha(csv_bytes),
        f"{key}/sigma_min": _arrays_digest([trace.sigma_min]),
        f"{key}/snapshots": _arrays_digest(trace.snapshots),
    }


def _model_digest(m) -> str:
    return _arrays_digest(
        [*m.feat_weights, *m.feat_biases, m.linear_w, m.linear_b, m.ssl_w, m.ssl_b,
         np.asarray(m.temperature)]
    )


def record() -> dict:
    from olsofu import harness, validate
    from olsofu.models import TrainConfig
    from olsofu.ofu import SslSpec
    from olsofu.ols import ALGORITHMS
    from olsofu.synthdata import DataSpec, default_means, default_pattern

    data = DataSpec(
        k=4, d=8, class_means=default_means(4, 8, 2.0), class_cov_scale=1.0,
        n_train=1200, n_test_pool=1200,
    )
    sc = harness.Scenario(
        data=data,
        shift=default_pattern("sinusoidal", 4, 150),
        train_cfg=TrainConfig(epochs=20),
        retrain_max_iter=20,
    )
    pre = harness.pretrain(sc)
    rotation = SslSpec(kind="rotation", ba=5)
    out, raw = {}, {}
    for order in ORDERS:
        o = dataclasses.replace(sc, order=order)
        for algo in ALGORITHMS:
            for ssl in (SslSpec(), rotation):
                run = dataclasses.replace(o, algorithm=algo, ssl=ssl)
                key = f"run_online/{algo}/ssl={ssl.kind}/{order}"
                out.update(_trace_digests(key, harness.run_online(run, pre), raw))
        rot = dataclasses.replace(o, ssl=rotation)
        for frozen in (True, False):
            key = f"oracle_trace/{'frozen' if frozen else 'updated'}/{order}"
            out.update(_trace_digests(key, harness.oracle_trace(rot, frozen, pre), raw))
        bare = harness.run_bare_ols(o, pre)
        out.update(_trace_digests(f"run_bare_ols/{order}", bare, raw))
    for name, ssl in (
        ("entropy", SslSpec(kind="entropy", ba=5)),
        ("infonce", SslSpec(kind="infonce", ba=5, inner_steps=2)),
    ):
        run = dataclasses.replace(sc, algorithm="atlas", ssl=ssl)
        trace = harness.run_online(run, pre)
        out.update(_trace_digests(f"run_online/atlas/ssl={name}", trace, raw))
    for kind in ("none", "rotation", "infonce"):
        p = harness.pretrain(dataclasses.replace(sc, pretrain_ssl=kind))
        out[f"pretrain/ssl={kind}/model"] = _model_digest(p.model)
    out["validate/P2"] = _sha(validate.check_p2().value.encode())
    return {"digests": out, "traces": raw}


def _drift(a: dict, b: dict) -> tuple[float, int]:
    """Max |change| of s and the number of changed per-step error counts."""
    ds = float(np.max(np.abs(np.asarray(a["s"]) - np.asarray(b["s"]))))
    flips = int(np.sum(np.asarray(a["errors"]) != np.asarray(b["errors"])))
    return ds, flips


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a_doc = json.load(fh)
    with open(b_path) as fh:
        b_doc = json.load(fh)
    a, b = a_doc["digests"], b_doc["digests"]
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    drifts = {}  # differing trace -> (max |ds|, changed error counts)
    for key in differing:
        run = key.rsplit("/", 1)[0]
        traces = [doc["traces"].get(run) for doc in (a_doc, b_doc)]
        if not all(traces):
            print(key)
            continue
        drifts[run] = ds, flips = _drift(*traces)
        print(f"{key}: max |ds| {ds:.2e}, {flips} error counts changed")
    worst = max((ds for ds, _ in drifts.values()), default=0.0)
    flips = sum(n for _, n in drifts.values())
    print(f"{len(differing)} of {len(a.keys() | b.keys())} keys differ; over "
          f"{len(drifts)} differing traces max |ds| {worst:.2e}, "
          f"{flips} error counts changed")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys whose digests differ between two files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give an output file or --compare A B")
    doc = record()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"{len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
