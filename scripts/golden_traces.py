"""Record, or compare, sha256 digests of a fixed golden set of online runs.

A refactor that must not change results records the set on the commit
before it and on the commit after it, then compares the two files:

    PYTHONPATH=src python scripts/golden_traces.py before.json
    PYTHONPATH=src python scripts/golden_traces.py after.json
    python scripts/golden_traces.py --compare before.json after.json

BLAS results depend on the thread count (a record made with one thread
and one made with two differ in about half the keys), so the script pins
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before it imports numpy. It writes that setting, the numpy version, the
BLAS build (name, version and OpenBLAS configuration string), the CPU
model and the SIMD extensions numpy found on the CPU to the file's
``manifest``: a ``DYNAMIC_ARCH`` OpenBLAS picks its kernels by CPU, so
records from two machines may differ with the same code, and two machines
can report the same CPU model name yet offer different extensions.

Each trace also gets a ``portable`` entry: a digest of its per-step error
counts and the K per-class sums of its raw estimates ``s``. Error counts
do not depend on the BLAS thread count and ``s`` drifts only at the
1e-14 level, so ``tests/test_golden.py`` compares this section on any
machine (error digests exactly, sums to a tolerance), while the exact
digests hold only where the manifest matches.

``tests/golden_digests.json`` keeps the manifest, digests and portable
section of the current code, written with ``--digests-only``;
``tests/test_golden.py`` re-records the set and compares it with that
file. A deliberate change to results re-records it:

    PYTHONPATH=src python scripts/golden_traces.py --digests-only tests/golden_digests.json

``--compare`` first names each manifest field that differs, or a file
without a manifest, then prints every key whose digest differs (or that
only one file has) and exits 1 if there is any. A full record also keeps
each trace's raw estimates ``s``, strategy snapshots and per-step error
counts, so when both files have them, for a differing trace key
``--compare`` adds the drift: the largest
|change| of any ``s`` entry, the largest |change| of any snapshot entry
(how far the reweighting vectors or heads moved) and the number of steps
whose error count changed. Its last line sums the drift up over every differing
trace: the largest |change| of ``s`` and of the snapshots, and the total
of changed error counts. Recording takes about 7 s on two cores.

The scenario is the test suite's ``small_scenario`` (K=4, d=8, 1200 train
and pool rows, sinusoidal shift over T=150) with ``retrain_max_iter=20``.
Each trace contributes three keys: the bytes ``OnlineTrace.to_csv``
writes, its per-step sigma_min and its strategy snapshots. The set:

- ``run_online`` over every algorithm x ssl {none, rotation ba=5} x both
  orders;
- ``oracle_trace`` frozen and updated with rotation, x both orders;
- ``run_bare_ols`` x both orders;
- atlas with entropy (ba=5) and with InfoNCE (ba=5, inner_steps=2);
- uogd with entropy (ba=5, update_first): its refreshes take the entropy
  gradient through the strategy's head, and a refreshing step deploys
  that head on the refreshed model;
- flhftl with rotation (ba=5) on batches rotated by 30 degrees
  (``CorruptionSpec(kind="rotate2d", angle=30.0)``), uogd with rotation
  (ba=5, update_first) on batches with Gaussian noise
  (``CorruptionSpec(kind="gaussian_noise", severity=0.5)``) and fth
  without SSL on affinely corrupted batches
  (``CorruptionSpec(kind="affine", severity=0.2)``);
- flhftl with rotation (ba=5) under a bernoulli shift
  (``default_pattern("bernoulli", 4, 150)``), the one shift kind that
  draws from the shift rng;
- rogd and flhftl without SSL on a K=9 scenario (d=9, 900 train and pool
  rows, its own pretrain), where numpy's sums over a class axis of 8 or
  more entries turn pairwise;
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
import platform
import sys
import tempfile

BLAS_THREADS = {
    var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

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


def _add_trace(doc: dict, key: str, trace) -> None:
    """Record ``trace`` under ``key`` in each of ``doc``'s sections."""
    fd, tmp = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        trace.to_csv(tmp)
        with open(tmp, "rb") as fh:
            csv_bytes = fh.read()
    finally:
        os.unlink(tmp)
    doc["traces"][key] = {
        "s": trace.s.tolist(),
        "snapshots": np.asarray(trace.snapshots).tolist(),
        "errors": trace.errors.tolist(),
    }
    doc["portable"][key] = {
        "errors": _sha(",".join(map(str, trace.errors.tolist())).encode()),
        "s_sums": trace.s.sum(axis=0).tolist(),
    }
    doc["digests"].update({
        f"{key}/csv": _sha(csv_bytes),
        f"{key}/sigma_min": _arrays_digest([trace.sigma_min]),
        f"{key}/snapshots": _arrays_digest(trace.snapshots),
    })


def _model_digest(m) -> str:
    return _arrays_digest(
        [*m.feat_weights, *m.feat_biases, m.linear_w, m.linear_b, m.ssl_w, m.ssl_b,
         np.asarray(m.temperature)]
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def record() -> dict:
    from olsofu import harness, validate
    from olsofu.models import TrainConfig
    from olsofu.ofu import SslSpec
    from olsofu.ols import ALGORITHMS
    from olsofu.synthdata import CorruptionSpec, DataSpec, default_means, default_pattern

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
    doc = {"digests": {}, "portable": {}, "traces": {}}
    for order in ORDERS:
        o = dataclasses.replace(sc, order=order)
        for algo in ALGORITHMS:
            for ssl in (SslSpec(), rotation):
                run = dataclasses.replace(o, algorithm=algo, ssl=ssl)
                key = f"run_online/{algo}/ssl={ssl.kind}/{order}"
                _add_trace(doc, key, harness.run_online(run, pre))
        rot = dataclasses.replace(o, ssl=rotation)
        for frozen in (True, False):
            key = f"oracle_trace/{'frozen' if frozen else 'updated'}/{order}"
            _add_trace(doc, key, harness.oracle_trace(rot, frozen, pre))
        bare = harness.run_bare_ols(o, pre)
        _add_trace(doc, f"run_bare_ols/{order}", bare)
    for name, ssl in (
        ("entropy", SslSpec(kind="entropy", ba=5)),
        ("infonce", SslSpec(kind="infonce", ba=5, inner_steps=2)),
    ):
        run = dataclasses.replace(sc, algorithm="atlas", ssl=ssl)
        trace = harness.run_online(run, pre)
        _add_trace(doc, f"run_online/atlas/ssl={name}", trace)
    for key, run in (
        ("run_online/flhftl/ssl=rotation/rotate2d", dataclasses.replace(
            sc, algorithm="flhftl", ssl=rotation,
            corruption=CorruptionSpec(kind="rotate2d", angle=30.0))),
        ("run_online/uogd/ssl=rotation/gaussian_noise/update_first", dataclasses.replace(
            sc, algorithm="uogd", ssl=rotation, order="update_first",
            corruption=CorruptionSpec(kind="gaussian_noise", severity=0.5))),
        ("run_online/uogd/ssl=entropy/update_first", dataclasses.replace(
            sc, algorithm="uogd", ssl=SslSpec(kind="entropy", ba=5), order="update_first")),
        ("run_online/fth/ssl=none/affine", dataclasses.replace(
            sc, algorithm="fth", corruption=CorruptionSpec(kind="affine", severity=0.2))),
        ("run_online/flhftl/ssl=rotation/bernoulli", dataclasses.replace(
            sc, algorithm="flhftl", ssl=rotation,
            shift=default_pattern("bernoulli", 4, 150))),
    ):
        _add_trace(doc, key, harness.run_online(run, pre))
    nine = dataclasses.replace(
        sc, shift=default_pattern("sinusoidal", 9, 150),
        data=dataclasses.replace(data, k=9, d=9, class_means=default_means(9, 9, 2.0),
                                 n_train=900, n_test_pool=900))
    pre9 = harness.pretrain(nine)
    for algo in ("rogd", "flhftl"):
        run = dataclasses.replace(nine, algorithm=algo)
        _add_trace(doc, f"run_online/{algo}/ssl=none/k=9", harness.run_online(run, pre9))
    for kind in ("none", "rotation", "infonce"):
        p = harness.pretrain(dataclasses.replace(sc, pretrain_ssl=kind))
        doc["digests"][f"pretrain/ssl={kind}/model"] = _model_digest(p.model)
    doc["digests"]["validate/P2"] = _sha(validate.check_p2().value.encode())
    doc["manifest"] = {"blas_threads": BLAS_THREADS, "numpy": np.__version__,
                       "blas": _blas_build(), "cpu": _cpu_model(),
                       "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]}
    return doc


def _drift(a: dict, b: dict) -> tuple[float, float, int]:
    """Max |change| of s and of the snapshots, and the number of changed
    per-step error counts."""
    ds, dsnap = (float(np.max(np.abs(np.asarray(a[f]) - np.asarray(b[f]))))
                 for f in ("s", "snapshots"))
    flips = int(np.sum(np.asarray(a["errors"]) != np.asarray(b["errors"])))
    return ds, dsnap, flips


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a_doc = json.load(fh)
    with open(b_path) as fh:
        b_doc = json.load(fh)
    manifests = a_doc.get("manifest"), b_doc.get("manifest")
    if None in manifests:
        missing = [p for p, m in zip((a_path, b_path), manifests) if m is None]
        print(f"manifest missing in {', '.join(missing)}")
    else:
        for field in sorted(manifests[0].keys() | manifests[1].keys()):
            if manifests[0].get(field) != manifests[1].get(field):
                print(f"manifests differ in {field}: {manifests[0].get(field)} vs "
                      f"{manifests[1].get(field)}")
    a, b = a_doc["digests"], b_doc["digests"]
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    drifts = {}  # differing trace -> (max |ds|, max |dsnapshot|, changed error counts)
    for key in differing:
        run = key.rsplit("/", 1)[0]
        traces = [doc.get("traces", {}).get(run) for doc in (a_doc, b_doc)]
        if not all(traces):
            print(key)
            continue
        drifts[run] = ds, dsnap, flips = _drift(*traces)
        print(f"{key}: max |ds| {ds:.2e}, max |dsnapshot| {dsnap:.2e}, "
              f"{flips} error counts changed")
    summary = f"{len(differing)} of {len(a.keys() | b.keys())} keys differ"
    if drifts:  # a file without raw traces gives no drift
        worst_s = max(d[0] for d in drifts.values())
        worst_snap = max(d[1] for d in drifts.values())
        flips = sum(d[2] for d in drifts.values())
        summary += (f"; over {len(drifts)} differing traces max |ds| {worst_s:.2e}, "
                    f"max |dsnapshot| {worst_snap:.2e}, {flips} error counts changed")
    print(summary)
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys whose digests differ between two files")
    parser.add_argument("--digests-only", action="store_true",
                        help="write the manifest, digests and portable section "
                        "without the raw traces")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give an output file or --compare A B")
    doc = record()
    if args.digests_only:
        del doc["traces"]
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    print(f"{len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
