"""Self-tests of the benchmark: smoke runs of every workload, the self-time
arithmetic, and that tracing never changes a result.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from olsofu import config, harness, models, ofu, ols, synthdata, validate  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, "r"),
        S("a", 1.0, 3.0, 0, "r"),
        S("b", 2.0, 5.0, 0, "r"),  # overlaps a
        S("c", 9.0, 12.0, 0, "r"),  # ends after its parent
        S("leaf", 1.5, 2.5, 1, "r"),  # a grandchild: counts against a only
    ]
    # root: children cover [1, 5] and [9, 10] of [0, 10].
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_benchmark_json_names_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    proc = _run("--workload", name, "--seed", "4", "--seconds", "0.1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "ols-plain", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_traces_unchanged(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    plain = workloads.run_cycle(wl, workloads.setup(wl, 5, tiny=True), tmp_path)
    originals = (harness.sample_batch, ofu.retrain_linear, vars(ols.FthStrategy)["step"],
                 vars(ofu.Predictor)["predict"], models.softmax)
    tracer = tracing.Tracer(time.perf_counter)
    with tracer.installed():
        st = workloads.setup(wl, 5, tiny=True)
        traced = workloads.run_cycle(wl, st, tmp_path, tracer, tag="c0")
    assert (harness.sample_batch, ofu.retrain_linear, vars(ols.FthStrategy)["step"],
            vars(ofu.Predictor)["predict"], models.softmax) == originals
    assert harness.sample_batch is synthdata.sample_batch
    assert not tracer.missing
    assert all(not r.problems for r in plain + traced)
    assert [r.digest for r in traced] == [r.digest for r in plain]
    metrics, _ = tracing.layer_metrics(tracer, 1, 0.0)
    retrains = metrics["models.retrain_linear.calls"]["value"]
    assert (retrains == 0) == (name == "ols-plain")
    assert metrics["ofu.ols_ofu_step.calls"]["value"] > 0
    assert metrics["harness.pretrain.ms"]["value"] > 0


def test_checks_flag_bad_outputs():
    t = harness.OnlineTrace(
        q=np.full((3, 2), 0.5), s=np.full((3, 2), 0.5), errors=np.array([0, 2, 1]),
        batch_size=2, sigma_min=np.ones(3),
    )
    assert workloads.check_trace(t, 2) == []
    t.s[1] = [0.7, 0.7]
    t.errors[2] = 3
    assert workloads.check_trace(t, 2) == ["rows of s do not sum to 1", "errors outside [0, B]"]
    t.q[0, 0] = np.nan
    assert workloads.check_trace(t, 2)[0] == "q or s is non-finite"


def test_ledger_fails_a_repeat_with_another_digest():
    ledger = bench.Ledger()
    ledger.record([workloads.LoopResult("a", 1.0, 10, digest="x")])
    ledger.record([workloads.LoopResult("a", 1.0, 10, digest="y")])
    assert (ledger.attempted, ledger.failed) == (2, 1)


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_p8_config_document_is_the_p8_scenario():
    sc = config.scenario_from_config(config.resolve_config(workloads.P8_DOC))
    assert _same(sc, validate._scenario("p8"))
