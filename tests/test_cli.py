import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from olsofu.cli import main
from olsofu.config import (
    iter_schema_keys,
    load_config,
    resolve_config,
    scenario_from_config,
)
from olsofu.errors import ConfigError
from olsofu.harness import Scenario
from olsofu.ofu import SslSpec
from olsofu.synthdata import DataSpec, default_means, default_pattern

FAST_CONFIG = {
    "data": {"k": 3, "d": 6, "n_train": 600, "n_test_pool": 600},
    "shift": {"kind": "sinusoidal", "horizon": 60},
    "algorithm": "fth",
    "train": {"epochs": 8},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def assert_fields_equal(a, b, path):
    """Dataclasses equal field by field, arrays element by element."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestConfig:
    def test_defaults_resolve(self):
        cfg = resolve_config({})
        assert cfg["train"]["seed"] == 4242
        assert cfg["seeds"]["run"] == 8610
        assert cfg["batch_size"] == 10
        assert cfg["shift"]["horizon"] == 1000
        assert cfg["ssl"]["ba"] == 1
        assert cfg["sweep"]["replicates"] == 5

    def test_infonce_gets_batch_accumulation_default(self):
        cfg = resolve_config({"ssl": {"kind": "infonce"}})
        assert cfg["ssl"]["ba"] == 50

    @pytest.mark.parametrize("kind", ["none", "infonce"])
    def test_default_config_is_the_library_default_scenario(self, kind):
        # Every default has one home, the dataclass field, so a config of
        # defaults and a Scenario of defaults agree field by field.
        doc = {} if kind == "none" else {"ssl": {"kind": kind}}
        from_config = scenario_from_config(resolve_config(doc))
        library = Scenario(
            data=DataSpec(k=4, d=8, class_means=default_means(4, 8, 2.0)),
            shift=default_pattern("sinusoidal", 4, 1000),
            ssl=SslSpec(kind=kind),
        )
        assert_fields_equal(from_config, library, "scenario")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config({"datta": {}})
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config({"data": {"kk": 3}})

    def test_type_errors_carry_key_path(self):
        with pytest.raises(ConfigError, match="data.k"):
            resolve_config({"data": {"k": "four"}})
        with pytest.raises(ConfigError, match="shift.kind"):
            resolve_config({"shift": {"kind": "sawtooth"}})

    def test_marginal_length_checked(self):
        with pytest.raises(ConfigError, match="shift.q"):
            resolve_config({"data": {"k": 3}, "shift": {"q": [0.5, 0.5]}})

    def test_scenario_construction(self):
        cfg = resolve_config({"data": {"k": 3, "d": 5}})
        sc = scenario_from_config(cfg)
        assert sc.data.k == 3 and sc.data.d == 5
        assert sc.horizon == 1000
        sc2 = scenario_from_config(cfg, run_seed=7, order="update_first")
        assert sc2.run_seed == 7 and sc2.order == "update_first"


# One out-of-range value per numeric config key (defaults: k=4, d=8).
OUT_OF_RANGE = {
    "data.k": 1,
    "data.d": 1,
    "data.class_sep": -1.0,
    "data.cov_scale": -0.5,
    "data.n_train": 3,
    "data.n_val": 3,
    "data.n_test_pool": 0,
    "shift.horizon": 0,
    "shift.switch_prob": 1.5,
    "corruption.severity": -0.1,
    "ssl.ssl_lr": -0.01,
    "ssl.ba": 0,
    "ssl.inner_steps": 0,
    "ssl.infonce_temperature": 0.0,
    "ssl.augment_noise": -0.1,
    "train.epochs": 0,
    "train.batch_size": 0,
    "train.learning_rate": 0.0,
    "train.momentum": -0.1,
    "train.weight_decay": -1e-4,
    "train.seed": -1,
    "pretrain_ssl_weight": -1.0,
    "batch_size": 0,
    "seeds.data": -1,
    "seeds.shift": -1,
    "seeds.run": -1,
    "algo.eta": -0.1,
    "algo.window": 0,
    "algo.flh_eta": -1.0,
    "algo.meta_eps": 0.0,
    "algo.radius": 0.0,
    "algo.warmup": 0,
    "reg_lambda": 1.5,
    "retrain_max_iter": 0,
    "sweep.replicates": 0,
}
# Numeric keys that have no range.
UNBOUNDED = {"corruption.angle"}
NUMERIC_KEYS = [
    path for path, key in iter_schema_keys()
    if key.kind in ("int", "num") and path not in UNBOUNDED
]


def assert_config_error_names(key, argv, capsys):
    """``argv`` exits 2 before writing its output directory, and stderr
    starts with the key."""
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not Path(argv[argv.index("--out") + 1]).exists()


class TestConfigRanges:
    @pytest.mark.parametrize("path", NUMERIC_KEYS)
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, capsys, path):
        # A numeric key added to the schema needs an entry here.
        assert path in OUT_OF_RANGE, f"no out-of-range case for {path}"
        doc = OUT_OF_RANGE[path]
        for part in reversed(path.split(".")):
            doc = {part: doc}
        cfg = write_config(tmp_path, doc)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert_config_error_names(f"{path} ", argv, capsys)

    @pytest.mark.parametrize(
        "command, doc, extra, key",
        [
            # 2000 // 4 validation rows by default; 8 // 4 = 2 cannot hold 4 classes.
            ("run", {"data": {"n_train": 8}}, [], "data.n_train"),
            ("run", {"data": {"k": -1}}, [], "data.k"),
            ("run", {"hidden": [32, 0]}, [], "hidden"),
            ("run", {}, ["--seed", "-1"], "seeds.run"),
            ("sweep", {"sweep": {"algorithm": ["fth", "flhftll"]}}, [], "sweep.algorithm"),
            ("sweep", {}, ["--seed", "-1"], "seeds.run"),
            # FLH-FTL experts expire by their lifetime; the cap key is gone.
            ("run", {"algo": {"flh_max_experts": 200}}, [],
             "algo: unknown key(s) ['flh_max_experts']"),
            # Four validation rows pass the range checks, but their draw
            # misses classes; the source draw finds that, before training.
            ("run", {"data": {"n_train": 400, "n_val": 4, "n_test_pool": 400}}, [],
             "data.n_val gives a validation split without class(es)"),
            ("pretrain", {"data": {"n_train": 400, "n_val": 4, "n_test_pool": 400}}, [],
             "data.n_val gives a validation split without class(es)"),
            ("sweep", {"data": {"n_train": 400, "n_val": 4, "n_test_pool": 400}}, [],
             "data.n_val gives a validation split without class(es)"),
            # Identical class means with no noise: every class draws one point.
            ("run", {"data": {"class_sep": 0, "cov_scale": 0}}, [], "data.cov_scale "),
            ("pretrain", {"data": {"class_sep": 0, "cov_scale": 0}}, [], "data.cov_scale "),
            # InfoNCE skips every batch of one input, so nothing would train.
            ("run", {"pretrain_ssl": "infonce", "train": {"batch_size": 1}}, [],
             "train.batch_size "),
            ("pretrain", {"pretrain_ssl": "infonce", "train": {"batch_size": 1}}, [],
             "train.batch_size "),
        ],
        ids=["val-rows-below-k", "negative-k", "hidden-width", "run-seed-flag", "sweep-axis",
             "sweep-seed-flag", "removed-flh-max-experts", "run-val-split-misses-class",
             "pretrain-val-split-misses-class", "sweep-val-split-misses-class",
             "run-degenerate-data",
             "pretrain-degenerate-data", "run-infonce-single-row-batches",
             "pretrain-infonce-single-row-batches"],
    )
    def test_boundary_cases_exit_2_naming_key(self, tmp_path, capsys, command, doc,
                                              extra, key):
        cfg = write_config(tmp_path, doc)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]
        assert_config_error_names(key, argv, capsys)


class TestPretrainCommand:
    def test_writes_checkpoint_and_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists()
        sidecar = json.loads((out / "checkpoint.meta.json").read_text())
        assert sidecar["val_accuracy"] > 0.7
        assert 0 < sidecar["sigma_min"] <= 1.0

    def test_draws_source_data_once(self, tmp_path, capsys, monkeypatch):
        import sys

        from olsofu import synthdata

        original = synthdata.make_source_data
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "make_source_data", None) is original:
                monkeypatch.setattr(mod, "make_source_data", counting)
        cfg = write_config(tmp_path, FAST_CONFIG)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_malformed_json_exits_2_without_files(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"algorithmm": "fth"})
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_reg_lambda_above_one_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"reg_lambda": 1.5})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "reg_lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_meta_eps_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"algorithm": "atlas", "algo": {"meta_eps": 0}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "meta_eps" in capsys.readouterr().err
        assert not out.exists()

    def test_infonce_single_input_update_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"batch_size": 1, "ssl": {"kind": "infonce", "ba": 1}}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "infonce" in capsys.readouterr().err
        assert not out.exists()

    def test_run_options_rejected(self, tmp_path, capsys):
        # Pretraining reads neither the run seed nor the order.
        cfg = write_config(tmp_path, FAST_CONFIG)
        for option in (["--seed", "123"], ["--order", "update_first"]):
            with pytest.raises(SystemExit) as exc:
                main(["pretrain", "--config", str(cfg), "--out", str(tmp_path), *option])
            assert exc.value.code == 2
        assert not (tmp_path / "checkpoint.npz").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_3(self, tmp_path, capsys):
        doc = dict(FAST_CONFIG)
        doc["train"] = {"epochs": 6, "learning_rate": 1e155}
        cfg = write_config(tmp_path, doc)
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 3


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["avg_error"] <= 1.0
        assert summary["algorithm"] == "fth"
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == summary
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 61  # header + one row per step

    def test_deterministic_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_seed_and_order_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "17", "--order", "update_first"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"]["run"] == 17
        assert summary["order"] == "update_first"

    def test_checkpoint_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        pre_out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre_out)]) == 0
        doc = dict(FAST_CONFIG)
        doc["checkpoint"] = str(pre_out / "checkpoint.npz")
        cfg2 = write_config(tmp_path, doc, "with_ckpt.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 0

    @pytest.mark.parametrize("key, value", [("d", 4), ("k", 4)], ids=["d", "k"])
    def test_mismatched_checkpoint_exits_4(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, FAST_CONFIG)
        pre_out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre_out)]) == 0
        doc = {**FAST_CONFIG, "data": {**FAST_CONFIG["data"], key: value},
               "checkpoint": str(pre_out / "checkpoint.npz")}
        cfg2 = write_config(tmp_path, doc, "mismatch.json")
        assert main(["run", "--config", str(cfg2), "--out", str(tmp_path)]) == 4
        assert "checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        doc = {**FAST_CONFIG, "checkpoint": str(tmp_path / "nope.npz")}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_env_var_overrides_out(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, FAST_CONFIG)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("OLSOFU_OUT", str(env_dir))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (env_dir / "trace.csv").exists()
        assert not (tmp_path / "flag").exists()


class TestSweepCommand:
    def test_single_cell_matches_run(self, tmp_path, capsys):
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 1}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        import csv

        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["avg_error_mean"]) == pytest.approx(
            summary["avg_error"], abs=1e-12
        )

    def test_single_cell_from_checkpoint_matches_run(self, tmp_path, capsys):
        # The checkpoint is trained for fewer epochs than the config asks,
        # so a cell that trained from scratch would not match.
        pre_doc = {**FAST_CONFIG, "train": {"epochs": 2}}
        assert main(["pretrain", "--config", str(write_config(tmp_path, pre_doc, "pre.json")),
                     "--out", str(tmp_path / "pre")]) == 0
        doc = {**FAST_CONFIG, "checkpoint": str(tmp_path / "pre" / "checkpoint.npz"),
               "sweep": {"algorithm": ["fth"], "ssl": ["none"], "shift": ["sinusoidal"],
                         "corruption": ["none"], "replicates": 1}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        import csv

        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["avg_error_mean"]) == summary["avg_error"]

    def test_cells_share_one_pretrain(self, tmp_path, capsys, monkeypatch):
        import olsofu.cli as cli_mod

        original = cli_mod.pretrain
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "pretrain", counting)
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth", "flhftl"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 1}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 0
        assert "2/2 cells ok" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_exits_3_without_csv(self, tmp_path, capsys):
        doc = {**FAST_CONFIG, "train": {"epochs": 6, "learning_rate": 1e155}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("training error:")
        assert not out.exists()

    def test_missing_checkpoint_exits_2_without_csv(self, tmp_path, capsys):
        doc = {**FAST_CONFIG, "checkpoint": str(tmp_path / "nope.npz")}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: checkpoint not found")
        assert not (tmp_path / "sweep.csv").exists()

    def test_twelve_cell_grid_with_delta_columns(self, tmp_path, capsys):
        doc = {
            **FAST_CONFIG,
            "shift": {"kind": "sinusoidal", "horizon": 30},
            "data": {"k": 3, "d": 6, "n_train": 300, "n_test_pool": 300},
            "train": {"epochs": 5},
            "retrain_max_iter": 25,
            "ssl": {"kind": "rotation", "ssl_lr": 0.02, "ba": 10},
            "sweep": {
                "algorithm": ["fth", "ftfwh", "rogd", "flhftl", "uogd", "atlas"],
                "ssl": ["none", "rotation"],
                "shift": ["sinusoidal"],
                "corruption": ["none"],
                "replicates": 1,
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        import csv

        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert all(r["status"] == "ok" for r in rows)
        ofu_rows = [r for r in rows if r["ssl"] == "rotation"]
        assert len(ofu_rows) == 6
        assert all(r["delta_error"] != "" for r in ofu_rows)

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth", "flhftl"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 2}}
        cfg = write_config(tmp_path, doc)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(parallel),
                     "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    def test_spawned_workers_match_serial(self, tmp_path, capsys):
        # The sweep's parent, like a spawned worker, starts with fresh
        # module state. A worker's first SSL refresh must not share a uid
        # with the parent's pretrained model, or update_first scores step 1
        # with the pretrained model's forward. A short-trained model and
        # 50-input batches make that stale forward change the error count.
        import os
        import subprocess
        import sys

        doc = {**FAST_CONFIG, "train": {"epochs": 2}, "batch_size": 50,
               "sweep": {"algorithm": ["fth", "flhftl"], "ssl": ["rotation"],
                         "shift": ["sinusoidal"], "corruption": ["none"], "replicates": 1}}
        cfg = write_config(tmp_path, doc)
        serial, spawned = tmp_path / "serial", tmp_path / "spawned"
        args = ["sweep", "--config", str(cfg), "--order", "update_first", "--out"]
        assert main([*args, str(serial)]) == 0
        script = (
            "import concurrent.futures, functools, multiprocessing, sys\n"
            "from olsofu import cli\n"
            "cli.concurrent.futures.ProcessPoolExecutor = functools.partial(\n"
            "    concurrent.futures.ProcessPoolExecutor,\n"
            "    mp_context=multiprocessing.get_context('spawn'))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script, *args, str(spawned),
                               "--jobs", "2"], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (serial / "sweep.csv").read_bytes() == (spawned / "sweep.csv").read_bytes()

    def test_workers_capped_at_cell_count(self, tmp_path, capsys, monkeypatch):
        import olsofu.cli as cli_mod

        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli_mod.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth", "flhftl"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 1}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "5000"]) == 0
        assert seen == [2]
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_pearson_column_with_improvement_check(self, tmp_path, capsys):
        doc = {
            **FAST_CONFIG,
            "shift": {"kind": "sinusoidal", "horizon": 40},
            "data": {"k": 3, "d": 6, "n_train": 400, "n_test_pool": 400},
            "train": {"epochs": 6},
            "retrain_max_iter": 25,
            "ssl": {"kind": "entropy", "ssl_lr": 0.02, "ba": 10},
            "sweep": {"algorithm": ["fth"], "ssl": ["none", "entropy", "rotation"],
                      "shift": ["sinusoidal"], "corruption": ["none"], "improvement_check": True,
                      "replicates": 1},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        import csv

        with open(out / "sweep.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["ssl"] != "none"]
        assert len(rows) == 2
        assert all(r["oracle_updated"] != "" and r["oracle_frozen"] != "" for r in rows)
        coeffs = {r["pearson_gain_vs_delta"] for r in rows}
        assert len(coeffs) == 1
        assert -1.0 <= float(coeffs.pop()) <= 1.0

    def test_partial_failure_keeps_exit_zero(self, tmp_path, capsys, monkeypatch):
        import olsofu.cli as cli_mod

        original = cli_mod.run_online

        def sometimes_failing(sc, pre=None):
            if sc.algorithm == "rogd":
                raise RuntimeError("injected cell failure")
            return original(sc, pre)

        monkeypatch.setattr(cli_mod, "run_online", sometimes_failing)
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth", "rogd"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 1}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        import csv

        with open(out / "sweep.csv") as fh:
            rows = {r["algorithm"]: r for r in csv.DictReader(fh)}
        assert rows["fth"]["status"] == "ok"
        assert rows["rogd"]["status"].startswith("error:")


    def test_error_message_with_comma_and_quote_is_quoted(self, tmp_path, capsys,
                                                           monkeypatch):
        import csv

        import olsofu.cli as cli_mod

        def failing(sc, pre=None):
            raise RuntimeError('bad cell, "quoted" value')

        monkeypatch.setattr(cli_mod, "run_online", failing)
        doc = {**FAST_CONFIG, "sweep": {"algorithm": ["fth"], "ssl": ["none"],
                                        "shift": ["sinusoidal"], "corruption": ["none"],
                                        "replicates": 1}}
        out = tmp_path / "out"
        main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
        text = (out / "sweep.csv").read_bytes().decode()
        assert ',"error: bad cell, ""quoted"" value",' in text
        assert text.endswith("\r\n") and text.count("\r\n") == 2
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == 'error: bad cell, "quoted" value'


class TestValidateCommand:
    def test_subset_passes(self, capsys):
        assert main(["validate", "--only", "P10"]) == 0
        out = capsys.readouterr().out
        assert "P10" in out and "PASS" in out

    def test_unknown_check_exits_2(self, capsys):
        assert main(["validate", "--only", "P1,P99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "['P99']" in err

    def test_empty_selection_exits_2(self, capsys):
        assert main(["validate", "--only", " , "]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "' , ' selects no checks" in err

    def test_injected_projection_bug_fails_the_gate(self, capsys, monkeypatch):
        # Mutation sanity: a projection that skips the sort-and-threshold
        # step (plain clip and renormalize) must fail the oracle check.
        import numpy as np

        import olsofu.validate as validate_mod

        def broken_projection(v):
            clipped = np.maximum(np.asarray(v, dtype=float), 0.0)
            total = clipped.sum()
            return clipped / total if total > 0 else np.full(len(clipped), 1 / len(clipped))

        monkeypatch.setattr(validate_mod, "project_simplex", broken_projection)
        assert main(["validate", "--only", "P1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_help_enumerates_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ("data.k", "ssl.ssl_lr", "seeds.run", "train.learning_rate",
                    "algo.window", "reg_lambda"):
            assert key in out
