import json

import numpy as np
import pytest

from olsofu.cli import main
from olsofu.config import load_config, resolve_config, scenario_from_config
from olsofu.errors import ConfigError

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


class TestPretrainCommand:
    def test_writes_checkpoint_and_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists()
        sidecar = json.loads((out / "checkpoint.meta.json").read_text())
        assert sidecar["val_accuracy"] > 0.7
        assert 0 < sidecar["sigma_min"] <= 1.0

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

    def test_infonce_single_input_update_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"batch_size": 1, "ssl": {"kind": "infonce", "ba": 1}}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "infonce" in capsys.readouterr().err
        assert not out.exists()

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

    def test_mismatched_checkpoint_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG)
        pre_out = tmp_path / "pre"
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre_out)]) == 0
        doc = {**FAST_CONFIG, "data": {**FAST_CONFIG["data"], "d": 4},
               "checkpoint": str(pre_out / "checkpoint.npz")}
        cfg2 = write_config(tmp_path, doc, "mismatch.json")
        assert main(["run", "--config", str(cfg2), "--out", str(tmp_path)]) == 4

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


class TestValidateCommand:
    def test_subset_passes(self, capsys):
        assert main(["validate", "--only", "P10"]) == 0
        out = capsys.readouterr().out
        assert "P10" in out and "PASS" in out

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
