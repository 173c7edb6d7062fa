"""Command-line entry point: pretrain, run, sweep, validate.

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 training
divergence, 4 runtime error. All outputs are written atomically (temp file
plus rename) so failed invocations never leave partial files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import config_keys, iter_schema_keys, load_config, scenario_from_config
from .errors import (
    ConfigError,
    InvalidArgumentError,
    RunError,
    TrainingDivergedError,
    UndefinedCorrelationError,
)
from .harness import improvement_check, pearson, pretrain, run_online, write_csv
from .models import accuracy, load_model, save_model, with_updates

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_RUNTIME = 4


def _replace_atomic(path: Path, write) -> None:
    """Call ``write(tmp)`` on a temp file in the same directory, then rename
    it to ``path``; a failed write leaves no file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: Path, data) -> None:
    """Write bytes or text atomically."""
    mode = "wb" if isinstance(data, bytes) else "w"

    def write(tmp):
        with open(tmp, mode) as fh:
            fh.write(data)

    _replace_atomic(path, write)


def _out_dir(args) -> Path:
    env = os.environ.get("OLSOFU_OUT")
    return Path(env) if env else Path(args.out)


def _config_epilog() -> str:
    lines = ["config keys (default) - description:"]
    for path, key in iter_schema_keys():
        default = json.dumps(key.default)
        lines.append(f"  {path} ({default}): {key.help}")
    return "\n".join(lines)


def _pretrain(sc, model):
    """``pretrain(sc, model)``, with a data config whose source draw leaves
    a split without a class reported as the config error it is, under
    ``data.``."""
    try:
        return pretrain(sc, model=model)
    except InvalidArgumentError as exc:
        if exc.field is None:
            raise
        with config_keys("data."):
            raise


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    pre = _pretrain(scenario_from_config(cfg), None)
    # Calibration changes only the temperature, so this is the trained model.
    model = with_updates(pre.model, temperature=1.0)
    _replace_atomic(out / "checkpoint.npz", lambda tmp: save_model(model, tmp))
    sidecar = {
        "train_accuracy": accuracy(pre.model, pre.train),
        "val_accuracy": accuracy(pre.model, pre.val),
        "sigma_min": pre.confusion.sigma_min,
        "temperature": pre.model.temperature,
        "config": cfg,
    }
    write_atomic(out / "checkpoint.meta.json", json.dumps(sidecar, indent=2))
    print(
        f"pretrained: val_accuracy={sidecar['val_accuracy']:.4f} "
        f"sigma_min={sidecar['sigma_min']:.4f} -> {out / 'checkpoint.npz'}"
    )
    return EXIT_OK


def _load_checkpoint(cfg, data):
    """The uncalibrated model the config's ``checkpoint`` holds, checked
    against the ``data`` spec; None when the config names none."""
    if cfg["checkpoint"] is None:
        return None
    path = Path(cfg["checkpoint"])
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    model = load_model(path)
    if (model.input_dim, model.n_classes) != (data.d, data.k):
        raise InvalidArgumentError(
            f"checkpoint {path} has input_dim={model.input_dim}, "
            f"n_classes={model.n_classes}; the config has d={data.d}, k={data.k}"
        )
    return model


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    sc = scenario_from_config(cfg, run_seed=args.seed, order=args.order)
    model = _load_checkpoint(cfg, sc.data)
    out = _out_dir(args)
    pre = _pretrain(sc, model)
    trace = run_online(sc, pre)
    summary = {
        "algorithm": sc.algorithm,
        "ssl": sc.ssl.kind,
        "order": sc.order,
        **trace.summary(),
        "seeds": {"data": sc.data_seed, "shift": sc.shift_seed, "run": sc.run_seed},
    }
    if cfg["improvement_check"]:
        lhs, rhs, holds = improvement_check(sc, pre)
        summary["improvement_check"] = {"lhs": round(lhs, 4), "rhs": round(rhs, 4), "holds": holds}
    _replace_atomic(out / "trace.csv", trace.to_csv)
    write_atomic(out / "summary.json", json.dumps(summary, indent=2))
    print(json.dumps(summary))
    return EXIT_OK


SWEEP_AXES = ("algorithm", "ssl", "shift", "corruption")


def _sweep_combos(cfg) -> list[dict]:
    values = sorted(itertools.product(*(cfg["sweep"][axis] for axis in SWEEP_AXES)))
    return [dict(zip(SWEEP_AXES, v)) for v in values]


def _combo_key(combo: dict) -> str:
    return "|".join(f"{axis}={combo[axis]}" for axis in SWEEP_AXES)


def _cell_scenario(cfg: dict, combo: dict, run_seed, order):
    """The config's Scenario with the cell's axis values; a cell whose ssl
    kind is not the config's gets that kind's default ``ssl.ba``."""
    ssl = {**cfg["ssl"], "kind": combo["ssl"]}
    if combo["ssl"] != cfg["ssl"]["kind"]:
        ssl["ba"] = None
    cell = {
        **cfg,
        "algorithm": combo["algorithm"],
        "ssl": ssl,
        "shift": {**cfg["shift"], "kind": combo["shift"]},
        "corruption": {**cfg["corruption"], "kind": combo["corruption"]},
    }
    return scenario_from_config(cell, run_seed=run_seed, order=order)


def _sweep_cell(payload):
    """Run one sweep cell from the sweep's ``Pretrained``; executed in a
    worker process."""
    sc, pre, combo, sweep = payload
    key = _combo_key(combo)
    try:
        errors, vts = [], []
        oracle_pair = None
        for i in range(sweep["replicates"]):
            rep = dataclasses.replace(
                sc,
                shift_seed=sc.shift_seed + i,
                run_seed=sc.run_seed + i,
            )
            trace = run_online(rep, pre)
            errors.append(trace.avg_error)
            vts.append(trace.shift_severity)
            if sweep["improvement_check"] and combo["ssl"] != "none" and oracle_pair is None:
                lhs, rhs, _ = improvement_check(rep, pre)
                oracle_pair = (lhs, rhs)
        row = {
            "key": key,
            **combo,
            "status": "ok",
            "replicates": sweep["replicates"],
            "avg_error_mean": float(np.mean(errors)),
            "avg_error_std": float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0,
            "shift_severity_mean": float(np.mean(vts)),
            "oracle_updated": "" if oracle_pair is None else round(oracle_pair[0], 4),
            "oracle_frozen": "" if oracle_pair is None else round(oracle_pair[1], 4),
        }
        return row
    except Exception as exc:  # noqa: BLE001 - per-row status, sweep continues
        # The CSV writer leaves the columns an error row lacks empty.
        return {"key": key, **combo, "status": f"error: {exc}", "replicates": 0}


SWEEP_COLUMNS = [
    "key", "algorithm", "ssl", "shift", "corruption", "status", "replicates",
    "avg_error_mean", "avg_error_std", "shift_severity_mean", "oracle_updated", "oracle_frozen",
    "delta_error", "pearson_gain_vs_delta",
]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    out = _out_dir(args)
    # Every cell's Scenario is built, and so checked, before any cell runs.
    # The cells differ only in what pretraining does not read, so they share
    # one pretrain: its config error or divergence fails the sweep as it fails ``run``.
    scenarios = [(_cell_scenario(cfg, combo, args.seed, args.order), combo)
                 for combo in _sweep_combos(cfg)]
    pre = _pretrain(scenarios[0][0], _load_checkpoint(cfg, scenarios[0][0].data))
    payloads = [(sc, pre, combo, cfg["sweep"]) for sc, combo in scenarios]
    # The pool starts all its workers at the first submit, so one per cell
    # at most.
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(p) for p in payloads]
    rows.sort(key=lambda r: r["key"])

    # Improvement columns: plain OLS minus its OLS-OFU counterpart.
    by_key = {r["key"]: r for r in rows}
    deltas, oracle_gains = [], []
    for row in rows:
        row["delta_error"] = ""
        if row["status"] != "ok" or row["ssl"] == "none":
            continue
        base = by_key.get(_combo_key({**row, "ssl": "none"}))
        if base is None or base["status"] != "ok":
            continue
        delta = base["avg_error_mean"] - row["avg_error_mean"]
        row["delta_error"] = round(delta, 6)
        if row["oracle_updated"] != "":
            deltas.append(delta)
            oracle_gains.append(row["oracle_frozen"] - row["oracle_updated"])
    coeff = ""
    if len(deltas) >= 2:
        try:
            coeff = round(pearson(oracle_gains, deltas), 4)
        except UndefinedCorrelationError:
            coeff = ""
    for row in rows:
        row["pearson_gain_vs_delta"] = coeff if row.get("delta_error", "") != "" else ""

    cells = ([row.get(c, "") for c in SWEEP_COLUMNS] for row in rows)
    _replace_atomic(out / "sweep.csv", lambda tmp: write_csv(tmp, SWEEP_COLUMNS, cells))
    ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {ok}/{len(rows)} cells ok -> {out / 'sweep.csv'}")
    return EXIT_OK if ok >= 1 else EXIT_RUNTIME


def cmd_validate(args) -> int:
    from .validate import run_checks

    results = run_checks(only=args.only)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{r.name:<{width}}  {r.value:<32} {r.threshold:<28} {status}  ({r.seconds:.1f}s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsofu",
        description=(
            "Online label shift adaptation with online feature updates: "
            "synthetic-scale simulator and validation suite."
        ),
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory (env OLSOFU_OUT overrides)")

    def add_run_options(p):
        add_common(p)
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument(
            "--order",
            choices=["predict_first", "update_first"],
            default=None,
            help="override prediction/update order",
        )

    # Pretraining reads neither the run seed nor the order.
    p_pre = sub.add_parser("pretrain", help="train the offline model and write a checkpoint")
    add_common(p_pre)
    p_run = sub.add_parser("run", help="run one online scenario; write trace and summary")
    add_run_options(p_run)
    p_sweep = sub.add_parser("sweep", help="run a grid of scenarios; write a summary CSV")
    add_run_options(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per cell (>= 1)")
    p_val = sub.add_parser("validate", help="run the acceptance checks")
    p_val.add_argument("--only", default=None,
                       help="comma-separated subset, e.g. P1,P2 (default: all)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pretrain":
            return cmd_pretrain(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except RunError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - uniform runtime exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
