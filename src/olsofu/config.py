"""JSON configuration loading for the CLI.

Configs mirror the Scenario plus training settings and output options.
Validation is strict: unknown keys are rejected at every level and every
default is made explicit after loading, so a resolved config is a complete
record of the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .harness import Scenario
from .models import TrainConfig
from .ofu import SSL_KINDS, SslSpec
from .ols import ALGORITHMS, AlgoParams
from .synthdata import (
    CORRUPTION_KINDS,
    SHIFT_KINDS,
    CorruptionSpec,
    DataSpec,
    ShiftPattern,
    default_means,
    one_hot,
    uniform_simplex,
)


@dataclass(frozen=True)
class Key:
    """One config key: default value, validator tag, help text."""

    default: object
    kind: str  # int | num | bool | str | enum:<a|b> | simplex | intlist | path
    help: str
    minimum: float | None = None
    maximum: float | None = None
    nullable: bool = False


SCHEMA: dict = {
    "data": {
        "k": Key(4, "int", "number of classes", minimum=2),
        "d": Key(8, "int", "input dimension", minimum=2),
        "class_sep": Key(2.0, "num", "distance scale of the class means", minimum=0),
        "mean_layout": Key("axis", "enum:axis|ring2d", "class mean geometry"),
        "cov_scale": Key(1.0, "num", "isotropic class covariance scale", minimum=0),
        "n_train": Key(2000, "int", "train set size", minimum=1),
        "n_val": Key(None, "int", "validation size (default: n_train / 4)",
                     minimum=1, nullable=True),
        "n_test_pool": Key(2000, "int", "stratified test pool size", minimum=1),
    },
    "shift": {
        "kind": Key("sinusoidal", "enum:" + "|".join(SHIFT_KINDS), "marginal process"),
        "horizon": Key(1000, "int", "number of online steps T", minimum=1),
        "q": Key(None, "simplex", "first marginal endpoint (default: uniform)",
                 nullable=True),
        "q_prime": Key(None, "simplex",
                       "second marginal endpoint (default: one-hot on class 0)",
                       nullable=True),
        "switch_prob": Key(None, "num",
                           "bernoulli switch probability (default: 1 - 1/sqrt(T))",
                           minimum=0, nullable=True),
    },
    "corruption": {
        "kind": Key("none", "enum:" + "|".join(CORRUPTION_KINDS), "test-input corruption"),
        "severity": Key(0.0, "num", "corruption severity", minimum=0),
        "angle": Key(0.0, "num", "rotation angle in degrees (rotate2d)"),
    },
    "algorithm": Key("flhftl", "enum:" + "|".join(ALGORITHMS), "adaptation algorithm"),
    "ssl": {
        "kind": Key("none", "enum:" + "|".join(SSL_KINDS), "self-supervised loss"),
        "ssl_lr": Key(0.01, "num", "feature-update step size", minimum=0),
        "ba": Key(None, "int",
                  "batch-accumulation period (default: 50 for infonce, else 1)",
                  minimum=1, nullable=True),
        "inner_steps": Key(1, "int", "gradient steps per feature update", minimum=1),
        "infonce_temperature": Key(0.07, "num", "InfoNCE similarity temperature",
                                   minimum=1e-12),
        "augment_noise": Key(0.1, "num", "InfoNCE augmentation noise", minimum=0),
    },
    "train": {
        "epochs": Key(40, "int", "pretraining epochs", minimum=1),
        "batch_size": Key(64, "int", "pretraining batch size", minimum=1),
        "learning_rate": Key(0.1, "num", "SGD learning rate", minimum=1e-12),
        "momentum": Key(0.9, "num", "SGD momentum", minimum=0),
        "weight_decay": Key(0.0001, "num", "SGD weight decay", minimum=0),
        "seed": Key(4242, "int", "pretraining seed"),
    },
    "pretrain_ssl": Key("none", "enum:" + "|".join(SSL_KINDS),
                        "SSL loss co-trained during pretraining"),
    "pretrain_ssl_weight": Key(1.0, "num", "weight of the pretraining SSL loss",
                               minimum=0),
    "batch_size": Key(10, "int", "online batch size B", minimum=1),
    "order": Key("predict_first", "enum:predict_first|update_first",
                 "predict before or after adapting each step"),
    "seeds": {
        "data": Key(1, "int", "source data seed"),
        "shift": Key(2, "int", "shift process and batch sampling seed"),
        "run": Key(8610, "int", "algorithm-side randomness seed"),
    },
    "algo": {
        "eta": Key(None, "num", "rogd/uogd step size (default: documented formula)",
                   minimum=0, nullable=True),
        "window": Key(100, "int", "ftfwh window", minimum=1),
        "flh_eta": Key(None, "num", "flhftl expert-weight rate (default: K/2)",
                       minimum=0, nullable=True),
        "flh_max_experts": Key(200, "int", "flhftl expert cap", minimum=1),
        "meta_eps": Key(None, "num", "atlas meta rate (default: sqrt(8/T))",
                        minimum=0, nullable=True),
        "radius": Key(100.0, "num", "uogd/atlas head norm-ball radius", minimum=1e-12),
        "warmup": Key(50, "int", "rogd gradient-norm estimation steps", minimum=1),
    },
    "reg_lambda": Key(0.01, "num", "confusion regularization toward identity",
                      minimum=0, maximum=1),
    "hidden": Key([32, 32], "intlist", "hidden layer widths"),
    "activation": Key("tanh", "enum:tanh|relu", "hidden activation"),
    "retrain_max_iter": Key(500, "int", "head retrain iteration cap", minimum=1),
    "improvement_check": Key(False, "bool", "also run the feature-update improvement check"),
    "checkpoint": Key(None, "path", "pretrained checkpoint to load (skips training)",
                      nullable=True),
    "sweep": {
        "algorithm": Key(["flhftl"], "strlist", "algorithms to sweep"),
        "ssl": Key(["none"], "strlist", "ssl kinds to sweep"),
        "shift": Key(["sinusoidal"], "strlist", "shift kinds to sweep"),
        "corruption": Key(["none"], "strlist", "corruption kinds to sweep"),
        "replicates": Key(5, "int", "seeds per cell (mean and std reported)", minimum=1),
        "improvement_check": Key(False, "bool",
                         "run the oracle improvement check per ssl != none cell"),
    },
}


def _check_value(path: str, key: Key, value):
    if value is None:
        if key.nullable:
            return None
        raise ConfigError(f"{path}: null is not allowed")
    kind = key.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif kind == "num":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not np.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
    elif kind == "str" or kind == "path":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
    elif kind.startswith("enum:"):
        allowed = kind[5:].split("|")
        if value not in allowed:
            raise ConfigError(f"{path}: {value!r} not in {allowed}")
    elif kind == "simplex":
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of numbers")
        arr = np.asarray(value, dtype=float)
        if np.any(arr < 0) or abs(arr.sum() - 1.0) > 1e-9:
            raise ConfigError(f"{path}: must be a probability vector")
    elif kind == "intlist":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
        ):
            raise ConfigError(f"{path}: expected a nonempty list of positive integers")
    elif kind == "strlist":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, str) for v in value
        ):
            raise ConfigError(f"{path}: expected a nonempty list of strings")
    if key.minimum is not None and kind in ("int", "num") and value < key.minimum:
        raise ConfigError(f"{path}: must be >= {key.minimum}")
    if key.maximum is not None and kind in ("int", "num") and value > key.maximum:
        raise ConfigError(f"{path}: must be <= {key.maximum}")
    return value


def _resolve_level(schema: dict, doc: dict, prefix: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix or 'config'}: expected an object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(
            f"{prefix or 'config'}: unknown key(s) {sorted(unknown)}"
        )
    out = {}
    for name, spec in schema.items():
        path = f"{prefix}.{name}" if prefix else name
        if isinstance(spec, dict):
            out[name] = _resolve_level(spec, doc.get(name, {}), path)
        else:
            value = doc.get(name, spec.default)
            out[name] = _check_value(path, spec, value)
    return out


def resolve_config(doc: dict) -> dict:
    """Validate a raw JSON document and fill in every default."""
    cfg = _resolve_level(SCHEMA, doc, "")
    if cfg["data"]["mean_layout"] == "axis" and cfg["data"]["k"] > cfg["data"]["d"]:
        raise ConfigError("data: axis layout requires d >= k")
    for field in ("q", "q_prime"):
        v = cfg["shift"][field]
        if v is not None and len(v) != cfg["data"]["k"]:
            raise ConfigError(f"shift.{field}: length must equal data.k")
    if cfg["ssl"]["ba"] is None:
        cfg["ssl"]["ba"] = 50 if cfg["ssl"]["kind"] == "infonce" else 1
    if cfg["ssl"]["kind"] == "infonce" and cfg["batch_size"] * cfg["ssl"]["ba"] < 2:
        raise ConfigError("ssl: infonce needs batch_size * ssl.ba >= 2 inputs per update")
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(doc)


def scenario_from_config(cfg: dict, run_seed: int | None = None,
                         order: str | None = None) -> Scenario:
    """Build the Scenario a resolved config describes."""
    d = cfg["data"]
    data = DataSpec(
        k=d["k"],
        d=d["d"],
        class_means=default_means(d["k"], d["d"], d["class_sep"], d["mean_layout"]),
        class_cov_scale=d["cov_scale"],
        n_train=d["n_train"],
        n_val=d["n_val"],
        n_test_pool=d["n_test_pool"],
    )
    s = cfg["shift"]
    q = np.asarray(s["q"], dtype=float) if s["q"] is not None else uniform_simplex(d["k"])
    q_prime = (
        np.asarray(s["q_prime"], dtype=float)
        if s["q_prime"] is not None
        else one_hot(d["k"], 0)
    )
    shift = ShiftPattern(s["kind"], q, q_prime, s["horizon"], s["switch_prob"])
    c = cfg["corruption"]
    corruption = CorruptionSpec(c["kind"], c["severity"], c["angle"])
    ssl = SslSpec(
        kind=cfg["ssl"]["kind"],
        ssl_lr=cfg["ssl"]["ssl_lr"],
        ba=cfg["ssl"]["ba"],
        inner_steps=cfg["ssl"]["inner_steps"],
        infonce_temperature=cfg["ssl"]["infonce_temperature"],
        augment_noise=cfg["ssl"]["augment_noise"],
    )
    t = cfg["train"]
    train_cfg = TrainConfig(
        epochs=t["epochs"],
        batch_size=t["batch_size"],
        learning_rate=t["learning_rate"],
        momentum=t["momentum"],
        weight_decay=t["weight_decay"],
        seed=t["seed"],
    )
    a = cfg["algo"]
    algo_params = AlgoParams(
        eta=a["eta"],
        window=a["window"],
        flh_eta=a["flh_eta"],
        flh_max_experts=a["flh_max_experts"],
        meta_eps=a["meta_eps"],
        radius=a["radius"],
        warmup=a["warmup"],
    )
    return Scenario(
        data=data,
        shift=shift,
        corruption=corruption,
        algorithm=cfg["algorithm"],
        ssl=ssl,
        batch_size=cfg["batch_size"],
        order=order if order is not None else cfg["order"],
        data_seed=cfg["seeds"]["data"],
        shift_seed=cfg["seeds"]["shift"],
        run_seed=run_seed if run_seed is not None else cfg["seeds"]["run"],
        train_cfg=train_cfg,
        pretrain_ssl=cfg["pretrain_ssl"],
        pretrain_ssl_weight=cfg["pretrain_ssl_weight"],
        algo_params=algo_params,
        reg_lambda=cfg["reg_lambda"],
        hidden=tuple(cfg["hidden"]),
        activation=cfg["activation"],
        retrain_max_iter=cfg["retrain_max_iter"],
    )


def iter_schema_keys(schema: dict | None = None, prefix: str = ""):
    """Yield (dotted key, Key) pairs; used for --help and docs."""
    schema = SCHEMA if schema is None else schema
    for name, spec in schema.items():
        path = f"{prefix}.{name}" if prefix else name
        if isinstance(spec, dict):
            yield from iter_schema_keys(spec, path)
        else:
            yield path, spec
