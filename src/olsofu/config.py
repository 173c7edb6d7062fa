"""JSON configuration loading for the CLI.

Configs mirror the Scenario plus training settings and output options.
Validation is strict: unknown keys are rejected at every level and every
default is made explicit after loading, so a resolved config is a complete
record of the run.

The schema checks types only. Ranges are checked by the dataclasses the
values go into (``Scenario``, ``DataSpec``, ``AlgoParams``, ...), and
``scenario_from_config`` reports their errors under the dotted config key.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .harness import ORDERS, Scenario
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
    """One config key: default value, type tag, help text."""

    default: object
    kind: str  # int | num | bool | path | enum:<a|b> | enumlist:<a|b> | numlist | intlist
    help: str
    nullable: bool = False


SCHEMA: dict = {
    "data": {
        "k": Key(4, "int", "number of classes"),
        "d": Key(8, "int", "input dimension"),
        "class_sep": Key(2.0, "num", "distance scale of the class means"),
        "mean_layout": Key("axis", "enum:axis|ring2d", "class mean geometry"),
        "cov_scale": Key(1.0, "num", "isotropic class covariance scale"),
        "n_train": Key(2000, "int", "train set size"),
        "n_val": Key(None, "int", "validation size (default: n_train / 4)",
                     nullable=True),
        "n_test_pool": Key(2000, "int", "stratified test pool size"),
    },
    "shift": {
        "kind": Key("sinusoidal", "enum:" + "|".join(SHIFT_KINDS), "marginal process"),
        "horizon": Key(1000, "int", "number of online steps T"),
        "q": Key(None, "numlist", "first marginal endpoint (default: uniform)",
                 nullable=True),
        "q_prime": Key(None, "numlist",
                       "second marginal endpoint (default: one-hot on class 0)",
                       nullable=True),
        "switch_prob": Key(None, "num",
                           "bernoulli switch probability (default: 1 - 1/sqrt(T))",
                           nullable=True),
    },
    "corruption": {
        "kind": Key("none", "enum:" + "|".join(CORRUPTION_KINDS), "test-input corruption"),
        "severity": Key(0.0, "num", "corruption severity"),
        "angle": Key(0.0, "num", "rotation angle in degrees (rotate2d)"),
    },
    "algorithm": Key("flhftl", "enum:" + "|".join(ALGORITHMS), "adaptation algorithm"),
    "ssl": {
        "kind": Key("none", "enum:" + "|".join(SSL_KINDS), "self-supervised loss"),
        "ssl_lr": Key(0.01, "num", "feature-update step size"),
        "ba": Key(None, "int",
                  "batch-accumulation period (default: 50 for infonce, else 1)",
                  nullable=True),
        "inner_steps": Key(1, "int", "gradient steps per feature update"),
        "infonce_temperature": Key(0.07, "num", "InfoNCE similarity temperature"),
        "augment_noise": Key(0.1, "num", "InfoNCE augmentation noise"),
    },
    "train": {
        "epochs": Key(40, "int", "pretraining epochs"),
        "batch_size": Key(64, "int", "pretraining batch size"),
        "learning_rate": Key(0.1, "num", "SGD learning rate"),
        "momentum": Key(0.9, "num", "SGD momentum"),
        "weight_decay": Key(0.0001, "num", "SGD weight decay"),
        "seed": Key(4242, "int", "pretraining seed"),
    },
    "pretrain_ssl": Key("none", "enum:" + "|".join(SSL_KINDS),
                        "SSL loss co-trained during pretraining"),
    "pretrain_ssl_weight": Key(1.0, "num", "weight of the pretraining SSL loss"),
    "batch_size": Key(10, "int", "online batch size B"),
    "order": Key("predict_first", "enum:" + "|".join(ORDERS),
                 "predict before or after adapting each step"),
    "seeds": {
        "data": Key(1, "int", "source data seed"),
        "shift": Key(2, "int", "shift process and batch sampling seed"),
        "run": Key(8610, "int", "algorithm-side randomness seed"),
    },
    "algo": {
        "eta": Key(None, "num", "rogd/uogd step size (default: documented formula)",
                   nullable=True),
        "window": Key(100, "int", "ftfwh window"),
        "flh_eta": Key(None, "num", "flhftl expert-weight rate (default: K/2)",
                       nullable=True),
        "flh_max_experts": Key(200, "int", "flhftl expert cap"),
        "meta_eps": Key(None, "num", "atlas meta rate (default: sqrt(8/T))",
                        nullable=True),
        "radius": Key(100.0, "num", "uogd/atlas head norm-ball radius"),
        "warmup": Key(50, "int", "rogd gradient-norm estimation steps"),
    },
    "reg_lambda": Key(0.01, "num", "confusion regularization toward identity"),
    "hidden": Key([32, 32], "intlist", "hidden layer widths"),
    "activation": Key("tanh", "enum:tanh|relu", "hidden activation"),
    "retrain_max_iter": Key(500, "int", "head retrain Newton iteration cap"),
    "improvement_check": Key(False, "bool", "also run the feature-update improvement check"),
    "checkpoint": Key(None, "path", "pretrained checkpoint to load (skips training)",
                      nullable=True),
    "sweep": {
        "algorithm": Key(["flhftl"], "enumlist:" + "|".join(ALGORITHMS),
                         "algorithms to sweep"),
        "ssl": Key(["none"], "enumlist:" + "|".join(SSL_KINDS), "ssl kinds to sweep"),
        "shift": Key(["sinusoidal"], "enumlist:" + "|".join(SHIFT_KINDS),
                     "shift kinds to sweep"),
        "corruption": Key(["none"], "enumlist:" + "|".join(CORRUPTION_KINDS),
                          "corruption kinds to sweep"),
        "replicates": Key(5, "int", "seeds per cell (mean and std reported)"),
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
    elif kind == "path":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
    elif kind.startswith("enum:"):
        allowed = kind[5:].split("|")
        if value not in allowed:
            raise ConfigError(f"{path}: {value!r} not in {allowed}")
    elif kind.startswith("enumlist:"):
        allowed = kind[9:].split("|")
        if not isinstance(value, list) or not value or not all(v in allowed for v in value):
            raise ConfigError(f"{path}: expected a nonempty list drawn from {allowed}")
    elif kind == "numlist":
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected a list of numbers")
    elif kind == "intlist":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected a nonempty list of integers")
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
    """Validate a raw JSON document and fill in every default; building the
    Scenario once checks every range."""
    cfg = _resolve_level(SCHEMA, doc, "")
    # No dataclass holds the sweep settings, so their one range lives here.
    if cfg["sweep"]["replicates"] < 1:
        raise ConfigError("sweep.replicates must be >= 1")
    cfg["ssl"]["ba"] = scenario_from_config(cfg).ssl.ba
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


@contextmanager
def _keys(prefix: str, **renames):
    """Re-raise an InvalidArgumentError as a ConfigError naming the config key
    of its field: ``prefix`` plus the field name or its entry in ``renames``."""
    try:
        yield
    except InvalidArgumentError as exc:
        if exc.field is None:
            raise ConfigError(str(exc)) from exc
        key = prefix + renames.get(exc.field, exc.field)
        raise ConfigError(key + str(exc)[len(exc.field):]) from exc


def scenario_from_config(cfg: dict, run_seed: int | None = None,
                         order: str | None = None) -> Scenario:
    """Build the Scenario a resolved config describes; ``run_seed`` and
    ``order`` override ``seeds.run`` and ``order``."""
    d = cfg["data"]
    with _keys("data.", sep="class_sep", layout="mean_layout",
               class_cov_scale="cov_scale"):
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
    q = s["q"] if s["q"] is not None else uniform_simplex(d["k"])
    q_prime = s["q_prime"] if s["q_prime"] is not None else one_hot(d["k"], 0)
    with _keys("shift."):
        shift = ShiftPattern(s["kind"], q, q_prime, s["horizon"], s["switch_prob"])
    c = cfg["corruption"]
    with _keys("corruption."):
        corruption = CorruptionSpec(c["kind"], c["severity"], c["angle"])
    ssl_cfg = cfg["ssl"]
    ba = ssl_cfg["ba"]
    if ba is None:
        ba = 50 if ssl_cfg["kind"] == "infonce" else 1
    with _keys("ssl."):
        ssl = SslSpec(
            kind=ssl_cfg["kind"],
            ssl_lr=ssl_cfg["ssl_lr"],
            ba=ba,
            inner_steps=ssl_cfg["inner_steps"],
            infonce_temperature=ssl_cfg["infonce_temperature"],
            augment_noise=ssl_cfg["augment_noise"],
        )
    t = cfg["train"]
    with _keys("train."):
        train_cfg = TrainConfig(
            epochs=t["epochs"],
            batch_size=t["batch_size"],
            learning_rate=t["learning_rate"],
            momentum=t["momentum"],
            weight_decay=t["weight_decay"],
            seed=t["seed"],
        )
    a = cfg["algo"]
    with _keys("algo."):
        algo_params = AlgoParams(
            eta=a["eta"],
            window=a["window"],
            flh_eta=a["flh_eta"],
            flh_max_experts=a["flh_max_experts"],
            meta_eps=a["meta_eps"],
            radius=a["radius"],
            warmup=a["warmup"],
        )
    with _keys("", data_seed="seeds.data", shift_seed="seeds.shift",
               run_seed="seeds.run"):
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
