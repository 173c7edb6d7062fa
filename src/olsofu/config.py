"""JSON configuration loading for the CLI.

Configs mirror the Scenario plus training settings and output options.
Validation is strict: unknown keys are rejected at every level and every
default is made explicit after loading, so a resolved config is a complete
record of the run.

The schema checks types only. Ranges are checked by the dataclasses the
values go into (``Scenario``, ``DataSpec``, ``AlgoParams``, ...), and
``scenario_from_config`` reports their errors under the dotted config key.
The schema reads each key's default from the dataclass field that holds
it; only the keys no dataclass holds have literal defaults here.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .harness import ORDERS, Scenario
from .models import SSL_KINDS, SslSpec, TrainConfig
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
        "cov_scale": Key(DataSpec.class_cov_scale, "num",
                         "isotropic class covariance scale"),
        "n_train": Key(DataSpec.n_train, "int", "train set size"),
        "n_val": Key(DataSpec.n_val, "int", "validation size (default: n_train / 4)",
                     nullable=True),
        "n_test_pool": Key(DataSpec.n_test_pool, "int", "stratified test pool size"),
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
        "kind": Key(CorruptionSpec.kind, "enum:" + "|".join(CORRUPTION_KINDS),
                    "test-input corruption"),
        "severity": Key(CorruptionSpec.severity, "num", "corruption severity"),
        "angle": Key(CorruptionSpec.angle, "num", "rotation angle in degrees (rotate2d)"),
    },
    "algorithm": Key(Scenario.algorithm, "enum:" + "|".join(ALGORITHMS),
                     "adaptation algorithm"),
    "ssl": {
        "kind": Key(SslSpec.kind, "enum:" + "|".join(SSL_KINDS), "self-supervised loss"),
        "ssl_lr": Key(SslSpec.ssl_lr, "num", "feature-update step size"),
        "ba": Key(SslSpec.ba, "int",
                  "batch-accumulation period (default: 50 for infonce, else 1)",
                  nullable=True),
        "inner_steps": Key(SslSpec.inner_steps, "int", "gradient steps per feature update"),
        "infonce_temperature": Key(SslSpec.infonce_temperature, "num",
                                   "InfoNCE similarity temperature"),
        "augment_noise": Key(SslSpec.augment_noise, "num", "InfoNCE augmentation noise"),
    },
    "train": {
        "epochs": Key(TrainConfig.epochs, "int", "pretraining epochs"),
        "batch_size": Key(TrainConfig.batch_size, "int", "pretraining batch size"),
        "learning_rate": Key(TrainConfig.learning_rate, "num", "SGD learning rate"),
        "momentum": Key(TrainConfig.momentum, "num", "SGD momentum"),
        "weight_decay": Key(TrainConfig.weight_decay, "num", "SGD weight decay"),
        "seed": Key(TrainConfig.seed, "int", "pretraining seed"),
    },
    "pretrain_ssl": Key(Scenario.pretrain_ssl, "enum:" + "|".join(SSL_KINDS),
                        "SSL loss co-trained during pretraining"),
    "pretrain_ssl_weight": Key(Scenario.pretrain_ssl_weight, "num",
                               "weight of the pretraining SSL loss"),
    "batch_size": Key(Scenario.batch_size, "int", "online batch size B"),
    "order": Key(Scenario.order, "enum:" + "|".join(ORDERS),
                 "predict before or after adapting each step"),
    "seeds": {
        "data": Key(Scenario.data_seed, "int", "source data seed"),
        "shift": Key(Scenario.shift_seed, "int", "shift process and batch sampling seed"),
        "run": Key(Scenario.run_seed, "int", "algorithm-side randomness seed"),
    },
    "algo": {
        "eta": Key(AlgoParams.eta, "num",
                   "rogd/uogd step size (default: documented formula)", nullable=True),
        "window": Key(AlgoParams.window, "int", "ftfwh window"),
        "flh_eta": Key(AlgoParams.flh_eta, "num",
                       "flhftl expert-weight rate (default: K/2)", nullable=True),
        "meta_eps": Key(AlgoParams.meta_eps, "num", "atlas meta rate (default: sqrt(8/T))",
                        nullable=True),
        "radius": Key(AlgoParams.radius, "num", "uogd/atlas head norm-ball radius"),
        "warmup": Key(AlgoParams.warmup, "int", "rogd gradient-norm estimation steps"),
    },
    "reg_lambda": Key(Scenario.reg_lambda, "num", "confusion regularization toward identity"),
    "hidden": Key(list(Scenario.hidden), "intlist", "hidden layer widths"),
    "activation": Key(Scenario.activation, "enum:tanh|relu", "hidden activation"),
    "retrain_max_iter": Key(Scenario.retrain_max_iter, "int",
                            "head retrain Newton iteration cap"),
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
def config_keys(prefix: str, **renames):
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
    with config_keys("data.", sep="class_sep", layout="mean_layout",
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
    with config_keys("shift."):
        shift = ShiftPattern(s["kind"], q, q_prime, s["horizon"], s["switch_prob"])
    # These sections' keys are their dataclass's field names.
    with config_keys("corruption."):
        corruption = CorruptionSpec(**cfg["corruption"])
    with config_keys("ssl."):
        ssl = SslSpec(**cfg["ssl"])
    with config_keys("train."):
        train_cfg = TrainConfig(**cfg["train"])
    with config_keys("algo."):
        algo_params = AlgoParams(**cfg["algo"])
    with config_keys("", data_seed="seeds.data", shift_seed="seeds.shift",
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
