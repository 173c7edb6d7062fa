"""Acceptance checks P1-P12.

Each check is a function returning a CheckResult with the measured value,
its threshold, and pass/fail. The CLI ``validate`` command prints one line
per check; the pytest acceptance module asserts each one individually.
Scenario constants live here so both entry points run identical checks.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .harness import (
    Scenario,
    improvement_check,
    oracle_trace,
    pretrain,
    ordering_bias_test,
    run_bare_ols,
    run_online,
)
from .models import (
    SslSpec,
    TrainConfig,
    calibrate_temperature,
    cross_entropy_loss_grad,
    entropy_loss_grad,
    forward,
    infonce_loss_grad,
    init_model,
    nll_at_temperature,
    rotation_loss_grad,
    with_theta,
    with_updates,
)
from .numkit import make_rng, project_simplex
from .ols import AtlasStrategy, FthStrategy, atlas_pool_size, atlas_step_pool
from .synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    bayes_error_mc,
    default_means,
    default_pattern,
    draw_class_inputs,
)


@dataclass
class CheckResult:
    name: str
    value: str
    threshold: str
    passed: bool
    seconds: float = 0.0


def _spec(k, d, sep, cov, n_train, pool, layout="axis", n_val=None):
    return DataSpec(
        k=k,
        d=d,
        class_means=default_means(k, d, sep, layout),
        class_cov_scale=cov,
        n_train=n_train,
        n_val=n_val,
        n_test_pool=pool,
    )


@lru_cache(maxsize=None)
def _pretrained(tag: str):
    """Pretraining cache shared across checks within one process."""
    sc = _scenario(tag)
    return pretrain(sc)


def _scenario(tag: str) -> Scenario:
    if tag == "p3":
        return Scenario(
            data=_spec(4, 8, 2.0, 1.0, 4000, 4000, n_val=1000),
            shift=default_pattern("constant", 4, 10),
            train_cfg=TrainConfig(epochs=30),
        )
    if tag == "p4":
        return Scenario(
            data=_spec(4, 8, 1.2, 1.0, 800, 800, n_val=200),
            shift=default_pattern("constant", 4, 10),
            train_cfg=TrainConfig(epochs=30),
        )
    if tag == "p5":
        return Scenario(
            data=_spec(3, 6, 2.2, 0.8, 6000, 3000),
            shift=default_pattern("sinusoidal", 3, 1000),
            algorithm="none",
            train_cfg=TrainConfig(epochs=60),
            shift_seed=11,
            run_seed=12,
        )
    if tag == "p7":
        return Scenario(
            data=_spec(4, 8, 1.6, 1.0, 2000, 2000),
            shift=default_pattern("sinusoidal", 4, 250),
            algorithm="flhftl",
            train_cfg=TrainConfig(epochs=30),
        )
    if tag == "p8":
        return Scenario(
            data=_spec(4, 6, 2.2, 0.5, 1600, 2000, layout="ring2d"),
            shift=default_pattern("sinusoidal", 4, 500),
            corruption=CorruptionSpec(kind="rotate2d", angle=30.0),
            algorithm="flhftl",
            ssl=SslSpec(kind="rotation", ssl_lr=0.05, ba=5),
            train_cfg=TrainConfig(epochs=30),
            pretrain_ssl="rotation",
            retrain_max_iter=80,
        )
    if tag == "p9":
        return Scenario(
            data=_spec(4, 8, 2.0, 1.0, 1500, 1500),
            shift=default_pattern("sinusoidal", 4, 200),
            train_cfg=TrainConfig(epochs=20),
        )
    raise KeyError(tag)


def check_p1() -> CheckResult:
    """Simplex projection vs a brute-force grid search on the 2-simplex."""
    rng = make_rng(1001)
    n = 1000
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = ii + jj <= n
    grid = np.stack(
        [ii[mask], jj[mask], n - ii[mask] - jj[mask]], axis=1
    ).astype(float) / n
    grid_sq = (grid * grid).sum(axis=1)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(0.3, 1.0, size=3)
        scores = grid_sq - 2.0 * (grid @ v)
        oracle = grid[int(np.argmin(scores))]
        ours = project_simplex(v)
        worst = max(worst, float(np.abs(ours - oracle).max()))
    return CheckResult(
        "P1 simplex projection vs grid oracle",
        f"max per-coord dev {worst:.2e}",
        "< 1e-3 over 100 vectors",
        worst < 1e-3,
    )


def check_p2() -> CheckResult:
    """Analytic gradients vs central finite differences, all losses."""
    rng = make_rng(2002)
    m = with_updates(init_model(6, 3, rng=rng), temperature=1.3)
    x = rng.standard_normal((8, 6))
    y = rng.integers(3, size=8)
    deg = rng.integers(4, size=8)
    x_aug = x + 0.1 * rng.standard_normal(x.shape)
    losses = {
        "cross_entropy": lambda mm: cross_entropy_loss_grad(mm, x, y),
        "entropy": lambda mm: entropy_loss_grad(mm, x),
        "rotation": lambda mm: rotation_loss_grad(mm, x, deg),
        "infonce": lambda mm: infonce_loss_grad(mm, x, x_aug, 0.07),
    }
    flat = m.views(np.arange(m.theta.size))

    def draw(index_grid):
        return int(index_grid[tuple(int(rng.integers(n)) for n in index_grid.shape)])

    # Random coordinates of both feature layers and the classification head,
    # plus the auxiliary head for rotation, which trains it.
    coords = [draw(flat.feat_weights[layer]) for _ in range(10) for layer in (0, 1)]
    coords += [draw(flat.linear_w) for _ in range(20)]
    ssl_coords = [draw(flat.ssl_w) for _ in range(20)]
    eps = 1e-5
    worst = 0.0
    for name, fn in losses.items():
        _, g = fn(m)
        for i in coords + (ssl_coords if name == "rotation" else []):
            up, down = m.theta.copy(), m.theta.copy()
            up[i] += eps
            down[i] -= eps
            fd = (fn(with_theta(m, up))[0] - fn(with_theta(m, down))[0]) / (2 * eps)
            rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
    return CheckResult(
        "P2 gradient fidelity (4 losses)",
        f"max rel err {worst:.2e}",
        "< 1e-4",
        worst < 1e-4,
    )


def check_p3() -> CheckResult:
    """Mean of the marginal estimator over 5000 fresh batches."""
    from .estimator import bbse_estimate

    sc = _scenario("p3")
    pre = _pretrained("p3")
    q = np.array([0.4, 0.3, 0.2, 0.1])
    rng = make_rng(77)
    n_batches, b = 5000, 10
    total = np.zeros(4)
    for _ in range(n_batches):
        labels = rng.choice(4, size=b, p=q)
        x = draw_class_inputs(sc.data.class_means, sc.data.class_cov_scale, labels, rng)
        total += bbse_estimate(pre.model, pre.confusion, x).s
    dev = float(np.abs(total / n_batches - q).max())
    return CheckResult(
        "P3 estimator unbiasedness (5000 batches)",
        f"Linf dev {dev:.4f}",
        "< 0.02",
        dev < 0.02,
    )


def check_p4() -> CheckResult:
    """Ordering-violation bias flags, clean ordering does not."""
    sc = _scenario("p4")
    pre = _pretrained("p4")
    q = np.array([0.4, 0.3, 0.2, 0.1])
    _, _, clean_flag = ordering_bias_test(
        pre.model, q, sc.data, pre.train,
        n_trials=2000, batch_size=10, violate_order=False, rng=make_rng(55),
    )
    bias, stderr, violate_flag = ordering_bias_test(
        pre.model, q, sc.data, pre.train,
        n_trials=1000, batch_size=10, violate_order=True, rng=make_rng(56),
    )
    zmax = float(np.abs(bias / stderr).max())
    return CheckResult(
        "P4 ordering-violation bias flag",
        f"clean flagged={clean_flag}, violate flagged={violate_flag} (|z|max {zmax:.1f})",
        "clean: no flag; violate: flag",
        (not clean_flag) and violate_flag,
    )


def check_p5() -> CheckResult:
    """True-marginal oracle error vs Monte-Carlo Bayes error."""
    sc = _scenario("p5")
    pre = _pretrained("p5")
    trace = oracle_trace(sc, frozen=True, pretrained=pre)
    uniq, counts = np.unique(np.round(trace.q, 12), axis=0, return_counts=True)
    rng = make_rng(999)
    per_q = 500_000 // len(uniq)
    bayes = np.array([
        bayes_error_mc(sc.data.class_means, sc.data.class_cov_scale, u, per_q, rng)
        for u in uniq
    ])
    bayes_avg = float((bayes * counts).sum() / counts.sum())
    gap = abs(trace.avg_error - bayes_avg)
    return CheckResult(
        "P5 oracle reweighting vs Bayes oracle",
        f"trace {trace.avg_error:.4f} vs bayes {bayes_avg:.4f} (gap {gap:.4f})",
        "absolute gap < 0.01",
        gap < 0.01,
    )


def check_p6() -> CheckResult:
    """Incremental running mean vs recomputation from scratch."""
    from .estimator import MarginalEstimate

    rng = make_rng(606)
    k = 5
    strat = FthStrategy(np.full(k, 1.0 / k))
    history = []
    worst = 0.0
    for _ in range(1000):
        s = project_simplex(rng.normal(size=k))
        history.append(s)
        strat.step(None, MarginalEstimate(s, s))
        brute = np.mean(history, axis=0)
        worst = max(worst, float(np.abs(strat.reweight_vector() - brute).max()))
    return CheckResult(
        "P6 running-mean exactness (t <= 1000)",
        f"max dev {worst:.2e}",
        "<= 1e-12",
        worst <= 1e-12,
    )


def check_p7() -> CheckResult:
    """Regret against the frozen oracle decays from T=250 to T=2000."""
    base = _scenario("p7")
    pre = _pretrained("p7")
    medians = {}
    for horizon in (250, 2000):
        regrets = []
        for seed in range(5):
            sc = dataclasses.replace(
                base,
                shift=default_pattern("sinusoidal", 4, horizon),
                shift_seed=300 + seed,
                run_seed=1300 + seed,
            )
            algo = run_online(sc, pre)
            oracle = oracle_trace(sc, frozen=True, pretrained=pre)
            regrets.append(algo.avg_error - oracle.avg_error)
        medians[horizon] = float(np.median(regrets))
    return CheckResult(
        "P7 regret decay (flhftl, sinusoidal)",
        f"median R(250)={medians[250]:.4f}, R(2000)={medians[2000]:.4f}",
        "R(2000) < R(250)",
        medians[2000] < medians[250],
    )


def check_p8() -> CheckResult:
    """Feature updates help under rotation corruption (directional)."""
    base = _scenario("p8")
    pre = _pretrained("p8")
    oracle_wins = 0
    err_wins = 0
    for seed in range(5):
        sc = dataclasses.replace(base, shift_seed=100 + seed, run_seed=200 + seed)
        _, _, holds = improvement_check(sc, pre)
        ols = run_bare_ols(
            dataclasses.replace(sc, ssl=SslSpec(kind="none")), pre
        )
        ofu = run_online(sc, pre)
        oracle_wins += holds
        err_wins += ofu.avg_error < ols.avg_error
    return CheckResult(
        "P8 feature-update improvement (rotate2d 30)",
        f"oracle improvement {oracle_wins}/5, error {err_wins}/5 seeds",
        ">= 4/5 on both",
        oracle_wins >= 4 and err_wins >= 4,
    )


def check_p9() -> CheckResult:
    """ssl=none wrapper trace equals the bare adaptation trace, bit for bit."""
    base = _scenario("p9")
    pre = _pretrained("p9")
    mismatched = []
    for algo in ("fth", "ftfwh", "rogd", "flhftl", "uogd", "atlas"):
        sc = dataclasses.replace(base, algorithm=algo)
        wrapper = run_online(sc, pre)
        bare = run_bare_ols(sc, pre)
        same = (
            np.array_equal(wrapper.q, bare.q)
            and np.array_equal(wrapper.s, bare.s)
            and np.array_equal(wrapper.errors, bare.errors)
            and all(
                np.array_equal(a, b)
                for a, b in zip(wrapper.snapshots, bare.snapshots)
            )
        )
        if not same:
            mismatched.append(algo)
    return CheckResult(
        "P9 wrapper degeneracy (ssl=none, 6 algorithms)",
        "bit-identical" if not mismatched else f"mismatch: {mismatched}",
        "all traces identical",
        not mismatched,
    )


def check_p10() -> CheckResult:
    """Step-size pool size and initial meta weights for T=1000."""
    n = atlas_pool_size(1000)
    rng = make_rng(10)
    f0 = init_model(6, 4, rng=rng)
    strat = AtlasStrategy(f0, atlas_step_pool(1000, 4, 0.7), eps=0.1)
    weights_ok = bool(np.all(strat.meta == 1.0 / 7.0)) and strat.heads.shape[0] == n
    return CheckResult(
        "P10 atlas pool formula (T=1000)",
        f"N={n}, initial weights uniform={weights_ok}",
        "N == 7 and weights == 1/7",
        n == 7 and weights_ok,
    )


def check_p11() -> CheckResult:
    """Calibration never increases validation NLL vs temperature 1."""
    rng = make_rng(1111)
    worst = -np.inf
    for _ in range(20):
        m = init_model(5, 4, rng=rng)
        scale = float(rng.uniform(0.3, 6.0))
        m = with_updates(m, linear_w=m.linear_w * scale, linear_b=m.linear_b * scale)
        val = LabeledSet(
            rng.standard_normal((200, 5)), rng.integers(4, size=200)
        )
        calibrated = calibrate_temperature(m, val)
        _, _, logits = forward(m, val.inputs)
        delta = nll_at_temperature(logits, val.labels, calibrated.temperature) - \
            nll_at_temperature(logits, val.labels, 1.0)
        worst = max(worst, delta)
    return CheckResult(
        "P11 calibration monotonicity (20 models)",
        f"max NLL increase {worst:.2e}",
        "<= 1e-12",
        worst <= 1e-12,
    )


P12_CONFIG = {
    "data": {"k": 4, "d": 8, "n_train": 800, "n_test_pool": 800},
    "shift": {"kind": "sinusoidal", "horizon": 120},
    "algorithm": "fth",
    "train": {"epochs": 10},
}


def check_p12() -> CheckResult:
    """Two identical runs produce byte-identical trace CSVs."""
    import contextlib
    import io

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(P12_CONFIG))
        outputs = []
        for name in ("a", "b"):
            out = tmp / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(
                    ["run", "--config", str(cfg_path), "--out", str(out)]
                )
            if code != 0:
                return CheckResult(
                    "P12 determinism (cmd_run twice)",
                    f"run exited with {code}",
                    "byte-identical trace CSVs",
                    False,
                )
            outputs.append((out / "trace.csv").read_bytes())
        same = outputs[0] == outputs[1]
    return CheckResult(
        "P12 determinism (cmd_run twice)",
        "byte-identical" if same else "traces differ",
        "byte-identical trace CSVs",
        same,
    )


ALL_CHECKS = {
    "P1": check_p1,
    "P2": check_p2,
    "P3": check_p3,
    "P4": check_p4,
    "P5": check_p5,
    "P6": check_p6,
    "P7": check_p7,
    "P8": check_p8,
    "P9": check_p9,
    "P10": check_p10,
    "P11": check_p11,
    "P12": check_p12,
}


def run_single(name: str) -> CheckResult:
    start = time.perf_counter()
    result = ALL_CHECKS[name]()
    result.seconds = time.perf_counter() - start
    return result


def run_checks(only: str | None = None) -> list[CheckResult]:
    names = list(ALL_CHECKS)
    if only is not None:
        wanted = [n.strip().upper() for n in only.split(",") if n.strip()]
        unknown = [n for n in wanted if n not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"--only names unknown checks {unknown}; known: {names}")
        if not wanted:
            raise ConfigError(f"--only {only!r} selects no checks")
        names = [n for n in names if n in wanted]
    return [run_single(n) for n in names]
