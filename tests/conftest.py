import numpy as np
import pytest
from hypothesis import settings

from olsofu.harness import Scenario, pretrain
from olsofu.models import TrainConfig
from olsofu.synthdata import DataSpec, default_means, default_pattern

settings.register_profile("repeatable", deadline=None, derandomize=True)
settings.load_profile("repeatable")


def reference_marginals(pattern, rng) -> np.ndarray:
    """The (T, K) marginal path step by step, sharing no code with
    ``synthdata.marginal_path``: one scalar alpha per step from its
    formula, and for a bernoulli pattern one ``rng.random()`` per step
    after the first, flipping the bit when it falls below the switch
    probability."""
    horizon = pattern.horizon
    p = 1.0 - 1.0 / np.sqrt(horizon) if pattern.switch_prob is None else pattern.switch_prob
    rows, bit = [], 0.0
    for t in range(1, horizon + 1):
        if pattern.kind == "constant":
            alpha = 1.0
        elif pattern.kind == "monotone":
            alpha = 1.0 if horizon == 1 else (t - 1) / (horizon - 1)
        elif pattern.kind == "sinusoidal":
            period = max(1, round(np.sqrt(horizon)))
            alpha = np.sin(np.pi * (t % period) / period)
        else:
            if t > 1 and rng.random() < p:
                bit = 1.0 - bit
            alpha = bit
        rows.append(alpha * pattern.q + (1.0 - alpha) * pattern.q_prime)
    return np.array(rows)


@pytest.fixture(scope="session")
def small_scenario() -> Scenario:
    """A cheap but realistic 4-class scenario shared across test modules."""
    data = DataSpec(
        k=4,
        d=8,
        class_means=default_means(4, 8, 2.0),
        class_cov_scale=1.0,
        n_train=1200,
        n_test_pool=1200,
    )
    return Scenario(
        data=data,
        shift=default_pattern("sinusoidal", 4, 150),
        train_cfg=TrainConfig(epochs=20),
    )


@pytest.fixture(scope="session")
def small_pretrained(small_scenario):
    return pretrain(small_scenario)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
