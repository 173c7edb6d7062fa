import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsofu.errors import DataExhaustedError, InvalidArgumentError
from olsofu.numkit import is_simplex, make_rng
from olsofu.synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    bayes_error_mc,
    corrupt,
    default_means,
    default_pattern,
    default_switch_prob,
    make_source_data,
    marginal_at,
    marginal_path,
    path_length,
    realize_pattern,
    sample_batch,
)


def spec(k=4, d=8, sep=2.0, cov=1.0, n_train=2000, n_val=None, pool=2000):
    return DataSpec(
        k=k,
        d=d,
        class_means=default_means(k, d, sep),
        class_cov_scale=cov,
        n_train=n_train,
        n_val=n_val,
        n_test_pool=pool,
    )


class TestShiftPatterns:
    def test_sinusoidal_endpoints(self):
        pat = default_pattern("sinusoidal", 4, 1000)
        period = round(np.sqrt(1000))
        # i = t mod L: i = 0 gives q', i = L/2 gives q
        np.testing.assert_allclose(marginal_at(pat, period), pat.q_prime, atol=1e-12)
        np.testing.assert_allclose(
            marginal_at(pat, period + period // 2), pat.q, atol=1e-12
        )

    def test_bernoulli_default_switch_probability(self):
        # T=1000: 1 - 1/sqrt(1000)
        assert default_switch_prob(1000) == pytest.approx(0.96838, abs=1e-5)
        pat = realize_pattern(default_pattern("bernoulli", 3, 4000), make_rng(3))
        flips = np.mean(np.abs(np.diff(pat.alphas)))
        assert flips == pytest.approx(default_switch_prob(4000), abs=0.02)

    def test_bernoulli_needs_realization(self):
        pat = default_pattern("bernoulli", 3, 100)
        with pytest.raises(InvalidArgumentError):
            marginal_at(pat, 1)
        realized = realize_pattern(pat, make_rng(0))
        assert set(np.unique(realized.alphas)) <= {0.0, 1.0}
        assert realized.alphas[0] == 0.0

    def test_constant_path_length_zero(self):
        pat = default_pattern("constant", 4, 300)
        assert path_length(marginal_path(pat)) == 0.0

    def test_monotone_path_length_is_endpoint_distance(self):
        pat = default_pattern("monotone", 4, 733)
        expected = np.abs(pat.q - pat.q_prime).sum()
        assert path_length(marginal_path(pat)) == pytest.approx(expected, abs=1e-9)

    def test_out_of_range_step(self):
        pat = default_pattern("constant", 4, 10)
        with pytest.raises(InvalidArgumentError):
            marginal_at(pat, 0)
        with pytest.raises(InvalidArgumentError):
            marginal_at(pat, 11)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=3))
    def test_marginal_always_on_simplex(self, t, kind_idx):
        kind = ["sinusoidal", "constant", "monotone", "bernoulli"][kind_idx]
        pat = realize_pattern(default_pattern(kind, 5, 500), make_rng(7))
        assert is_simplex(marginal_at(pat, t if t >= 1 else 1))


class TestSourceData:
    def test_uniform_source_marginal(self):
        _, _, _, q0 = make_source_data(spec(), seed=0)
        np.testing.assert_allclose(q0, np.full(4, 0.25))

    def test_default_val_is_quarter_of_train(self):
        train, val, _, _ = make_source_data(spec(n_train=2000), seed=0)
        assert len(train) == 2000 and len(val) == 500

    def test_pool_is_class_stratified(self):
        _, _, pool, _ = make_source_data(spec(pool=2000), seed=0)
        counts = np.bincount(pool.labels, minlength=4)
        assert np.all(counts == 500)

    def test_separated_point_masses_have_zero_bayes_error(self):
        s = spec(cov=0.0)
        err = bayes_error_mc(s.class_means, 0.0, np.full(4, 0.25), 10_000, make_rng(1))
        assert err == 0.0

    def test_degenerate_spec_rejected(self):
        means = np.zeros((3, 4))
        with pytest.raises(InvalidArgumentError):
            make_source_data(
                DataSpec(k=3, d=4, class_means=means, class_cov_scale=0.0), seed=0
            )

    # With n_val=4 these data seeds draw the validation label sets {0, 2},
    # {2, 3} and {0, 2, 3}.
    @pytest.mark.parametrize("seed, missing", [(1, [1, 3]), (2, [0, 1]), (3, [1])])
    def test_validation_split_missing_a_class_names_n_val(self, seed, missing):
        with pytest.raises(InvalidArgumentError) as exc:
            make_source_data(spec(n_train=400, n_val=4, pool=400), seed)
        assert exc.value.field == "n_val"
        assert str(exc.value).startswith(
            f"n_val gives a validation split without class(es) {missing}"
        )

    def test_derived_validation_split_missing_a_class_names_n_train(self):
        # 16 train rows hold all four classes; their 4 validation rows miss class 0.
        with pytest.raises(InvalidArgumentError) as exc:
            make_source_data(spec(n_train=16, pool=400), 1)
        assert exc.value.field == "n_train"
        assert "validation split without class(es) [0]" in str(exc.value)

    def test_bayes_error_matches_analytic_two_class(self):
        # Means at (-1, 0) and (1, 0) with unit covariance: the Bayes error
        # is Phi(-1) = 0.158655.
        from math import erf, sqrt

        means = np.array([[-1.0, 0.0], [1.0, 0.0]])
        mc = bayes_error_mc(means, 1.0, np.array([0.5, 0.5]), 500_000, make_rng(9))
        analytic = 0.5 * (1.0 + erf(-1.0 / sqrt(2.0)))
        assert mc == pytest.approx(analytic, abs=0.005)

    def test_bayes_error_mc_is_stable_across_seeds(self):
        s = spec()
        q = np.full(4, 0.25)
        a = bayes_error_mc(s.class_means, 1.0, q, 250_000, make_rng(10))
        b = bayes_error_mc(s.class_means, 1.0, q, 250_000, make_rng(11))
        assert a == pytest.approx(b, abs=0.01)

def reference_sample_batch(q_t, batch_size, pool, corruption, rng):
    """The per-row draw: rng.choice for the labels, then one rng.integers
    call per row for its member of the label's class."""
    idx = pool.class_indices(q_t.shape[0])
    labels = rng.choice(q_t.shape[0], size=batch_size, p=q_t)
    rows = np.empty(batch_size, dtype=int)
    for i, c in enumerate(labels):
        members = idx[int(c)]
        rows[i] = members[rng.integers(members.size)]
    return corrupt(pool.inputs[rows], corruption, rng), labels


class TestSampleBatch:
    @pytest.mark.parametrize("corruption", [CorruptionSpec(),
                                            CorruptionSpec("gaussian_noise", 0.3)])
    def test_draw_stream_matches_per_row_loop(self, corruption):
        # Uneven pool classes (one has a single member, one none) and
        # marginals with zero entries, including on the empty class.
        labels = np.repeat(np.arange(5), [40, 1, 25, 0, 13])
        make_rng(3).shuffle(labels)
        pool = LabeledSet(make_rng(4).standard_normal((labels.size, 3)), labels)
        marginals = [
            np.array([0.2, 0.1, 0.4, 0.0, 0.3]),
            np.array([0.0, 0.5, 0.0, 0.0, 0.5]),
            np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            np.array([0.35, 0.15, 0.25, 0.0, 0.25]),
        ]
        for seed in range(200):
            new, ref = make_rng(seed), make_rng(seed)
            for j in range(8):
                q = marginals[(seed + j) % len(marginals)]
                x_new, y_new = sample_batch(q, 7, pool, corruption, new)
                x_ref, y_ref = reference_sample_batch(q, 7, pool, corruption, ref)
                np.testing.assert_array_equal(y_new, y_ref)
                np.testing.assert_array_equal(x_new, x_ref)
            assert new.random() == ref.random()

    def test_label_draw_matches_rng_choice(self):
        # The labels come from searchsorted on the marginal's cdf; pin that
        # to rng.choice on marginals with zero entries inside and at the ends.
        for q in (np.array([0.0, 0.3, 0.0, 0.7]), np.array([0.25, 0.25, 0.5, 0.0]),
                  np.array([0.1, 0.2, 0.3, 0.4])):
            pool = LabeledSet(np.zeros((4, 2)), np.arange(4))
            for seed in range(300):
                _, labels = sample_batch(q, 11, pool, CorruptionSpec(), make_rng(seed))
                expected = make_rng(seed).choice(4, size=11, p=q)
                np.testing.assert_array_equal(labels, expected)

    def test_one_hot_marginal_yields_single_class(self, rng):
        _, _, pool, _ = make_source_data(spec(), seed=0)
        q = np.array([0.0, 0.0, 1.0, 0.0])
        _, labels = sample_batch(q, 25, pool, CorruptionSpec(), rng)
        assert np.all(labels == 2)

    def test_batch_shape(self, rng):
        _, _, pool, _ = make_source_data(spec(d=8), seed=0)
        inputs, labels = sample_batch(
            np.full(4, 0.25), 10, pool, CorruptionSpec(), rng
        )
        assert inputs.shape == (10, 8) and labels.shape == (10,)

    def test_law_of_large_numbers(self, rng):
        _, _, pool, _ = make_source_data(spec(k=2, d=2, pool=4000), seed=0)
        q = np.array([0.5, 0.5])
        _, labels = sample_batch(q, 100_000, pool, CorruptionSpec(), rng)
        freq = np.bincount(labels, minlength=2) / labels.size
        assert np.abs(freq - q).max() < 0.01

    def test_exhausted_class_raises(self, rng):
        pool = LabeledSet(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
        with pytest.raises(DataExhaustedError):
            sample_batch(np.array([0.0, 0.0, 1.0]), 5, pool, CorruptionSpec(), rng)

    def test_class_conditionals_preserved(self, rng):
        s = spec(pool=4000)
        _, _, pool, _ = make_source_data(s, seed=5)
        inputs, labels = sample_batch(
            np.full(4, 0.25), 20_000, pool, CorruptionSpec(), rng
        )
        for c in range(4):
            drawn = inputs[labels == c]
            bound = 4.0 * np.sqrt(s.class_cov_scale / drawn.shape[0])
            assert np.abs(drawn.mean(axis=0) - s.class_means[c]).max() < 4 * bound


class TestCorruptions:
    def test_none_is_identity(self, rng):
        x = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(corrupt(x, CorruptionSpec(), rng), x)

    def test_rotate2d_quarter_turn(self, rng):
        x = np.array([1.0, 0.0, 0.7, -0.2])
        out = corrupt(x, CorruptionSpec("rotate2d", angle=90.0), rng)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.7, -0.2], atol=1e-12)

    def test_rotate2d_invertible(self, rng):
        x = rng.standard_normal((20, 6))
        fwd = corrupt(x, CorruptionSpec("rotate2d", angle=37.0), rng)
        back = corrupt(fwd, CorruptionSpec("rotate2d", angle=-37.0), rng)
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_gaussian_noise_variance(self, rng):
        x = np.zeros((100_000, 3))
        out = corrupt(x, CorruptionSpec("gaussian_noise", severity=0.07), rng)
        assert out.var(axis=0) == pytest.approx(0.0049, rel=0.05)

    def test_affine(self, rng):
        x = np.array([[1.0, 2.0]])
        out = corrupt(x, CorruptionSpec("affine", severity=0.5), rng)
        np.testing.assert_allclose(out, [[2.0, 3.5]])
