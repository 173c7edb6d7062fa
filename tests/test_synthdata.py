import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsofu.errors import DataExhaustedError, InvalidArgumentError
from olsofu import synthdata
from olsofu.numkit import is_simplex, make_rng
from olsofu.synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    bayes_error_mc,
    class_layout,
    corrupt,
    default_means,
    default_pattern,
    default_switch_prob,
    make_source_data,
    marginal_path,
    path_length,
    sample_batch,
    sample_batches,
)

from conftest import reference_marginals


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
        qs = marginal_path(pat, make_rng(0))
        period = round(np.sqrt(1000))
        # i = t mod L: i = 0 gives q', i = L/2 gives q; row t - 1 is q_t
        np.testing.assert_allclose(qs[period - 1], pat.q_prime, atol=1e-12)
        np.testing.assert_allclose(qs[period + period // 2 - 1], pat.q, atol=1e-12)

    def test_bernoulli_default_switch_probability(self):
        # T=1000: 1 - 1/sqrt(1000)
        assert default_switch_prob(1000) == pytest.approx(0.96838, abs=1e-5)
        qs = marginal_path(default_pattern("bernoulli", 3, 4000), make_rng(3))
        flips = np.mean((np.diff(qs, axis=0) != 0).any(axis=1))
        assert flips == pytest.approx(default_switch_prob(4000), abs=0.02)

    def test_bernoulli_needs_realization(self):
        # The path starts at q' and every row is one of the two endpoints.
        pat = default_pattern("bernoulli", 3, 100)
        qs = marginal_path(pat, make_rng(0))
        np.testing.assert_array_equal(qs[0], pat.q_prime)
        at_q = (qs == pat.q).all(axis=1)
        assert (at_q | (qs == pat.q_prime).all(axis=1)).all()
        assert at_q.any()

    def test_constant_path_length_zero(self):
        pat = default_pattern("constant", 4, 300)
        assert path_length(marginal_path(pat, make_rng(0))) == 0.0

    def test_monotone_path_length_is_endpoint_distance(self):
        pat = default_pattern("monotone", 4, 733)
        expected = np.abs(pat.q - pat.q_prime).sum()
        assert path_length(marginal_path(pat, make_rng(0))) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=3))
    def test_marginal_always_on_simplex(self, t, kind_idx):
        kind = ["sinusoidal", "constant", "monotone", "bernoulli"][kind_idx]
        qs = marginal_path(default_pattern(kind, 5, 500), make_rng(7))
        assert is_simplex(qs[t - 1])


def assert_path_matches_reference(pattern):
    """``marginal_path`` equals the step-by-step ``reference_marginals``
    bit for bit, and leaves its rng where the reference leaves its own."""
    rng, ref_rng = make_rng(5), make_rng(5)
    qs = marginal_path(pattern, rng)
    assert qs.shape == (pattern.horizon, pattern.q.size)
    np.testing.assert_array_equal(qs, reference_marginals(pattern, ref_rng))
    assert rng.random() == ref_rng.random()


class TestChunkMarginals:
    @pytest.mark.parametrize("kind,horizon", [
        ("constant", 60), ("monotone", 1), ("monotone", 61), ("sinusoidal", 150),
        ("sinusoidal", 7), ("bernoulli", 90),
    ])
    def test_chunks_are_bit_equal_to_per_step_marginals(self, kind, horizon):
        assert_path_matches_reference(ShiftPattern(
            kind, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.7, 0.1, 0.1, 0.1]), horizon))

    @pytest.mark.parametrize("horizon,switch_prob", [(1, None), (90, 0.0), (90, 1.0)])
    def test_bernoulli_edge_cases_match_reference(self, horizon, switch_prob):
        assert_path_matches_reference(ShiftPattern(
            "bernoulli", np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.7, 0.1, 0.1, 0.1]),
            horizon, switch_prob))


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

    def test_coinciding_means_without_noise_name_class_cov_scale(self):
        means = np.eye(3, 4)
        means[2] = means[0]
        with pytest.raises(InvalidArgumentError) as exc:
            DataSpec(k=3, d=4, class_means=means, class_cov_scale=0.0)
        assert exc.value.field == "class_cov_scale"
        DataSpec(k=3, d=4, class_means=means, class_cov_scale=0.5)  # noise separates them

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
    idx = [np.flatnonzero(pool.labels == c) for c in range(q_t.shape[0])]
    labels = rng.choice(q_t.shape[0], size=batch_size, p=q_t)
    rows = np.empty(batch_size, dtype=int)
    for i, c in enumerate(labels):
        members = idx[int(c)]
        rows[i] = members[rng.integers(members.size)]
    return corrupt(pool.inputs[rows], corruption, rng), labels


def uneven_pool():
    """A pool with uneven classes (one has a single member, one none), and
    marginals with zero entries, including on the empty class."""
    labels = np.repeat(np.arange(5), [40, 1, 25, 0, 13])
    make_rng(3).shuffle(labels)
    pool = LabeledSet(make_rng(4).standard_normal((labels.size, 3)), labels)
    marginals = [
        np.array([0.2, 0.1, 0.4, 0.0, 0.3]),
        np.array([0.0, 0.5, 0.0, 0.0, 0.5]),
        np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
        np.array([0.35, 0.15, 0.25, 0.0, 0.25]),
    ]
    return pool, marginals


CORRUPTIONS = [CorruptionSpec(), CorruptionSpec("rotate2d", angle=30.0),
               CorruptionSpec("gaussian_noise", 0.3), CorruptionSpec("affine", 0.5)]


class TestSampleBatch:
    @pytest.mark.parametrize("corruption", [CorruptionSpec(),
                                            CorruptionSpec("gaussian_noise", 0.3)])
    def test_draw_stream_matches_per_row_loop(self, corruption):
        pool, marginals = uneven_pool()
        for seed in range(200):
            new, ref = make_rng(seed), make_rng(seed)
            for j in range(8):
                q = marginals[(seed + j) % len(marginals)]
                x_new, y_new = sample_batch(q, 7, pool, corruption, new)
                x_ref, y_ref = reference_sample_batch(q, 7, pool, corruption, ref)
                np.testing.assert_array_equal(y_new, y_ref)
                np.testing.assert_array_equal(x_new, x_ref)
            assert new.random() == ref.random()

    @pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c.kind)
    @pytest.mark.parametrize("m", [1, 7, 25])
    def test_chunk_draw_matches_per_batch_draws(self, m, corruption):
        # m batches drawn at once equal m per-row draws in turn, bit for
        # bit, and leave the generator in the same state.
        pool, marginals = uneven_pool()
        for seed in range(40):
            new, ref = make_rng(seed), make_rng(seed)
            qs = np.array([marginals[(seed + j) % len(marginals)] for j in range(m)])
            inputs, labels = sample_batches(qs, 7, pool, corruption, new)
            assert inputs.shape == (m, 7, 3) and labels.shape == (m, 7)
            for q, x, y in zip(qs, inputs, labels):
                x_ref, y_ref = reference_sample_batch(q, 7, pool, corruption, ref)
                np.testing.assert_array_equal(y, y_ref)
                np.testing.assert_array_equal(x, x_ref)
            assert new.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bad, error, match", [
        ([0.5, np.nan, 0.5, 0.0, 0.0], InvalidArgumentError, "q_t must be finite"),
        ([0.5, 0.4, 0.05, 0.0, 0.0], InvalidArgumentError, "q_t must be on the probability"),
        ([0.5, 0.0, 0.0, 1e-12, 0.5 - 1e-12], DataExhaustedError, "class 3"),
    ], ids=["nan", "off-simplex", "empty-class"])
    def test_first_bad_row_raises_before_any_draw(self, bad, error, match):
        # The error names the first row sample_batch refuses; nothing is
        # drawn, so a caller can draw the rows before it from the same state.
        pool, marginals = uneven_pool()
        qs = np.array([marginals[0], marginals[1], bad, marginals[2], bad])
        rng = make_rng(0)
        with pytest.raises(error, match=match) as err:
            sample_batches(qs, 7, pool, CorruptionSpec(), rng)
        assert err.value.row == 2
        assert rng.bit_generator.state == make_rng(0).bit_generator.state
        with pytest.raises(error, match=match):
            sample_batch(np.array(bad), 7, pool, CorruptionSpec(), make_rng(0))

    def test_marginals_must_be_a_2d_array(self, rng):
        pool, marginals = uneven_pool()
        with pytest.raises(InvalidArgumentError) as err:
            sample_batches(marginals[0], 7, pool, CorruptionSpec(), rng)
        assert err.value.field == "qs"

    def test_pool_layout_is_built_once(self, monkeypatch, rng):
        # The pool is grouped by class on its first draw; later draws read
        # that layout, whose order sorts the rows by class, stably.
        built = []

        def counting(sizes):
            built.append(sizes)
            return class_layout(sizes)

        monkeypatch.setattr(synthdata, "class_layout", counting)
        labels = np.array([2, 0, 1, 0, 2, 2, 1])
        pool = LabeledSet(np.zeros((7, 2)), labels)
        for _ in range(5):
            sample_batch(np.full(3, 1 / 3), 4, pool, CorruptionSpec(), rng)
        assert len(built) == 1
        layout = pool.class_layout(3)
        assert layout is pool.class_layout(3)
        np.testing.assert_array_equal(layout.order, [1, 3, 2, 6, 0, 4, 5])
        np.testing.assert_array_equal(labels[layout.order], layout.labels)

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

    def test_mass_on_an_empty_pool_class_names_it(self, rng):
        # Class 1 has no pool rows: a marginal without mass there draws,
        # one with mass there is refused, however small the mass.
        pool = LabeledSet(np.zeros((4, 2)), np.array([0, 0, 2, 2]))
        _, labels = sample_batch(np.array([0.5, 0.0, 0.5]), 20, pool, CorruptionSpec(), rng)
        assert set(labels.tolist()) <= {0, 2}
        with pytest.raises(DataExhaustedError, match="class 1"):
            sample_batch(np.array([0.5, 1e-12, 0.5 - 1e-12]), 5, pool, CorruptionSpec(), rng)

    @pytest.mark.parametrize("q_t", [
        [0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.6, 0.6, -0.2], [0.5, 0.4, 0.05],
        [[0.5, 0.5, 0.0]],
    ])
    def test_bad_marginal_names_q_t(self, q_t, rng):
        pool = LabeledSet(np.zeros((3, 2)), np.arange(3))
        with pytest.raises(InvalidArgumentError) as err:
            sample_batch(np.array(q_t), 5, pool, CorruptionSpec(), rng)
        assert err.value.field == "q_t"
        assert "q_t" in str(err.value)

    def test_uncorrupted_inputs_are_fresh(self, rng):
        # Kind none hands back the gathered rows, which must not alias the pool.
        pool = LabeledSet(np.zeros((3, 2)), np.arange(3))
        inputs, _ = sample_batch(np.full(3, 1 / 3), 4, pool, CorruptionSpec(), rng)
        inputs += 1.0
        assert not pool.inputs.any()

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
