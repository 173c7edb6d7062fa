import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsofu.errors import InvalidArgumentError, SingularMatrixError
from olsofu.numkit import (
    is_simplex,
    make_rng,
    min_singular_value,
    project_simplex,
    softmax,
    solve_linear,
)

finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(
            project_simplex([0.2, 0.3, 0.5]), [0.2, 0.3, 0.5], atol=1e-12
        )

    def test_symmetric_split(self):
        np.testing.assert_allclose(project_simplex([0.6, 0.6]), [0.5, 0.5], atol=1e-12)

    def test_negative_entry_clipped(self):
        # Expected values confirmed against the dense-grid minimizer used in
        # the acceptance suite.
        np.testing.assert_allclose(
            project_simplex([1.2, -0.1, 0.3]), [0.95, 0.0, 0.05], atol=1e-12
        )

    def test_matches_grid_oracle(self, rng):
        n = 400
        ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        mask = ii + jj <= n
        grid = np.stack([ii[mask], jj[mask], n - ii[mask] - jj[mask]], 1) / n
        grid_sq = (grid * grid).sum(axis=1)
        for _ in range(25):
            v = rng.normal(0.3, 1.0, size=3)
            oracle = grid[np.argmin(grid_sq - 2.0 * grid @ v)]
            assert np.abs(project_simplex(v) - oracle).max() < 1.0 / n + 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            project_simplex([np.nan, 0.5])

    @settings(max_examples=80, deadline=None)
    @given(finite_vectors)
    def test_output_on_simplex_and_idempotent(self, entries):
        p = project_simplex(entries)
        assert is_simplex(p)
        np.testing.assert_array_equal(project_simplex(p), p)


class TestSolveLinear:
    def test_identity(self):
        np.testing.assert_allclose(
            solve_linear(np.eye(2), [0.3, 0.7]), [0.3, 0.7], atol=1e-12
        )

    def test_two_by_two_inverse(self):
        a = np.array([[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(solve_linear(a, [0.9, 0.1]), [1.0, 0.0], atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            solve_linear(np.diag([2.0, 4.0]), [2.0, 2.0]), [1.0, 0.5], atol=1e-12
        )

    def test_residual_bound(self, rng):
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 3 * np.eye(6)
            b = rng.standard_normal(6)
            x = solve_linear(a, b)
            assert np.abs(a @ x - b).max() <= 1e-8 * max(np.abs(b).max(), 1.0)

    def test_singular_raises_with_condition(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(a, [1.0, 1.0])
        assert err.value.condition_number > 1e10

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            solve_linear(np.eye(2), [1.0, 2.0, 3.0])

    def test_matrix_rhs_matches_column_solves(self, rng):
        for m in (1, 2, 7):
            a = rng.standard_normal((4, 4)) + 3 * np.eye(4)
            b = rng.standard_normal((4, m))
            x = solve_linear(a, b)
            assert x.shape == (4, m)
            for j in range(m):
                np.testing.assert_allclose(x[:, j], solve_linear(a, b[:, j]),
                                           rtol=0, atol=1e-14)

    def test_matrix_rhs_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(a, np.ones((2, 5)))
        assert err.value.condition_number > 1e10

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2), (1, 2)])
    def test_matrix_rhs_shape_mismatch_rejected(self, shape):
        with pytest.raises(InvalidArgumentError):
            solve_linear(np.eye(2), np.ones(shape))

    def test_matrix_rhs_must_be_finite(self):
        b = np.ones((2, 3))
        b[1, 2] = np.nan
        with pytest.raises(InvalidArgumentError):
            solve_linear(np.eye(2), b)


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_singular_value(np.diag([2.0, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficient_is_zero(self):
        assert min_singular_value(np.ones((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_matches_eigh_oracle(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            oracle = np.sqrt(max(np.linalg.eigvalsh(a.T @ a).min(), 0.0))
            assert min_singular_value(a) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_lower_bounds_operator_action(self, rng):
        a = rng.standard_normal((5, 5))
        smin = min_singular_value(a)
        for _ in range(10):
            x = rng.standard_normal(5)
            x /= np.linalg.norm(x)
            assert smin <= np.linalg.norm(a @ x) + 1e-9


class TestSoftmax:
    def test_uniform_at_zero(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3))

    def test_high_temperature_limit(self):
        out = softmax([1.0, 3.0], temperature=1e9)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-8)

    def test_two_logits(self):
        np.testing.assert_allclose(
            softmax([1.0, 2.0]), [0.26894, 0.73106], atol=5e-6
        )

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidArgumentError):
            softmax([1.0, 2.0], temperature=0.0)

    def test_stable_for_large_logits(self):
        out = softmax([1000.0, 999.0])
        assert np.all(np.isfinite(out)) and is_simplex(out)


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(123).standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(124).standard_normal(1000)
        assert not np.array_equal(a, b)
