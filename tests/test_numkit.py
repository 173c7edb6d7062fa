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
    rotate2d,
    softmax,
    solve_linear,
)

finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
)


def reference_project(v):
    """Projection of one vector onto the simplex, the per-row algorithm
    that ``project_simplex`` applies to every row of an array."""
    if v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12:
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = int(np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1])
    out = np.maximum(v - css[rho] / (rho + 1.0), 0.0)
    return out / out.sum()


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

    @pytest.mark.parametrize("v,expected", [
        ([0.5, 0.5], True), ([1.0], True), ([1.0 + 5e-10, -5e-10], True),
        ([], False), ([np.nan, 1.0], False), ([np.inf, -np.inf], False),
        ([0.6, 0.6], False), ([1.1, -0.1], False),
    ])
    def test_is_simplex_edge_inputs(self, v, expected):
        assert is_simplex(v) is expected

    @settings(max_examples=80, deadline=None)
    @given(finite_vectors)
    def test_output_on_simplex_and_idempotent(self, entries):
        p = project_simplex(entries)
        assert is_simplex(p)
        np.testing.assert_array_equal(project_simplex(p), p)

    def test_rejects_bad_shapes(self):
        for bad in ([], np.zeros((2, 0)), np.zeros((2, 2, 2))):
            with pytest.raises(InvalidArgumentError):
                project_simplex(bad)

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 9, 17])
    def test_rows_match_per_row_projection_bit_for_bit(self, k, rng):
        rows = [scale * rng.standard_normal(k) for scale in (1e-3, 1e-1, 1, 10, 1e3, 1e6)]
        rows += [np.full(k, 2.5), np.r_[np.full(k - 1, 0.7), -3.0]]  # ties
        rows += [np.full(k, 1.0 / k), np.eye(k)[k - 1], rng.dirichlet(np.ones(k))]
        # Sums within a few ulps of 1 +- 1e-12, the on-simplex shortcut's edge.
        edge = []
        for target in (1.0 - 1e-12, 1.0 + 1e-12):
            for ulps in range(-3, 4):
                row = rng.dirichlet(np.ones(k))
                row[np.argmax(row)] += target + ulps * np.spacing(1.0) - row.sum()
                edge.append(row)
        gaps = np.array([abs(r.sum() - 1.0) for r in edge])
        assert (gaps <= 1e-12).any() and (gaps > 1e-12).any()
        rows += edge
        # -0.0 entries, on and off the simplex, and exact ties beside them.
        rows += [np.where(np.eye(k)[0] == 1.0, 1.0, -0.0),
                 np.r_[np.full(k - 1, 0.7), -0.0], np.r_[-0.0, np.full(k - 1, 1.0 / (k - 1))]]
        v = np.array(rows)
        assert_rows_projected_bit_for_bit(v)
        assert_rows_projected_bit_for_bit(np.array([[1.0], [-0.0], [0.3], [-2.0], [1e6]]))

    def test_entries_past_2_53_take_the_rows_path_threshold(self):
        # No index passes the threshold test when the top entry absorbs the
        # 1.0; both paths then take the last index.
        for v in ([1e20, 0.0], [-1e20, -3e20]):
            v = np.array(v)
            assert_bits(project_simplex(v), project_simplex(v[None])[0])

    def test_one_vector_result_is_a_new_array(self):
        for v in (np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.6])):
            saved = v.copy()
            out = project_simplex(v)
            assert not np.shares_memory(out, v)
            out[:] = 7.0
            np.testing.assert_array_equal(v, saved)


def assert_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_rows_projected_bit_for_bit(v):
    """Each row of ``v``, projected as a C- or Fortran-ordered array and as
    one vector, contiguous or strided, equals ``reference_project``'s
    projection bit for bit, signed zeros included."""
    expected = np.array([reference_project(r) for r in v])
    # A transposed solve's output (as in bbse_estimates) has strided rows.
    fortran = np.asfortranarray(v)
    for arr in (v, fortran):
        assert_bits(project_simplex(arr), expected)
    for row, strided, want in zip(v, fortran, expected):
        assert v.shape[1] == 1 or strided.strides[0] == v.shape[0] * v.itemsize
        assert_bits(project_simplex(row), want)
        assert_bits(project_simplex(strided), want)


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

    @pytest.mark.parametrize("shape", [(300, 4), (5, 3, 2), (40, 32), (40, 33), (1, 4)])
    def test_batches_match_the_row_max_reduction_exactly(self, shape):
        # Narrow batches take their row maxima column by column; the result
        # must equal the plain reduction's bit for bit.
        z = 30.0 * np.random.default_rng(7).standard_normal(shape)
        e = np.exp(z / 0.5 - (z / 0.5).max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(softmax(z, 0.5), e / e.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(300, 4), (40, 33), (7,)])
    def test_in_place_at_unit_temperature_matches_a_new_array(self, shape, order):
        # In place at temperature 1 the divide pass is skipped; the result
        # must equal the out-of-place call's bit for bit.
        z = np.asarray(30.0 * np.random.default_rng(11).standard_normal(shape), order=order)
        before = z.copy()
        fresh = softmax(z)
        np.testing.assert_array_equal(z, before)  # out=None leaves z alone
        got = softmax(z, out=z)
        assert got is z
        np.testing.assert_array_equal(got, fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_place_rejects_non_finite_input(self, bad):
        z = np.zeros((3, 4))
        z[1, 2] = bad
        with pytest.raises(InvalidArgumentError):
            softmax(z, out=z)


class TestRotate2d:
    def test_rows_take_their_own_angle(self):
        x = np.array([[1.0, 0.0, 5.0], [1.0, 0.0, 6.0], [0.0, 2.0, 7.0]])
        out = rotate2d(x, np.array([90.0, 180.0, 90.0]))
        np.testing.assert_allclose(out, [[0, 1, 5], [-1, 0, 6], [-2, 0, 7]], atol=1e-15)

    def test_one_angle_for_a_vector_and_a_batch(self, rng):
        x = rng.standard_normal((6, 3))
        batch = rotate2d(x, 37.0)
        for row, rotated in zip(x, batch):
            np.testing.assert_array_equal(rotate2d(row, 37.0), rotated)
        np.testing.assert_allclose(np.linalg.norm(batch[:, :2], axis=1),
                                   np.linalg.norm(x[:, :2], axis=1), rtol=1e-14)
        np.testing.assert_array_equal(batch[:, 2], x[:, 2])


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(123).standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(123).standard_normal(1000)
        b = make_rng(124).standard_normal(1000)
        assert not np.array_equal(a, b)
