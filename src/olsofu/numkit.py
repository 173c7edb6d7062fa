"""Deterministic numerical primitives: simplex operations, small dense
solves, singular values and seeded random generation.

All functions are pure; randomness enters only through generators built by
:func:`make_rng`, never through numpy's global state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SingularMatrixError, require

SIMPLEX_ATOL = 1e-9

# Solves are refused above this condition number; downstream estimators
# assume confusion matrices bounded away from singular.
CONDITION_LIMIT = 1e10


def make_rng(seed: int) -> np.random.Generator:
    """Return a 64-bit seedable generator; equal seeds give equal streams."""
    return np.random.default_rng(int(seed))


def as_array(v, name="value") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite, got {arr!r}", name)
    return arr


def is_simplex(v, atol: float = SIMPLEX_ATOL) -> bool:
    arr = np.asarray(v, dtype=float)
    # A NaN minimum fails the comparison, as a NaN entry should.
    return bool(arr.size > 0 and arr.min() >= -atol and abs(arr.sum() - 1.0) <= atol)


def check_simplex(v, name="vector", atol: float = SIMPLEX_ATOL) -> np.ndarray:
    arr = as_array(v, name)
    require(arr.ndim == 1 and arr.size >= 1, name, "must be a nonempty 1-d vector")
    if not is_simplex(arr, atol):
        raise InvalidArgumentError(
            f"{name} must be on the probability simplex (sum={arr.sum():.3g}, "
            f"min={arr.min():.3g})",
            name,
        )
    return arr


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    ``v`` is one vector or an (m, K) array whose rows are projected one by
    one. Sort-and-threshold algorithm: find the largest k such that the
    top-k entries shifted by a common offset stay positive, then clip.
    Exact up to floating point; O(K log K) per row. The result is a new
    array.

    Both shapes run the same per-row arithmetic, bit for bit, on two
    paths chosen by ``ndim``. An array (BBSE's estimates of a chunk) is
    projected in vectorized passes over its rows. One vector (a strategy's
    step) is sorted, cumulatively summed and thresholded on Python floats,
    which costs far less than numpy's per-call overhead at small K; its
    clip, sums and divide stay numpy operations, because numpy sums 8 or
    more entries pairwise, and a running Python sum would differ there.
    """
    arr = as_array(v, "v")
    if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
        raise InvalidArgumentError("v must be a nonempty 1-d vector or an (m, K) array")
    # A point already on the simplex is its own projection; returning it
    # unchanged makes the operation exactly idempotent.
    if arr.ndim == 1:
        row = arr.tolist()
        if min(row) >= 0.0 and abs(arr.sum() - 1.0) <= 1e-12:
            return arr.copy()
        total, tau = 0.0, None
        for i, x in enumerate(sorted(row, reverse=True), 1):
            total += x
            if x - (total - 1.0) / i > 0:
                tau = (total - 1.0) / i
        if tau is None:  # no index passes (entries past 2**53): the last, as for rows
            tau = (total - 1.0) / i
        out = np.maximum(arr - tau, 0.0)
        return out / out.sum()
    out = arr.copy()
    off = (out.min(axis=1) < 0.0) | (np.abs(out.sum(axis=1) - 1.0) > 1e-12)
    if off.any():
        rows = out[off]
        u = np.sort(rows, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - 1.0
        ks = np.arange(1, u.shape[1] + 1)
        mask = u - css / ks > 0
        rho = u.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)  # last True
        tau = css[np.arange(len(rows)), rho] / (rho + 1.0)
        rows = np.maximum(rows - tau[:, None], 0.0)
        # Renormalisation guards the sum-to-one invariant against rounding.
        out[off] = rows / rows.sum(axis=1, keepdims=True)
    return out


def solve_linear(A, b) -> np.ndarray:
    """Solve ``A x = b`` for square A via LU factorization.

    ``b`` is one right-hand side (n,) or m of them as the columns of an
    (n, m) array; one condition check and one factorization serve them
    all. Raises :class:`SingularMatrixError` (carrying the estimated
    condition number) when A is singular or its condition number exceeds
    ``CONDITION_LIMIT``.
    """
    A = as_array(A, "A")
    b = as_array(b, "b")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise InvalidArgumentError(
            f"b has shape {b.shape}, expected ({A.shape[0]},) or ({A.shape[0]}, m)"
        )
    svals = np.linalg.svd(A, compute_uv=False)
    smin = float(svals[-1])
    cond = float("inf") if smin == 0.0 else float(svals[0] / smin)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (cond={cond:.3e})", cond
        )
    return np.linalg.solve(A, b)


def rotate2d(x: np.ndarray, degrees) -> np.ndarray:
    """Rotate the first two coordinates of ``x``, a vector or a batch of row
    vectors, by ``degrees``: one angle, or one angle per row."""
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    out = x.copy()
    out[..., 0] = c * x[..., 0] - s * x[..., 1]
    out[..., 1] = s * x[..., 0] + c * x[..., 1]
    return out


def min_singular_value(A) -> float:
    """Smallest singular value of A (0.0 for rank-deficient input)."""
    A = as_array(A, "A")
    if A.ndim != 2:
        raise InvalidArgumentError("A must be a matrix")
    svals = np.linalg.svd(A, compute_uv=False)
    return float(svals[-1])


# Up to this many columns, a running ``np.maximum`` over the columns finds
# a batch's row maxima several times faster than numpy's reduction along a
# short last axis; a maximum is exact, so both give the same values. Wider
# rows (InfoNCE's similarities) keep the reduction.
COLUMN_MAX_WIDTH = 32


def softmax(z, temperature: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax of ``z / temperature``.

    Accepts a vector or a batch of row vectors; rows of the output lie on
    the simplex. ``out``, a float array shaped like ``z`` (``z`` itself
    included), receives the result in place of a new array.
    """
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = as_array(z, "z")
    # Dividing by 1 is exact, so in place at temperature 1 the pass is skipped.
    if out is not z or temperature != 1.0:
        z = np.divide(z, float(temperature), out=out)
    if z.ndim > 1 and z.shape[-1] <= COLUMN_MAX_WIDTH:
        top = z[..., :1].copy()
        for j in range(1, z.shape[-1]):
            np.maximum(top, z[..., j : j + 1], out=top)
    else:
        top = z.max(axis=-1, keepdims=True)
    z -= top
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z

