"""Deterministic numerical primitives: simplex operations, small dense
solves, singular values and seeded random generation.

All functions are pure; randomness enters only through generators built by
:func:`make_rng`, never through numpy's global state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SingularMatrixError

SIMPLEX_ATOL = 1e-9

# Solves are refused above this condition number; downstream estimators
# assume confusion matrices bounded away from singular.
CONDITION_LIMIT = 1e10


def make_rng(seed: int) -> np.random.Generator:
    """Return a 64-bit seedable generator; equal seeds give equal streams."""
    return np.random.default_rng(int(seed))


def as_array(v, name="value") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must be finite, got {arr!r}")
    return arr


def is_simplex(v, atol: float = SIMPLEX_ATOL) -> bool:
    arr = np.asarray(v, dtype=float)
    return bool(np.all(arr >= -atol) and abs(arr.sum() - 1.0) <= atol)


def check_simplex(v, name="vector", atol: float = SIMPLEX_ATOL) -> np.ndarray:
    arr = as_array(v, name)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"{name} must be a nonempty 1-d vector")
    if not is_simplex(arr, atol):
        raise InvalidArgumentError(
            f"{name} must be on the probability simplex (sum={arr.sum():.3g}, "
            f"min={arr.min():.3g})"
        )
    return arr


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex.

    Sort-and-threshold algorithm: find the largest k such that the top-k
    entries shifted by a common offset stay positive, then clip. Exact up
    to floating point; O(K log K).
    """
    arr = as_array(v, "v")
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError("v must be a nonempty 1-d vector")
    # A point already on the simplex is its own projection; returning it
    # unchanged makes the operation exactly idempotent.
    if arr.min() >= 0.0 and abs(arr.sum() - 1.0) <= 1e-12:
        return arr.copy()
    u = np.sort(arr)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, arr.size + 1)
    mask = u - css / ks > 0
    rho = int(np.nonzero(mask)[0][-1])
    tau = css[rho] / (rho + 1.0)
    out = np.maximum(arr - tau, 0.0)
    # Renormalisation guards the sum-to-one invariant against rounding.
    return out / out.sum()


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


def min_singular_value(A) -> float:
    """Smallest singular value of A (0.0 for rank-deficient input)."""
    A = as_array(A, "A")
    if A.ndim != 2:
        raise InvalidArgumentError("A must be a matrix")
    svals = np.linalg.svd(A, compute_uv=False)
    return float(svals[-1])


def softmax(z, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax of ``z / temperature``.

    Accepts a vector or a batch of row vectors; rows of the output lie on
    the simplex.
    """
    if temperature <= 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {temperature}")
    z = as_array(z, "z") / float(temperature)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)

