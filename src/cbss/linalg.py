"""Dense complex matrix helpers: Hermitian eigendecomposition and friends.

The routines take a 2-D ``complex128`` matrix or, except ``inverse``, a
stack of them along leading axes, validate it once and hand the
decompositions to LAPACK through numpy: the eigensolver is
``numpy.linalg.eigh`` and the inverse is ``numpy.linalg.inv``, refused
when the matrix is singular to the scale-free rule
``s_min <= n * eps * s_max`` on its singular values.  The underscored
helpers trust their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NonConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

#: Eigenvalues below this fraction of the largest one count as non-positive.
POSDEF_RTOL = 1e-12
#: Largest entry of ``|m - m^H|`` that ``hermitian_eig`` accepts, relative
#: to the matrix's largest modulus.
HERMITIAN_TOL = 1e-9

#: ``v ** -0.5`` from the C library's ``pow``, one value at a time: numpy's
#: vectorized ``power`` rounds differently, and differently by memory layout,
#: so a stacked fit would not reproduce the fit of each matrix alone.
_pow_minus_half = np.vectorize(lambda v: math.pow(v, -0.5), otypes=[float])


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite complex128 matrix, or stack of matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")


def _conj_t(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _ldexp(m, k, what: str = "the result") -> np.ndarray:
    """``m * 2^k`` for a real or complex array, exact while it stays normal; beyond
    the double range, ``NonFiniteError`` names ``what``.  ``k`` is an int or, to
    scale each row by its own power, ints of shape ``(..., 1)``."""
    cplx = np.iscomplexobj(m)
    with np.errstate(over="ignore"):
        out = np.ldexp(np.ascontiguousarray(m).view(np.float64) if cplx else m, k)
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{what} overflows the double range")
    return out.view(np.complex128) if cplx else out


def _pow2_scaled(m: np.ndarray, axis=None) -> np.ndarray:
    """``m`` divided by the smallest power of two above its largest modulus along ``axis``."""
    _, exponent = np.frexp(np.max(np.abs(m), axis=axis, keepdims=True))
    return _ldexp(m, -exponent)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``m / 2 + m^H / 2``: exactly conjugate symmetric, and finite for finite ``m``."""
    return 0.5 * m + 0.5 * _conj_t(m)


def _checked_hermitian(m) -> np.ndarray:
    """Validate a square matrix (or stack), Hermitian to ``HERMITIAN_TOL``; symmetrize it.

    The bound is relative to each matrix's largest modulus, so that ``c * m``
    passes exactly when ``m`` does.
    """
    a = as_cmatrix(m)
    _require_square(a)
    error = np.max(np.abs(a - _conj_t(a)), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    bad = error > HERMITIAN_TOL * scale
    if np.any(bad):
        raise NotHermitianError(
            f"input matrix is not Hermitian to tolerance: |m - m^H| reaches "
            f"{error[bad][0]:.3e} against a largest modulus of {scale[bad][0]:.3e}")
    return _hermitian_part(a)


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a conjugate-symmetric matrix (or stack).

    ``values`` are real and sorted in non-increasing order; the columns of
    the unitary ``vectors`` are the matching eigenvectors, so that
    ``vectors @ diag(values) @ vectors^H`` reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray


def _eigh(a: np.ndarray) -> HermEig:
    """``numpy.linalg.eigh`` of exactly Hermitian input, values non-increasing."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"Hermitian eigensolver failed: {exc}") from None
    return HermEig(values=values[..., ::-1], vectors=vectors[..., ::-1])


def hermitian_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix via ``numpy.linalg.eigh``.

    The input is checked to be Hermitian to ``HERMITIAN_TOL`` times its
    largest modulus and then symmetrized exactly, so LAPACK reads the same
    matrix from either triangle.

    Raises
    ------
    DimensionError / NotHermitianError
        For non-square or non-Hermitian (to ``HERMITIAN_TOL``) input.
    NonConvergenceError
        If LAPACK's eigensolver does not converge.
    """
    return _eigh(_checked_hermitian(m))


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    """``herm_inv_sqrt`` of exactly Hermitian input."""
    eig = _eigh(a)
    vals = eig.values
    top = vals[..., :1]
    bad = np.any((top <= 0.0) | (vals <= POSDEF_RTOL * top), axis=-1)
    if np.any(bad):
        lo, hi = vals[bad][0][[-1, 0]]
        raise NotPositiveDefiniteError(
            "matrix is not positive definite to tolerance "
            f"(eigenvalue range [{lo:.3e}, {hi:.3e}])")
    p = (eig.vectors * _pow_minus_half(vals)[..., None, :]) @ _conj_t(eig.vectors)
    # symmetrize to pin conjugate symmetry against roundoff
    return _hermitian_part(p)


def herm_inv_sqrt(m) -> np.ndarray:
    """Conjugate-symmetric ``P`` with ``P m P = I`` for positive-definite ``m``.

    Raises ``NotPositiveDefiniteError`` when any eigenvalue is at or below
    ``POSDEF_RTOL`` times the largest eigenvalue.
    """
    return _inv_sqrt(_checked_hermitian(m))


def inverse(m) -> np.ndarray:
    """Matrix inverse through ``numpy.linalg.inv``.

    Raises ``SingularMatrixError`` when the smallest singular value is at
    or below ``n * eps`` times the largest, the zero matrix included.  The
    rule is scale-free: ``c * m`` passes it exactly when ``m`` does.  An
    inverse beyond the double range raises ``NonFiniteError``.
    """
    a = as_cmatrix(m)
    if a.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {a.shape}")
    _require_square(a)
    n = a.shape[0]
    if n == 0:
        raise DimensionError("cannot invert an empty matrix")
    # inverted at unit scale and scaled back, so that no pivot or reciprocal is subnormal
    _, exponent = np.frexp(np.max(np.abs(a)))
    a = _ldexp(a, -exponent)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        raise SingularMatrixError(
            f"singular values span [{s[-1]:.3e}, {s[0]:.3e}]; singular to tolerance")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from None
    return _ldexp(inv, -exponent, "the inverse")
