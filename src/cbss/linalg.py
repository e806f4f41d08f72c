"""Dense complex matrix helpers: Hermitian eigendecomposition and friends.

All routines operate on 2-D ``numpy`` arrays of ``complex128``.  They
validate their input and hand the decompositions to LAPACK through
numpy: the eigensolver is ``numpy.linalg.eigh`` and the inverse is
``numpy.linalg.inv``, refused when the matrix is singular to the
scale-free rule ``s_min <= n * eps * s_max`` on its singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NonConvergenceError,
    NonFiniteError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

#: Eigenvalues below this fraction of the largest one count as non-positive.
POSDEF_RTOL = 1e-12
#: Largest entry of ``|m - m^H|`` that ``hermitian_eig`` accepts.
HERMITIAN_TOL = 1e-9


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")


def is_hermitian(m, tol: float = 1e-10) -> bool:
    """True if the largest entry of ``|m - m^H|`` is at most ``tol``."""
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m - m.conj().T))) <= tol if m.size else True


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a conjugate-symmetric matrix.

    ``values`` are real and sorted in non-increasing order; the columns of
    the unitary ``vectors`` are the matching eigenvectors, so that
    ``vectors @ diag(values) @ vectors^H`` reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix via ``numpy.linalg.eigh``.

    The input is checked to be Hermitian to ``HERMITIAN_TOL`` and then
    symmetrized exactly, so LAPACK reads the same matrix from either
    triangle.

    Raises
    ------
    DimensionError / ValueError
        For non-square or non-Hermitian (to ``HERMITIAN_TOL``) input.
    NonConvergenceError
        If LAPACK's eigensolver does not converge.
    """
    a = as_cmatrix(m)
    _require_square(a)
    if not is_hermitian(a, HERMITIAN_TOL):
        raise ValueError("input matrix is not Hermitian to tolerance")
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"Hermitian eigensolver failed: {exc}") from None
    return HermEig(values=values[::-1], vectors=vectors[:, ::-1])


def herm_inv_sqrt(m) -> np.ndarray:
    """Conjugate-symmetric ``P`` with ``P m P = I`` for positive-definite ``m``.

    Raises ``NotPositiveDefiniteError`` when any eigenvalue is at or below
    ``POSDEF_RTOL`` times the largest eigenvalue.
    """
    eig = hermitian_eig(m)
    vals = eig.values
    top = vals[0]
    if top <= 0.0 or np.any(vals <= POSDEF_RTOL * top):
        raise NotPositiveDefiniteError(
            "matrix is not positive definite to tolerance "
            f"(eigenvalue range [{vals[-1]:.3e}, {top:.3e}])")
    p = (eig.vectors * (vals ** -0.5)) @ eig.vectors.conj().T
    # symmetrize to pin conjugate symmetry against roundoff
    return 0.5 * (p + p.conj().T)


def inverse(m) -> np.ndarray:
    """Matrix inverse through ``numpy.linalg.inv``.

    Raises ``SingularMatrixError`` when the smallest singular value is at
    or below ``n * eps`` times the largest, the zero matrix included.  The
    rule is scale-free: ``c * m`` inverts exactly when ``m`` does.
    """
    a = as_cmatrix(m)
    _require_square(a)
    n = a.shape[0]
    if n == 0:
        raise DimensionError("cannot invert an empty matrix")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        raise SingularMatrixError(
            f"singular values span [{s[-1]:.3e}, {s[0]:.3e}]; singular to tolerance")
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from None
