"""Unmixing estimator based on simultaneous diagonalization.

Fits an unmixing matrix ``gamma`` such that ``gamma S0 gamma^H = I`` and
``gamma S_tau gamma^H`` is diagonal with non-increasing real entries,
where ``S0`` / ``S_tau`` are the symmetrized sample autocovariances.  The
row phases are the model's irreducible ambiguity; the canonical
representative puts every diagonal entry of ``gamma`` on the non-negative
real axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, PhaseError
# ``autocov_sym`` and ``sample_mean`` are unused here but stay bound: bench/layers.py
# traces them, and tests/test_bench_sites.py checks that they resolve
from .estimators import (_centered, _checked_lag, _cross_products, _planes, _shaped, as_timeseries,
                         autocov_sym, sample_mean)
from .linalg import _conj_t, _eigh, _hermitian_part, _inv_sqrt, _ldexp, _pow2_scaled

#: Diagonal or inner-product moduli at or below this, relative to the scale
#: of their rows, are treated as phase-undefined.
PHASE_TOL = 1e-14
#: Rows ``apply_unmixing`` centers and maps at a time.
APPLY_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class UnmixingResult:
    """Fitted unmixing matrix with its diagonalized lag spectrum.

    ``gamma`` is phase-standardized (non-negative real diagonal),
    ``lambdas`` holds the non-increasing real diagonal of
    ``gamma S_tau gamma^H`` and ``eigen_gap`` the smallest consecutive
    spacing of ``lambdas``.  Identifiability needs distinct values, so a
    tiny gap is reported rather than treated as an error; as a rule of
    thumb, components whose gap is below ``1e-3`` times the spread
    ``lambdas[0] - lambdas[-1]`` should not be trusted.  The lab's fits
    of drawn plane blocks hold one of each per series, stacked along the
    leading axis.
    """

    gamma: np.ndarray
    lambdas: np.ndarray
    mu: np.ndarray
    tau: int
    eigen_gap: float | np.ndarray


def _standardize(g: np.ndarray) -> np.ndarray:
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    mod = np.abs(diag)
    # relative to the row's largest modulus, so that the test is scale-free
    small = mod <= PHASE_TOL * np.max(np.abs(g), axis=-1)
    if np.any(small):
        bad = int(np.argmax(small))
        raise PhaseError(f"diagonal entry {bad % mod.shape[-1]} has modulus "
                         f"{mod.flat[bad]:.3e}, small against its row; phase undefined")
    out = (np.conj(diag) / mod)[..., None] * g
    # pin the diagonal exactly onto the real axis, preserving the modulus
    idx = np.arange(g.shape[-1])
    out[..., idx, idx] = mod
    return out


def standardize_phase(gamma) -> np.ndarray:
    """Rotate each row so the diagonal entry is real and non-negative.

    Takes a square matrix or a stack of them.  Raises ``PhaseError`` when
    a diagonal entry's modulus is at most ``PHASE_TOL`` times the largest
    modulus in its row (the canonical representative is undefined there).
    """
    g = linalg.as_cmatrix(gamma)
    if g.shape[-2] != g.shape[-1] or not g.shape[-1]:
        raise DimensionError(f"expected a non-empty square matrix, got {g.shape}")
    return _standardize(g)


def align_phase_to(gamma_hat, gamma_ref) -> np.ndarray:
    """Rotate rows of ``gamma_hat`` to best match ``gamma_ref``.

    Row ``j`` is multiplied by the unit complex number minimizing the
    Frobenius distance to the reference row, i.e. ``conj(u)/|u|`` with
    ``u = <row_j(gamma_hat), row_j(gamma_ref)>``.  ``gamma_hat`` may be a
    stack of matrices, each aligned to the same reference.  Raises
    ``PhaseError`` when some row pair is orthogonal (alignment undefined):
    ``|u|`` is at most ``PHASE_TOL`` times the product of the two row norms.
    Both are formed from rows divided by powers of two, which is exact, so
    no product overflows or underflows and the rotation is free of scale.
    """
    g = linalg.as_cmatrix(gamma_hat)
    ref = linalg.as_cmatrix(gamma_ref)
    if g.shape[-2:] != ref.shape or ref.ndim != 2:
        raise DimensionError(f"shape mismatch: {g.shape} vs {ref.shape}")
    gs, rs = _pow2_scaled(g, axis=-1), _pow2_scaled(ref, axis=-1)
    u = np.sum(gs * np.conj(rs), axis=-1)
    mod = np.abs(u)
    small = mod <= PHASE_TOL * np.linalg.norm(gs, axis=-1) * np.linalg.norm(rs, axis=-1)
    if np.any(small):
        bad = int(np.argmax(small)) % mod.shape[-1]
        raise PhaseError(f"row {bad} is orthogonal to its reference; alignment undefined")
    return (np.conj(u) / mod)[..., None] * g


def _fit_centered(y: np.ndarray, mu: np.ndarray, shift: int, tau: int):
    """``(result, s0, s_tau)`` of a validated series or block, from its
    centered part planes ``y`` at scale ``2^shift`` and its time mean ``mu``
    (``_centered``), with ``tau`` in range: ``gamma`` is ``V^H s0^{-1/2}``
    with ``V`` the eigenvectors of the whitened ``s_tau``, rows
    phase-standardized and scaled back by ``2^shift``, which is exact.
    ``s0`` and ``s_tau`` are those of ``y``."""
    s0, s_tau = (_hermitian_part(s) for s in _cross_products(y, tau))
    sig0 = _inv_sqrt(s0)
    eig = _eigh(_hermitian_part(sig0 @ s_tau @ sig0))
    lam = eig.values
    gap = np.min(lam[..., :-1] - lam[..., 1:], axis=-1, initial=np.inf)
    gamma = _standardize(_conj_t(eig.vectors) @ sig0)
    result = UnmixingResult(gamma=_ldexp(gamma, shift) if shift else gamma, lambdas=lam, mu=mu,
                            tau=tau, eigen_gap=float(gap) if gap.ndim == 0 else gap)
    return result, s0, s_tau


def unmix(x, tau: int) -> UnmixingResult:
    """Fit the unmixing matrix from the lag-0 and lag-``tau`` autocovariances.

    ``x`` is one ``(T, d)`` series.  The fit is scale-free: ``unmix(c * x).gamma``
    is ``unmix(x).gamma / c`` up to rounding for any ``c`` that keeps ``x``
    finite and normal.

    Raises
    ------
    DimensionError
        If ``x`` is not one series or ``tau`` is not an integer in ``[1, T-2]``.
    NonFiniteError
        If ``x`` holds a NaN or an infinity.
    NotPositiveDefiniteError
        If the sample covariance is degenerate.
    """
    a = _shaped(x)
    tau = _checked_lag(tau, len(a), 1)
    return _fit_centered(*_centered(_planes(a)), tau)[0]


def apply_unmixing(result: UnmixingResult, x) -> np.ndarray:
    """Recover the latent series: row ``t`` of one ``(T, d)`` series maps to ``gamma (x_t - mu)``.

    Blocks of rows go straight into the result, with no centered copy of
    the series beside it.  The last block takes the remainder: numpy maps a
    lone row through the matrix-vector kernel, which rounds differently.
    """
    a = as_timeseries(x, min_length=1)
    if result.gamma.shape != (a.shape[1], a.shape[1]):
        raise DimensionError(
            f"series has {a.shape[1]} components, unmixing matrix is {result.gamma.shape}")
    out = np.empty(a.shape, complex)
    edges = [*range(0, max(len(a) - APPLY_BLOCK_ROWS, 0) + 1, APPLY_BLOCK_ROWS), len(a)]
    for start, stop in zip(edges, edges[1:]):
        np.matmul(a[start:stop] - result.mu, result.gamma.T, out=out[start:stop])
    return out


def lag_sweep(x, taus) -> list[dict]:
    """Fit one unmixing per lag and rank lags by eigenvalue separation.

    ``x`` is one ``(T, d)`` series, validated and centered once.  Returns
    one row per lag with keys ``tau``, ``lambdas`` and ``eigen_gap``,
    sorted by ``eigen_gap`` descending.  Lags whose diagonal entries sit
    close together carry little separation information; trying several
    lags and preferring a large gap is the practical selection rule.
    """
    a = _shaped(x)
    if not hasattr(taus, "__iter__"):
        raise DimensionError(f"taus must be an iterable of lags, got {taus!r}")
    centered = _centered(_planes(a))
    rows = []
    for tau in taus:
        res = _fit_centered(*centered, _checked_lag(tau, len(a), 1))[0]
        rows.append({"tau": res.tau, "lambdas": res.lambdas, "eigen_gap": res.eigen_gap})
    rows.sort(key=lambda r: -r["eigen_gap"])
    return rows
