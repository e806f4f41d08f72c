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
from .estimators import _centered, _cross_products, as_timeseries, autocov_sym, sample_mean
from .linalg import _conj_t, _eigh, _hermitian_part, _inv_sqrt

#: Diagonal or inner-product moduli at or below this, relative to the scale
#: of their rows, are treated as phase-undefined.
PHASE_TOL = 1e-14


@dataclass(frozen=True)
class UnmixingResult:
    """Fitted unmixing matrix with its diagonalized lag spectrum.

    ``gamma`` is phase-standardized (non-negative real diagonal),
    ``lambdas`` holds the non-increasing real diagonal of
    ``gamma S_tau gamma^H`` and ``eigen_gap`` the smallest consecutive
    spacing of ``lambdas``.  Identifiability needs distinct values, so a
    tiny gap is reported rather than treated as an error; as a rule of
    thumb, components whose gap is below ``1e-3`` times the spread
    ``lambdas[0] - lambdas[-1]`` should not be trusted.  A fit of a
    stacked ``(B, T, d)`` block holds one of each per series, stacked
    along the leading axis.
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
    if g.shape[-2] != g.shape[-1]:
        raise DimensionError(f"expected a square matrix, got {g.shape}")
    return _standardize(g)


def align_phase_to(gamma_hat, gamma_ref) -> np.ndarray:
    """Rotate rows of ``gamma_hat`` to best match ``gamma_ref``.

    Row ``j`` is multiplied by the unit complex number minimizing the
    Frobenius distance to the reference row, i.e. ``conj(u)/|u|`` with
    ``u = <row_j(gamma_hat), row_j(gamma_ref)>``.  ``gamma_hat`` may be a
    stack of matrices, each aligned to the same reference.  Raises
    ``PhaseError`` when some row pair is orthogonal (alignment undefined):
    ``|u|`` is at most ``PHASE_TOL`` times the product of the two row norms.
    """
    g = linalg.as_cmatrix(gamma_hat)
    ref = linalg.as_cmatrix(gamma_ref)
    if g.shape[-2:] != ref.shape or ref.ndim != 2:
        raise DimensionError(f"shape mismatch: {g.shape} vs {ref.shape}")
    u = np.sum(g * np.conj(ref), axis=-1)
    mod = np.abs(u)
    small = mod <= PHASE_TOL * np.linalg.norm(g, axis=-1) * np.linalg.norm(ref, axis=-1)
    if np.any(small):
        bad = int(np.argmax(small)) % mod.shape[-1]
        raise PhaseError(f"row {bad} is orthogonal to its reference; alignment undefined")
    return (np.conj(u) / mod)[..., None] * g


def _fit(s0: np.ndarray, s_tau: np.ndarray):
    """``(gamma, lambdas, eigen_gap)`` from exactly Hermitian ``s0`` and any ``s_tau``."""
    sig0 = _inv_sqrt(s0)
    eig = _eigh(_hermitian_part(sig0 @ s_tau @ sig0))
    gamma = _standardize(_conj_t(eig.vectors) @ sig0)
    lam = eig.values
    gap = np.min(lam[..., :-1] - lam[..., 1:], axis=-1, initial=np.inf)
    return gamma, lam, float(gap) if gap.ndim == 0 else gap


def unmix_from_covariances(s0, s_tau, mu, tau: int) -> UnmixingResult:
    """Fit the unmixing matrix from precomputed scatter matrices.

    This is the plug-in seam for alternative affine-equivariant scatter
    estimators: any conjugate-symmetric positive-definite ``s0`` and
    conjugate-symmetric ``s_tau`` work, one pair or a stack of pairs.
    The solution is ``V^H s0^{-1/2}`` where ``V`` diagonalizes the
    whitened ``s_tau``, eigenvalues sorted non-increasing, rows
    phase-standardized.
    """
    s0 = linalg._checked_hermitian(s0)
    gamma, lam, gap = _fit(s0, linalg.as_cmatrix(s_tau, "s_tau"))
    return UnmixingResult(gamma=gamma, lambdas=lam,
                          mu=np.asarray(mu, dtype=np.complex128).reshape(s0.shape[:-1]),
                          tau=int(tau), eigen_gap=gap)


def _checked_lag(tau, a: np.ndarray) -> int:
    tau, t = int(tau), a.shape[-2]
    if tau < 1 or tau > t - 2:
        raise DimensionError(f"lag {tau} out of range [1, {t - 2}]")
    return tau


def _fit_centered(c: np.ndarray, mu: np.ndarray, tau: int):
    """``(result, s0, s_tau)`` of a validated series or block ``c`` centered
    at its time mean ``mu``, with ``tau`` in range."""
    s0, s_tau = (_hermitian_part(s) for s in _cross_products(c, (0, tau)))
    gamma, lam, gap = _fit(s0, s_tau)
    return UnmixingResult(gamma=gamma, lambdas=lam, mu=mu, tau=tau, eigen_gap=gap), s0, s_tau


def unmix(x, tau: int) -> UnmixingResult:
    """Fit the unmixing matrix from the lag-0 and lag-``tau`` autocovariances.

    ``x`` is one ``(T, d)`` series or a stacked ``(B, T, d)`` block, which
    is validated once and fitted series by series.

    Raises
    ------
    DimensionError
        If ``tau`` is outside ``[1, T-2]``.
    NotPositiveDefiniteError
        If the sample covariance is degenerate.
    """
    a = as_timeseries(x)
    tau = _checked_lag(tau, a)
    return _fit_centered(*_centered(a), tau)[0]


def apply_unmixing(result: UnmixingResult, x) -> np.ndarray:
    """Recover the latent series: row ``t`` maps to ``gamma (x_t - mu)``."""
    a = as_timeseries(x, min_length=1)
    if a.shape[-1] != result.gamma.shape[-1]:
        raise DimensionError(
            f"series has {a.shape[-1]} components, unmixing matrix is {result.gamma.shape}")
    return (a - result.mu[..., None, :]) @ np.swapaxes(result.gamma, -1, -2)


def lag_sweep(x, taus) -> list[dict]:
    """Fit one unmixing per lag and rank lags by eigenvalue separation.

    Returns one row per lag with keys ``tau``, ``lambdas`` and
    ``eigen_gap``, sorted by ``eigen_gap`` descending.  Lags whose
    diagonal entries sit close together carry little separation
    information; trying several lags and preferring a large gap is the
    practical selection rule.
    """
    a = as_timeseries(x)
    s0, mu = autocov_sym(a, 0), sample_mean(a)
    rows = []
    for tau in taus:
        res = unmix_from_covariances(s0, autocov_sym(a, _checked_lag(tau, a)), mu, tau)
        rows.append({"tau": int(tau), "lambdas": res.lambdas, "eigen_gap": res.eigen_gap})
    rows.sort(key=lambda r: -r["eigen_gap"])
    return rows
