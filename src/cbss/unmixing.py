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
from .estimators import as_timeseries, autocov_sym, sample_mean

#: Diagonal or inner-product moduli below this are treated as phase-undefined.
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
    ``lambdas[0] - lambdas[-1]`` should not be trusted.
    """

    gamma: np.ndarray
    lambdas: np.ndarray
    mu: np.ndarray
    tau: int
    eigen_gap: float


def standardize_phase(gamma) -> np.ndarray:
    """Rotate each row so the diagonal entry is real and non-negative.

    Raises ``PhaseError`` when a diagonal entry has modulus below
    ``PHASE_TOL`` (the canonical representative is undefined there).
    """
    g = linalg.as_cmatrix(gamma)
    if g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected a square matrix, got {g.shape}")
    diag = np.diag(g)
    mod = np.abs(diag)
    if np.any(mod <= PHASE_TOL):
        bad = int(np.argmin(mod))
        raise PhaseError(f"diagonal entry {bad} has modulus {mod[bad]:.3e}; phase undefined")
    out = (np.conj(diag) / mod)[:, None] * g
    # pin the diagonal exactly onto the real axis, preserving the modulus
    out[np.diag_indices_from(out)] = mod
    return out


def align_phase_to(gamma_hat, gamma_ref) -> np.ndarray:
    """Rotate rows of ``gamma_hat`` to best match ``gamma_ref``.

    Row ``j`` is multiplied by the unit complex number minimizing the
    Frobenius distance to the reference row, i.e. ``conj(u)/|u|`` with
    ``u = <row_j(gamma_hat), row_j(gamma_ref)>``.  Raises ``PhaseError``
    when some row pair is orthogonal (alignment undefined).
    """
    g = linalg.as_cmatrix(gamma_hat)
    ref = linalg.as_cmatrix(gamma_ref)
    if g.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {g.shape} vs {ref.shape}")
    u = np.sum(g * np.conj(ref), axis=1)
    mod = np.abs(u)
    if np.any(mod <= PHASE_TOL):
        bad = int(np.argmin(mod))
        raise PhaseError(f"row {bad} is orthogonal to its reference; alignment undefined")
    return (np.conj(u) / mod)[:, None] * g


def unmix_from_covariances(s0, s_tau, mu, tau: int) -> UnmixingResult:
    """Fit the unmixing matrix from precomputed scatter matrices.

    This is the plug-in seam for alternative affine-equivariant scatter
    estimators: any conjugate-symmetric positive-definite ``s0`` and
    conjugate-symmetric ``s_tau`` work.  The solution is
    ``V^H s0^{-1/2}`` where ``V`` diagonalizes the whitened ``s_tau``,
    eigenvalues sorted non-increasing, rows phase-standardized.
    """
    s0 = linalg.as_cmatrix(s0, "s0")
    sig0 = linalg.herm_inv_sqrt(s0)
    m = sig0 @ linalg.as_cmatrix(s_tau, "s_tau") @ sig0
    eig = linalg.hermitian_eig(0.5 * (m + m.conj().T))
    gamma = standardize_phase(eig.vectors.conj().T @ sig0)
    lam = eig.values
    gap = float(np.min(lam[:-1] - lam[1:])) if lam.size > 1 else float("inf")
    return UnmixingResult(gamma=gamma, lambdas=lam,
                          mu=np.asarray(mu, dtype=np.complex128).reshape(-1),
                          tau=int(tau), eigen_gap=gap)


def unmix(x, tau: int) -> UnmixingResult:
    """Fit the unmixing matrix from the lag-0 and lag-``tau`` autocovariances.

    Raises
    ------
    DimensionError
        If ``tau`` is outside ``[1, T-2]``.
    NotPositiveDefiniteError
        If the sample covariance is degenerate.
    """
    a = as_timeseries(x)
    t = a.shape[0]
    tau = int(tau)
    if tau < 1 or tau > t - 2:
        raise DimensionError(f"lag {tau} out of range [1, {t - 2}]")
    return unmix_from_covariances(autocov_sym(a, 0), autocov_sym(a, tau),
                                  sample_mean(a), tau)


def apply_unmixing(result: UnmixingResult, x) -> np.ndarray:
    """Recover the latent series: row ``t`` maps to ``gamma (x_t - mu)``."""
    a = as_timeseries(x, min_length=1)
    if a.shape[1] != result.gamma.shape[0]:
        raise DimensionError(
            f"series has {a.shape[1]} components, unmixing matrix is {result.gamma.shape}")
    return (a - result.mu) @ result.gamma.T


def lag_sweep(x, taus) -> list[dict]:
    """Fit one unmixing per lag and rank lags by eigenvalue separation.

    Returns one row per lag with keys ``tau``, ``lambdas`` and
    ``eigen_gap``, sorted by ``eigen_gap`` descending.  Lags whose
    diagonal entries sit close together carry little separation
    information; trying several lags and preferring a large gap is the
    practical selection rule.
    """
    rows = []
    for tau in taus:
        res = unmix(x, tau)
        rows.append({"tau": int(tau), "lambdas": res.lambdas, "eigen_gap": res.eigen_gap})
    rows.sort(key=lambda r: -r["eigen_gap"])
    return rows
