"""Minimum-distance scoring of unmixing estimates against a known mixing.

The score is the normalized Frobenius distance from the gain matrix
``G = gamma_hat @ mixing`` to the class of matrices with exactly one
nonzero complex entry per row and per column (phase/permutation/scale
freedom): the MD index of Ilmonen, Nordhausen, Oja & Ollila (2010).
Zero means perfect separation; values are clamped to [0, 1].  The score
depends on no row's scale; only an all-zero gain row leaves it undefined.

The row-to-column pairing is found by enumerating all ``d!``
permutations up to ``ENUMERATION_MAX_D``; above it, scipy's Hungarian
solver is imported on first use.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import DimensionError, NonFiniteError, SingularMatrixError
from .linalg import _pow2_scaled

#: Relative slack when deciding that two assignment totals tie.
ASSIGNMENT_TIE_RTOL = 1e-12
#: Largest size solved by enumerating every permutation (4! = 24 totals).
ENUMERATION_MAX_D = 4


def linear_sum_assignment(cost):
    """``scipy.optimize.linear_sum_assignment``, importing scipy on the first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def solve_assignment(cost) -> np.ndarray:
    """Exact minimum-cost row-to-column assignment.

    Returns ``perm`` with ``perm[row] = column`` minimizing
    ``sum(cost[row, perm[row]])``.  Among assignments whose totals tie
    with the optimum to ``ASSIGNMENT_TIE_RTOL`` the lexicographically
    smallest permutation is returned, so ties resolve deterministically.
    Up to ``ENUMERATION_MAX_D`` rows every permutation is enumerated;
    above it ``linear_sum_assignment`` fixes the columns row by row.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size:
        raise DimensionError(f"cost matrix must be square and non-empty, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("cost matrix contains non-finite entries")
    return _assign(c)


def _assign(c: np.ndarray) -> np.ndarray:
    """``solve_assignment`` of a finite square cost matrix or of each in a stack."""
    d = c.shape[-1]
    flat = c.reshape(-1, d, d)
    tol = ASSIGNMENT_TIE_RTOL * np.maximum(1.0, np.abs(flat).reshape(len(flat), -1).sum(axis=1))
    if d <= ENUMERATION_MAX_D:
        # permutations() yields in lexicographic order: the first total
        # within the tie slack of the minimum is the answer
        perms = np.array(list(itertools.permutations(range(d))), dtype=np.intp)
        totals = flat[:, np.arange(d), perms].sum(axis=-1)
        best = np.argmax(totals <= totals.min(axis=1, keepdims=True) + tol[:, None], axis=1)
        return perms[best].reshape(c.shape[:-1])
    return np.array([_refine(m, t) for m, t in zip(flat, tol)]).reshape(c.shape[:-1])


def _refine(c: np.ndarray, tol: float) -> np.ndarray:
    """The lexicographically smallest optimal permutation, via the Hungarian solver.

    Fixes columns row by row, taking the first choice that still reaches
    the optimum.
    """
    d = c.shape[0]
    perm = np.empty(d, dtype=np.intp)
    free = list(range(d))
    remaining = _optimum(c)
    for row in range(d):
        for col in free:
            rest = c[np.ix_(range(row + 1, d), [f for f in free if f != col])]
            if c[row, col] + _optimum(rest) <= remaining + tol:
                break
        perm[row] = col
        free.remove(col)
        remaining -= c[row, col]
    return perm


def _optimum(block: np.ndarray) -> float:
    """Minimum assignment total of a square cost block; 0 for an empty one."""
    if not block.size:
        return 0.0
    rows, cols = linear_sum_assignment(block)
    return float(block[rows, cols].sum())


def md_index(gamma_hat, mixing):
    """Minimum-distance index of ``gamma_hat`` against the mixing matrix.

    For each candidate pairing of gain row ``j`` with latent slot ``k``
    the best one-entry scaling has residual ``1 - |G_jk|^2 / ||row_j||^2``;
    the pairing itself is optimized exactly, and the total is normalized
    by ``d - 1`` before the square root.  Each row of ``gamma_hat``, the
    mixing matrix as a whole and then each gain row are divided by the
    smallest power of two above their largest modulus, which is exact, so
    neither the product nor the squares overflow or underflow at any
    scale.  A stack of estimates scores each against the same mixing and
    returns an array.
    """
    g = linalg.as_cmatrix(gamma_hat, "gamma_hat")
    a = linalg.as_cmatrix(mixing, "mixing")
    if a.ndim != 2 or g.shape[-2:] != a.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected equal square shapes, got {g.shape} and {a.shape}")
    d = a.shape[0]
    if d < 2:
        raise DimensionError("the score is undefined for d < 2")
    a = _pow2_scaled(a)
    try:
        linalg.inverse(a)
    except SingularMatrixError:
        raise SingularMatrixError("mixing matrix is singular to tolerance") from None
    sq = np.abs(_pow2_scaled(_pow2_scaled(g, axis=-1) @ a, axis=-1)) ** 2
    row_norms = sq.sum(axis=-1)
    if np.any(row_norms == 0.0):
        raise SingularMatrixError("gain matrix has a zero row; score undefined")
    cost = 1.0 - sq / row_norms[..., None]
    perm = _assign(cost)
    total = np.take_along_axis(cost, perm[..., None], axis=-1)[..., 0].sum(axis=-1)
    raw = np.sqrt(np.maximum(total, 0.0) / (d - 1))
    assert np.all(raw <= 1.0 + 1e-9), f"unclamped score {np.max(raw)} exceeds 1"
    score = np.clip(raw, 0.0, 1.0)
    return float(score) if score.ndim == 0 else score
