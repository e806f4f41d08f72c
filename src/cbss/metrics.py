"""Minimum-distance scoring of unmixing estimates against a known mixing.

The score is the normalized Frobenius distance from the gain matrix
``G = gamma_hat @ mixing`` to the class of matrices with exactly one
nonzero complex entry per row and per column (phase/permutation/scale
freedom).  Zero means perfect separation; values are clamped to [0, 1].
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import linalg
from .errors import DimensionError, SingularMatrixError

#: Row norms below this make the score undefined.
ZERO_ROW_TOL = 1e-14
#: Relative slack when deciding that two assignment totals tie.
ASSIGNMENT_TIE_RTOL = 1e-12


def solve_assignment(cost) -> np.ndarray:
    """Exact minimum-cost row-to-column assignment.

    Returns ``perm`` with ``perm[row] = column`` minimizing
    ``sum(cost[row, perm[row]])``.  Among optimal assignments the
    lexicographically smallest permutation is returned, so ties resolve
    deterministically.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cost matrix must be square, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    d = c.shape[0]
    tol = ASSIGNMENT_TIE_RTOL * max(1.0, float(np.sum(np.abs(c))))

    # refine to the lexicographically smallest optimal permutation: fix
    # columns row by row, taking the first choice that still reaches the optimum
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


def md_index(gamma_hat, mixing) -> float:
    """Minimum-distance index of ``gamma_hat`` against the mixing matrix.

    For each candidate pairing of gain row ``j`` with latent slot ``k``
    the best one-entry scaling has residual ``1 - |G_jk|^2 / ||row_j||^2``;
    the pairing itself is optimized exactly, and the total is normalized
    by ``d - 1`` before the square root.
    """
    g = linalg.as_cmatrix(gamma_hat, "gamma_hat")
    a = linalg.as_cmatrix(mixing, "mixing")
    if g.shape != a.shape or g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected equal square shapes, got {g.shape} and {a.shape}")
    d = g.shape[0]
    if d < 2:
        raise DimensionError("the score is undefined for d < 2")
    try:
        linalg.inverse(a)
    except SingularMatrixError:
        raise SingularMatrixError("mixing matrix is singular to tolerance") from None
    gain = g @ a
    sq = np.abs(gain) ** 2
    row_norms = sq.sum(axis=1)
    if np.any(np.sqrt(row_norms) <= ZERO_ROW_TOL):
        raise SingularMatrixError("gain matrix has a zero row; score undefined")
    cost = 1.0 - sq / row_norms[:, None]
    perm = solve_assignment(cost)
    total = float(cost[np.arange(d), perm].sum())
    raw = np.sqrt(max(total, 0.0) / (d - 1))
    assert raw <= 1.0 + 1e-9, f"unclamped score {raw} exceeds 1"
    return float(min(max(raw, 0.0), 1.0))
