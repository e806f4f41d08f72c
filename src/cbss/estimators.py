"""Sample mean and lagged autocovariance estimators for complex series.

A time series is a ``(T, d)`` complex array, one observation per row; a
stacked block of ``B`` series of equal length is ``(B, T, d)``, and every
estimator returns one result per series along the leading axis.  The
lag-``tau`` cross products are always centered with the full-sample
mean; the divisor is ``T - 1`` at lag zero and ``T - tau`` otherwise.

Every call computes lag zero and its lag ``tau`` together: one complex
matrix product per time chunk of ``LAG_CHUNK`` steps gives both, from a
small buffer that holds the chunk's conjugates and those ``tau`` steps
later.  Each lag therefore always comes from a product of the same width,
so ``autocov_sym(x, 0)`` and ``autocov_sym(x, tau)`` equal the fit's
``S0`` and ``S_tau`` bit for bit, and no block-sized conjugate is made.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError
from .linalg import _hermitian_part

#: Time steps per chunk of the lag products.  Chunks start at multiples of
#: it whatever the block, so a stacked series sums exactly as it would alone.
LAG_CHUNK = 1024
#: Bytes of the conjugate operand of the lag products; a block's series are
#: taken in groups that fit, so the operand stays small for any block.
LAG_BUFFER_BYTES = 1 << 17


def as_timeseries(x, min_length: int = 2) -> np.ndarray:
    """Coerce to a finite ``(T, d)`` complex128 array or ``(B, T, d)`` block.

    1-D input is treated as a single-component series.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim not in (2, 3):
        raise DimensionError(f"time series must be 1-D, 2-D or a 3-D block, got shape {a.shape}")
    if a.shape[-2] < min_length:
        raise DimensionError(f"need at least {min_length} observations, got {a.shape[-2]}")
    if a.shape[-1] < 1:
        raise DimensionError("need at least one component")
    if not np.isfinite(a).all():
        raise NonFiniteError("time series contains non-finite entries")
    return a


def _checked_lag(tau, t: int, lowest: int) -> int:
    """``tau`` as an ``int`` in ``[lowest, t - 2]``; a bool, float or str is refused."""
    if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)):
        raise DimensionError(f"lag must be an integer, got {tau!r}")
    if not lowest <= tau <= t - 2:
        raise DimensionError(f"lag {tau} out of range [{lowest}, {t - 2}]")
    return int(tau)


def _centered(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(a - mean, mean)`` of a validated series or block, written to ``out``
    when given (``a`` itself centers in place)."""
    mu = a.mean(axis=-2)
    return np.subtract(a, mu[..., None, :], out=out), mu


def _cross_products(c: np.ndarray, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Unsymmetrized lag-0 and lag-``tau`` autocovariances of a centered
    series or block, from one product per time chunk."""
    block = c if c.ndim == 3 else c[None]
    b, t, d = block.shape
    heads = np.swapaxes(block, 1, 2)
    steps = min(LAG_CHUNK, t)
    group = min(b, max(1, LAG_BUFFER_BYTES // (steps * 2 * d * block.itemsize)))
    # per series, the rows conj c_t then conj c_{t+tau} (zero past the end)
    conj = np.empty((group, 2 * d, steps), dtype=np.complex128)
    acc = np.zeros((b, 2 * d, d), dtype=np.complex128)
    for first in range(0, b, group):
        head = heads[first:first + group]
        for start in range(0, t, steps):
            n = min(steps, t - start)
            shifted = min(n, max(t - start - tau, 0))
            rows = conj[:len(head), :, :n]
            np.conjugate(head[..., start:start + n], out=rows[:, :d])
            np.conjugate(head[..., start + tau:start + tau + shifted], out=rows[:, d:, :shifted])
            rows[:, d:, shifted:] = 0.0
            acc[first:first + group] += rows @ np.swapaxes(head[..., start:start + n], 1, 2)
    pair = np.swapaxes(acc, 1, 2)
    s0, s_tau = pair[..., :d] / (t - 1), pair[..., d:] / (t - tau if tau else t - 1)
    return (s0, s_tau) if c.ndim == 3 else (s0[0], s_tau[0])


def sample_mean(x) -> np.ndarray:
    """Arithmetic mean of each component."""
    return as_timeseries(x, min_length=1).mean(axis=-2)


def autocov_unsym(x, tau: int) -> np.ndarray:
    """Unsymmetrized lag-``tau`` autocovariance matrix.

    Entry ``(j, k)`` is ``sum_t (x_t[j] - mu[j]) * conj(x_{t+tau}[k] - mu[k])``
    divided by ``T - 1`` (lag 0) or ``T - tau``.  ``tau`` is an integer in
    ``[0, T - 2]``; any other lag raises ``DimensionError``.
    """
    a = as_timeseries(x)
    tau = _checked_lag(tau, a.shape[-2], 0)
    s0, s_tau = _cross_products(_centered(a)[0], tau)
    return s_tau if tau else s0


def autocov_sym(x, tau: int) -> np.ndarray:
    """Symmetrized lag-``tau`` autocovariance; always conjugate symmetric."""
    return _hermitian_part(autocov_unsym(x, tau))
