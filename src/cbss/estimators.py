"""Sample mean and lagged autocovariance estimators for complex series.

A time series is a ``(T, d)`` complex array, one observation per row; a
stacked block of ``B`` series of equal length is ``(B, T, d)``, and every
estimator returns one result per series along the leading axis.  The
lag-``tau`` cross products are always centered with the full-sample
mean; the divisor is ``T - 1`` at lag zero and ``T - tau`` otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError
from .linalg import _hermitian_part


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


def _centered(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a - mean, mean)`` of a validated series or block."""
    mu = a.mean(axis=-2)
    return a - mu[..., None, :], mu


def _cross_products(c: np.ndarray, taus) -> list:
    """Unsymmetrized lag-``tau`` autocovariances of a centered series or block."""
    t = c.shape[-2]
    head_t, tail = np.swapaxes(c, -1, -2), np.conj(c)
    return [(head_t[..., :t - tau] @ tail[..., tau:, :]) / (t - tau if tau else t - 1)
            for tau in taus]


def sample_mean(x) -> np.ndarray:
    """Arithmetic mean of each component."""
    return as_timeseries(x, min_length=1).mean(axis=-2)


def autocov_unsym(x, tau: int) -> np.ndarray:
    """Unsymmetrized lag-``tau`` autocovariance matrix.

    Entry ``(j, k)`` is ``sum_t (x_t[j] - mu[j]) * conj(x_{t+tau}[k] - mu[k])``
    divided by ``T - 1`` (lag 0) or ``T - tau``.
    """
    a = as_timeseries(x)
    t = a.shape[-2]
    tau = int(tau)
    if tau < 0 or tau > t - 2:
        raise DimensionError(f"lag {tau} out of range [0, {t - 2}]")
    return _cross_products(_centered(a)[0], (tau,))[0]


def autocov_sym(x, tau: int) -> np.ndarray:
    """Symmetrized lag-``tau`` autocovariance; always conjugate symmetric."""
    return _hermitian_part(autocov_unsym(x, tau))
