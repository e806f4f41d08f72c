"""Sample mean and lagged autocovariance estimators for complex series.

A time series is a ``(T, d)`` complex array, one observation per row.
The lag-``tau`` cross products are always centered with the full-sample
mean; the divisor is ``T - 1`` at lag zero and ``T - tau`` otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError


def as_timeseries(x, min_length: int = 2) -> np.ndarray:
    """Coerce to a finite ``(T, d)`` complex128 array.

    1-D input is treated as a single-component series.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"time series must be 1-D or 2-D, got shape {a.shape}")
    if a.shape[0] < min_length:
        raise DimensionError(f"need at least {min_length} observations, got {a.shape[0]}")
    if a.shape[1] < 1:
        raise DimensionError("need at least one component")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError("time series contains non-finite entries")
    return a


def sample_mean(x) -> np.ndarray:
    """Arithmetic mean of each component."""
    return as_timeseries(x, min_length=1).mean(axis=0)


def autocov_unsym(x, tau: int) -> np.ndarray:
    """Unsymmetrized lag-``tau`` autocovariance matrix.

    Entry ``(j, k)`` is ``sum_t (x_t[j] - mu[j]) * conj(x_{t+tau}[k] - mu[k])``
    divided by ``T - 1`` (lag 0) or ``T - tau``.
    """
    a = as_timeseries(x)
    t = a.shape[0]
    tau = int(tau)
    if tau < 0 or tau > t - 2:
        raise DimensionError(f"lag {tau} out of range [0, {t - 2}]")
    centered = a - a.mean(axis=0)
    head = centered[:t - tau] if tau else centered
    tail = centered[tau:] if tau else centered
    divisor = (t - 1) if tau == 0 else (t - tau)
    return (head.T @ np.conj(tail)) / divisor


def autocov_sym(x, tau: int) -> np.ndarray:
    """Symmetrized lag-``tau`` autocovariance; always conjugate symmetric."""
    s = autocov_unsym(x, tau)
    return 0.5 * (s + s.conj().T)

