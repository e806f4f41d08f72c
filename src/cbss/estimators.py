"""Sample mean and lagged autocovariance estimators for complex series.

A time series is one ``(T, d)`` complex array, one observation per row
(1-D input is one component); a 3-D block is refused.  The lag-``tau``
cross products are always centered with the full-sample mean; the
divisor is ``T - 1`` at lag zero and ``T - tau`` otherwise.

The products run on part planes, the one layout this module converts
to (``_planes``) and from (``_complex``): a series becomes ``2d`` real
rows of ``T`` steps, the ``d`` real parts and then the ``d`` imaginary
ones.  ``_centered`` centers planes in place: the estimators and
``unmix`` a fresh copy, the lab the planes it draws.  With ``y`` the
centered rows, the lags come from the two real Gram products
``p0 = y y^T`` and ``p_tau = y[:, :T-tau] y[:, tau:]^T``, and
``S = ((rr + ii) + i (ir - ri)) / divisor`` from the real-real,
imaginary-imaginary and mixed blocks of ``p``, so ``autocov_sym(x, 0)``
and ``autocov_sym(x, tau)`` equal the fit's ``S0`` and ``S_tau`` bit for
bit.  The lab's blocks ``(B, 2d, T)`` go through the same kernels, each
series taking the product it would take alone.

The products are scale-free: every series is brought to unit scale by its
own power of two, which is exact, and the results are scaled back.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError
from .linalg import _hermitian_part, _ldexp


def _shaped(x, min_length: int = 2) -> np.ndarray:
    """``x`` as one ``(T, d)`` complex128 series, finite or not."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"time series must be 1-D or 2-D, got shape {a.shape}")
    if a.shape[0] < min_length:
        raise DimensionError(f"need at least {min_length} observations, got {a.shape[0]}")
    if a.shape[1] < 1:
        raise DimensionError("need at least one component")
    return a


def as_timeseries(x, min_length: int = 2) -> np.ndarray:
    """Coerce to a finite ``(T, d)`` complex128 array; 1-D input is one component."""
    a = _shaped(x, min_length)
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


def _planes(a: np.ndarray) -> np.ndarray:
    """New real part planes ``(2d, T)`` of a complex ``(T, d)`` series.

    ``concatenate`` keeps the memory order of ``a`` (ties in C order), so
    the planes of a component-major series (``generate``'s) or of one
    component are contiguous runs of time, like the lab's draws, and
    those of a row-major series (a CSV's) stay time-major.
    """
    return np.concatenate((a.real.T, a.imag.T))


def _complex(planes: np.ndarray) -> np.ndarray:
    """The complex ``(..., T, d)`` series of part planes, each component one run of memory."""
    d = planes.shape[-2] // 2
    out = np.empty(planes.shape[:-2] + (d, planes.shape[-1]), dtype=np.complex128)
    out.real, out.imag = planes[..., :d, :], planes[..., d:, :]
    return np.swapaxes(out, -1, -2)


def _centered(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(y, mu, shift)``: part planes centered in place at unit scale, their mean and scale.

    ``y`` holds the real part planes ``(..., 2d, T)`` of one series or a
    block of them and is overwritten.  A non-finite part raises
    ``NonFiniteError``.  Each series is multiplied by ``2^shift``, its own
    ``shift`` (int32) the negated ``frexp`` exponent of its largest part, so
    that part lies in ``[1/2, 1)``, and is then centered.  So a series has
    the same unit-scale planes alone, in any block or scaled by any exact
    ``2^k``.  ``mu`` is the complex mean of the input itself.
    """
    # np.maximum, not max(): a NaN at either end must reach the check
    top = np.maximum(np.max(y, axis=(-2, -1)), -np.min(y, axis=(-2, -1)))
    if not np.isfinite(top).all():
        raise NonFiniteError("time series contains non-finite entries")
    # int32: ldexp casts wider exponents through a buffer
    shift = -np.frexp(top)[1]
    np.ldexp(y, shift[..., None, None], out=y)
    mean = y.mean(axis=-1)
    # C order: on time-major planes the default order takes a 64 KB ufunc
    # buffer, which moves the heap and a CLI run's peak memory
    np.subtract(y, mean[..., None], out=y, order="C")
    mu = _complex(mean[..., None])[..., 0, :]
    return y, _ldexp(mu, -shift[..., None]), shift


def _lag_matrix(p: np.ndarray, divisor: int) -> np.ndarray:
    """``((rr + ii) + i (ir - ri)) / divisor`` from a real ``(..., 2d, 2d)`` Gram product."""
    d = p.shape[-1] // 2
    s = np.empty(p.shape[:-2] + (d, d), dtype=np.complex128)
    np.divide(p[..., :d, :d] + p[..., d:, d:], divisor, out=s.real)
    np.divide(p[..., d:, :d] - p[..., :d, d:], divisor, out=s.imag)
    return s


def _cross_products(y: np.ndarray, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Unsymmetrized lag-0 and lag-``tau`` autocovariances of centered part planes."""
    t = y.shape[-1]
    s0 = _lag_matrix(y @ np.swapaxes(y, -1, -2), t - 1)
    if not tau:
        return s0, s0
    return s0, _lag_matrix(y[..., :t - tau] @ np.swapaxes(y[..., tau:], -1, -2), t - tau)


def sample_mean(x) -> np.ndarray:
    """Arithmetic mean of each component: the ``mu`` that ``unmix`` fits."""
    return _centered(_planes(_shaped(x, min_length=1)))[1]


def _autocov(x, tau: int, part) -> np.ndarray:
    """``part`` of the lag-``tau`` autocovariance, taken before the scale-back."""
    a = _shaped(x)
    tau = _checked_lag(tau, len(a), 0)
    y, _, shift = _centered(_planes(a))
    return _ldexp(part(_cross_products(y, tau)[1]), -2 * shift, f"the lag-{tau} autocovariance")


def autocov_unsym(x, tau: int) -> np.ndarray:
    """Unsymmetrized lag-``tau`` autocovariance matrix.

    Entry ``(j, k)`` is ``sum_t (x_t[j] - mu[j]) * conj(x_{t+tau}[k] - mu[k])``
    divided by ``T - 1`` (lag 0) or ``T - tau``.  ``tau`` is an integer in
    ``[0, T - 2]``; any other lag raises ``DimensionError``, and a matrix
    that leaves the double range raises ``NonFiniteError``.
    """
    return _autocov(x, tau, np.asarray)


def autocov_sym(x, tau: int) -> np.ndarray:
    """Symmetrized lag-``tau`` autocovariance; always conjugate symmetric.  Its
    halves are taken before the scale-back, so that none is subnormal."""
    return _autocov(x, tau, _hermitian_part)
