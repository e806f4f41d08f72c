"""Validated 1-D DFT on numpy's pocketfft.

Any length is accepted.  Input must be a non-empty, finite 1-D signal;
the transforms themselves are ``numpy.fft.fft`` and ``numpy.fft.ifft``.

Convention: the forward transform is unnormalized,
``X_k = sum_n x_n exp(-2*pi*i*n*k/N)``, and the inverse carries ``1/N``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError


def _as_signal(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-D signal, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError("empty input")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError("signal contains non-finite entries")
    return a


def fft(x) -> np.ndarray:
    """Forward DFT of a 1-D complex signal (unnormalized)."""
    return np.fft.fft(_as_signal(x))


def ifft(x) -> np.ndarray:
    """Inverse DFT with ``1/N`` normalization; ``ifft(fft(v)) == v``."""
    return np.fft.ifft(_as_signal(x))
