import numpy as np
import pytest

from cbss import fourier
from cbss.errors import DimensionError, NonFiniteError


def direct_dft(x):
    """O(N^2) transform straight from the definition; the oracle."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def test_impulse():
    np.testing.assert_allclose(fourier.fft([1, 0, 0, 0]), np.ones(4), atol=1e-15)


def test_shifted_impulse():
    np.testing.assert_allclose(fourier.fft([0, 1, 0, 0]),
                               [1, -1j, -1, 1j], atol=1e-15)


def test_constant():
    np.testing.assert_allclose(fourier.fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)


def test_ifft_examples():
    np.testing.assert_allclose(fourier.ifft([4, 0, 0, 0]), np.ones(4), atol=1e-15)
    np.testing.assert_allclose(fourier.ifft([1, 1]), [1, 0], atol=1e-15)


def test_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 8, 12, 31, 128, 1000):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fourier.ifft(fourier.fft(x)), x, atol=1e-12)


def test_matches_direct_dft_up_to_64():
    rng = np.random.default_rng(4)
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(fourier.fft(x) - direct_dft(x))) < 1e-10


def test_parseval():
    rng = np.random.default_rng(5)
    for n in (16, 37, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = fourier.fft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spec) ** 2) / n
        np.testing.assert_allclose(freq_energy, time_energy, rtol=1e-10)


def test_linearity():
    rng = np.random.default_rng(6)
    n = 48
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a, b = 1.7 - 0.3j, -2.2 + 1.1j
    lhs = fourier.fft(a * x + b * y)
    rhs = a * fourier.fft(x) + b * fourier.fft(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_large_power_of_two_against_numpy_free_oracle():
    # spot-check a long power-of-two transform via Parseval and round trip
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1 << 15) + 1j * rng.standard_normal(1 << 15)
    spec = fourier.fft(x)
    np.testing.assert_allclose(np.sum(np.abs(spec) ** 2) / x.size,
                               np.sum(np.abs(x) ** 2), rtol=1e-10)
    np.testing.assert_allclose(fourier.ifft(spec), x, atol=1e-10)


def test_empty_and_bad_inputs():
    with pytest.raises(DimensionError):
        fourier.fft([])
    with pytest.raises(DimensionError):
        fourier.ifft(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fourier.fft([np.inf, 0.0])
    with pytest.raises(NonFiniteError):
        fourier.ifft([0.0, np.nan])
