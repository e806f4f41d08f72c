import warnings

import numpy as np
import pytest

from cbss import linalg
from cbss.errors import (
    CbssError,
    DimensionError,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def test_eig_diagonal_input():
    eig = linalg.hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=0)
    # eigenvectors equal the identity columns up to phase
    np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-14)


def test_eig_hand_2x2():
    eig = linalg.hermitian_eig(np.array([[2, 1j], [-1j, 2]]))
    np.testing.assert_allclose(eig.values, [3.0, 1.0], atol=1e-12)
    v = eig.vectors[:, 0]
    expected = np.array([1.0, -1j]) / np.sqrt(2)
    # compare up to phase via the projector
    np.testing.assert_allclose(np.outer(v, v.conj()),
                               np.outer(expected, expected.conj()), atol=1e-12)


def test_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    for d in (2, 5, 17, 50):
        m = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(m)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        rel = np.linalg.norm(recon - m) / np.linalg.norm(m)
        assert rel < 1e-10
        assert np.max(np.abs(eig.vectors.conj().T @ eig.vectors - np.eye(d))) < 1e-10
        assert np.all(np.diff(eig.values) <= 0)


def test_eig_trace_preserved():
    rng = np.random.default_rng(8)
    for d in (3, 20):
        m = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(m)
        np.testing.assert_allclose(eig.values.sum(), np.trace(m).real,
                                   rtol=1e-9, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        linalg.hermitian_eig(np.ones((2, 3)))


@pytest.mark.parametrize("exponent", [-500, -300, -40, 0, 40, 300, 500])
def test_hermitian_check_is_relative_to_scale(rng, exponent):
    # rounding-level asymmetry passes at any scale, a real one fails at any scale
    base = random_hermitian(rng, 3)
    noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    scale = 2.0 ** exponent
    eig = linalg.hermitian_eig((base + 1e-14 * noise) * scale)
    np.testing.assert_allclose(eig.values, linalg.hermitian_eig(base).values * scale,
                               rtol=1e-12)
    linalg.herm_inv_sqrt((np.eye(3) + 1e-14 * noise) * scale)
    for bad in (base + 1e-6 * noise, np.array([[0.0, 1.0], [0.0, 0.0]])):
        with pytest.raises(NotHermitianError) as info:
            linalg.hermitian_eig(bad * scale)
        assert isinstance(info.value, CbssError) and isinstance(info.value, ValueError)


def test_eig_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(NonFiniteError):
        linalg.inverse(np.array([[1.0, 0], [0, np.inf]]))


def test_inv_sqrt_diagonal():
    out = linalg.herm_inv_sqrt(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-14)


def test_inv_sqrt_hand_2x2():
    out = linalg.herm_inv_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
    third = 1.0 / np.sqrt(3.0)
    expected = 0.5 * np.array([[third + 1, third - 1], [third - 1, third + 1]])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out[0, 0], 0.78868, atol=5e-6)


def test_inv_sqrt_defining_property():
    rng = np.random.default_rng(9)
    for d in (2, 6, 15):
        a = rng.standard_normal((d, 2 * d)) + 1j * rng.standard_normal((d, 2 * d))
        m = a @ a.conj().T / (2 * d)
        p = linalg.herm_inv_sqrt(m)
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.max(np.abs(p @ m @ p - np.eye(d))) < 1e-9


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.herm_inv_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(NotPositiveDefiniteError):
        linalg.herm_inv_sqrt(np.diag([1.0, 0.0]))


def test_inverse_examples():
    np.testing.assert_allclose(linalg.inverse(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(linalg.inverse(np.diag([2.0, 4.0])),
                               np.diag([0.5, 0.25]), atol=1e-15)
    np.testing.assert_allclose(linalg.inverse([[1.0, 1.0], [0.0, 1.0]]),
                               [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_inverse_defining_property_and_involution():
    rng = np.random.default_rng(10)
    for d in (2, 5, 12):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) + 3 * np.eye(d)
        inv = linalg.inverse(m)
        assert np.max(np.abs(m @ inv - np.eye(d))) < 1e-9
        again = linalg.inverse(inv)
        assert np.max(np.abs(again - m)) / np.max(np.abs(m)) < 1e-8


def test_inverse_rejects_singular():
    # an exactly singular input raises the typed error and no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            linalg.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("exponent", [-600, 600])
def test_inverse_at_extreme_scales(exponent):
    scale = 2.0 ** exponent
    np.testing.assert_array_equal(linalg.inverse(np.eye(3) * scale), np.eye(3) / scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for singular in ([[1.0, 2.0], [2.0, 4.0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                         np.zeros((3, 3))):
            with pytest.raises(SingularMatrixError):
                linalg.inverse(np.array(singular) * scale)
