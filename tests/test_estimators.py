import numpy as np
import pytest

from cbss import estimators, genproc, linalg, unmixing
from cbss.errors import DimensionError, NonFiniteError

from conftest import short_range_model

X3 = np.array([1.0, 1j, -1.0])


def naive_autocov(x, tau):
    """Double-loop oracle for the lagged cross-product matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    if x.shape[0] == 1:
        x = x.T
    t, d = x.shape
    mu = x.mean(axis=0)
    acc = np.zeros((d, d), dtype=complex)
    for j in range(t - tau):
        acc += np.outer(x[j] - mu, np.conj(x[j + tau] - mu))
    return acc / ((t - 1) if tau == 0 else (t - tau))


def test_mean_constant():
    x = np.tile(np.array([2.0 - 1j, 0.5j]), (7, 1))
    np.testing.assert_array_equal(estimators.sample_mean(x), [2.0 - 1j, 0.5j])


def test_mean_hand_value():
    np.testing.assert_allclose(estimators.sample_mean(X3), [1j / 3], atol=1e-16)


def test_mean_antisymmetric_pairs():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    x = np.vstack([v, -v])
    np.testing.assert_allclose(estimators.sample_mean(x), np.zeros(3), atol=1e-15)


@pytest.mark.parametrize("layout", ["component-major", "row-major"])
def test_sample_mean_is_the_fitted_mu(layout):
    # the mean apply_unmixing subtracts, to the last bit
    x = genproc.generate(short_range_model(), 1000, 3)[0]
    if layout == "row-major":
        x = np.ascontiguousarray(x)
    assert np.array_equal(estimators.sample_mean(x), unmixing.unmix(x, 1).mu)


def test_autocov_hand_values():
    np.testing.assert_allclose(estimators.autocov_unsym(X3, 0), [[4.0 / 3.0]], atol=1e-15)
    np.testing.assert_allclose(estimators.autocov_unsym(X3, 1),
                               [[-2.0 / 9.0 - 2.0j / 3.0]], atol=1e-15)
    np.testing.assert_allclose(estimators.autocov_sym(X3, 1), [[-2.0 / 9.0]], atol=1e-15)


def test_autocov_constant_rows():
    x = np.tile(np.array([1 + 1j, -2.0]), (6, 1))
    np.testing.assert_allclose(estimators.autocov_unsym(x, 0), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(estimators.autocov_unsym(x, 2), np.zeros((2, 2)), atol=1e-15)


def test_autocov_sym_hermitian_psd_at_lag0(rng):
    x = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    s0 = estimators.autocov_sym(x, 0)
    assert np.max(np.abs(s0 - s0.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(s0)) > 0
    for tau in range(0, 5):
        st = estimators.autocov_sym(x, tau)
        assert np.max(np.abs(st - st.conj().T)) < 1e-12
        assert np.max(np.abs(np.diag(st).imag)) == 0.0


def test_matches_naive_oracle(rng):
    for t, d in ((5, 1), (17, 2), (50, 4)):
        x = rng.standard_normal((t, d)) + 1j * rng.standard_normal((t, d))
        for tau in (0, 1, 2, 3):
            got = estimators.autocov_unsym(x, tau)
            np.testing.assert_allclose(got, naive_autocov(x, tau), atol=1e-12)


def test_affine_equivariance(rng):
    x = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
    b_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = x @ b_mat.T + b_vec
    for tau in (0, 1, 4):
        lhs_u = estimators.autocov_unsym(y, tau)
        rhs_u = b_mat @ estimators.autocov_unsym(x, tau) @ b_mat.conj().T
        assert np.max(np.abs(lhs_u - rhs_u)) < 1e-9
        lhs_s = estimators.autocov_sym(y, tau)
        rhs_s = b_mat @ estimators.autocov_sym(x, tau) @ b_mat.conj().T
        assert np.max(np.abs(lhs_s - rhs_s)) < 1e-9


def test_shift_invariance(rng):
    x = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    shift = np.array([5.0 - 2j, -3.0 + 7j])
    for tau in (0, 1, 3):
        np.testing.assert_allclose(estimators.autocov_unsym(x + shift, tau),
                                   estimators.autocov_unsym(x, tau), atol=1e-10)


def test_lag_out_of_range():
    with pytest.raises(DimensionError):
        estimators.autocov_unsym(X3, 2)
    with pytest.raises(DimensionError):
        estimators.autocov_unsym(X3, -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_series_is_a_numerical_error(bad):
    with pytest.raises(NonFiniteError):
        estimators.autocov_sym(np.array([1.0, bad, -1.0]), 0)


def dense_autocov(x, tau):
    """The lag product of the complex series, the plane Gram kernel's reference."""
    c = x - x.mean(axis=0)
    t = len(c)
    return c[:t - tau].T @ np.conj(c[tau:]) / (t - tau if tau else t - 1)


@pytest.mark.parametrize("t", [1023, 1024, 1025, 3079])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("layout", ["row-major", "component-major"])
def test_chunked_lag_products_match_one_dense_product(t, b, layout):
    # the real Gram products of the part planes give the complex lag
    # products, at lags from 0 up to T - 2, whatever the input's memory order
    rng = np.random.default_rng(t + b)
    planes = rng.standard_normal((b, 4, t))
    block = estimators._complex(planes)
    # the lab's kernel on a centered plane block, as it scores its draws, each
    # series at unit scale and scaled back by its own exact power of two
    y, _, shift = estimators._centered(planes)
    for tau in sorted({0, 1, 2, 1023, 1024, 1025, t // 2, t - 2}):
        if tau > t - 2:
            continue
        lab = linalg._ldexp(estimators._cross_products(y, tau)[1], -2 * shift[:, None, None])
        for row, series in zip(lab, block):
            # a series of a plane block sums exactly as it does alone
            assert np.array_equal(row, estimators.autocov_unsym(series, tau))
            if layout == "row-major":
                series = np.ascontiguousarray(series)
            want = dense_autocov(series, tau)
            np.testing.assert_allclose(estimators.autocov_unsym(series, tau), want,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(estimators.autocov_sym(series, tau),
                                       (want + np.conj(want.T)) / 2, rtol=0, atol=1e-12)
