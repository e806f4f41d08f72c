import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbss import asymlab, estimators, genproc, linalg, metrics, unmixing
from cbss.errors import DimensionError, PhaseError

from conftest import random_mixing, short_range_model, traced_peak


def test_scalar_series_closed_form():
    res = unmixing.unmix(np.array([1.0, 1j, -1.0]), 1)
    np.testing.assert_allclose(res.gamma, [[np.sqrt(3) / 2]], atol=1e-15)
    np.testing.assert_allclose(res.lambdas, [-1.0 / 6.0], atol=1e-15)
    np.testing.assert_allclose(res.mu, [1j / 3], atol=1e-16)
    assert res.eigen_gap == np.inf


def test_fixed_point_on_whitened_data():
    x, _ = genproc.generate(short_range_model(), 2048, seed=1)
    first = unmixing.unmix(x, 1)
    y = unmixing.apply_unmixing(first, x)
    second = unmixing.unmix(y, 1)
    assert np.max(np.abs(second.gamma - np.eye(3))) < 1e-8


BLOCK = unmixing.APPLY_BLOCK_ROWS


@pytest.mark.parametrize("t", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_apply_unmixing_in_row_blocks_is_exact(t, rng):
    def series(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = series(t, 3)
    fit = unmixing.unmix(series(64, 3), 1)
    for data in (x, np.asfortranarray(x)):
        want = (data - fit.mu) @ fit.gamma.T
        got = unmixing.apply_unmixing(fit, data)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_apply_unmixing_holds_no_centered_copy(rng):
    x = rng.standard_normal((65536, 3)) + 1j * rng.standard_normal((65536, 3))
    fit = unmixing.unmix(x[:64], 1)
    unmixing.apply_unmixing(fit, x[:64])
    peak = traced_peak(lambda: unmixing.apply_unmixing(fit, x))
    assert peak <= 1.25 * x.nbytes, peak / x.nbytes


def test_defining_equations(rng):
    mixing = random_mixing(rng, 3)
    x, _ = genproc.generate(short_range_model(mixing=mixing), 4096, seed=2)
    res = unmixing.unmix(x, 1)
    s0 = estimators.autocov_sym(x, 0)
    st = estimators.autocov_sym(x, 1)
    assert np.max(np.abs(res.gamma @ s0 @ res.gamma.conj().T - np.eye(3))) < 1e-8
    diagonalized = res.gamma @ st @ res.gamma.conj().T
    assert np.max(np.abs(diagonalized - np.diag(res.lambdas))) < 1e-8
    assert np.all(np.diff(res.lambdas) <= 0)
    # the fitted spectrum tracks the population lag-1 autocovariances,
    # unaffected by the mixing
    np.testing.assert_allclose(res.lambdas, [0.9, 0.5, 0.1], atol=0.1)
    # diagonal of the standardized estimate is on the non-negative real axis
    assert np.max(np.abs(np.diag(res.gamma).imag)) == 0.0
    assert np.min(np.diag(res.gamma).real) >= 0.0


def test_apply_unmixing_whitens_fitting_sample():
    x, _ = genproc.generate(short_range_model(), 1024, seed=3)
    res = unmixing.unmix(x, 1)
    y = unmixing.apply_unmixing(res, x)
    assert np.max(np.abs(estimators.autocov_sym(y, 0) - np.eye(3))) < 1e-8
    st = estimators.autocov_sym(y, 1)
    assert np.max(np.abs(st - np.diag(np.diag(st)))) < 1e-8


def test_apply_unmixing_identity_gamma():
    x = np.arange(12, dtype=float).reshape(6, 2) + 1j
    shift = np.array([1.0 + 1j, -2.0])
    res = unmixing.UnmixingResult(gamma=np.eye(2, dtype=complex),
                                  lambdas=np.array([1.0, 0.5]),
                                  mu=shift, tau=1, eigen_gap=0.5)
    np.testing.assert_allclose(unmixing.apply_unmixing(res, x), x - shift, atol=0)


def test_apply_unmixing_dimension_mismatch():
    res = unmixing.unmix(np.array([1.0, 1j, -1.0, 2.0]), 1)
    with pytest.raises(DimensionError):
        unmixing.apply_unmixing(res, np.ones((5, 3)))


def test_standardize_phase_closed_form():
    gamma = np.diag([np.exp(1j * np.pi / 4)])
    out = unmixing._standardize(gamma)
    np.testing.assert_allclose(out, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(np.exp(-1j * np.pi / 4) * gamma, out, atol=1e-15)


def test_standardize_phase_idempotent(rng):
    gamma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gamma += 3 * np.eye(3)  # keep the diagonal well away from zero
    out = unmixing._standardize(gamma)
    np.testing.assert_allclose(unmixing._standardize(out), out, atol=1e-15)


def test_standardize_phase_row_scaling_invariance(rng):
    gamma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    rotated = np.exp(1j * phases)[:, None] * gamma
    out_a = unmixing._standardize(gamma)
    out_b = unmixing._standardize(rotated)
    np.testing.assert_allclose(out_a, out_b, atol=1e-13)
    # moduli of the diagonal are preserved exactly
    np.testing.assert_array_equal(np.diag(out_b), np.abs(np.diag(rotated)))


def test_standardize_phase_zero_diagonal():
    with pytest.raises(PhaseError):
        unmixing._standardize(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def test_align_phase_exact_class_member(rng):
    ref = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    phases = rng.uniform(0, 2 * np.pi, 3)
    rotated = np.exp(1j * phases)[:, None] * ref
    np.testing.assert_allclose(unmixing.align_phase_to(rotated, ref), ref, atol=1e-13)
    np.testing.assert_allclose(unmixing.align_phase_to(ref, ref), ref, atol=1e-15)


def test_align_phase_scalar():
    np.testing.assert_allclose(unmixing.align_phase_to([[1j]], [[1.0]]), [[1.0]], atol=1e-15)


@pytest.mark.parametrize("k", [50, 300, 450])
def test_unmix_is_scale_free(k):
    # the phase tolerances are relative: 2^50 used to raise PhaseError
    x, _ = genproc.generate(short_range_model(), 4096, seed=3)
    base = unmixing.unmix(x, 1).gamma
    scaled = unmixing.unmix(x * 2.0 ** k, 1).gamma * 2.0 ** k
    assert np.max(np.abs(scaled - base)) <= 1e-12 * np.max(np.abs(base))


SCALE_SERIES = genproc.generate(short_range_model(), 4096, seed=7)[0]
SCALE_BASE = unmixing.unmix(SCALE_SERIES, 1)


def assert_fit_scales_back(scaled, factor):
    # the fit of factor * x gives gamma / factor, the same lambdas and factor * mu
    res = unmixing.unmix(scaled, 1)
    gamma = res.gamma * factor
    assert np.max(np.abs(gamma - SCALE_BASE.gamma)) <= 1e-12 * np.max(np.abs(SCALE_BASE.gamma))
    np.testing.assert_allclose(res.lambdas, SCALE_BASE.lambdas, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.mu / factor, SCALE_BASE.mu, rtol=0, atol=1e-13)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(-900, 900))
@example(-600)
@example(600)
def test_fit_is_equivariant_across_the_double_range(k):
    # S0 used to lose digits to subnormal products below about 2^-500,
    # to be refused below 2^-600 and to overflow above about 2^510
    assert_fit_scales_back(np.ldexp(SCALE_SERIES.real, k) + 1j * np.ldexp(SCALE_SERIES.imag, k),
                           2.0 ** k)


@pytest.mark.parametrize("factor", [1e-300, 1e-200, 1e-160, 1e155, 1e300])
def test_fit_is_scale_free_at_decimal_factors(factor):
    # at 1e-160 the fit used to be off by 1.4e-3 relative, with no error
    assert_fit_scales_back(SCALE_SERIES * factor, factor)


@pytest.mark.parametrize("seed, k", [(208, 50), (22, -150)])
def test_unmix_scales_bit_for_bit_by_any_exact_power_of_two(seed, k):
    # each series is whitened at its own unit scale: pow(v, -0.5) of the
    # covariances of x * 2^k need not be 2^-k times that of x's, bit for bit
    x = genproc.generate(short_range_model(), 1024, seed)[0]
    unit = unmixing.unmix(x, 1)
    # in x's memory order, which the Gram products' rounding follows
    got = unmixing.unmix(np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k), 1)
    for name, p in (("gamma", -k), ("lambdas", 0), ("mu", k)):
        want = linalg._ldexp(getattr(unit, name), p)
        assert getattr(got, name).tobytes() == want.tobytes(), name
    assert got.eigen_gap == unit.eigen_gap


def test_phase_tolerances_follow_the_row_scale():
    tiny = 1e-20 * np.array([[1j, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(unmixing._standardize(tiny),
                               1e-20 * np.array([[1.0, -2j], [-0.5, 1.0]]), rtol=1e-15)
    np.testing.assert_allclose(unmixing.align_phase_to(tiny, tiny / 1e-20), tiny, rtol=1e-15)
    with pytest.raises(PhaseError):
        unmixing._standardize(np.array([[1e-15, 1.0], [0.0, 1.0]]))


def test_align_phase_orthogonal_rows():
    with pytest.raises(PhaseError):
        unmixing.align_phase_to(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_affine_invariance(rng):
    x, _ = genproc.generate(short_range_model(), 4096, seed=4)
    base = unmixing.unmix(x, 1)
    for _ in range(5):
        b_mat = random_mixing(rng, 3)
        b_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        transformed = unmixing.unmix(x @ b_mat.T + b_vec, 1)
        expected = base.gamma @ np.linalg.inv(b_mat)
        aligned = unmixing.align_phase_to(transformed.gamma, expected)
        assert np.max(np.abs(aligned - expected)) < 1e-6


def assert_sweep_matches_unmix(x, taus):
    # lag_sweep fits each lag as unmix does, and the public estimators give
    # the fit's unit-scale S0 and S_tau, scaled back, bit for bit
    rows = unmixing.lag_sweep(x, taus)
    assert sorted(row["tau"] for row in rows) == sorted(taus)
    for row in rows:
        direct = unmixing.unmix(x, row["tau"])
        np.testing.assert_array_equal(row["lambdas"], direct.lambdas)
        assert row["eigen_gap"] == direct.eigen_gap
        y, mu, shift = estimators._centered(estimators._planes(estimators.as_timeseries(x)))
        _, s0, s_tau = unmixing._fit_covariances(*estimators._cross_products(y, row["tau"]),
                                                 mu, shift, row["tau"])
        np.testing.assert_array_equal(linalg._ldexp(s0, -2 * shift),
                                      estimators.autocov_sym(x, 0))
        np.testing.assert_array_equal(linalg._ldexp(s_tau, -2 * shift),
                                      estimators.autocov_sym(x, row["tau"]))


def test_lag_sweep_rows_equal_unmix_per_lag():
    x, _ = genproc.generate(short_range_model(), 1024, seed=9)
    assert_sweep_matches_unmix(x, [2, 1, 5])


@pytest.mark.parametrize("tau", [1, 2, 1025])
def test_plug_in_seam_is_exact_across_lag_chunks(tau):
    # the estimators and the fit take the same Gram products, so they agree
    # bit for bit at short and long lags
    x, _ = genproc.generate(short_range_model(), 3079, seed=9)
    assert_sweep_matches_unmix(x, [tau])


@pytest.mark.parametrize("exponent", [-500, -40, 40, 500])
def test_unmix_from_unsymmetrized_covariances_at_any_scale(exponent):
    # autocov_unsym(x, 0) is Hermitian up to rounding; scaled by 2^40 that
    # rounding used to exceed an absolute tolerance
    x, _ = genproc.generate(short_range_model(), 1024, seed=4)
    s0 = estimators.autocov_unsym(x, 0)
    base = linalg.herm_inv_sqrt(s0)
    scaled = linalg.herm_inv_sqrt(s0 * 2.0 ** exponent)
    np.testing.assert_allclose(scaled * 2.0 ** (exponent // 2), base, rtol=1e-12)


def test_nearly_collinear_columns_fit(rng):
    # cond(s0) ~ 1e10: well inside herm_inv_sqrt's range, but the whitened
    # lag matrix carries a rounding asymmetry of order eps * cond(s0)
    for _ in range(8):
        z = rng.standard_normal((2048, 3)) + 1j * rng.standard_normal((2048, 3))
        x = z.copy()
        x[:, 2] = z[:, 0] + 3e-5 * z[:, 2]
        x = x @ (np.eye(3) + 0.5j * np.ones((3, 3)))
        assert 1e9 < np.linalg.cond(estimators.autocov_sym(x, 0)) < 1e11
        res = unmixing.unmix(x, 1)
        assert np.all(np.isfinite(res.gamma)) and np.all(np.diff(res.lambdas) <= 0)

def test_known_mixing_recovery_large_sample(rng):
    mixing = random_mixing(rng, 3)
    x, _ = genproc.generate(short_range_model(mixing=mixing), 10000, seed=8)
    res = unmixing.unmix(x, 1)
    assert metrics.md_index(res.gamma, mixing) < 0.1


def test_md_phase_equivalence(rng):
    mixing = random_mixing(rng, 3)
    x, _ = genproc.generate(short_range_model(mixing=mixing), 2048, seed=5)
    res = unmixing.unmix(x, 1)
    base = metrics.md_index(res.gamma, mixing)
    shift = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
    assert abs(metrics.md_index(shift @ res.gamma, mixing) - base) < 1e-12


def test_lag_rejections():
    x = np.array([1.0, 1j, -1.0, 2.0])
    with pytest.raises(DimensionError):
        unmixing.unmix(x, 0)
    with pytest.raises(DimensionError):
        unmixing.unmix(x, 3)


@pytest.mark.parametrize("tau", [1.7, 2.0, True, "2", None], ids=repr)
@pytest.mark.parametrize("fit", ["unmix", "lag_sweep", "autocov_unsym", "autocov_sym"])
def test_lags_must_be_integers(fit, tau):
    x, _ = genproc.generate(short_range_model(), 64, seed=6)
    call = {"unmix": lambda: unmixing.unmix(x, tau),
            "lag_sweep": lambda: unmixing.lag_sweep(x, [1, tau]),
            "autocov_unsym": lambda: estimators.autocov_unsym(x, tau),
            "autocov_sym": lambda: estimators.autocov_sym(x, tau)}[fit]
    with pytest.raises(DimensionError, match=f"lag must be an integer, got {tau!r}"):
        call()


def test_numpy_integer_lags_are_accepted():
    x, _ = genproc.generate(short_range_model(), 64, seed=6)
    res = unmixing.unmix(x, np.int64(2))
    assert res.tau == 2 and type(res.tau) is int
    np.testing.assert_array_equal(res.gamma, unmixing.unmix(x, 2).gamma)
    assert [row["tau"] for row in unmixing.lag_sweep(x, np.arange(1, 3))] in ([1, 2], [2, 1])
    np.testing.assert_array_equal(estimators.autocov_sym(x, np.uint8(0)),
                                  estimators.autocov_sym(x, 0))


def test_lag_sweep_single_tau():
    x, _ = genproc.generate(short_range_model(), 512, seed=6)
    rows = unmixing.lag_sweep(x, [1])
    assert len(rows) == 1 and rows[0]["tau"] == 1


def test_lag_sweep_reads_no_gamma_beyond_the_double_range():
    # lambdas and gaps are free of scale, so a series whose gamma is about
    # 2^1060 still sweeps, to within the rounding of its subnormal parts
    x, _ = genproc.generate(short_range_model(), 512, seed=4)
    unit = unmixing.lag_sweep(x, [1, 2])
    tiny = unmixing.lag_sweep(np.ldexp(x.real, -1060) + 1j * np.ldexp(x.imag, -1060), [1, 2])
    assert [row["tau"] for row in tiny] == [row["tau"] for row in unit]
    for got, want in zip(tiny, unit):
        np.testing.assert_allclose(got["lambdas"], want["lambdas"], rtol=0, atol=1e-5)
        assert abs(got["eigen_gap"] - want["eigen_gap"]) <= 1e-5


def test_lag_sweep_white_noise_small_gap(rng):
    t = 4096
    x = (rng.standard_normal((t, 3)) + 1j * rng.standard_normal((t, 3))) / np.sqrt(2)
    rows = unmixing.lag_sweep(x, [1, 2, 3])
    for row in rows:
        assert np.max(np.abs(row["lambdas"])) < 5.0 / np.sqrt(t)
        assert row["eigen_gap"] < 5.0 / np.sqrt(t)


def test_lag_sweep_ranks_separating_lag_first():
    # lag-1 spectrum (0.9, 0.5, 0.1) is well separated; by lag 6 the
    # spectrum collapses toward (0.53, 0.016, 1e-6) with a tiny bottom gap
    x, _ = genproc.generate(short_range_model(), 8192, seed=7)
    rows = unmixing.lag_sweep(x, [1, 6])
    assert rows[0]["tau"] == 1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_calls_equal_per_matrix_calls(monkeypatch, d):
    # the lab fits a block of mixed AR(1) series and scores the stacked fit
    rng = np.random.default_rng(40 + d)
    mixing = random_mixing(rng, d)
    model = short_range_model(phis=tuple(np.linspace(0.9, 0.1, d)), mixing=mixing)
    seeds = [np.random.SeedSequence(d, spawn_key=(rep,)) for rep in range(6)]
    refined = []
    real_lsa = metrics.linear_sum_assignment
    monkeypatch.setattr(metrics, "linear_sum_assignment",
                        lambda cost: refined.append(1) or real_lsa(cost))
    y, mu, shift = estimators._centered(genproc._draw(model, 300, seeds)[0])
    res, s0, s1 = unmixing._fit_covariances(*estimators._cross_products(y, 1), mu, shift, 1)
    # the fit's covariances are at unit scale, each series by its own power of two
    back = -2 * shift[:, None, None]
    s0, s1 = linalg._ldexp(s0, back), linalg._ldexp(s1, back)
    aligned = unmixing.align_phase_to(res.gamma, linalg.inverse(mixing))
    scores = metrics.md_index(res.gamma, mixing)
    # above ENUMERATION_MAX_D the assignment is refined by the Hungarian solver
    assert bool(refined) == (d > metrics.ENUMERATION_MAX_D)
    for rep, seed in enumerate(seeds):
        series = genproc.generate(model, 300, seed)[0]
        np.testing.assert_array_equal(s0[rep], estimators.autocov_sym(series, 0))
        np.testing.assert_array_equal(s1[rep], estimators.autocov_sym(series, 1))
        one = unmixing.unmix(series, 1)
        np.testing.assert_array_equal(res.gamma[rep], one.gamma)
        np.testing.assert_array_equal(res.lambdas[rep], one.lambdas)
        np.testing.assert_array_equal(res.mu[rep], one.mu)
        assert res.eigen_gap[rep] == one.eigen_gap
        np.testing.assert_array_equal(
            aligned[rep], unmixing.align_phase_to(one.gamma, linalg.inverse(mixing)))
        assert scores[rep] == metrics.md_index(one.gamma, mixing)


@pytest.mark.parametrize("layout", ["component-major block", "row-major series"])
def test_public_estimators_leave_their_input_unchanged(layout):
    # only the lab may center a series in place, one it drew itself: not
    # even a series that is a row of a component-major block
    block = estimators._complex(genproc._draw(short_range_model(), 256, [5, 6, 7])[0])
    x = block[1] if layout == "component-major block" else np.ascontiguousarray(block[1])
    before = block.tobytes()
    unmixing.unmix(x, 1)
    estimators.autocov_sym(x, 2)
    estimators.autocov_unsym(x, 0)
    estimators.sample_mean(x)
    unmixing.lag_sweep(x, (1, 2))
    unmixing.apply_unmixing(unmixing.unmix(x, 1), x)
    assert block.tobytes() == before and np.array_equal(x, block[1])
