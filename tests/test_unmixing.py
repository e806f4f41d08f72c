import numpy as np
import pytest

from cbss import estimators, genproc, linalg, metrics, unmixing
from cbss.errors import DimensionError, NonFiniteError, PhaseError

from conftest import random_mixing, short_range_model


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
    out = unmixing.standardize_phase(gamma)
    np.testing.assert_allclose(out, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(np.exp(-1j * np.pi / 4) * gamma, out, atol=1e-15)


def test_standardize_phase_idempotent(rng):
    gamma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gamma += 3 * np.eye(3)  # keep the diagonal well away from zero
    out = unmixing.standardize_phase(gamma)
    np.testing.assert_allclose(unmixing.standardize_phase(out), out, atol=1e-15)


def test_standardize_phase_row_scaling_invariance(rng):
    gamma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    rotated = np.exp(1j * phases)[:, None] * gamma
    out_a = unmixing.standardize_phase(gamma)
    out_b = unmixing.standardize_phase(rotated)
    np.testing.assert_allclose(out_a, out_b, atol=1e-13)
    # moduli of the diagonal are preserved exactly
    np.testing.assert_array_equal(np.diag(out_b), np.abs(np.diag(rotated)))


def test_standardize_phase_zero_diagonal():
    with pytest.raises(PhaseError):
        unmixing.standardize_phase(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


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


def test_phase_tolerances_follow_the_row_scale():
    tiny = 1e-20 * np.array([[1j, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(unmixing.standardize_phase(tiny),
                               1e-20 * np.array([[1.0, -2j], [-0.5, 1.0]]), rtol=1e-15)
    np.testing.assert_allclose(unmixing.align_phase_to(tiny, tiny / 1e-20), tiny, rtol=1e-15)
    with pytest.raises(PhaseError):
        unmixing.standardize_phase(np.array([[1e-15, 1.0], [0.0, 1.0]]))


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


def test_unmix_from_covariances_plug_in_seam(rng):
    x, _ = genproc.generate(short_range_model(), 1024, seed=9)
    direct = unmixing.unmix(x, 2)
    via_seam = unmixing.unmix_from_covariances(
        estimators.autocov_sym(x, 0), estimators.autocov_sym(x, 2),
        estimators.sample_mean(x), 2)
    np.testing.assert_array_equal(via_seam.gamma, direct.gamma)
    np.testing.assert_array_equal(via_seam.lambdas, direct.lambdas)


@pytest.mark.parametrize("exponent", [-500, -40, 40, 500])
def test_unmix_from_unsymmetrized_covariances_at_any_scale(exponent):
    # autocov_unsym(x, 0) is Hermitian up to rounding; scaled by 2^40 that
    # rounding used to exceed an absolute tolerance
    x, _ = genproc.generate(short_range_model(), 1024, seed=4)
    s0, st = estimators.autocov_unsym(x, 0), estimators.autocov_sym(x, 1)
    mu = estimators.sample_mean(x)
    base = unmixing.unmix_from_covariances(s0, st, mu, 1)
    scale = 2.0 ** exponent
    scaled = unmixing.unmix_from_covariances(s0 * scale, st * scale, mu, 1)
    np.testing.assert_allclose(scaled.gamma * 2.0 ** (exponent // 2), base.gamma, rtol=1e-12)
    np.testing.assert_allclose(scaled.lambdas, base.lambdas, rtol=1e-12)


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


def test_lag_sweep_single_tau():
    x, _ = genproc.generate(short_range_model(), 512, seed=6)
    rows = unmixing.lag_sweep(x, [1])
    assert len(rows) == 1 and rows[0]["tau"] == 1


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


def stacked_block(d, reps=6, length=300):
    """A ``(reps, length, d)`` block of mixed AR(1) series and its mixing."""
    rng = np.random.default_rng(40 + d)
    mixing = random_mixing(rng, d)
    model = short_range_model(phis=tuple(np.linspace(0.9, 0.1, d)), mixing=mixing)
    seeds = [np.random.SeedSequence(d, spawn_key=(rep,)) for rep in range(reps)]
    return genproc.generate(model, length, seeds)[0], mixing


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_calls_equal_per_matrix_calls(monkeypatch, d):
    x, mixing = stacked_block(d)
    refined = []
    real_lsa = metrics.linear_sum_assignment
    monkeypatch.setattr(metrics, "linear_sum_assignment",
                        lambda cost: refined.append(1) or real_lsa(cost))
    res = unmixing.unmix(x, 1)
    aligned = unmixing.align_phase_to(res.gamma, linalg.inverse(mixing))
    scores = metrics.md_index(res.gamma, mixing)
    # above ENUMERATION_MAX_D the assignment is refined by the Hungarian solver
    assert bool(refined) == (d > metrics.ENUMERATION_MAX_D)
    for tau in (0, 2):
        stacked = estimators.autocov_sym(x, tau)
        for rep, series in enumerate(x):
            np.testing.assert_array_equal(stacked[rep], estimators.autocov_sym(series, tau))
    for rep, series in enumerate(x):
        one = unmixing.unmix(series, 1)
        np.testing.assert_array_equal(res.gamma[rep], one.gamma)
        np.testing.assert_array_equal(res.lambdas[rep], one.lambdas)
        np.testing.assert_array_equal(res.mu[rep], one.mu)
        assert res.eigen_gap[rep] == one.eigen_gap
        np.testing.assert_array_equal(
            aligned[rep], unmixing.align_phase_to(one.gamma, linalg.inverse(mixing)))
        assert scores[rep] == metrics.md_index(one.gamma, mixing)


def test_stacked_block_is_validated_once(monkeypatch):
    x, _ = stacked_block(3)
    checks = []
    real_check = unmixing.as_timeseries
    monkeypatch.setattr(unmixing, "as_timeseries", lambda a: checks.append(1) or real_check(a))
    unmixing.unmix(x, 1)
    assert len(checks) == 1
    # one non-finite value in one series refuses the whole block at that check
    x[4, 17, 2] = complex(np.nan, 0.0)
    with pytest.raises(NonFiniteError):
        unmixing.unmix(x, 1)
    assert len(checks) == 2
    with pytest.raises(NonFiniteError):
        estimators.autocov_sym(x, 1)


@pytest.mark.parametrize("layout", ["component-major block", "row-major series"])
def test_public_estimators_leave_their_input_unchanged(layout):
    # only the lab may center a series in place, one it drew itself
    x = genproc.generate(short_range_model(), 256, [np.random.SeedSequence(5, spawn_key=(r,))
                                                    for r in range(3)])[0]
    if layout == "row-major series":
        x = np.ascontiguousarray(x[0])
    before = x.tobytes()
    unmixing.unmix(x, 1)
    estimators.autocov_sym(x, 2)
    estimators.autocov_unsym(x, 0)
    estimators.sample_mean(x)
    if x.ndim == 2:
        unmixing.lag_sweep(x, (1, 2))
    assert x.tobytes() == before
