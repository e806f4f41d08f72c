import math

import numpy as np
import pytest
import sympy

from cbss import estimators, genproc
from cbss.errors import ConfigError, DimensionError

from conftest import short_range_model


def rodrigues_hermite(k):
    """Symbolic probabilists' Hermite polynomial from the Rodrigues form."""
    x = sympy.Symbol("x")
    expr = (-1) ** k * sympy.exp(x ** 2 / 2) * sympy.diff(sympy.exp(-x ** 2 / 2), x, k)
    return sympy.lambdify(x, sympy.expand(expr), "numpy")


def hermite(k):
    """``H_k`` as the transform that generation applies; ``H_0`` as a series."""
    if k == 0:
        return genproc.Transform("coeffs", coeffs=(1.0,))
    return genproc.Transform("hermite", degree=k)


def test_hermite_small_values():
    assert hermite(2).apply(1.0) == 0.0
    assert hermite(3).apply(2.0) == 2.0
    xs = np.linspace(-4, 4, 9)
    np.testing.assert_array_equal(hermite(0).apply(xs), np.ones(9))


def test_hermite_matches_rodrigues_oracle():
    xs = np.linspace(-5, 5, 41)
    for k in range(11):
        oracle = rodrigues_hermite(k)(xs) * np.ones_like(xs)
        got = hermite(k).apply(xs)
        scale = np.maximum(np.abs(oracle), 1.0)
        assert np.max(np.abs(got - oracle) / scale) < 1e-9


def test_hermite_degree_guard():
    for degree in (61, 0, -1):
        with pytest.raises(ValueError):
            genproc.Transform("hermite", degree=degree)


def test_fgn_autocov_values():
    lags = np.arange(1, 10)
    np.testing.assert_allclose(genproc.fgn_autocov(0.5, lags), np.zeros(9), atol=1e-15)
    np.testing.assert_allclose(genproc.fgn_autocov(0.75, 1), np.sqrt(2) - 1, rtol=1e-14)
    assert genproc.fgn_autocov(0.9, 0) == 1.0


def test_fgn_autocov_tail_constant():
    for hurst in (0.6, 0.75, 0.9):
        k = 1.0e6
        got = k ** (2 - 2 * hurst) * genproc.fgn_autocov(hurst, k)
        assert abs(got - hurst * (2 * hurst - 1)) < 0.01 * hurst * (2 * hurst - 1)


def test_fgn_autocov_domain():
    with pytest.raises(ConfigError):
        genproc.fgn_autocov(0.3, 1)
    with pytest.raises(ConfigError):
        genproc.fgn_autocov(1.0, 1)


def fgn_draws(hurst, n, seeds):
    """Rows of the fGn sampler that ``generate`` and the lab run: the padded,
    cached embedding, one row per seed."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return genproc._sample_driver(genproc.Driver("fgn", hurst), n, rngs)


def test_sampler_white_noise():
    # H = 1/2 is white noise through the embedding
    n = 4096
    s = fgn_draws(0.5, n, [0])[0]
    assert s.shape == (n,)
    lag1 = np.mean(s[:-1] * s[1:])
    assert abs(lag1) < 3.0 / np.sqrt(n)


def test_sampler_deterministic():
    a = fgn_draws(0.8, 256, [42])
    np.testing.assert_array_equal(a, fgn_draws(0.8, 256, [42]))
    assert not np.array_equal(a, fgn_draws(0.8, 256, [43]))
    # a length below the padded one draws the same path, cut short
    np.testing.assert_array_equal(fgn_draws(0.8, 200, [42]), a[:, :200])


def test_sampler_matches_fgn_autocovariance():
    # Monte-Carlo oracle: with the mean known to be zero, the lag-k
    # product averages are unbiased for the autocovariance
    n, reps = 4096, 200
    hurst = 0.9
    r = genproc.fgn_autocov(hurst, np.arange(6))
    s = fgn_draws(hurst, n, [np.random.SeedSequence(9, spawn_key=(rep,)) for rep in range(reps)])
    acc = np.stack([np.mean(s[:, :-lag] * s[:, lag:], axis=1) for lag in range(1, 6)], axis=1)
    means = acc.mean(axis=0)
    stderr = acc.std(axis=0, ddof=1) / np.sqrt(reps)
    for lag in range(1, 6):
        assert abs(means[lag - 1] - r[lag]) < 5 * stderr[lag - 1]


def test_sampler_warns_on_invalid_covariance():
    # this sequence is not a valid covariance; its embedding has a
    # negative eigenvalue that gets clamped and reported
    with pytest.warns(RuntimeWarning):
        half = genproc._sqrt_spectrum([1.0, 0.99, 0.0])
    assert half.shape == (3,)


def test_generate_with_quadratic_transform():
    parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", 0.7),
                                         genproc.Transform("square_centered")),
             genproc.LatentComponentSpec(genproc.Driver("iid"))]
    model = genproc.ModelSpec(d=1, components=parts)
    x, z = genproc.generate(model, 4096, seed=11)
    var = float(np.mean(np.abs(z - z.mean(axis=0)) ** 2))
    assert abs(var - 1.0) < 0.2
    # the real part is a centered square: skewed, heavier tail than Gaussian
    assert np.max(z.real) > np.max(-z.real)


def test_integer_arguments_are_not_truncated():
    # degree 2.7 used to evaluate H_2
    with pytest.raises(ConfigError, match="degree"):
        genproc.Transform("hermite", degree=2.7)
    assert genproc.Transform("hermite", degree=np.int64(2)).apply(1.0) == 0.0
    # 64.9 used to give 64 rows, and lag 1.9 the lag-1 values
    model = short_range_model()
    with pytest.raises(ConfigError, match="length"):
        genproc.generate(model, 64.9, 0)
    with pytest.raises(ConfigError, match="tau"):
        genproc.population_lambdas(model, 1.9)
    assert genproc.generate(model, np.int64(64), 0)[0].shape == (64, 3)
    np.testing.assert_array_equal(genproc.population_lambdas(model, np.int32(1)), [0.9, 0.5, 0.1])


def test_fgn_embedding_is_nonnegative():
    for hurst in (0.7, 0.9, 0.95):
        r = genproc.fgn_autocov(hurst, np.arange(2 ** 16 + 1))
        eigs = genproc.embedding_spectrum(r)
        neg_mass = -float(eigs[eigs < 0].sum())
        assert neg_mass / float(np.abs(eigs).sum()) < 1e-8


def _coeffs_latent(coeffs):
    """Latent series and lag-1 lambda of a normalized fGn and AR(1) model
    whose parts all take the transform ``coeffs``."""
    transform = genproc.Transform("coeffs", coeffs=coeffs)
    parts = [genproc.LatentComponentSpec(genproc.Driver(*driver), transform)
             for driver in (("fgn", 0.9), ("ar1", 0.5))]
    model = genproc.ModelSpec(d=1, components=parts)
    return genproc.generate(model, 300, seed=4)[1], genproc.population_lambdas(model, 1)


@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
def test_normalized_parts_are_free_of_the_coefficient_scale(k):
    # sum k! a_k^2 used to overflow: coefficients (0, 1e160) gave an
    # all-zero latent series and NaN lambdas
    z, lam = _coeffs_latent((0.0, 1.0, 0.5))
    z_k, lam_k = _coeffs_latent(tuple(np.ldexp([0.0, 1.0, 0.5], k)))
    assert z_k.tobytes() == z.tobytes()
    np.testing.assert_array_equal(lam_k, lam)
    z_dec, lam_dec = _coeffs_latent((0.0, 1e160))
    z_one, lam_one = _coeffs_latent((0.0, 1.0))
    np.testing.assert_allclose(z_dec, z_one, rtol=0, atol=1e-14)
    np.testing.assert_allclose(lam_dec, lam_one, rtol=1e-15)


def test_normalized_model_refuses_a_part_without_variance():
    # a part holding only a_0 used to pass the config and fail in every draw
    iid = genproc.LatentComponentSpec(genproc.Driver("iid"))
    for coeffs in ((3.0,), (0.0, 0.0), (1e300, 1e-300)):
        part = genproc.LatentComponentSpec(genproc.Driver("iid"),
                                           genproc.Transform("coeffs", coeffs=coeffs))
        with pytest.raises(ConfigError, match=r"components\[1\]: cannot normalize"):
            genproc.ModelSpec(d=1, components=[iid, part])
        genproc.ModelSpec(d=1, components=[iid, part], normalize=False)


def test_rank_identity():
    assert genproc.hermite_rank(genproc.Transform("identity")) == (1, 2)


def test_rank_pure_hermite():
    q1, q2 = genproc.hermite_rank(genproc.Transform("hermite", degree=2))
    assert q1 == 2 and q2 == 2
    q1, _ = genproc.hermite_rank(genproc.Transform("hermite", degree=3))
    assert q1 == 3
    # H_k has rank k, H_k^2 - k! has rank 2, E[H_k] = 0 and Var[H_k] = k!
    # at every allowed degree
    for k in range(1, genproc.MAX_HERMITE_DEGREE + 1):
        transform = genproc.Transform("hermite", degree=k)
        assert genproc.hermite_rank(transform) == (k, 2), k
        assert genproc.transform_moments(transform) == (0.0, float(math.factorial(k)), 0), k
    top = genproc.MAX_HERMITE_DEGREE
    np.testing.assert_array_equal(genproc.Transform("hermite", degree=top).series(),
                                  np.eye(top + 1)[top])


def test_transform_coeffs_normalize_to_a_tuple_of_floats():
    # a list or an array used to be kept as given: unhashable, or ambiguous
    # in the emptiness check
    forms = [genproc.Transform("coeffs", coeffs=c)
             for c in ([0.0, 1, 0.5], (0, 1.0, 0.5), np.array([0.0, 1.0, 0.5]))]
    assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
    assert forms[0].coeffs == (0.0, 1.0, 0.5)
    assert all(type(c) is float for c in forms[2].coeffs)
    assert {genproc.transform_moments(f) for f in forms} == {(0.0, 1.5, 0)}
    for bad in ([], [0.0, np.inf], [0.0, True], ["1"]):
        with pytest.raises(ConfigError, match="coeff"):
            genproc.Transform("coeffs", coeffs=bad)
    with pytest.raises(ConfigError, match="degree"):
        genproc.Transform("identity", degree=[1])


def test_rank_cubic():
    cubic = genproc.Transform("coeffs", coeffs=(0.0, 3.0, 0.0, 1.0))  # x^3
    q1, q2 = genproc.hermite_rank(cubic)
    assert q1 == 1 and q2 == 2


def test_rank_square_centered():
    assert genproc.hermite_rank(genproc.Transform("square_centered")) == (2, 2)


def test_rank_undeterminable():
    with pytest.raises(ValueError):
        genproc.hermite_rank(genproc.Transform("coeffs", coeffs=(1.0,)))


def test_declared_ranks_short_circuit():
    spec = genproc.LatentComponentSpec(genproc.Driver("iid"),
                                       genproc.Transform("identity"),
                                       declared_ranks=(7, 9))
    assert genproc.component_ranks(spec) == (7, 9)


def test_generate_trivial_mixing_returns_latents():
    model = short_range_model()
    x, z = genproc.generate(model, 128, seed=0)
    np.testing.assert_array_equal(x, z)
    assert x.shape == (128, 3)
    # no identity product and no zero add: x is z byte for byte, in its own memory
    for seed in (3, np.random.SeedSequence(4)):
        x, z = genproc.generate(model, 256, seed)
        assert x.tobytes() == z.tobytes()
        assert x.strides == z.strides
        assert not np.shares_memory(x, z)


def test_generate_with_mixing_and_location_maps_every_row():
    mixing = np.array([[1.0, 0.5j, 0.0], [0.2, 1.0, -0.3], [0.0, 0.1j, 2.0]])
    location = np.array([1.0 - 2.0j, 0.5j, -3.0])
    model = genproc.ModelSpec(d=3, components=short_range_model().components,
                              mixing=mixing, location=location)
    x, z = genproc.generate(model, 256, 5)
    np.testing.assert_allclose(x, z @ mixing.T + location, rtol=0, atol=1e-13)


def test_generate_subtracts_a_nonzero_hermite_mean_before_normalizing():
    # a_0 = 2: each part is (f(g) - 2) / sqrt(2 var), with no sample centering
    coeffs = (2.0, 1.0, 0.5)
    parts = [genproc.LatentComponentSpec(genproc.Driver("iid"),
                                         genproc.Transform("coeffs", coeffs=coeffs))] * 2
    model = genproc.ModelSpec(d=1, components=parts, centering="population")
    _, z = genproc.generate(model, 1024, seed=4)
    rng = np.random.default_rng(4)
    re, im = (np.polynomial.hermite_e.hermeval(rng.standard_normal(1024), coeffs)
              for _ in range(2))
    scale = np.sqrt(2.0 * (1.0 + 2.0 * 0.5 ** 2))
    np.testing.assert_allclose(z[:, 0], (re - 2.0) / scale + 1j * (im - 2.0) / scale,
                               rtol=0, atol=1e-13)


def test_ar1_paths_free_their_innovations_before_the_carry_step():
    # the paths, the carry term and the multiply's iterator buffers, which
    # are about one part at this size; the innovations used to stay alive
    # through the loop's last row, a fourth part
    import tracemalloc

    rngs = [np.random.default_rng(s) for s in range(4)]
    genproc._ar1_block_response(0.9)  # fills the cache
    tracemalloc.start()
    try:
        paths = genproc._ar1_paths(0.9, 4096, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * paths.nbytes


def dense_dft_matrix(m, sign):
    """``exp(sign*2*pi*i*j*k/m)`` with ``j*k`` reduced mod ``m`` for accuracy."""
    k = np.arange(m)
    return np.exp(sign * 2j * np.pi * (np.outer(k, k) % m) / m)


def recursion_draw(phi, n, rng):
    """Stationary AR(1) path from ``n`` normals by the plain recursion.

    ``x_0 = e_0`` and ``x_t = phi x_{t-1} + sqrt(1 - phi^2) e_t``.
    """
    e = rng.standard_normal(n)
    scale = math.sqrt(1.0 - phi * phi)
    path = [float(e[0])]
    for t in range(1, n):
        path.append(phi * path[-1] + scale * float(e[t]))
    return np.array(path)


def dense_embedding_draw(driver, n, rng):
    """Circulant-embedding draw of one driver path using O(N^2) dense DFTs.

    Consumes ``rng`` in the sampler's order: the two real frequencies,
    then the real and the imaginary halves of the complex ones.
    """
    length = 1 << max(int(np.ceil(np.log2(max(n - 1, 8)))), 3)
    r = driver.autocov(np.arange(length + 1))
    circ = np.concatenate([r, r[-2:0:-1]])
    m = circ.size
    sqrt_eigs = np.sqrt(np.clip((dense_dft_matrix(m, -1) @ circ).real, 0.0, None))
    half = m // 2
    spectrum = np.empty(m, dtype=complex)
    spectrum[0] = rng.standard_normal()
    spectrum[half] = rng.standard_normal()
    re = rng.standard_normal(half - 1)
    im = rng.standard_normal(half - 1)
    spectrum[1:half] = (re + 1j * im) / np.sqrt(2.0)
    spectrum[half + 1:] = np.conj(spectrum[1:half][::-1])
    sample = dense_dft_matrix(m, 1) @ (sqrt_eigs * spectrum) / np.sqrt(m)
    return sample.real[:n]


def reference_draw(driver, n, rng):
    """One driver path from ``rng`` without the sampler's fast kernels."""
    if driver.kind == "iid":
        return rng.standard_normal(n)
    if driver.kind == "ar1":
        return recursion_draw(driver.param, n, rng)
    return dense_embedding_draw(driver, n, rng)


def assert_generate_matches_reference(drivers, n, seed):
    # the parts draw from one stream of the seed, in model order
    model = genproc.ModelSpec(d=2, components=[genproc.LatentComponentSpec(dv) for dv in drivers],
                              normalize=False)
    _, z = genproc.generate(model, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = [reference_draw(dv, n, rng) for dv in drivers]
    expected = np.column_stack([parts[0] + 1j * parts[2], parts[1] + 1j * parts[3]])
    assert np.max(np.abs(z - expected)) < 1e-12


def test_generate_matches_dense_dft_draw():
    # seeded draws depend on the seed stream only, not on the FFT kernel:
    # fGn against the dense-DFT embedding, AR(1) against its plain recursion
    drivers = [genproc.Driver("ar1", 0.6), genproc.Driver("fgn", 0.8),
               genproc.Driver("fgn", 0.7), genproc.Driver("iid")]
    assert_generate_matches_reference(drivers, 64, 2024)


def test_generate_ar1_matches_recursion():
    # more than 64 blocks of 64 samples, the last one partial
    drivers = [genproc.Driver("ar1", 0.0), genproc.Driver("ar1", -0.7),
               genproc.Driver("ar1", 0.999), genproc.Driver("iid")]
    assert_generate_matches_reference(drivers, 4097, 31)


def test_generate_fgn_parts_advance_the_stream_by_their_embedding_size():
    # an fGn part between others: T = 100 embeds in m = 256 normals
    drivers = [genproc.Driver("fgn", 0.8), genproc.Driver("ar1", 0.5),
               genproc.Driver("iid"), genproc.Driver("fgn", 0.6)]
    assert_generate_matches_reference(drivers, 100, 77)


@pytest.mark.parametrize("seed", [5, [5], [5, 6, 7]], ids=["single", "B=1", "B=3"])
def test_generate_makes_one_generator_per_series(monkeypatch, seed):
    # generate draws one series; the lab's _draw a block, one series per seed
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(s) or default_rng(s))
    model = genproc.ModelSpec(d=3, components=short_range_model().components)
    if isinstance(seed, list):
        genproc._draw(model, 64, seed)
    else:
        genproc.generate(model, 64, seed)
    assert made == (seed if isinstance(seed, list) else [seed])


@pytest.mark.parametrize("kind, param", [("iid", 0.0), ("ar1", 0.0), ("ar1", -0.7),
                                         ("ar1", 0.999)])
def test_part_draws_one_normal_per_sample(kind, param):
    # the child generator moves on by exactly T normals
    for n in (16, 64, 4097):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        genproc._sample_driver(genproc.Driver(kind, param), n, [rng])
        ref.standard_normal(n)
        assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("length", [16, 100, 1024, 4097])
def test_generate_block_rows_equal_single_draws(length):
    # every driver kind, a non-identity transform, mixing and location
    parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", 0.6)),
             genproc.LatentComponentSpec(genproc.Driver("fgn", 0.8),
                                         genproc.Transform("square_centered")),
             genproc.LatentComponentSpec(genproc.Driver("iid")),
             genproc.LatentComponentSpec(genproc.Driver("fgn", 0.7))]
    model = genproc.ModelSpec(d=2, components=parts, mixing=[[1.0, 0.5j], [0.2, 1.0]],
                              location=[1.0 - 2.0j, 0.5])
    seeds = [np.random.SeedSequence(11, spawn_key=(2, rep)) for rep in range(4)]
    x, z = (estimators._complex(planes) for planes in genproc._draw(model, length, seeds))
    assert x.shape == z.shape == (4, length, 2)
    for rep, seed in enumerate(seeds):
        one_x, one_z = genproc.generate(model, length, seed)
        assert x[rep].tobytes() == one_x.tobytes()
        assert z[rep].tobytes() == one_z.tobytes()


@pytest.mark.parametrize("mixed", [False, True], ids=["latent", "mixed"])
def test_lab_draw_planes_equal_generate_bit_for_bit(mixed):
    # the lab fits the part planes of _draw; generate returns each row's
    # values as one complex series, and x is a distinct array even when it is z
    model = short_range_model()
    if mixed:
        model = genproc.ModelSpec(d=3, components=model.components, location=[1.0, -1.0j, 0.5],
                                  mixing=[[1.0, 0.5j, 0.0], [0.2, 1.0, -0.3], [0.0, 0.1j, 2.0]])
    seeds = [np.random.SeedSequence(11, spawn_key=(1, rep)) for rep in range(3)]
    x_planes, z_planes = genproc._draw(model, 1000, seeds)
    assert x_planes.shape == z_planes.shape == (3, 6, 1000)
    assert (x_planes is z_planes) != mixed
    for rep, seed in enumerate(seeds):
        x, z = genproc.generate(model, 1000, seed)
        assert not np.shares_memory(x, z)
        for planes, series in ((x_planes[rep], x), (z_planes[rep], z)):
            assert np.array_equal(planes[:3], series.real.T)
            assert np.array_equal(planes[3:], series.imag.T)


def test_generate_without_mixing_peaks_at_two_block_sizes():
    # the planes and their complex conversion, then z and its copy x: the
    # planes used to stay alive under the name x until x was converted
    import tracemalloc

    model = short_range_model()
    genproc.generate(model, 65536, 1)  # fills the sampler's caches
    tracemalloc.start()
    try:
        genproc.generate(model, 65536, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (65536 * model.d * 16)


@pytest.mark.parametrize("seed", [3, [3], [3, 4, 5]], ids=["single", "B=1", "B=3"])
def test_generate_time_axis_is_contiguous_per_component(seed):
    # component-major memory: each component's path is one contiguous run,
    # in generate's series and in the complex rows of the lab's plane blocks
    model = genproc.ModelSpec(d=2, components=short_range_model((0.8, 0.2)).components,
                              mixing=[[1.0, 0.5j], [0.2, 1.0]], location=[1.0, -1.0j])
    if isinstance(seed, list):
        pairs = (estimators._complex(planes) for planes in genproc._draw(model, 100, seed))
    else:
        pairs = genproc.generate(model, 100, seed)
    for a in pairs:
        assert a.strides[-2] == a.itemsize
        assert a.strides[-1] == 100 * a.itemsize


def test_generate_deterministic_and_seed_sensitive():
    model = short_range_model()
    a, _ = genproc.generate(model, 256, seed=5)
    b, _ = genproc.generate(model, 256, seed=5)
    c, _ = genproc.generate(model, 256, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_empirical_centering():
    model = short_range_model()
    _, z = genproc.generate(model, 512, seed=1)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-12


def test_generate_population_centering_keeps_noise():
    model = short_range_model()
    model = genproc.ModelSpec(d=3, components=model.components, centering="population")
    _, z = genproc.generate(model, 512, seed=1)
    assert np.max(np.abs(z.mean(axis=0))) > 1e-6


def test_generate_centers_even_without_normalize():
    # transform 1 + x has population mean 1; parts are centered regardless
    shifted = genproc.Transform("coeffs", coeffs=(1.0, 1.0))
    parts = [genproc.LatentComponentSpec(genproc.Driver("iid"), shifted)] * 2
    model = genproc.ModelSpec(d=1, components=parts, normalize=False)
    _, z = genproc.generate(model, 4096, seed=2)
    assert np.max(np.abs(z.mean(axis=0))) < 0.2


def test_generate_length_guard():
    with pytest.raises(DimensionError):
        genproc.generate(short_range_model(), 8, seed=0)


def test_component_variance_contract():
    # condition: unit component variance under normalization
    model = short_range_model()
    reps, length = 60, 2048
    var = np.zeros((reps, 3))
    for rep in range(reps):
        _, z = genproc.generate(model, length, seed=np.random.SeedSequence(2, spawn_key=(rep,)))
        var[rep] = np.mean(np.abs(z - z.mean(axis=0)) ** 2, axis=0)
    mean_var = var.mean(axis=0)
    stderr = var.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean_var - 1.0) < 5 * stderr)


def test_component_independence_contract():
    model = short_range_model()
    reps, length = 60, 2048
    worst = np.zeros(reps)
    cross = {lag: np.zeros(reps, dtype=complex) for lag in range(6)}
    for rep in range(reps):
        _, z = genproc.generate(model, length, seed=np.random.SeedSequence(3, spawn_key=(rep,)))
        zc = z - z.mean(axis=0)
        for lag in range(6):
            head = zc[:length - lag] if lag else zc
            tail = zc[lag:] if lag else zc
            cross[lag][rep] = (head[:, 0] * np.conj(tail[:, 1])).mean()
    for lag in range(6):
        vals = cross[lag]
        stderr = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean()) < 5 * stderr + 1e-12


def test_population_lambdas_ar1():
    model = short_range_model(phis=(0.9, 0.5, 0.1))
    np.testing.assert_allclose(genproc.population_lambdas(model, 1),
                               [0.9, 0.5, 0.1], atol=1e-12)
    np.testing.assert_allclose(genproc.population_lambdas(model, 2),
                               [0.81, 0.25, 0.01], atol=1e-12)


def test_population_lambdas_quadratic_transform():
    # transformed autocovariance of H2(eta) is 2 rho^2; normalized parts
    # each carry rho^2/2, so the component value is rho^2
    parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", 0.6),
                                         genproc.Transform("square_centered"))]
    model = genproc.ModelSpec(d=1, components=parts * 2)
    np.testing.assert_allclose(genproc.population_lambdas(model, 1),
                               [0.36], atol=1e-12)


def test_rate_info_short_range():
    info = genproc.theoretical_gamma(short_range_model())
    assert info.regime == "short-range"
    assert info.exponent == 0.5


def test_rate_info_single_long_range_component():
    # the exponent depends on q2 only, which is 2 for x and for H_20 alike
    for transform, ranks in ((genproc.Transform("identity"), (1, 2)),
                             (genproc.Transform("hermite", degree=20), (20, 2))):
        parts = [genproc.LatentComponentSpec(genproc.Driver("fgn", 0.9), transform),
                 genproc.LatentComponentSpec(genproc.Driver("iid"))]
        model = genproc.ModelSpec(d=1, components=parts)
        info = genproc.theoretical_gamma(model)
        assert info.regime == "long-range"
        assert info.ranks[0] == ranks
        np.testing.assert_allclose(info.exponent, 0.2, atol=1e-12)
        assert info.cross_terms_dominated and info.mean_term_compatible
        assert not info.sqrt_log_boundary


def test_rate_info_boundary():
    parts = [genproc.LatentComponentSpec(genproc.Driver("fgn", 0.75)),
             genproc.LatentComponentSpec(genproc.Driver("iid"))]
    model = genproc.ModelSpec(d=1, components=parts)
    info = genproc.theoretical_gamma(model)
    np.testing.assert_allclose(info.exponent, 0.5, atol=1e-12)
    assert info.sqrt_log_boundary
    assert not info.cross_terms_dominated


def test_model_spec_json_round_trip(rng):
    mixing = np.eye(3) + 0.1j * np.ones((3, 3))
    location = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    model = genproc.ModelSpec(
        d=3,
        components=tuple(short_range_model().components),
        mixing=mixing,
        location=location,
        normalize=True,
        centering="population",
    )
    back = genproc.ModelSpec.from_dict(model.to_dict())
    np.testing.assert_array_equal(back.mixing, model.mixing)
    np.testing.assert_array_equal(back.location, model.location)
    assert back.components == model.components
    assert back.centering == "population"


def test_model_spec_validation():
    comps = short_range_model().components
    with pytest.raises(ConfigError):
        genproc.ModelSpec(d=3, components=comps[:4])
    with pytest.raises(ConfigError):
        genproc.ModelSpec(d=3, components=comps, mixing=np.zeros((3, 3)))
    with pytest.raises(ConfigError, match="location"):
        genproc.ModelSpec(d=3, components=comps, location=[0.0, np.nan, 1j])
    for ranks in ([1, 2, 3], (0, 2), (2, 1.0)):
        with pytest.raises(ConfigError, match="declared_ranks"):
            genproc.LatentComponentSpec(genproc.Driver("iid"), declared_ranks=ranks)
    assert genproc.LatentComponentSpec(
        genproc.Driver("iid"), declared_ranks=[np.int64(1), 2]).declared_ranks == (1, 2)
    with pytest.raises(ConfigError):
        genproc.Driver("ar1", 1.5)
    with pytest.raises(ConfigError):
        genproc.Driver("fgn", 0.4)


@pytest.mark.parametrize("field, build", [
    # "false" used to be kept and read as true by generate
    ("normalize", lambda comps: genproc.ModelSpec(d=3, components=comps, normalize="false")),
    # these used to end in a TypeError
    ("hurst", lambda comps: genproc.Driver("fgn", "0.7")),
    ("kind", lambda comps: genproc.Driver(["ar1"], 0.5)),
    ("kind", lambda comps: genproc.Transform({"kind": "identity"})),
    ("components", lambda comps: genproc.ModelSpec(d=3, components=6)),
    ("coeffs", lambda comps: genproc.Transform("coeffs", coeffs=1.0)),
    ("declared_ranks", lambda comps: genproc.LatentComponentSpec(
        genproc.Driver("iid"), declared_ranks=2)),
    # a rank too large for a float used to overflow in the rate exponent
    ("declared_ranks", lambda comps: genproc.LatentComponentSpec(
        genproc.Driver("fgn", 0.7), declared_ranks=[1, 10 ** 400])),
    # from_dict refuses a misshapen re/im pair before the constructor sees it
    ("mixing", lambda comps: genproc.ModelSpec(d=3, components=comps, mixing=np.eye(2))),
    # numpy used to parse the strings, which from_dict refuses
    ("mixing", lambda comps: genproc.ModelSpec(d=3, components=comps,
                                               mixing=[["1", "0", "0"], ["0", "1", "0"],
                                                       ["0", "0", "1"]])),
    ("location", lambda comps: genproc.ModelSpec(d=3, components=comps,
                                                 location=[True, False, True])),
    # nested specs of the wrong type used to be kept until generate failed
    ("driver", lambda comps: genproc.LatentComponentSpec(driver="ar1")),
    ("transform", lambda comps: genproc.LatentComponentSpec(
        genproc.Driver("iid"), transform={"kind": "identity"})),
    pytest.param("components", lambda comps: genproc.ModelSpec(
        d=3, components=[c.to_dict() for c in comps]), id="components-entry-type"),
])
def test_spec_constructors_check_every_field(field, build):
    with pytest.raises(ConfigError, match=rf"\b{field}\b"):
        build(short_range_model().components)
