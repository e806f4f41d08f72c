import functools
import json
import operator
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cbss import asymlab, cli, estimators, genproc, unmixing
from cbss.errors import ConfigError, DimensionError, ExperimentError, NumericalError

from conftest import cli_env, long_range_model, short_range_model


def small_cfg(model=None, **kw):
    defaults = dict(model=model or short_range_model(phis=(0.8, 0.2)),
                    tau=1, t_grid=(64, 128, 256), replications=50, seed=123)
    defaults.update(kw)
    return asymlab.RateExperimentConfig(**defaults)


def two_component_model(phis=(0.8, 0.2)):
    return short_range_model(phis=phis)


def test_slope_fit_exact_power_law():
    ts = [2 ** k for k in range(10, 16)]
    slope, stderr = asymlab.fit_loglog_slope(ts, [t ** -0.5 for t in ts])
    assert abs(slope + 0.5) < 1e-12
    assert stderr < 1e-12
    slope, _ = asymlab.fit_loglog_slope(ts, [3.7 * t ** -0.21 for t in ts])
    assert abs(slope + 0.21) < 1e-12


def test_ks_matches_scipy_on_standardized_samples():
    # skewed, heavy-tailed samples, standardized by hand as the diagnostic does
    x = np.random.default_rng(4).exponential(size=40) ** 1.5
    z = (x - x.mean()) / x.std(ddof=1)
    want = scipy.stats.kstest(z, "norm").statistic
    assert abs(asymlab.normality_diagnostic(x) - want) < 1e-12


def test_ks_on_exact_normal_quantiles():
    q = ndtri((np.arange(1, 1001) - 0.5) / 1000.0)
    assert asymlab.normality_diagnostic(q) < 0.01


def test_ks_rejects_degenerate_input():
    with pytest.raises(NumericalError):
        asymlab.normality_diagnostic(np.ones(25))
    with pytest.raises(DimensionError):
        asymlab.normality_diagnostic(np.arange(5.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(replications=0)
    with pytest.raises(ConfigError):
        small_cfg(replications=10)
    with pytest.raises(ConfigError):
        small_cfg(t_grid=(64, 128))
    with pytest.raises(ConfigError):
        small_cfg(t_grid=(128, 64, 256))
    with pytest.raises(ConfigError):
        small_cfg(error_metric="nope")
    # the lag must fit the shortest length, which generate must be able to draw
    for tau in (0, -1, 63, 5000):
        with pytest.raises(ConfigError):
            small_cfg(tau=tau)
    assert small_cfg(tau=62).tau == 62
    with pytest.raises(ConfigError):
        small_cfg(t_grid=(15, 128, 256))
    assert small_cfg(t_grid=(16, 128, 256)).t_grid[0] == 16
    # the MD index is undefined for one component
    one = short_range_model(phis=(0.5,))
    with pytest.raises(ConfigError):
        small_cfg(model=one, error_metric="md")
    assert small_cfg(model=one).error_metric == "frobenius_after_alignment"
    with pytest.raises(ConfigError):
        small_cfg(seed=-5)


@pytest.mark.parametrize("metric", asymlab.ERROR_METRICS)
def test_rate_report_is_free_of_the_mixing_scale(metric):
    # at mixing A 1e200 or A 1e-200 every replication used to fail with
    # PhaseError, and once alignment worked the errors read 0.0 at 2^600
    # and NaN at 2^-600
    a = np.array([[1.0, 0.3 + 0.2j], [-0.4j, 0.9]])

    def report(k):
        mixing = np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)
        model = short_range_model(phis=(0.8, 0.2), mixing=mixing)
        return asymlab.run_rate_experiment(small_cfg(model=model, error_metric=metric)).to_dict()

    base = report(0)
    for k in (600, -600, 1000, -1000):
        scaled = report(k)
        if metric == "md":
            assert scaled == base, k
            continue
        assert scaled["failures"] == 0
        # the error median and IQR scale, the gain columns do not
        assert [[t, np.ldexp(med, k), np.ldexp(iqr, k), *rest]
                for t, med, iqr, *rest in scaled["per_t"]] == base["per_t"], k
        assert scaled["fitted_slope"] == pytest.approx(base["fitted_slope"], abs=1e-12)


def test_config_json_round_trip():
    cfg = small_cfg(error_metric="md")
    back = asymlab.RateExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DRIVERS = st.one_of(
    st.just(genproc.Driver("iid")),
    st.builds(genproc.Driver, st.just("ar1"),
              st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    st.builds(genproc.Driver, st.just("fgn"), st.floats(0.5, 1.0, exclude_max=True)),
)
_TRANSFORMS = st.one_of(
    st.sampled_from([genproc.Transform("identity"), genproc.Transform("square_centered")]),
    st.builds(genproc.Transform, st.just("hermite"),
              st.integers(1, genproc.MAX_HERMITE_DEGREE)),
    st.builds(genproc.Transform, st.just("coeffs"),
              coeffs=st.lists(_FINITE, min_size=1, max_size=genproc.MAX_HERMITE_DEGREE + 1)
              .map(tuple)),
)
_PARTS = st.builds(genproc.LatentComponentSpec, _DRIVERS, _TRANSFORMS,
                   st.none() | st.tuples(st.integers(1, 60), st.integers(1, 60)))


def _has_rank(part):
    try:
        genproc.component_ranks(part)
    except ValueError:
        return False
    return True


def _normalizable(part):
    try:
        genproc.ModelSpec(d=1, components=[part, part])
    except ConfigError:
        return False
    return True


@st.composite
def _rate_configs(draw):
    d = draw(st.integers(1, 3))
    mixing = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d,
                                       max_size=2 * d * d))
    if mixing is not None:
        # diagonally dominant, hence nonsingular
        mixing = (np.reshape(mixing[:d * d], (d, d)) + 1j * np.reshape(mixing[d * d:], (d, d))
                  + 3.0 * d * np.eye(d))
    location = draw(st.none() | st.lists(_FINITE, min_size=2 * d, max_size=2 * d))
    if location is not None:
        location = np.array(location[:d]) + 1j * np.array(location[d:])
    parts = draw(st.lists(_PARTS, min_size=2 * d, max_size=2 * d))
    # the config refuses a long-range part whose rank it cannot determine
    assume(all(_has_rank(p) for p in parts if p.driver.is_long_range()))
    normalize = draw(st.booleans())
    # and a normalized model a part it cannot bring to unit variance
    assume(not normalize or all(_normalizable(p) for p in parts))
    model = genproc.ModelSpec(
        d=d, components=parts,
        mixing=mixing, location=location, normalize=normalize,
        centering=draw(st.sampled_from(["empirical", "population"])))
    grid = sorted(draw(st.sets(st.integers(genproc.MIN_LENGTH, 1 << 20), min_size=3,
                               max_size=6)))
    metrics = asymlab.ERROR_METRICS if d > 1 else asymlab.ERROR_METRICS[1:]
    return asymlab.RateExperimentConfig(
        model=model, tau=draw(st.integers(1, grid[0] - 2)), t_grid=tuple(grid),
        replications=draw(st.integers(50, 10 ** 6)), seed=draw(st.integers(0, 2 ** 63)),
        error_metric=draw(st.sampled_from(metrics)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_rate_configs())
def test_config_round_trip_through_json(cfg):
    for config, from_dict in ((cfg, asymlab.RateExperimentConfig.from_dict),
                              (cfg.model, genproc.ModelSpec.from_dict)):
        as_dict = config.to_dict()
        assert from_dict(json.loads(json.dumps(as_dict))).to_dict() == as_dict


def _places(obj, path=()):
    """The places in a decoded JSON value, as paths of keys and indices: every
    key of an object, and the first and the last entry of an array."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list) and obj:
        items = [(0, obj[0]), (-1, obj[-1])]
    else:
        items = ()
    for key, value in items:
        yield from _places(value, path + (key,))


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 400), 10 ** 400)
                | st.floats() | st.text(max_size=6)
                | st.sampled_from(["ar1", "fgn", "iid", "hermite", "coeffs", "md", "population"]))
_JSON_VALUES = (_JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=4)
                | st.dictionaries(st.sampled_from(["kind", "re", "im"]) | st.text(max_size=6),
                                  _JSON_LEAVES, max_size=3))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_rate_configs(), st.data())
def test_config_decoding_ends_any_bad_value_in_config_error(cfg, data):
    # the decoder used to lean on catch-alls; without them a value of an
    # unforeseen type at any place must still be refused as a config error
    as_dict = cfg.to_dict()
    path = data.draw(st.sampled_from(list(_places(as_dict))), label="place")
    value = data.draw(_JSON_VALUES, label="value")
    if path:
        parent = functools.reduce(operator.getitem, path[:-1], as_dict)
        parent[path[-1]] = value
    else:
        as_dict = value
    try:
        asymlab.RateExperimentConfig.from_dict(as_dict)
    except ConfigError:
        pass


@pytest.mark.parametrize("index, key, kind", [
    (0, "driver", ["ar1"]),
    (1, "transform", {"kind": "identity"}),
    (2, "transform", None),
])
def test_config_decoding_refuses_a_kind_that_is_not_a_string(index, key, kind):
    # a list kind used to read "invalid model spec: unhashable type: 'list'"
    cfg = small_cfg().to_dict()
    cfg["model"]["components"][index][key]["kind"] = kind
    with pytest.raises(ConfigError) as info:
        asymlab.RateExperimentConfig.from_dict(cfg)
    assert str(info.value) == (f"model.components[{index}].{key}: "
                               f"kind must be a string, got {kind!r}")


def test_config_decoding_hands_strings_on_unconverted():
    # str() used to turn null into 'None', and the message named no place
    cfg = small_cfg().to_dict()
    cfg["model"]["centering"] = None
    with pytest.raises(ConfigError, match=r"^model: unknown centering mode None$"):
        asymlab.RateExperimentConfig.from_dict(cfg)


def _hermite_model(cfg):
    cfg["model"]["components"][0]["transform"] = {"kind": "hermite", "degree": 2}
    return cfg["model"]["components"][0]["transform"]


def _declared_ranks(ranks):
    return pytest.param("declared_ranks", lambda c: c["model"]["components"][0].update(
        declared_ranks=ranks), id=f"declared_ranks-{ranks}")


@pytest.mark.parametrize("field, edit", [
    ("seed", lambda c: c.update(seed=1.7)),
    ("seed", lambda c: c.update(seed=True)),
    ("tau", lambda c: c.update(tau=1.9)),
    ("tau", lambda c: c.update(tau=True)),
    ("replications", lambda c: c.update(replications=50.9)),
    ("t_grid", lambda c: c.update(t_grid=[64.7, 128, 256])),
    ("d", lambda c: c["model"].update(d=2.9)),
    ("d", lambda c: c["model"].update(d=True, components=c["model"]["components"][:2])),
    ("degree", lambda c: _hermite_model(c).update(degree=2.5)),
    ("degree", lambda c: _hermite_model(c).update(degree=True)),
    ("declared_ranks", lambda c: c["model"]["components"][0].update(declared_ranks=[1.5, 2])),
    _declared_ranks([1, 2, 3]),
    _declared_ranks([0, 0]),
    _declared_ranks([-1, 2]),
    ("phi", lambda c: c["model"]["components"][0]["driver"].update(phi=False)),
    ("phi", lambda c: c["model"]["components"][0]["driver"].update(phi="0.3")),
    ("phi", lambda c: c["model"]["components"][0]["driver"].update(phi=None)),
    ("hurst", lambda c: c["model"]["components"][0].update(driver={"kind": "fgn", "hurst": "0.7"})),
    ("coeffs", lambda c: c["model"]["components"][0].update(
        transform={"kind": "coeffs", "coeffs": [True, "2"]})),
    ("mixing", lambda c: c["model"].update(mixing={"re": [["1", 0], [0, 1]], "im": [[0, 0]] * 2})),
    ("mixing", lambda c: c["model"].update(mixing={"re": [[True, 0], [0, 1]], "im": [[0, 0]] * 2})),
    ("location", lambda c: c["model"].update(location={"re": ["1", 0], "im": [0, 0]})),
    ("location", lambda c: c["model"].update(location={"re": [0, 0], "im": [True, 0]})),
    ("location", lambda c: c["model"].update(location={"re": [float("nan"), 0], "im": [0, 0]})),
    # a scalar or shorter im was broadcast, and a column location flattened
    ("mixing", lambda c: c["model"].update(mixing={"re": [[1, 0], [0, 1]], "im": 0.0})),
    ("mixing", lambda c: c["model"].update(mixing={"re": [[1, 0], [0, 1]], "im": [[0, 0]]})),
    ("location", lambda c: c["model"].update(location={"re": [1, 2], "im": [0]})),
    ("location", lambda c: c["model"].update(location={"re": [[1], [2]], "im": [[0], [0.5]]})),
    ("normalize", lambda c: c["model"].update(normalize="false")),
    ("normalize", lambda c: c["model"].update(normalize=0)),
])
def test_config_decoding_refuses_coercions(field, edit):
    # each value used to be truncated, coerced (1.7 -> 1, true -> 1,
    # "false" -> True, "0.3" -> 0.3) or accepted out of range, and the run
    # went ahead with a config nobody wrote
    cfg = small_cfg().to_dict()
    edit(cfg)
    with pytest.raises(ConfigError, match=rf"\b{field}\b"):
        asymlab.RateExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("message, edit", [
    ("config: unknown key 'repetitions'", lambda c: c.update(repetitions=60)),
    ("model: unknown key 'dim'", lambda c: c["model"].update(dim=2)),
    ("model.mixing: unknown key 'imag'",
     lambda c: c["model"].update(mixing={"re": [[1, 0], [0, 1]], "imag": [[0, 0]] * 2})),
    ("model.location: unknown key 'real'",
     lambda c: c["model"].update(location={"real": [0, 0], "im": [0, 0]})),
    ("model.components[2]: unknown key 'ranks'",
     lambda c: c["model"]["components"][2].update(ranks=[1, 2])),
    ("model.components[0].driver: unknown key 'hurst'",
     lambda c: c["model"]["components"][0]["driver"].update(hurst=0.7)),
    ("model.components[1].driver: unknown key 'phi'",
     lambda c: c["model"]["components"][1].update(driver={"kind": "iid", "phi": 0.5})),
    ("model.components[3].driver: unknown key 'phi'",
     lambda c: c["model"]["components"][3].update(driver={"kind": "fgn", "hurst": 0.7,
                                                           "phi": 0.5})),
    ("model.components[0].transform: unknown key 'degree'",
     lambda c: c["model"]["components"][0]["transform"].update(degree=2)),
    ("model.components[0].transform: unknown key 'coeffs'",
     lambda c: _hermite_model(c).update(coeffs=[0, 1])),
    ("model.components[0].transform must be a JSON object",
     lambda c: c["model"]["components"][0].update(transform="identity")),
])
def test_config_decoding_refuses_unknown_keys(message, edit):
    # a key outside its object's kind used to be ignored without a word
    cfg = small_cfg().to_dict()
    edit(cfg)
    with pytest.raises(ConfigError) as info:
        asymlab.RateExperimentConfig.from_dict(cfg)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("field, build", [
    ("tau", lambda: small_cfg(tau=1.5)),
    ("tau", lambda: small_cfg(tau=True)),
    ("replications", lambda: small_cfg(replications=50.5)),
    ("seed", lambda: small_cfg(seed=True)),
    ("t_grid", lambda: small_cfg(t_grid=(64.7, 128, 256))),
    ("d", lambda: genproc.ModelSpec(d=2.0, components=short_range_model((0.8, 0.2)).components)),
    ("degree", lambda: genproc.Transform("hermite", degree=2.5)),
    # a parameter its kind does not take: from_dict refuses the key
    pytest.param("param", lambda: genproc.Driver("iid", 0.5), id="param-of-iid"),
    pytest.param("degree", lambda: genproc.Transform("identity", degree=5),
                 id="degree-of-identity"),
    pytest.param("coeffs", lambda: genproc.Transform("hermite", degree=2, coeffs=(1.0, 2.0)),
                 id="coeffs-of-hermite"),
    # a dict model used to end in a raw AttributeError
    ("model", lambda: small_cfg(model=short_range_model().to_dict())),
])
def test_config_constructors_refuse_coercions(field, build):
    # the constructors decode like from_dict: 64.7 used to become 64, and
    # from_dict(cfg.to_dict()) then refused the config the constructor took
    with pytest.raises(ConfigError, match=rf"\b{field}\b"):
        build()


def test_rate_experiment_structure_and_determinism():
    cfg = small_cfg()
    rep_a = asymlab.run_rate_experiment(cfg)
    rep_b = asymlab.run_rate_experiment(cfg)
    assert len(rep_a.per_t) == len(cfg.t_grid)
    assert rep_a.per_t == rep_b.per_t
    assert rep_a.gaussianity == rep_b.gaussianity
    assert rep_a.fitted_slope == rep_b.fitted_slope
    assert rep_a.failures == 0
    assert rep_a.theoretical_exponent == -0.5


@pytest.mark.parametrize("operation, cfg", [
    (asymlab.run_rate_experiment, small_cfg()),
    (asymlab.run_rate_experiment, small_cfg(model=long_range_model())),
    (asymlab.expansion_residual_check, small_cfg()),
    (asymlab.mu_contribution_check, small_cfg(model=long_range_model(centering="population"))),
], ids=["rate", "rate-longrange", "residual", "mu"])
def test_reports_do_not_depend_on_workers_or_block_size(monkeypatch, operation, cfg):
    # one replication per block, the default, and every replication in one block
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    serial = operation(cfg)
    for block_samples in (1, asymlab.BLOCK_SAMPLES, cfg.replications * cfg.t_grid[-1]):
        monkeypatch.setattr(asymlab, "BLOCK_SAMPLES", block_samples)
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("CBSS_THREADS", raising=False)
            else:
                monkeypatch.setenv("CBSS_THREADS", threads)
            assert operation(cfg) == serial, (block_samples, threads)


def test_pool_rows_equal_serial_rows_with_longest_length_last(monkeypatch):
    cfg = small_cfg(t_grid=(64, 128, 1024))
    truth = asymlab._truth(cfg)
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    serial, _ = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    monkeypatch.setattr(asymlab.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CBSS_THREADS", "2")
    pooled, _ = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    assert len(pooled) == len(serial)
    for got, want in zip(pooled, serial):
        assert np.array_equal(got, want)


def test_pool_hands_out_longest_blocks_first_one_per_message(monkeypatch):
    import concurrent.futures

    handed = []

    class RecordingPool:
        # runs in this process and records the order of the tasks it is given
        def __init__(self, max_workers, initializer):
            assert max_workers == 2 and initializer is asymlab._pin_blas

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            assert chunksize == 1
            handed.extend(tasks)
            return map(fn, tasks)

    cfg = small_cfg()
    truth = asymlab._truth(cfg)
    # blocks of 8, 4 and 2 series, each length with a short last block
    monkeypatch.setattr(asymlab, "BLOCK_SAMPLES", 512)
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    serial, _ = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(asymlab.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CBSS_THREADS", "2")
    pooled, _ = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    work = [cfg.t_grid[t_index] * (stop - start) for t_index, start, stop in handed]
    assert work == sorted(work, reverse=True)
    # 7 blocks at T = 64, 13 at 128 and 25 at 256, each handed out once
    assert len(set(handed)) == len(handed) == 7 + 13 + 25
    assert work[0] == 512 and work[-1] == 128
    for got, want in zip(pooled, serial):
        assert np.array_equal(got, want)


def test_residual_score_matches_three_estimator_calls():
    # one validation and centering: the same operations as autocov_sym twice
    # and unmix on each of generate's series, so the rows are bitwise equal
    cfg = small_cfg(tau=2)
    lam = genproc.population_lambdas(cfg.model, cfg.tau)
    seeds = [np.random.SeedSequence(9, spawn_key=(0, r)) for r in range(4)]
    want = []
    for seed in seeds:
        x = genproc.generate(cfg.model, 256, seed)[0]
        s0, st = estimators.autocov_sym(x, 0), estimators.autocov_sym(x, cfg.tau)
        gain = unmixing.unmix(x, cfg.tau).gamma
        r_diag = np.max(np.abs((np.diag(gain) - 1.0) - 0.5 * (1.0 - np.diag(s0))))
        resid = (lam[None, :] - lam[:, None]) * gain - (lam[:, None] * s0 - st)
        off = resid[~np.eye(len(lam), dtype=bool)]
        want.append((r_diag, np.max(np.hypot(off.real, off.imag), initial=0.0)))
    # the lab scores the drawn planes of the same series as one block
    got = asymlab._residual_score(cfg, genproc._draw(cfg.model, 256, seeds)[0], lam)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_lab_fit_equals_unmix_of_generated_series_bit_for_bit(d):
    # the lab centers the drawn planes in place, unmix a copy of one row's
    # series: one centering, one mean, one fit
    base = short_range_model((0.9, 0.7, 0.5, 0.3, 0.1)[:d])
    mixed = genproc.ModelSpec(d=d, components=base.components,
                              mixing=np.eye(d) + 0.3j * np.eye(d)[::-1] + 0.2)
    for model in (base, mixed):
        for length in (16, 127, 1023, 4096):
            for size in (1, 4):
                seeds = [np.random.SeedSequence(5, spawn_key=(d, length, r))
                         for r in range(size)]
                lab = asymlab._fit_drawn(genproc._draw(model, length, seeds)[0], 1)[0]
                for rep, seed in enumerate(seeds):
                    public = unmixing.unmix(genproc.generate(model, length, seed)[0], 1)
                    for name in ("gamma", "lambdas", "mu", "eigen_gap"):
                        assert np.array_equal(getattr(lab, name)[rep], getattr(public, name)), \
                            (model is mixed, length, size, rep, name)


def test_worker_count_is_capped_by_cores_and_tasks(monkeypatch):
    # resolves the count only: no pool is started
    monkeypatch.setattr(asymlab.os, "cpu_count", lambda: 4)
    for raw, tasks, want in [("", 150, 1), ("1", 150, 1), ("3", 150, 3), ("0", 150, 4),
                             ("100000", 150, 4), ("100000", 2, 2), ("0", 3, 3),
                             ("9" * 5000, 150, 4), ("0" * 5000 + "3", 150, 3)]:
        monkeypatch.setenv("CBSS_THREADS", raw)
        assert asymlab._resolve_workers(tasks) == want, (raw[:8], tasks)


def test_failed_replication_is_dropped_from_every_statistic(monkeypatch):
    cfg = small_cfg()
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    full = asymlab.run_rate_experiment(cfg)
    truth = asymlab._truth(cfg)
    # the rows of one replication per block are the reference
    monkeypatch.setattr(asymlab, "BLOCK_SAMPLES", 1)
    single, _ = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    monkeypatch.undo()
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    scores = np.delete(single[1], 3, axis=0)

    real_draw = asymlab._draw
    poisoned_blocks = []

    def poisoning(model, length, seeds):
        # one non-finite value in replication 3 of the middle length
        x, z = real_draw(model, length, seeds)
        for row, seed in zip(x, seeds):
            if seed.spawn_key == (1, 3):
                row[0, 5] = np.nan
                poisoned_blocks.append(len(seeds))
        return x, z

    monkeypatch.setattr(asymlab, "_draw", poisoning)
    rows, failures = asymlab._map_replications(cfg, asymlab._gain_score, truth)
    # refused at the entry check of a block of several replications, then alone
    assert poisoned_blocks[0] > 1 and poisoned_blocks[1:] == [1]
    assert failures == 1
    np.testing.assert_array_equal(rows[1], scores)
    np.testing.assert_array_equal(rows[0], single[0])
    report = asymlab.run_rate_experiment(cfg)
    assert report.failures == 1
    q25, q50, q75 = np.quantile(scores[:, 0], [0.25, 0.5, 0.75])
    assert report.per_t[1] == (cfg.t_grid[1], q50, q75 - q25,
                               np.median(scores[:, 1]), np.median(scores[:, 2]))
    # the other lengths, and the top length's element statistics, are untouched
    assert report.per_t[0] == full.per_t[0]
    assert report.per_t[2] == full.per_t[2]
    assert report.gaussianity == full.gaussianity
    assert report.scale_diag == full.scale_diag


@pytest.mark.parametrize("score", ["gain", "residual"])
def test_a_block_failing_after_in_place_centering_is_redrawn(monkeypatch, score):
    cfg = small_cfg()
    score, extra = {"gain": (asymlab._gain_score, asymlab._truth(cfg)),
                    "residual": (asymlab._residual_score,
                                 genproc.population_lambdas(cfg.model, cfg.tau))}[score]
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    real_draw = asymlab._draw

    def zeroing(model, length, seeds):
        # a zero component passes the entry check; its singular S0 fails the
        # fit after the block was centered in place
        x, z = real_draw(model, length, seeds)
        for row, seed in zip(x, seeds):
            if seed.spawn_key == (1, 3):
                row[[1, model.d + 1]] = 0.0
        return x, z

    monkeypatch.setattr(asymlab, "_draw", zeroing)
    rows, failures = asymlab._map_replications(cfg, score, extra)
    assert failures == 1
    # the other replications of the failed block were drawn again, not re-centered
    monkeypatch.setattr(asymlab, "BLOCK_SAMPLES", 1)
    single, failures = asymlab._map_replications(cfg, score, extra)
    assert failures == 1
    for got, want in zip(rows, single):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("score", ["gain", "residual", "mu"])
def test_one_lab_block_peaks_at_about_two_block_sizes(score):
    # the block is drawn straight into its part planes, which hold as many
    # bytes as the complex block, and fitted there from two small Gram
    # matrices: no complex block, no copy of it and no conjugate buffer.
    # The rest of the peak is one part's sampler temporaries, the fGn
    # spectrum and paths under the long-range model
    import tracemalloc

    model = long_range_model(centering="population") if score == "mu" else short_range_model()
    cfg = small_cfg(model=model, t_grid=(1024, 2048, 4096))
    bound = {"gain": 1.6, "residual": 1.6, "mu": 1.75}[score]
    score, extra = {"gain": (asymlab._gain_score, asymlab._truth(cfg)),
                    "residual": (asymlab._residual_score, genproc.population_lambdas(model, 1)),
                    "mu": (asymlab._mu_score, 0.5)}[score]
    task = (2, 0, 4)
    asymlab._run_block(cfg, score, extra, task)  # fills the sampler's caches
    tracemalloc.start()
    try:
        asymlab._run_block(cfg, score, extra, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (4 * 4096 * model.d * 16)


POOL_BLAS = """
import numpy as np
from cbss import asymlab

def threads(cfg, y, extra):
    return np.full((len(y), 1), float(asymlab._openblas().scipy_openblas_get_num_threads64_()))

if __name__ == "__main__":
    asymlab.os.cpu_count = lambda: 2
    cfg = asymlab.RateExperimentConfig(model=asymlab.ModelSpec.from_dict({CONFIG}), tau=1,
                                       t_grid=(64, 128, 256), replications=50, seed=1)
    rows, _ = asymlab._map_replications(cfg, threads)
    print(sorted({int(v) for v in np.concatenate(rows)[:, 0]}))
"""


def test_pool_workers_run_one_blas_thread(tmp_path):
    # with no BLAS variable set, each forked worker would start a BLAS
    # thread pool of its own and the workers would oversubscribe the cores
    if asymlab._openblas() is None:
        pytest.skip("numpy's BLAS is not the bundled scipy-openblas")
    script = tmp_path / "pool_blas.py"
    script.write_text(POOL_BLAS.replace("{CONFIG}", repr(short_range_model().to_dict())))
    env = {k: v for k, v in cli_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["CBSS_THREADS"] = "2"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1]"


def test_programming_error_in_a_replication_propagates(monkeypatch):
    def broken(model, length, seeds):
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(asymlab, "_draw", broken)
    monkeypatch.delenv("CBSS_THREADS", raising=False)
    with pytest.raises(ValueError, match="not a numerical failure"):
        asymlab.run_rate_experiment(small_cfg())


def test_failure_budget_aborts():
    # an all-zero transform makes every covariance singular
    dead = genproc.Transform("coeffs", coeffs=(0.0,))
    parts = [genproc.LatentComponentSpec(genproc.Driver("iid"), dead)] * 4
    model = genproc.ModelSpec(d=2, components=parts, normalize=False)
    with pytest.raises(ExperimentError):
        asymlab.run_rate_experiment(small_cfg(model=model))


def test_md_metric_short_range_slope():
    cfg = small_cfg(model=two_component_model(), error_metric="md",
                    t_grid=(256, 1024, 4096), replications=80, seed=7)
    rep = asymlab.run_rate_experiment(cfg)
    assert -0.75 < rep.fitted_slope < -0.25
    assert all(row[1] > 0 for row in rep.per_t)


def test_expansion_residuals_vanish_at_fixed_point():
    x, _ = genproc.generate(short_range_model(), 1024, seed=3)
    y = unmixing.apply_unmixing(unmixing.unmix(x, 1), x)
    res = unmixing.unmix(y, 1)
    s0 = estimators.autocov_sym(y, 0)
    st = estimators.autocov_sym(y, 1)
    gain = res.gamma
    lam = res.lambdas
    r_diag = np.max(np.abs((np.diag(gain) - 1.0) - 0.5 * (1.0 - np.diag(s0))))
    assert r_diag < 1e-10
    worst = 0.0
    for j in range(3):
        for k in range(3):
            if j != k:
                resid = (lam[k] - lam[j]) * gain[j, k] - (lam[j] * s0[j, k] - st[j, k])
                worst = max(worst, abs(resid))
    assert worst < 1e-10


def test_expansion_residual_check_requires_trivial_mixing(rng):
    mixing = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    cfg = small_cfg(model=short_range_model(mixing=mixing))
    with pytest.raises(ConfigError):
        asymlab.expansion_residual_check(cfg)


def test_expansion_residual_check_requires_sorted_spectrum():
    cfg = small_cfg(model=short_range_model(phis=(0.2, 0.8)))
    with pytest.raises(ConfigError):
        asymlab.expansion_residual_check(cfg)


def test_mu_check_offdiagonal_shrinks():
    cfg = small_cfg(model=long_range_model(centering="population"),
                    t_grid=(1024, 4096, 16384), replications=50, seed=37)
    frag = asymlab.mu_contribution_check(cfg)
    assert frag.decreasing
    assert frag.offdiag_medians[-1] < frag.offdiag_medians[0]
    # diagonal entries are reported but not required to vanish
    assert all(m > 0 for m in frag.diag_medians)


def test_mu_check_single_component_passes():
    # no off-diagonal entries: the medians are all zero and the check passes
    parts = [genproc.LatentComponentSpec(genproc.Driver("fgn", 0.9)),
             genproc.LatentComponentSpec(genproc.Driver("iid"))]
    model = genproc.ModelSpec(d=1, components=parts, centering="population")
    frag = asymlab.mu_contribution_check(small_cfg(model=model, seed=1))
    assert frag.offdiag_medians == (0.0, 0.0, 0.0)
    assert frag.decreasing


def test_mu_check_requires_long_range():
    with pytest.raises(ConfigError):
        asymlab.mu_contribution_check(small_cfg())


def test_mu_check_warns_on_empirical_centering():
    cfg = small_cfg(model=long_range_model(centering="empirical"))
    with pytest.warns(UserWarning):
        frag = asymlab.mu_contribution_check(cfg)
    assert max(frag.offdiag_medians) < 1e-20


def test_report_files(tmp_path):
    # cbss rate writes the report; its files carry the report exactly
    cfg = small_cfg()
    rep = asymlab.run_rate_experiment(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    assert cli.main(["rate", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[0] == "T,median_error,iqr,diag_median,offdiag_median"
    assert len(lines) == 1 + len(rep.per_t)
    assert [tuple(float(v) for v in line.split(",")) for line in lines[1:]] == list(rep.per_t)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary == json.loads(json.dumps(rep.to_dict()))
    assert summary["fitted_slope"] == rep.fitted_slope
    assert summary["regime"] == "short-range"
