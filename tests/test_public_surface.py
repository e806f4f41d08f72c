"""The names README documents exist, public calls fail with a typed error,
and public numeric calls commute with scaling by a power of two."""

import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cbss
from cbss import asymlab, estimators, genproc, linalg, metrics, unmixing
from cbss import imagepipe as ip
from cbss.errors import (CbssError, ConfigError, DimensionError, NonFiniteError, PhaseError,
                         SingularMatrixError)

from conftest import random_mixing, short_range_model

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = {info.name for info in pkgutil.iter_modules(cbss.__path__)}
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def readme_names():
    """Dotted names in README's code: ``cbss.<module>...`` and ``<module>.<name>...``."""
    text = README.read_text(encoding="utf-8")
    spans = FENCE.findall(text) + re.findall(r"`([^`]+)`", FENCE.sub("", text))
    names = {name for span in spans for name in DOTTED.findall(span)}
    return sorted(n for n in names if n.split(".")[0] in SUBMODULES | {"cbss"})


def test_readme_names_resolve():
    names = readme_names()
    assert "cbss.unmixing" in names and "unmixing.lag_sweep" in names
    missing = []
    for name in names:
        parts = name.split(".")
        if parts[0] == "cbss":
            parts = parts[1:]
        try:
            obj = importlib.import_module(f"cbss.{parts[0]}")
            for attr in parts[1:]:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"README names what does not exist: {missing}"


def test_import_cbss_binds_only_the_version():
    public = {name for name in vars(cbss) if not name.startswith("_")}
    assert public <= SUBMODULES


IID = genproc.ModelSpec(d=1, components=[genproc.LatentComponentSpec(genproc.Driver("iid"))] * 2)
#: A block of series: public series calls take one ``(T, d)`` series only.
EMPTY_BLOCK = np.zeros((0, 64, 3))


def series(seed=1):
    return genproc.generate(short_range_model(), 64, seed)[0]


#: A unit-scale 64 x 2 series at 2^600: its covariances leave the double range.
HUGE = genproc.generate(short_range_model((0.8, 0.2)), 64, 1)[0] * 2.0 ** 600
NOISE = [ip.RgbImage(8, 8, np.random.default_rng(k).integers(0, 256, (8, 8, 3), dtype=np.uint8))
         for k in range(3)]


@pytest.mark.parametrize("call, error", [
    (lambda: metrics.solve_assignment([[np.nan, 1.0], [1.0, 0.0]]), CbssError),
    (lambda: metrics.solve_assignment(np.zeros((0, 0))), CbssError),
    (lambda: genproc.generate(IID, 16, -1), CbssError),
    (lambda: genproc.hermite_rank(genproc.Transform("coeffs", coeffs=(3.0, 0.0))), CbssError),
    (lambda: ip.rgb_to_complex(ip.RgbImage(1, 1, np.full((1, 1, 3), 128, dtype=np.uint8))),
     CbssError),
    (lambda: unmixing.unmix(EMPTY_BLOCK, 1), DimensionError),
    (lambda: unmixing.unmix(np.stack([series(1), series(2)]), 1), DimensionError),
    (lambda: unmixing.lag_sweep(EMPTY_BLOCK, [1]), DimensionError),
    (lambda: unmixing.apply_unmixing(unmixing.unmix(series(), 1), EMPTY_BLOCK), DimensionError),
    (lambda: unmixing.apply_unmixing(unmixing.unmix(series(), 1), np.stack([series()] * 3)),
     DimensionError),
    (lambda: estimators.as_timeseries(EMPTY_BLOCK), DimensionError),
    (lambda: estimators.sample_mean(EMPTY_BLOCK), DimensionError),
    (lambda: estimators.autocov_unsym(EMPTY_BLOCK, 0), DimensionError),
    (lambda: estimators.autocov_sym(EMPTY_BLOCK, 0), DimensionError),
    (lambda: genproc.generate(IID, 64, []), ConfigError),
    (lambda: genproc.generate(IID, 64, [1, 2]), ConfigError),
    (lambda: unmixing.lag_sweep(series(), 1), DimensionError),
    # matrix calls still score a stack, as the lab's fits come: the second
    # matrix fails on its own, which only a scored stack can show
    (lambda: unmixing.align_phase_to(np.stack([np.eye(2), np.eye(2)[::-1]]), np.eye(2)),
     PhaseError),
    (lambda: metrics.md_index(np.stack([np.eye(2), np.diag([1.0, 0.0])]), np.eye(2)),
     SingularMatrixError),
    (lambda: estimators.autocov_unsym(HUGE, 1), NonFiniteError),
    (lambda: estimators.autocov_sym(HUGE, 1), NonFiniteError),
    (lambda: asymlab.fit_loglog_slope([1, 2, 3], [1, 0, 1]), NonFiniteError),
    (lambda: asymlab.fit_loglog_slope([-1, 2, 3], [1, 2, 3]), NonFiniteError),
    (lambda: asymlab.fit_loglog_slope([[1, 2], [3, 4]], [[1, 2], [3, 4]]), DimensionError),
    (lambda: asymlab.fit_loglog_slope([2, 2, 2], [1, 2, 3]), DimensionError),
    # its gamma, about 2^1060 at unit scale, is refused, never returned as inf
    (lambda: unmixing.unmix(np.ldexp(series().real, -1060), 1), NonFiniteError),
    (lambda: asymlab.normality_diagnostic([np.nan] * 30), NonFiniteError),
    (lambda: asymlab.normality_diagnostic([*range(29), np.inf]), NonFiniteError),
    (lambda: ip.random_mixing(-1), ConfigError),
    (lambda: ip.random_mixing(1.5), ConfigError),
    (lambda: ip.separate_images(NOISE, seed=-1), ConfigError),
], ids=["nan-cost", "empty-cost", "generate-seed-1", "rank", "off-surface",
        "unmix-empty-block", "unmix-block", "lag-sweep-block", "apply-empty-block", "apply-block",
        "as-timeseries-block", "sample-mean-block", "autocov-unsym-block", "autocov-sym-block",
        "generate-empty-list", "generate-list", "lag-sweep-int", "align-stack", "md-stack",
        "autocov-unsym-overflow", "autocov-sym-overflow", "slope-zero", "slope-negative",
        "slope-2d", "slope-repeated", "unmix-gamma-overflow", "ks-nan", "ks-inf",
        "mixing-seed-negative", "mixing-seed-float", "image-seed-negative"])
def test_public_calls_raise_a_package_error(call, error):
    with pytest.raises(error):
        call()



def scaled(a, k):
    """``a * 2^k``, real or complex, in ``a``'s memory order; an infinity where it overflows."""
    a = np.asarray(a)
    out = np.empty_like(a)
    with np.errstate(over="ignore"):
        if np.iscomplexobj(a):
            out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
        else:
            out[...] = np.ldexp(a, k)
    return out


def exact(a, k):
    """Whether ``a * 2^k`` is exact: it scales back to ``a``."""
    return np.array_equal(scaled(scaled(a, k), -k), a)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def unit_inputs(seed):
    """Named unit-scale inputs of the scaled calls, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    mixing = random_mixing(rng, 3)
    x = genproc.generate(short_range_model(mixing=mixing), 64, seed)[0]
    fit = unmixing.unmix(x, 1)
    phases = np.exp(2j * np.pi * rng.random(3))[:, None]
    return {"x": x, "gamma": fit.gamma, "mu": fit.mu, "lambdas": fit.lambdas,
            "rotated": phases * fit.gamma, "mixing": mixing, "samples": rng.standard_normal(30)}


def unmix_fields(x):
    fit = unmixing.unmix(x, 1)
    return fit.gamma, fit.lambdas, fit.mu, fit.eigen_gap


def sweep_fields(x):
    return [row[key] for row in unmixing.lag_sweep(x, [1, 2, 3])
            for key in ("lambdas", "eigen_gap")]


def apply_fit(gamma, mu, lambdas, x):
    return unmixing.apply_unmixing(unmixing.UnmixingResult(gamma, lambdas, mu, 1, 0.0), x)


#: Public numeric calls: the call, its inputs with the power of ``2^k`` that
#: scales each, and the power that scales each output.
SCALED_CALLS = {
    "unmix": (unmix_fields, (("x", 1),), (-1, 0, 1, 0)),
    "apply_unmixing": (apply_fit, (("gamma", -1), ("mu", 1), ("lambdas", 0), ("x", 1)), (0,)),
    "lag_sweep": (sweep_fields, (("x", 1),), (0,) * 6),
    "sample_mean": (estimators.sample_mean, (("x", 1),), (1,)),
    "autocov_unsym": (lambda x: estimators.autocov_unsym(x, 1), (("x", 1),), (2,)),
    "autocov_sym": (lambda x: estimators.autocov_sym(x, 2), (("x", 1),), (2,)),
    "align_phase_to": (unmixing.align_phase_to, (("rotated", 1), ("gamma", -1)), (1,)),
    "md_index": (metrics.md_index, (("gamma", -1), ("mixing", 1)), (0,)),
    "inverse": (linalg.inverse, (("mixing", 1),), (-1,)),
    "normality_diagnostic": (asymlab.normality_diagnostic, (("samples", 1),), (0,)),
}


@pytest.mark.parametrize("name", SCALED_CALLS)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(k=st.integers(-1074, 1023), seed=st.integers(0, 2 ** 16))
@example(k=300, seed=1)
@example(k=-300, seed=1)
@example(k=1016, seed=2)
@example(k=-1019, seed=3)
@example(k=-510, seed=3)
@example(k=600, seed=1)
@example(k=1, seed=1317)
def test_public_calls_commute_with_a_power_of_two(name, k, seed):
    # on exact scaled inputs, a call whose scaled unit result leaves the
    # double range raises a package error, and one whose scaled unit result
    # is exact gives it bit for bit; neither warns.  These used to differ
    # in the last bits: the fit near 2^+-300, where LAPACK rescaled
    # covariances of norm beyond about 2^485; the inverse at 2^1016 and
    # 2^-1019, through subnormal pivots; autocov_sym at 2^-510, through
    # subnormal halves; the fit at 2^1 (seed 1317), through pow(v, -0.5) of
    # covariances taken at the input's scale
    call, inputs, degrees = SCALED_CALLS[name]
    unit_in = unit_inputs(seed)
    assume(all(exact(unit_in[key], k * p) for key, p in inputs))
    args = [scaled(unit_in[key], k * p) for key, p in inputs]
    unit_out = call(*(unit_in[key] for key, _ in inputs))
    unit_out = unit_out if isinstance(unit_out, (tuple, list)) else (unit_out,)
    overflows = not all(np.isfinite(scaled(out, k * p)).all()
                        for out, p in zip(unit_out, degrees))
    # an output that underflows inexactly has no bits to compare
    assume(overflows or all(exact(out, k * p) for out, p in zip(unit_out, degrees)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflows:
            with pytest.raises(CbssError):
                call(*args)
            return
        got = call(*args)
    got = got if isinstance(got, (tuple, list)) else (got,)
    for index, (out, unit, p) in enumerate(zip(got, unit_out, degrees)):
        assert same_bits(out, scaled(unit, k * p)), f"{name} output {index} at 2^{k}"
