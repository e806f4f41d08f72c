"""The names README documents exist, and public calls fail with a typed error."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import cbss
from cbss import asymlab, estimators, genproc, metrics, unmixing
from cbss import imagepipe as ip
from cbss.errors import (CbssError, ConfigError, DimensionError, NonFiniteError, PhaseError,
                         SingularMatrixError)

from conftest import short_range_model

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
        "slope-2d", "ks-nan", "ks-inf", "mixing-seed-negative", "mixing-seed-float",
        "image-seed-negative"])
def test_public_calls_raise_a_package_error(call, error):
    with pytest.raises(error):
        call()

