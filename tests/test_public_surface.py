"""The names README documents exist, and public calls fail with a typed error."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import cbss
from cbss import genproc, metrics, unmixing
from cbss import imagepipe as ip
from cbss.errors import CbssError

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


WHITE_R = np.r_[1.0, np.zeros(7)]


@pytest.mark.parametrize("call", [
    lambda: metrics.solve_assignment([[np.nan, 1.0], [1.0, 0.0]]),
    lambda: metrics.solve_assignment(np.zeros((0, 0))),
    lambda: unmixing.standardize_phase(np.zeros((0, 0))),
    lambda: genproc.hermite_poly(-1, 0.5),
    lambda: genproc.hermite_poly(genproc.MAX_HERMITE_DEGREE + 1, 0.5),
    lambda: genproc.sample_stationary_gaussian(2.0 * WHITE_R, 4, 0),
    lambda: genproc.sample_stationary_gaussian(WHITE_R, 4, -1),
    lambda: genproc.generate(genproc.ModelSpec(d=1, components=[
        genproc.LatentComponentSpec(genproc.Driver("iid"))] * 2), 16, -1),
    lambda: genproc.hermite_rank(genproc.Transform("coeffs", coeffs=(3.0, 1e-12))),
    lambda: ip.rgb_to_complex(ip.RgbImage(1, 1, np.full((1, 1, 3), 128, dtype=np.uint8))),
], ids=["nan-cost", "empty-cost", "empty-phase", "degree-1", "degree-61", "r0-2",
        "sampler-seed-1", "generate-seed-1", "rank", "off-surface"])
def test_public_calls_raise_a_package_error(call):
    with pytest.raises(CbssError):
        call()
