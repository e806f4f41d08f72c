"""Shared model builders, the CLI subprocess environment, a traced
memory peak and the acceptance-verdict summary hook."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cbss
from cbss import genproc

#: verdict lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def cli_env():
    """Environment for a ``python -m cbss`` child started in another directory.

    A copy of ``os.environ`` whose ``PYTHONPATH`` starts with the absolute
    directory holding the ``cbss`` this process imported, ahead of any
    existing entries. A relative ``PYTHONPATH=src`` stops resolving once the
    child runs in ``tmp_path``, and an older installed copy must not win.
    """
    env = os.environ.copy()
    root = str(Path(cbss.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def traced_peak(call) -> int:
    """Peak bytes that Python and numpy hold during ``call()`` beyond those
    held before it; warm the call up first, or its imports count too."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


def ar1_parts(phis):
    return [genproc.LatentComponentSpec(genproc.Driver("ar1", p)) for p in phis]


def short_range_model(phis=(0.9, 0.5, 0.1), mixing=None):
    """AR(1) drivers with identity transforms; lag-1 spectrum equals phis."""
    parts = ar1_parts(phis)
    return genproc.ModelSpec(d=len(phis), components=parts * 2, mixing=mixing)


def long_range_model(centering="empirical"):
    """One dominant long-memory component among short-range ones.

    Components are listed in decreasing lag-1 autocovariance order:
    ar1(0.8) -> 0.8, fGn(H=0.9) real part with white imaginary part
    -> (2^0.8 - 1)/2, white noise -> 0.
    """
    re_parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", 0.8)),
                genproc.LatentComponentSpec(genproc.Driver("fgn", 0.9)),
                genproc.LatentComponentSpec(genproc.Driver("iid"))]
    im_parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", 0.8)),
                genproc.LatentComponentSpec(genproc.Driver("iid")),
                genproc.LatentComponentSpec(genproc.Driver("iid"))]
    return genproc.ModelSpec(d=3, components=re_parts + im_parts, centering=centering)


def random_mixing(rng, d, max_cond=100.0):
    """Complex Gaussian mixing matrix, resampled until decently conditioned."""
    while True:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(a) <= max_cond:
            return a


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
