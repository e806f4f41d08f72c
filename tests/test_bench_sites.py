"""Every binding the benchmark's traced run wraps still exists, and the
benchmark still sees the lab's failed replications.

The tracer skips a binding that is gone and reports the metrics that
need it as absent, so a renamed or removed function would only show up
as a malformed traced run.  The bench counts failed replications from
what ``asymlab._map_replications`` returns, so a lab that stopped
returning them would read as a clean ``ok_frac``.  These tests fail on
either first.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from cbss import asymlab

from conftest import short_range_model

BENCH = Path(__file__).resolve().parents[1] / "bench"

sys.path.insert(0, str(BENCH))
try:
    import layers
    import worker
finally:
    sys.path.remove(str(BENCH))


def test_every_trace_site_resolves_to_a_callable():
    assert layers.SITES
    missing = [f"{site.module}.{site.attr}" for site in layers.SITES
               if not callable(getattr(importlib.import_module(site.module), site.attr, None))]
    assert not missing, f"trace sites without a binding: {missing}"


def test_the_bench_counts_a_failed_replication(monkeypatch):
    cfg = asymlab.RateExperimentConfig(model=short_range_model((0.8, 0.2)), t_grid=(64, 128, 256),
                                       replications=50, seed=123)
    real_draw = asymlab._draw

    def poisoning(model, length, seeds):
        # one non-finite value in replication 3 of the middle length
        x, z = real_draw(model, length, seeds)
        for row, seed in zip(x, seeds):
            if seed.spawn_key == (1, 3):
                row[0, 5] = np.nan
        return x, z

    monkeypatch.delenv("CBSS_THREADS", raising=False)
    monkeypatch.setattr(asymlab, "_draw", poisoning)
    report, failed = worker._replication_failures(lambda: asymlab.run_rate_experiment(cfg))
    assert failed == report.failures == 1
