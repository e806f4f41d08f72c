"""Every binding the benchmark's traced run wraps still exists.

The tracer skips a binding that is gone and reports the metrics that
need it as absent, so a renamed or removed function would only show up
as a malformed traced run.  This test fails on it first.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

sys.path.insert(0, str(BENCH))
try:
    import layers
finally:
    sys.path.remove(str(BENCH))


def test_every_trace_site_resolves_to_a_callable():
    assert layers.SITES
    missing = [f"{site.module}.{site.attr}" for site in layers.SITES
               if not callable(getattr(importlib.import_module(site.module), site.attr, None))]
    assert not missing, f"trace sites without a binding: {missing}"
