"""Seeded CLI outputs match the sha256 digests recorded in ``output_digests.json``.

Criterion 10 checks that two runs of one tree agree; this test checks that
a change to the code leaves every seeded output byte of criterion 10's
command set as recorded.  BLAS kernels and numpy's own SIMD loops may
round differently on another CPU, so the table is keyed by the numpy
version, the OpenBLAS core that runs and numpy's enabled dispatch targets;
with no entry for the key, the test skips and names it.  A change that
alters output bytes on purpose records the new digests.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

from cbss import asymlab
from test_acceptance import run_cli_command_set

TABLE = Path(__file__).with_name("output_digests.json")


def platform_key() -> str:
    """``numpy <version> / openblas <core> / dispatch <targets>``: the core
    numpy's bundled OpenBLAS runs on, or ``none`` with another BLAS build,
    and the dispatch targets this CPU enables above numpy's baseline."""
    lib = asymlab._openblas()
    core = "none"
    if lib is not None:
        corename = lib.scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    enabled = [target for target in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(target)]
    return f"numpy {np.__version__} / openblas {core} / dispatch {' '.join(enabled) or 'none'}"


def test_seeded_outputs_match_the_recorded_digests(tmp_path):
    key = platform_key()
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"no digests recorded for {key!r}")
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in run_cli_command_set(tmp_path, "a").items()}
    assert digests == table[key]
