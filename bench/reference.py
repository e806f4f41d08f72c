"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark's host is shared: for tens of seconds at a time the same
code runs up to twice as slow, with no steal time to show for it, so raw
wall times of one commit disagree from run to run by more than any
useful bound.  The benchmark therefore runs a reference kernel right
before and right after each timed stretch of program work and scales
that stretch's wall time by ``NOMINAL_S / (mean kernel time)``: a time
in *reference seconds*, the time the work would take on a host where
one run of the kernel takes its ``NOMINAL_S``.

Slow spells do not slow all code alike: interpreted code and small
numpy calls slow down about as much as the host's speed drops, while
sweeps over image-sized arrays, bound partly by memory, slow about half
as much.  So there are two kernels, and each workload is scaled by the
one that does its kind of work:

* ``interpreted`` - interpreted loops, number formatting and parsing,
  small and FFT-sized numpy calls, a memory sweep (the Monte-Carlo
  workloads and ``cbss unmix`` on CSV);
* ``bulk`` - colour conversion and complex arithmetic over 512x512
  arrays, in place, and their serialization (``cbss image``).

Slow spells also strike one core at a time.  A workload whose process
pool spreads its work over both cores (``mc-longrange``) is therefore
timed in wall seconds: a kernel in one process would see only its own
core's spells, and so far the pool's wall times have varied less than
such a kernel.

The kernels are part of the benchmark, not of cbss, and must stay as
they are: changing one changes the unit of every time scaled by it.
"""

from __future__ import annotations

import functools
import time

import numpy as np


# Each kernel's arrays are made on its first use, after the worker has
# read the program's peak memory.

@functools.cache
def _interpreted_data() -> tuple:
    rng = np.random.default_rng(20030419)
    return (rng.standard_normal(4096) + 1j * rng.standard_normal(4096),
            rng.standard_normal((100, 3, 3)), rng.standard_normal(256),
            rng.standard_normal(1000), rng.standard_normal(500_000))


def _interpreted() -> None:
    signal, small, short, values, sweep = _interpreted_data()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(20):
        np.fft.fft(signal)
    for a in small:
        np.linalg.eigh(a @ a.T)
    v = short
    for _ in range(200):
        v = np.abs(v * 0.5 + short) - 1.0
    text = ",".join("%.17g" % x for x in values)
    [float(cell) for cell in text.split(",")]
    sweep.copy().sum()


@functools.cache
def _bulk_data() -> tuple:
    rng = np.random.default_rng(20030419)
    n = 512 * 512
    field = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    image = rng.integers(0, 256, size=(512, 512, 3), dtype=np.uint8)
    # work arrays, so that the kernel times arithmetic and memory traffic
    # rather than the allocator's page faults, which vary on their own
    return (image, field, field.conj(), np.empty((512, 512, 3)), np.empty(n, complex),
            np.empty(n, complex), np.empty(n), np.empty((512, 512, 3), np.uint8))


def _bulk() -> None:
    image, field, field_conj, rgb, z, product, magnitude, pixels = _bulk_data()
    np.divide(image, 255.0, out=rgb)
    np.subtract(rgb[..., 0], rgb[..., 1], out=magnitude.reshape(512, 512))
    z.real = magnitude
    z.imag = rgb[..., 2].ravel()
    np.multiply(z, field_conj, out=product)
    np.add(product, field, out=product)
    np.abs(product, out=magnitude)
    magnitude.sum()
    np.multiply(rgb, 255.0, out=rgb)
    np.round(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    pixels[...] = rgb
    pixels.tobytes()


#: name -> (kernel, NOMINAL_S).  NOMINAL_S is a typical time of one run
#: on the 2-vCPU x86-64 host the baseline was measured on (Python 3.11,
#: numpy 2.4); only a scale factor, chosen so reference seconds read
#: close to wall seconds there.
KERNELS = {
    "interpreted": (_interpreted, 0.010),
    "bulk": (_bulk, 0.009),
}


def per_run(kind: str, min_seconds: float) -> float:
    """Run kernel ``kind`` for at least ``min_seconds``; return seconds per run."""
    kernel = KERNELS[kind][0]
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / runs


def scale(kind: str | None, before: float, after: float) -> float:
    """Factor from wall to reference seconds for work between two
    ``per_run(kind, ...)`` measurements; 1 for ``kind`` None."""
    if kind is None:
        return 1.0
    return KERNELS[kind][1] / (0.5 * (before + after))
