"""Seeded benchmark inputs, made with numpy alone.

Nothing here calls cbss: a change to the package's own sampler must not
change what the benchmark feeds it.  The Monte-Carlo workloads get only
a config derived from a bundled one, with the seed overridden.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: cli-unmix series shape: 65536 time steps of 3 complex components.
SERIES_LENGTH = 65536
SERIES_PHIS = (0.9, 0.5, 0.1)
#: Taps of the truncated exponential kernel that colours each latent part.
KERNEL_TAPS = 64
#: cli-image input size, in pixels per side.
IMAGE_SIZE = 512
#: Smallest replication count a RateExperimentConfig accepts.
MC_REPLICATIONS = 50
#: mc-short grid: T <= 4096 in 4x steps, where per-replication overhead dominates.
MC_SHORT_GRID = (256, 1024, 4096)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def mc_config(configs_dir: Path, bundled: str, seed: int, **overrides) -> dict:
    """A bundled experiment config with ``seed`` and ``overrides`` applied."""
    cfg = json.loads((configs_dir / bundled).read_text(encoding="utf-8"))
    cfg.update(overrides, seed=int(seed), replications=MC_REPLICATIONS)
    return cfg


def unmix_series(seed: int) -> np.ndarray:
    """A ``(SERIES_LENGTH, 3)`` complex mixture of coloured latent series.

    Each real and imaginary latent part is white noise filtered by
    ``phi^k`` (k < KERNEL_TAPS), so the components have distinct lag-1
    autocorrelations close to ``SERIES_PHIS``.  The mixing matrix is a
    complex Gaussian draw with condition number at most 100.
    """
    rng = _rng(seed, 0)
    d = len(SERIES_PHIS)
    taps = np.arange(KERNEL_TAPS)
    noise = rng.standard_normal((2 * d, SERIES_LENGTH + KERNEL_TAPS - 1))
    parts = np.empty((2 * d, SERIES_LENGTH))
    for idx in range(2 * d):
        kernel = SERIES_PHIS[idx % d] ** taps
        parts[idx] = np.convolve(noise[idx], kernel / np.linalg.norm(kernel), mode="valid")
    latent = (parts[:d] + 1j * parts[d:]).T
    while True:
        mixing = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(mixing) <= 100.0:
            break
    location = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return latent @ mixing.T + location


def write_series_csv(path: Path, x: np.ndarray) -> None:
    """Write the documented layout: ``re_1,im_1,...`` header, ``%.17g`` cells."""
    cells = np.empty((x.shape[0], 2 * x.shape[1]))
    cells[:, 0::2] = x.real
    cells[:, 1::2] = x.imag
    header = ",".join(f"re_{k + 1},im_{k + 1}" for k in range(x.shape[1]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        np.savetxt(fh, cells, fmt="%.17g", delimiter=",", header=header, comments="")


def synthetic_images(seed: int) -> list[np.ndarray]:
    """Three structured ``IMAGE_SIZE``-square RGB images as uint8 arrays.

    Their column-wise (lag-1) autocorrelations differ by construction: a
    smooth low-frequency wave field, horizontal bands about ten pixels
    high, and a fine random texture.  The seed moves frequencies,
    phases and texture values only.  Blue stays in the lower half of
    its range, which keeps every pixel off the +blue face of the colour
    cube: that face's centre maps to infinity in the complex plane, and
    a few pixels near it would dominate the second moments.
    """
    rng = _rng(seed, 1)
    n = IMAGE_SIZE
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1.0)
    smooth = np.stack([0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0)
                                          * (xx * rng.uniform(-1, 1) + yy * rng.uniform(-1, 1))
                                          + rng.uniform(0, 2 * np.pi))
                       for _ in range(3)], axis=2)
    rows = np.arange(n)[:, None] * np.ones((1, n))
    bands = np.stack([0.5 + 0.5 * np.cos(2 * np.pi * rows / rng.uniform(8.0, 12.0)
                                         + rng.uniform(0, 2 * np.pi))
                      for _ in range(3)], axis=2)
    texture = rng.uniform(0.0, 1.0, size=(n, n, 3))
    images = []
    for img in (smooth, bands, texture):
        img[..., 2] *= 0.5
        images.append(np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8))
    return images


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    """Binary P6 PPM with maxval 255."""
    height, width, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())
