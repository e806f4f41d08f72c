"""Color-image source separation through the complex plane.

Every RGB pixel is pushed through a chain of bijections: snap to the
color-cube surface, project the surface radially onto the unit sphere,
then map the sphere to the complex plane stereographically (the north
pole is the single excluded point).  Vectorized images become a 3-channel
complex time series, are mixed with a random complex matrix, unmixed, and
mapped back for display.

The chain runs on the three channel planes, never reducing over a
length-3 pixel axis, and reads the centered coordinate of an 8-bit
channel and the rank of its modulus from 256-entry tables.  Its kernels
work in place on reused planes, yet keep the operation order of the plain
``(..., 3)`` formulas (``x**2`` is ``x*x``; complex by real is the same
complex division), so the results are bitwise the same as theirs.

Images use 8-bit binary PPM (P6, maxval 255) for bit-exact round trips.
Vectorization is column-major, so lag 1 steps down a column and lag
``height`` crosses to the neighboring pixel of the next column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .genproc import _rngs
from .metrics import md_index
from .unmixing import apply_unmixing, unmix

#: How close to the north pole a sphere point may get before projecting.
NORTH_POLE_TOL = 1e-12


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image; ``pixels`` has shape (height, width, 3), dtype uint8."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.dtype != np.uint8:
            # refuse rather than wrap (300 -> 44) or truncate (0.7 -> 0)
            if p.dtype.kind not in "iu":
                raise ConfigError(f"pixels must have an integer dtype, got {p.dtype}")
            if p.size and (p.min() < 0 or p.max() > 255):
                raise ConfigError("pixel values must lie in [0, 255]")
            p = p.astype(np.uint8)
        if p.shape != (self.height, self.width, 3):
            raise DimensionError(
                f"pixel block must be ({self.height}, {self.width}, 3), got {p.shape}")
        object.__setattr__(self, "pixels", p)


# ---------------------------------------------------------------------------
# the transform chain
# ---------------------------------------------------------------------------

#: Centered coordinate ``p = 2c - 1`` of each 8-bit level.
_CENTERED = 2.0 * (np.arange(256, dtype=float) / 255.0) - 1.0
#: Dense rank (0..179) of its modulus ``|p|`` among the float moduli, so that
#: comparisons and ties match the floats' (``|p(v)| == |p(255 - v)|`` fails for
#: some v); ranked in Python, as a numpy sort would page in 0.4 MB at import.
_MODULUS = dict(zip(sorted(set(np.abs(_CENTERED).tolist())), range(256)))
_MODULUS = np.array([_MODULUS[m] for m in np.abs(_CENTERED).tolist()], dtype=np.uint8)
#: Level a winning channel snaps to: ``sign(p)`` mapped back to 8 bits.
_SNAP = np.where(_CENTERED >= 0.0, 255, 0).astype(np.uint8)
#: Whether ``|p| < 1``: every level but 0 and 255.
_INTERIOR = np.arange(256) % 255 != 0


def _planes(points: np.ndarray) -> tuple:
    return points[..., 0], points[..., 1], points[..., 2]


def _max_modulus(s0, s1, s2):
    m = np.abs(s0)
    return np.maximum(np.maximum(m, np.abs(s1), out=m), np.abs(s2), out=m)


def _cube_to_sphere(p0, p1, p2) -> tuple:
    """Project the float planes ``p`` radially onto the unit sphere, in place."""
    norm = p0 * p0
    norm += p1 * p1
    norm += p2 * p2
    np.sqrt(norm, out=norm)
    for pk in (p0, p1, p2):
        pk /= norm
    return p0, p1, p2


def _stereographic(s0, s1, s2):
    """``zeta = (s1 + i s2) / (1 - s3)``; the north pole is rejected.  Overwrites ``s``."""
    if np.any(s2 >= 1.0 - NORTH_POLE_TOL):
        raise ValueError("north-pole point cannot be projected")
    z = np.empty(s0.shape, dtype=np.complex128)
    z.real, z.imag = s0, s1
    # for s3 near 1 the plain difference cancels; on the unit sphere
    # 1 - s3 = (s1^2 + s2^2)/(1 + s3) keeps full relative accuracy
    upper = s2 > 0.0
    denom = np.multiply(s0, s0, out=s0)
    denom += np.multiply(s1, s1, out=s1)
    np.divide(denom, np.add(1.0, s2, out=s1), out=denom, where=upper)
    np.subtract(1.0, s2, out=denom, where=~upper)
    return np.divide(z, denom, out=z)


def _stereographic_inverse(z) -> tuple:
    # |z|^2 overflows above about 1.3e154; such points map to the north pole
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.abs(z) ** 2
        pole = np.isinf(sq)
        denom = sq + 1.0
        sq -= 1.0
        s = tuple(np.divide(v, denom, out=v) for v in (2.0 * z.real, 2.0 * z.imag, sq))
    if np.any(pole):
        for v, sk in zip((0.0, 0.0, 1.0), s):
            np.copyto(sk, v, where=pole)
    return s


def color_correct(img: RgbImage) -> RgbImage:
    """Snap every pixel to the nearest point on the color-cube surface.

    In centered coordinates ``p = 2c - 1`` the coordinate with maximal
    ``|p_i|`` moves to ``sign(p_i)``; ties break in R>G>B order and the
    cube center maps to the +R face.  Afterwards each pixel satisfies
    ``min(R,G,B) = 0`` or ``max(R,G,B) = 1``.
    """
    r, g, b = (np.take(_MODULUS, plane) for plane in _planes(img.pixels))
    red = (r >= g) & (r >= b)
    green = ~red & (g >= b)
    blue = ~(red | green)
    out = img.pixels.copy()
    for plane, wins in zip(_planes(out), (red, green, blue)):
        np.copyto(plane, np.take(_SNAP, plane), where=wins)
    return RgbImage(width=img.width, height=img.height, pixels=out)


def rgb_to_complex(img: RgbImage) -> np.ndarray:
    """Full forward chain for a surface image, to a ``(height, width)`` complex array.

    No 8-bit pixel lands on the north pole: the pole needs
    ``p = (0, 0, 1)``, and no 8-bit level has ``p = 2c - 1 = 0``.
    """
    planes = _planes(img.pixels)
    if np.any(np.logical_and.reduce([np.take(_INTERIOR, plane) for plane in planes])):
        raise ConfigError("points must lie on the cube surface (max|p_i| = 1)")
    return _stereographic(*_cube_to_sphere(*(np.take(_CENTERED, plane) for plane in planes)))


def complex_to_rgb(values: np.ndarray) -> RgbImage:
    """Inverse chain for a ``(height, width)`` complex array: complex plane ->
    sphere -> cube surface -> 8-bit RGB."""
    s = _stereographic_inverse(values)
    m = _max_modulus(*s)
    height, width = values.shape
    out = np.empty((height, width, 3), dtype=np.uint8)
    for plane, sk in zip(_planes(out), s):
        # scale out to the cube surface, then round (p + 1) / 2 to the nearest
        # of the 256 levels, clipped to [0, 255]
        sk /= m
        sk += 1.0
        sk /= 2.0
        sk *= 255.0
        np.clip(np.round(sk, out=sk), 0, 255, out=sk)
        # cast in the input's memory order: a column-major input then
        # pays for the transposing copy in bytes rather than in floats
        plane[...] = sk.astype(np.uint8)
    return RgbImage(width=width, height=height, pixels=out)


# ---------------------------------------------------------------------------
# separation pipeline
# ---------------------------------------------------------------------------

def _render(series: np.ndarray, width: int, height: int) -> list[RgbImage]:
    """The RGB image of each column of a vectorized series."""
    return [complex_to_rgb(series[:, k].reshape((height, width), order="F"))
            for k in range(series.shape[1])]


def random_mixing(seed, d: int = 3) -> np.ndarray:
    """Identity plus uniform(-1/2, 1/2) real and imaginary perturbations; ``seed``
    is a non-negative int or a ``SeedSequence``, anything else a ``ConfigError``."""
    rng = _rngs([seed])[0]
    e = rng.uniform(-0.5, 0.5, size=(d, d))
    f = rng.uniform(-0.5, 0.5, size=(d, d))
    return np.eye(d) + e + 1j * f


@dataclass(frozen=True)
class SeparationResult:
    """Everything the image pipeline produces for one run."""

    mixed: list
    unmixed: list
    md: float


def separate_images(images, tau: int = 1, identity: bool = False,
                    seed: int = 0) -> SeparationResult:
    """Mix three images in the complex plane, unmix them, map back to RGB.

    The mixing is the seeded ``I + E + iF`` draw of ``random_mixing``; with
    ``identity`` there is no mixing: the chain is exercised end to end,
    estimation is skipped and the score is exactly zero.  Returns rendered
    mixed/unmixed images and the minimum-distance score against the known
    mixing.
    """
    images = list(images)
    if len(images) != 3:
        raise DimensionError(f"need exactly 3 images, got {len(images)}")
    w, h = images[0].width, images[0].height
    if any(im.width != w or im.height != h for im in images):
        raise DimensionError("images must share dimensions")

    if identity:
        rendered = [complex_to_rgb(rgb_to_complex(color_correct(im))) for im in images]
        return SeparationResult(mixed=rendered, unmixed=list(rendered), md=0.0)

    # one image at a time, column-major: lag 1 = next pixel down, lag ``height`` = next column
    series = np.empty((w * h, 3), dtype=np.complex128)
    for k, im in enumerate(images):
        series[:, k].reshape((w, h))[...] = rgb_to_complex(color_correct(im)).T
    a = random_mixing(seed)
    observed = series @ a.T
    del series
    mixed_imgs = _render(observed, w, h)
    result = unmix(observed, tau)
    latent = apply_unmixing(result, observed)
    del observed
    unmixed_imgs = _render(latent, w, h)
    return SeparationResult(mixed=mixed_imgs, unmixed=unmixed_imgs,
                            md=md_index(result.gamma, a))


# ---------------------------------------------------------------------------
# PPM (P6) input/output
# ---------------------------------------------------------------------------

#: ``P6``, then width, height and maxval, each after whitespace or ``#``
#: comments, then the single whitespace byte that precedes the pixels.
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_ppm(path) -> RgbImage:
    """Read a binary P6 PPM with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise ConfigError(f"{path}: not a binary PPM (P6) file")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ConfigError(f"{path}: malformed or truncated PPM header")
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise ConfigError(f"{path}: only maxval 255 is supported, got {maxval}")
    size = width * height * 3
    if len(data) - header.end() < size:
        raise ConfigError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=size, offset=header.end())
    return RgbImage(width=width, height=height, pixels=pixels.reshape((height, width, 3)).copy())


def write_ppm(img: RgbImage, path) -> None:
    """Write a binary P6 PPM with maxval 255 (bit-exact round trip)."""
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.tobytes())
