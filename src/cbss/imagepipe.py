"""Color-image source separation through the complex plane.

Every RGB pixel is pushed through a chain of bijections: snap to the
color-cube surface, project the surface radially onto the unit sphere,
then map the sphere to the complex plane stereographically (the north
pole is the single excluded point).  Vectorized images become a 3-channel
complex time series, are mixed with a random complex matrix, unmixed, and
mapped back for display.

The chain runs on the three channel planes, never reducing over a
length-3 pixel axis, and reads the centered coordinate of an 8-bit
channel and its modulus from 256-entry tables.  Every expression keeps
the operation order of the plain ``(..., 3)`` formulas, so the results
are bitwise the same as theirs.

Images use 8-bit binary PPM (P6, maxval 255) for bit-exact round trips.
Vectorization is column-major, so lag 1 steps down a column and lag
``height`` crosses to the neighboring pixel of the next column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError
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

    def as_float(self) -> np.ndarray:
        """Channels scaled to the quantized grid {0, 1/255, ..., 1}."""
        return self.pixels.astype(float) / 255.0

    @staticmethod
    def from_float(values: np.ndarray) -> "RgbImage":
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[2] != 3:
            raise DimensionError(f"expected (h, w, 3) floats, got {v.shape}")
        q = np.clip(np.round(v * 255.0), 0, 255).astype(np.uint8)
        return RgbImage(width=v.shape[1], height=v.shape[0], pixels=q)


@dataclass(frozen=True)
class ComplexImage:
    """One complex value per pixel; ``values`` has shape (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.height, self.width):
            raise DimensionError(
                f"value block must be ({self.height}, {self.width}), got {v.shape}")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("complex image contains non-finite values")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# the transform chain
# ---------------------------------------------------------------------------

#: Centered coordinate ``p = 2c - 1`` of each 8-bit level.
_CENTERED = 2.0 * (np.arange(256, dtype=float) / 255.0) - 1.0
#: Its modulus ``|p|``, exactly as the float formula gives it, so that
#: comparisons and ties match (``|p(v)| == |p(255 - v)|`` fails for some v).
_MODULUS = np.abs(_CENTERED)
#: Level a winning channel snaps to: ``sign(p)`` mapped back to 8 bits.
_SNAP = np.where(_CENTERED >= 0.0, 255, 0).astype(np.uint8)


def _planes(points: np.ndarray) -> tuple:
    return points[..., 0], points[..., 1], points[..., 2]


def _max_modulus(s0, s1, s2):
    return np.maximum(np.maximum(np.abs(s0), np.abs(s1)), np.abs(s2))


def _check_surface(p0, p1, p2) -> None:
    if np.any(np.abs(_max_modulus(p0, p1, p2) - 1.0) > 1e-9):
        raise ValueError("points must lie on the cube surface (max|p_i| = 1)")


def _cube_to_sphere(p0, p1, p2) -> tuple:
    norm = np.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
    return p0 / norm, p1 / norm, p2 / norm


def _stereographic(s0, s1, s2):
    """``zeta = (s1 + i s2) / (1 - s3)``; the north pole is rejected."""
    if np.any(s2 >= 1.0 - NORTH_POLE_TOL):
        raise ValueError("north-pole point cannot be projected")
    # for s3 near 1 the plain difference cancels; on the unit sphere
    # 1 - s3 = (s1^2 + s2^2)/(1 + s3) keeps full relative accuracy
    plane_sq = s0 ** 2 + s1 ** 2
    upper = s2 > 0.0
    denom = np.where(upper, plane_sq / np.where(upper, 1.0 + s2, 1.0), 1.0 - s2)
    return (s0 + 1j * s1) / denom


def _stereographic_inverse(z) -> tuple:
    # |z|^2 overflows above about 1.3e154; such points map to the north pole
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.abs(z) ** 2
        denom = sq + 1.0
        s = 2.0 * z.real / denom, 2.0 * z.imag / denom, (sq - 1.0) / denom
    pole = np.isinf(sq)
    if not np.any(pole):
        return s
    return tuple(np.where(pole, v, sk) for v, sk in zip((0.0, 0.0, 1.0), s))


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


def rgb_to_complex(img: RgbImage) -> ComplexImage:
    """Full forward chain for a surface image.

    No 8-bit pixel lands on the north pole: the pole needs
    ``p = (0, 0, 1)``, and no 8-bit level has ``p = 2c - 1 = 0``.
    """
    p = [np.take(_CENTERED, plane) for plane in _planes(img.pixels)]
    _check_surface(*p)
    zeta = _stereographic(*_cube_to_sphere(*p))
    return ComplexImage(width=img.width, height=img.height, values=zeta)


def complex_to_rgb(img: ComplexImage) -> RgbImage:
    """Inverse chain: complex plane -> sphere -> cube surface -> 8-bit RGB."""
    s = _stereographic_inverse(img.values)
    m = _max_modulus(*s)
    out = np.empty(img.values.shape + (3,), dtype=np.uint8)
    for plane, sk in zip(_planes(out), s):
        # scale out to the cube surface, then from_float's quantization of (p + 1) / 2
        c = sk / m
        c += 1.0
        c /= 2.0
        c *= 255.0
        np.clip(np.round(c, out=c), 0, 255, out=c)
        # cast in the input's memory order: a column-major input then
        # pays for the transposing copy in bytes rather than in floats
        plane[...] = c.astype(np.uint8)
    return RgbImage(width=img.width, height=img.height, pixels=out)


# ---------------------------------------------------------------------------
# separation pipeline
# ---------------------------------------------------------------------------

def _vectorize(images: list[ComplexImage]) -> np.ndarray:
    # column-major: lag 1 = next pixel down, lag ``height`` = next column
    return np.stack([im.values.flatten(order="F") for im in images], axis=1)


def _unvectorize(series: np.ndarray, width: int, height: int) -> list[ComplexImage]:
    return [ComplexImage(width=width, height=height,
                         values=series[:, k].reshape((height, width), order="F"))
            for k in range(series.shape[1])]


def random_mixing(seed, d: int = 3) -> np.ndarray:
    """Identity plus uniform(-1/2, 1/2) real and imaginary perturbations."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    e = rng.uniform(-0.5, 0.5, size=(d, d))
    f = rng.uniform(-0.5, 0.5, size=(d, d))
    return np.eye(d) + e + 1j * f


@dataclass(frozen=True)
class SeparationResult:
    """Everything the image pipeline produces for one run."""

    mixed: list
    unmixed: list
    md: float
    mixing: np.ndarray
    gamma: np.ndarray | None


def separate_images(images, tau: int = 1, mixing="random", seed: int = 0) -> SeparationResult:
    """Mix three images in the complex plane, unmix them, map back to RGB.

    ``mixing`` is ``"random"`` (seeded ``I + E + iF`` draw), ``"identity"``
    (no mixing: the chain is exercised end to end, estimation is skipped
    and the score is exactly zero), or an explicit 3x3 complex matrix.
    Returns rendered mixed/unmixed images and the minimum-distance score
    against the known mixing.
    """
    images = list(images)
    if len(images) != 3:
        raise DimensionError(f"need exactly 3 images, got {len(images)}")
    w, h = images[0].width, images[0].height
    if any(im.width != w or im.height != h for im in images):
        raise DimensionError("images must share dimensions")

    complex_imgs = [rgb_to_complex(color_correct(im)) for im in images]

    if isinstance(mixing, str) and mixing == "identity":
        rendered = [complex_to_rgb(ci) for ci in complex_imgs]
        return SeparationResult(mixed=rendered, unmixed=list(rendered),
                                md=0.0, mixing=np.eye(3, dtype=np.complex128),
                                gamma=np.eye(3, dtype=np.complex128))
    if isinstance(mixing, str) and mixing == "random":
        a = random_mixing(seed)
    else:
        a = linalg.as_cmatrix(mixing, "mixing")
        if a.shape != (3, 3):
            raise ConfigError(f"mixing must be 3x3, got {a.shape}")

    latent = _vectorize(complex_imgs)
    observed = latent @ a.T
    mixed_imgs = [complex_to_rgb(ci) for ci in _unvectorize(observed, w, h)]
    result = unmix(observed, tau)
    recovered = apply_unmixing(result, observed)
    unmixed_imgs = [complex_to_rgb(ci) for ci in _unvectorize(recovered, w, h)]
    score = md_index(result.gamma, a)
    return SeparationResult(mixed=mixed_imgs, unmixed=unmixed_imgs, md=score,
                            mixing=a, gamma=result.gamma)


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
    pos = header.end()
    raw = data[pos:pos + width * height * 3]
    if len(raw) != width * height * 3:
        raise ConfigError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape((height, width, 3))
    return RgbImage(width=width, height=height, pixels=pixels.copy())


def write_ppm(img: RgbImage, path) -> None:
    """Write a binary P6 PPM with maxval 255 (bit-exact round trip)."""
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.tobytes())
