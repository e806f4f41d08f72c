"""Color-image source separation through the complex plane.

Every RGB pixel is pushed through a chain of bijections: snap to the
color-cube surface, project the surface radially onto the unit sphere,
then map the sphere to the complex plane stereographically (the north
pole is the single excluded point).  Vectorized images become a 3-channel
complex time series, are mixed with a random complex matrix, unmixed, and
mapped back for display.

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
#: One 8-bit quantization step.
QUANT_STEP = 1.0 / 255.0


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image; ``pixels`` has shape (height, width, 3), dtype uint8."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.uint8)
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

def color_correct(img: RgbImage) -> RgbImage:
    """Snap every pixel to the nearest point on the color-cube surface.

    In centered coordinates ``p = 2c - 1`` the coordinate with maximal
    ``|p_i|`` moves to ``sign(p_i)``; ties break in R>G>B order and the
    cube center maps to the +R face.  Afterwards each pixel satisfies
    ``min(R,G,B) = 0`` or ``max(R,G,B) = 1``.
    """
    c = img.as_float()
    p = 2.0 * c - 1.0
    sel = np.argmax(np.abs(p), axis=2)
    rows, cols = np.indices(sel.shape)
    signs = np.where(p[rows, cols, sel] >= 0.0, 1.0, -1.0)
    p[rows, cols, sel] = signs
    return RgbImage.from_float((p + 1.0) / 2.0)


def cube_to_sphere(points: np.ndarray) -> np.ndarray:
    """Radial projection of cube-surface points onto the unit sphere.

    ``points`` is (..., 3) with ``max|p_i| = 1`` on the last axis; the map
    is ``p / ||p||`` and is a bijection between the two surfaces.
    """
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 3:
        raise DimensionError("expected (..., 3) points")
    if np.any(np.abs(np.max(np.abs(p), axis=-1) - 1.0) > 1e-9):
        raise ValueError("points must lie on the cube surface (max|p_i| = 1)")
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def sphere_to_cube(points: np.ndarray) -> np.ndarray:
    """Inverse of :func:`cube_to_sphere`: scale out to the cube surface."""
    s = np.asarray(points, dtype=float)
    if s.shape[-1] != 3:
        raise DimensionError("expected (..., 3) points")
    return s / np.max(np.abs(s), axis=-1, keepdims=True)


def stereographic(points: np.ndarray) -> np.ndarray:
    """Stereographic projection of unit-sphere points to the complex plane.

    ``zeta = (s1 + i s2) / (1 - s3)``; the north pole is rejected
    (``s3 >= 1 - NORTH_POLE_TOL``).
    """
    s = np.asarray(points, dtype=float)
    if s.shape[-1] != 3:
        raise DimensionError("expected (..., 3) points")
    s3 = s[..., 2]
    if np.any(s3 >= 1.0 - NORTH_POLE_TOL):
        raise ValueError("north-pole point cannot be projected")
    # for s3 near 1 the plain difference cancels; on the unit sphere
    # 1 - s3 = (s1^2 + s2^2)/(1 + s3) keeps full relative accuracy
    plane_sq = s[..., 0] ** 2 + s[..., 1] ** 2
    upper = s3 > 0.0
    denom = np.where(upper, plane_sq / np.where(upper, 1.0 + s3, 1.0), 1.0 - s3)
    return (s[..., 0] + 1j * s[..., 1]) / denom


def stereographic_inverse(zeta: np.ndarray) -> np.ndarray:
    """Map complex values back to the unit sphere (never the north pole)."""
    z = np.asarray(zeta, dtype=np.complex128)
    sq = np.abs(z) ** 2
    denom = sq + 1.0
    out = np.empty(z.shape + (3,), dtype=float)
    out[..., 0] = 2.0 * z.real / denom
    out[..., 1] = 2.0 * z.imag / denom
    out[..., 2] = (sq - 1.0) / denom
    return out


def rgb_to_complex(img: RgbImage) -> tuple[ComplexImage, int]:
    """Full forward chain for a surface image; counts perturbed pixels.

    Pixels whose sphere point would hit the north pole are nudged one
    quantization step in the red channel first; the returned count says
    how many (zero for every 8-bit image, since the quantized grid cannot
    produce the pole exactly).
    """
    c = img.as_float()
    p = 2.0 * c - 1.0
    at_pole = (p[..., 0] == 0.0) & (p[..., 1] == 0.0) & (p[..., 2] == 1.0)
    perturbed = int(at_pole.sum())
    if perturbed:
        red = c[..., 0]
        c[..., 0] = np.where(at_pole, np.where(red < 1.0, red + QUANT_STEP,
                                               red - QUANT_STEP), red)
        p = 2.0 * c - 1.0
    zeta = stereographic(cube_to_sphere(p))
    return ComplexImage(width=img.width, height=img.height, values=zeta), perturbed


def complex_to_rgb(img: ComplexImage) -> RgbImage:
    """Inverse chain: complex plane -> sphere -> cube surface -> 8-bit RGB."""
    p = sphere_to_cube(stereographic_inverse(img.values))
    return RgbImage.from_float((p + 1.0) / 2.0)


def phase_rotate(img: ComplexImage, theta: float) -> ComplexImage:
    """Rotate every value by ``exp(i*theta)``: same shapes, recolored.

    The map is a bijection of the plane, so distinct angles give distinct
    recolorings while pixel moduli (shape content) are untouched.
    """
    return ComplexImage(width=img.width, height=img.height,
                        values=np.exp(1j * float(theta)) * img.values)


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
    perturbed_pixels: int


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

    corrected = [color_correct(im) for im in images]
    complex_imgs = []
    perturbed = 0
    for im in corrected:
        ci, count = rgb_to_complex(im)
        complex_imgs.append(ci)
        perturbed += count

    if isinstance(mixing, str) and mixing == "identity":
        rendered = [complex_to_rgb(ci) for ci in complex_imgs]
        return SeparationResult(mixed=rendered, unmixed=list(rendered),
                                md=0.0, mixing=np.eye(3, dtype=np.complex128),
                                gamma=np.eye(3, dtype=np.complex128),
                                perturbed_pixels=perturbed)
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
                            mixing=a, gamma=result.gamma, perturbed_pixels=perturbed)


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
