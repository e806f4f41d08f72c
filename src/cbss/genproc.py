"""Latent process generation via Gaussian subordination.

Each real or imaginary part of a latent component is a transformed
stationary Gaussian driver: white noise, AR(1), or fractional Gaussian
noise (fGn).  Drivers are sampled exactly: AR(1) by its stationary
recursion on one normal per sample, fGn with circulant embedding and a
real inverse FFT.  Every transform is a finite series in the
probabilists' Hermite basis, so its mean, variance and Hermite ranks are
exact functions of the coefficients.  Components are mixed with a fixed
nonsingular matrix to produce the observed series.

A model lists ``2d`` part specifications: the ``d`` real parts first,
then the ``d`` imaginary parts, one scalar driver per part.  Each series
draws from one generator seeded by its ``numpy.random.SeedSequence``:
the parts take their normals from it in model order, each exactly its
own count, so draws are reproducible bit for bit regardless of
scheduling.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite_e

from . import fourier, linalg
from .errors import ConfigError, DimensionError, NumericalError
from .estimators import _complex

#: Largest Hermite degree handled by the double-precision recurrence.
MAX_HERMITE_DEGREE = 60
#: Hermite coefficients below this at unit scale (the largest ``a_k``, ``k >= 1``,
#: brought into ``[1, 2)``) are treated as zero in rank detection.
RANK_COEFF_TOL = 1e-9
#: Relative clamped eigenvalue mass above which the sampler warns.
CLAMP_REPORT_TOL = 1e-8
#: Shortest series ``generate`` draws.
MIN_LENGTH = 16
#: Samples per block of the AR(1) recursion: one matmul inside, a scan across.
AR1_BLOCK = 64
#: ``k!`` for ``k <= MAX_HERMITE_DEGREE``, each correctly rounded: ``E[H_k(X)^2]``.
_FACTORIALS = np.array([math.factorial(k) for k in range(MAX_HERMITE_DEGREE + 1)], dtype=float)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def json_int(value, name: str) -> int:
    """Decode an integer config field: an int, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_number(value, name: str) -> float:
    """Decode a number config field: a finite int or float, never a bool or a string."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _json_list(value, name: str, entry=lambda v, _: v) -> tuple:
    """Decode a list config field (a JSON array, or a list, tuple or array from
    Python) whose entries each pass ``entry(value, name)``."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {type(value).__name__}")
    return tuple(entry(v, f"{name} entry") for v in value)


def json_object(value, path: str, keys, required=()) -> dict:
    """Decode a config object: a JSON object whose keys all lie in ``keys``
    and include every key of ``required``.

    ``path`` is the object's dotted place in the config, for example
    ``model.components[0].driver``; the error for a key outside ``keys``
    or a missing required one names it.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{path}: missing key {missing[0]!r}")
    return value


def _json_kind(value, path: str, params: dict, default=None) -> tuple[str, dict]:
    """``(kind, {key: value})`` of a config object holding ``kind`` and that kind's parameter.

    ``params`` maps each kind to the key of its parameter, or to ``None``.
    ``kind`` may be left out only when ``default`` is given; the kind's
    parameter must be present.
    """
    kind = json_object(value, path, ("kind", *params.values()),
                       ("kind",) if default is None else ()).get("kind", default)
    if not isinstance(kind, str):
        raise ConfigError(f"{path}: kind must be a string, got {kind!r}")
    if kind not in params:
        raise ConfigError(f"{path}: unknown kind {kind!r}")
    own = () if params[kind] is None else (params[kind],)
    json_object(value, path, ("kind", *own), own)
    return kind, {key: value[key] for key in own}


def _json_complex(value: dict | None, name: str) -> np.ndarray | None:
    """Decode ``{"re": ..., "im": ...}`` (lists of numbers of one shape) as
    ``re + 1j * im``; keep ``None``."""
    if value is None:
        return None
    json_object(value, name, ("re", "im"), ("re", "im"))
    re, im = (np.asarray(value[key], dtype=object) for key in ("re", "im"))
    if re.shape != im.shape:
        raise ConfigError(f"{name}: re and im must have the same shape, "
                          f"got {re.shape} and {im.shape}")
    number = np.vectorize(lambda v: json_number(v, name), otypes=[float])
    return number(re) + 1j * number(im)


def _require_type(value, name: str, cls):
    """Check a nested spec a constructor takes: ``value`` when it is a ``cls``."""
    if not isinstance(value, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _build(cls, path: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, a field it refuses reported at the object's ``path``."""
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


#: Driver kind -> the config key of its parameter (None: no parameter).
_DRIVER_PARAMS = {"iid": None, "ar1": "phi", "fgn": "hurst"}
#: Transform kind -> the config key of its parameter (None: no parameter).
_TRANSFORM_PARAMS = {"identity": None, "hermite": "degree", "square_centered": None,
                     "coeffs": "coeffs"}


@dataclass(frozen=True)
class Driver:
    """Stationary Gaussian driver with unit marginal variance.

    ``kind`` is one of ``iid``, ``ar1`` (param = coefficient, |phi| < 1) or
    ``fgn`` (param = Hurst index in [0.5, 1)).
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DRIVER_PARAMS:
            raise ConfigError(f"unknown driver kind {self.kind!r}")
        object.__setattr__(self, "param",
                           json_number(self.param, _DRIVER_PARAMS[self.kind] or "param"))
        if self.param and _DRIVER_PARAMS[self.kind] is None:
            raise ConfigError(f"driver kind {self.kind!r} takes no param, got {self.param}")
        if self.kind == "ar1" and not abs(self.param) < 1:
            raise ConfigError(f"ar1 coefficient must satisfy |phi| < 1, got {self.param}")
        if self.kind == "fgn" and not (0.5 <= self.param < 1.0):
            raise ConfigError(f"fgn Hurst index must lie in [0.5, 1), got {self.param}")

    def autocov(self, lags) -> np.ndarray:
        """Autocovariance at ``lags``; fGn's ``(|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}) / 2``
        decays like ``H(2H-1) k^{2H-2}``, which is non-summable for ``H > 1/2``."""
        lags = np.abs(np.asarray(lags, dtype=float))
        if self.kind == "iid":
            return (lags == 0).astype(float)
        if self.kind == "ar1":
            return self.param ** lags
        h2 = 2.0 * self.param
        return 0.5 * (np.abs(lags + 1) ** h2 - 2.0 * lags ** h2 + np.abs(lags - 1) ** h2)

    def is_long_range(self) -> bool:
        return self.kind == "fgn" and self.param > 0.5

    def to_dict(self) -> dict:
        name = _DRIVER_PARAMS[self.kind]
        return {"kind": self.kind} if name is None else {"kind": self.kind, name: self.param}

    @staticmethod
    def from_dict(d: dict, path: str = "driver") -> "Driver":
        kind, param = _json_kind(d, path, _DRIVER_PARAMS)
        return _build(Driver, path, kind, *param.values())


@dataclass(frozen=True)
class Transform:
    """Subordinating function, expressed in the Hermite basis.

    ``identity`` maps to ``x``, ``hermite`` to ``H_degree``,
    ``square_centered`` to ``x^2 - 1`` and ``coeffs`` to
    ``sum_k coeffs[k] H_k(x)``.  ``degree`` is stored as an int and
    ``coeffs`` as a tuple of floats, so every transform is hashable.
    """

    kind: str = "identity"
    degree: int = 0
    coeffs: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _TRANSFORM_PARAMS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        object.__setattr__(self, "degree", json_int(self.degree, "degree"))
        object.__setattr__(self, "coeffs", _json_list(self.coeffs, "coeffs", json_number))
        for name in ("degree", "coeffs"):
            if getattr(self, name) and _TRANSFORM_PARAMS[self.kind] != name:
                raise ConfigError(f"transform kind {self.kind!r} takes no {name}")
        if self.kind == "hermite" and not 0 < self.degree <= MAX_HERMITE_DEGREE:
            raise ConfigError(f"hermite degree must lie in [1, {MAX_HERMITE_DEGREE}]")
        if self.kind == "coeffs" and not 0 < len(self.coeffs) <= MAX_HERMITE_DEGREE + 1:
            raise ConfigError("coefficient list must have 1..61 entries")

    def series(self) -> np.ndarray:
        """Hermite coefficients ``a_0, a_1, ...`` of the transform."""
        if self.kind == "coeffs":
            return np.asarray(self.coeffs, dtype=float)
        degree = {"identity": 1, "square_centered": 2}.get(self.kind, self.degree)
        return np.eye(1, degree + 1, degree)[0]

    def to_dict(self) -> dict:
        if self.kind == "hermite":
            return {"kind": "hermite", "degree": self.degree}
        if self.kind == "coeffs":
            return {"kind": "coeffs", "coeffs": list(self.coeffs)}
        return {"kind": self.kind}

    @staticmethod
    def from_dict(d: dict, path: str = "transform") -> "Transform":
        kind, param = _json_kind(d, path, _TRANSFORM_PARAMS, default="identity")
        return _build(Transform, path, kind, **param)


@dataclass(frozen=True)
class LatentComponentSpec:
    """One subordinated scalar process: driver, transform, optional ranks.

    ``declared_ranks`` overrides the ranks ``(q1, q2)`` of the transform and
    its centered square: two integers in ``[1, 2 * MAX_HERMITE_DEGREE]``.
    """

    driver: Driver
    transform: Transform = field(default_factory=Transform)
    declared_ranks: tuple | None = None

    def __post_init__(self):
        _require_type(self.driver, "driver", Driver)
        _require_type(self.transform, "transform", Transform)
        if self.declared_ranks is not None:
            ranks = _json_list(self.declared_ranks, "declared_ranks", json_int)
            if len(ranks) != 2 or not all(1 <= q <= 2 * MAX_HERMITE_DEGREE for q in ranks):
                raise ConfigError(f"declared_ranks must be two integers in "
                                  f"[1, {2 * MAX_HERMITE_DEGREE}], got {list(ranks)}")
            object.__setattr__(self, "declared_ranks", ranks)

    def to_dict(self) -> dict:
        out = {"driver": self.driver.to_dict(), "transform": self.transform.to_dict()}
        if self.declared_ranks is not None:
            out["declared_ranks"] = list(self.declared_ranks)
        return out

    @staticmethod
    def from_dict(d: dict, path: str = "component") -> "LatentComponentSpec":
        json_object(d, path, ("driver", "transform", "declared_ranks"), ("driver",))
        parts = {"driver": Driver.from_dict(d["driver"], f"{path}.driver")}
        if "transform" in d:
            parts["transform"] = Transform.from_dict(d["transform"], f"{path}.transform")
        return _build(LatentComponentSpec, path, **{**d, **parts})


@dataclass(frozen=True)
class ModelSpec:
    """Mixing model: ``x_t = A z_t + location`` with subordinated latents.

    ``components`` lists the ``2d`` part specs, real parts first.  With
    ``normalize`` set, every part is divided by its closed-form Hermite
    standard deviation (each part gets variance 1/2, so each complex
    component has unit variance; a part without variance is refused) and
    the generated latent block is additionally sample-centered when
    ``centering`` is ``"empirical"``; ``"population"`` keeps the raw
    sampling noise in the mean, which the location-error diagnostics need.
    """

    d: int
    components: tuple
    mixing: np.ndarray | None = None
    location: np.ndarray | None = None
    normalize: bool = True
    centering: str = "empirical"

    def __post_init__(self):
        object.__setattr__(self, "d", json_int(self.d, "d"))
        if self.d < 1:
            raise ConfigError(f"d must be at least 1, got {self.d}")
        object.__setattr__(self, "components", _json_list(
            self.components, "components",
            functools.partial(_require_type, cls=LatentComponentSpec)))
        if len(self.components) != 2 * self.d:
            raise ConfigError(
                f"need {2 * self.d} part specs (real parts then imaginary), "
                f"got {len(self.components)}")
        if not isinstance(self.normalize, bool):
            raise ConfigError(f"normalize must be true or false, got {self.normalize!r}")
        if self.centering not in ("empirical", "population"):
            raise ConfigError(f"unknown centering mode {self.centering!r}")
        for idx, spec in enumerate(self.components if self.normalize else ()):
            if not transform_moments(spec.transform)[1]:
                raise ConfigError(f"components[{idx}]: cannot normalize a transform whose "
                                  "a_1, a_2, ... are all zero")
        for name, shape, what in (("mixing", (self.d, self.d), f"a {self.d}x{self.d} matrix"),
                                  ("location", (self.d,), f"a vector of {self.d}")):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name))
                if (value.dtype.kind not in "iufc" or value.shape != shape
                        or not np.all(np.isfinite(value))):
                    raise ConfigError(f"{name} must be {what} finite values, "
                                      f"got {value.dtype} of shape {value.shape}")
                object.__setattr__(self, name, np.asarray(value, dtype=np.complex128))
        if self.mixing is not None:
            try:
                linalg.inverse(self.mixing)
            except NumericalError as exc:
                raise ConfigError(f"mixing must have a finite inverse: {exc}") from exc

    def mixing_matrix(self) -> np.ndarray:
        if self.mixing is None:
            return np.eye(self.d, dtype=np.complex128)
        return self.mixing

    def location_vector(self) -> np.ndarray:
        if self.location is None:
            return np.zeros(self.d, dtype=np.complex128)
        return self.location

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "components": [c.to_dict() for c in self.components],
            "normalize": self.normalize,
            "centering": self.centering,
        }
        for name in ("mixing", "location"):
            value = getattr(self, name)
            if value is not None:
                out[name] = {"re": value.real.tolist(), "im": value.imag.tolist()}
        return out

    @staticmethod
    def from_dict(d: dict, path: str = "model") -> "ModelSpec":
        json_object(d, path, ("d", "components", "mixing", "location", "normalize",
                              "centering"), ("d", "components"))
        parts = {key: _json_complex(d[key], f"{path}.{key}")
                 for key in ("mixing", "location") if key in d}
        parts["components"] = tuple(
            LatentComponentSpec.from_dict(c, f"{path}.components[{i}]")
            for i, c in enumerate(_json_list(d["components"], f"{path}.components")))
        return _build(ModelSpec, path, **{**d, **parts})


# ---------------------------------------------------------------------------
# Autocovariances and exact Gaussian sampling
# ---------------------------------------------------------------------------

def embedding_spectrum(autocov) -> np.ndarray:
    """Eigenvalues of the circulant embedding of a covariance sequence.

    The sequence ``r(0..N-1)`` is wrapped into a circulant of size
    ``2(N-1)`` whose eigenvalues come out of a single FFT; they are real
    for a valid covariance and non-negative when the embedding is exact.
    """
    r = np.asarray(autocov, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise DimensionError("need autocovariances at lags 0..N-1 with N >= 2")
    circ = np.concatenate([r, r[-2:0:-1]])
    return fourier.fft(circ).real


def _sqrt_spectrum(autocov) -> np.ndarray:
    """Square roots of the embedding's half spectrum, negative eigenvalues clamped at zero.

    Warns with a ``RuntimeWarning`` when the clamped mass exceeds
    ``CLAMP_REPORT_TOL`` relative to the total over the full spectrum.
    """
    eigs = embedding_spectrum(autocov)
    clamped = -float(eigs[eigs < 0].sum())
    total = float(np.abs(eigs).sum())
    if total > 0 and clamped / total > CLAMP_REPORT_TOL:
        warnings.warn(
            f"circulant embedding clamped relative eigenvalue mass {clamped / total:.3e}",
            RuntimeWarning, stacklevel=3)
    return np.sqrt(np.clip(eigs[:eigs.size // 2 + 1], 0.0, None))


def _rngs(seeds) -> list:
    """One generator per seed, an int or a ``SeedSequence``; any other seed, a
    list included, or one numpy refuses, such as -1, raises ``ConfigError``."""
    seeds = [s if isinstance(s, np.random.SeedSequence) else json_int(s, "seed") for s in seeds]
    try:
        return [np.random.default_rng(s) for s in seeds]
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from None


def _normals(rngs, n: int) -> np.ndarray:
    """``(B, n)`` standard normals, row ``b`` drawn by ``rngs[b]``."""
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


def _embedding_paths(sqrt_eigs: np.ndarray, n: int, rngs) -> np.ndarray:
    """Exact draws ``(B, n)`` from the half spectrum of embedding eigenvalue roots.

    The eigenvalues are symmetric, so scaling the half spectrum of a
    Hermitian white noise gives the full path through a real inverse FFT.
    Each row's ``m`` normals are the two real frequencies, then the real
    and the imaginary halves of the complex ones.
    """
    m = 2 * (sqrt_eigs.size - 1)
    half = m // 2
    normals = _normals(rngs, m)
    spectrum = np.empty((len(rngs), half + 1), dtype=np.complex128)
    spectrum[:, 0] = normals[:, 0]
    spectrum[:, half] = normals[:, 1]
    # unit-variance complex normals: real and imaginary parts times 1/sqrt(2)
    np.multiply(normals[:, 2:half + 1], 1.0 / np.sqrt(2.0), out=spectrum.real[:, 1:half])
    np.multiply(normals[:, half + 1:], 1.0 / np.sqrt(2.0), out=spectrum.imag[:, 1:half])
    del normals
    spectrum *= sqrt_eigs
    paths = np.fft.irfft(spectrum, m)[:, :n]
    paths *= np.sqrt(m)
    return paths


@functools.lru_cache(maxsize=None)
def _ar1_block_response(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """``(P, p)``: ``P[j, i] = phi^(i-j)`` for ``i >= j`` (else 0) and ``p[i] = phi^(i+1)``."""
    lags = np.arange(AR1_BLOCK)
    response = np.triu(phi ** np.abs(lags[None, :] - lags[:, None]))
    carry = phi ** (lags + 1)
    response.setflags(write=False)
    carry.setflags(write=False)
    return response, carry


def _ar1_paths(phi: float, n: int, rngs) -> np.ndarray:
    """Exact stationary AR(1) draws ``(B, n)`` from ``n`` normals ``e`` per row.

    ``x_0 = e_0`` and ``x_t = phi x_{t-1} + sqrt(1 - phi^2) e_t``.  The
    recursion runs in blocks of ``AR1_BLOCK`` samples: one matmul with the
    block's impulse response gives every block's path from a zero start,
    the block ends then follow an AR(1) with coefficient ``phi^AR1_BLOCK``,
    summed by a doubling scan, and each block adds its predecessor's end
    times ``phi^(i+1)``.  Every step is elementwise or one matmul per row,
    so a row does not depend on the others.
    """
    response, carry = _ar1_block_response(phi)
    blocks = -(-n // AR1_BLOCK)
    innov = np.zeros((len(rngs), blocks, AR1_BLOCK))
    flat = innov.reshape(len(rngs), -1)
    for rng, row in zip(rngs, flat):
        rng.standard_normal(out=row[:n])
    flat[:, 1:n] *= math.sqrt(1.0 - phi * phi)
    paths = innov @ response
    # true block ends: ends[k] += a^s ends[k - s] for s = 1, 2, 4, ...
    ends = paths[:, :, -1].copy()
    step, coeff = 1, float(carry[-1])
    while step < blocks:
        ends[:, step:] += coeff * ends[:, :-step]
        step, coeff = 2 * step, coeff * coeff
    # the innovations are spent: ``row`` would keep the last one alive
    del innov, flat, row
    paths[:, 1:] += ends[:, :-1, None] * carry
    return paths.reshape(len(rngs), -1)[:, :n]


@functools.lru_cache(maxsize=None)
def _driver_sqrt_spectrum(driver: Driver, length: int) -> np.ndarray:
    return _sqrt_spectrum(driver.autocov(np.arange(length + 1)))


def _sample_driver(driver: Driver, n: int, rngs) -> np.ndarray:
    """Stacked draws ``(B, n)`` of the driver, one row per generator in ``rngs``."""
    if driver.kind == "iid":
        return _normals(rngs, n)
    if driver.kind == "ar1":
        return _ar1_paths(driver.param, n, rngs)
    length = 1 << max(int(np.ceil(np.log2(max(n - 1, 8)))), 3)
    return _embedding_paths(_driver_sqrt_spectrum(driver, length), n, rngs)


# ---------------------------------------------------------------------------
# Transform moments and Hermite ranks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def transform_moments(transform: Transform) -> tuple[np.ndarray, float, int]:
    """``(c, var, shift)``, the transform at unit scale that every part, rank and
    lambda reads: ``c`` (read-only) holds the centered Hermite coefficients
    ``0, a_1, a_2, ...`` divided by ``2^shift``, which brings the largest into
    ``[1, 2)``, and ``var = sum_{k>=1} k! c_k^2``.  Dividing by a power of two
    is exact, so neither depends on the coefficients' scale or overflows."""
    c = transform.series()
    c[0] = 0.0
    shift = math.frexp(np.max(np.abs(c)))[1] - 1
    c = np.ldexp(c, -shift)
    c.setflags(write=False)
    return c, float((_FACTORIALS[1:c.size] * c[1:] ** 2).sum()), shift


def hermite_rank(transform: Transform) -> tuple[int, int]:
    """Ranks ``(q1, q2)`` of the transform and of its centered square.

    ``q1`` is the first index ``k >= 1`` with ``|c_k| > RANK_COEFF_TOL`` for
    the coefficients ``c`` of ``transform_moments``, ``q2`` the same for
    their exact Hermite product with themselves: both are free of the
    coefficients' scale.  Raises ``ConfigError`` when no coefficient clears
    the threshold (rank undeterminable), as when ``a_1, a_2, ...`` are all 0.
    """
    c = transform_moments(transform)[0]
    return _first_nonzero(c), _first_nonzero(hermite_e.hermemul(c, c))


def _first_nonzero(coeffs: np.ndarray) -> int:
    for k in range(1, coeffs.size):
        if abs(coeffs[k]) > RANK_COEFF_TOL:
            return k
    raise ConfigError(
        f"all Hermite coefficients up to degree {MAX_HERMITE_DEGREE} fall below "
        f"{RANK_COEFF_TOL} at unit scale; rank undeterminable")


def component_ranks(spec: LatentComponentSpec) -> tuple[int, int]:
    """Declared ranks when present, else the ranks of the transform."""
    if spec.declared_ranks is not None:
        return spec.declared_ranks
    return hermite_rank(spec.transform)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _draw(model: ModelSpec, length: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Observed and latent part planes ``(x, z)`` of a block, one series per seed.

    Both are ``(B, 2d, T)``: row ``idx`` of a series is part ``idx``, the
    ``d`` real parts and then the ``d`` imaginary ones, each a contiguous
    run of time.  The mixing and the location act on the planes through
    the real ``2d x 2d`` matrix ``[[Ar, -Ai], [Ai, Ar]]`` and the stacked
    parts of the location; with neither, ``x`` is ``z`` itself.
    """
    rngs = _rngs(seeds)
    d = model.d
    z = np.empty((len(rngs), 2 * d, length))
    for idx, spec in enumerate(model.components):
        raw = _sample_driver(spec.driver, length, rngs)
        c, var, shift = transform_moments(spec.transform)
        # formed at unit scale, then scaled once: to variance 1/2 under normalize
        # (ModelSpec checked var > 0), else by 2^shift, which ldexp applies
        # where 2^-shift itself would leave the double range
        y = raw if spec.transform.kind == "identity" else hermite_e.hermeval(raw, c)
        if model.normalize:
            np.divide(y, np.sqrt(2.0 * var), out=z[:, idx])
        else:
            z[:, idx] = linalg._ldexp(y, shift, f"components[{idx}]: the part")
        # no part outlives its copy into z
        del raw, y
    if model.normalize and model.centering == "empirical":
        z -= z.mean(axis=-1, keepdims=True)
    x = z
    if model.mixing is not None:
        a = model.mixing
        x = np.block([[a.real, -a.imag], [a.imag, a.real]]) @ z
    if model.location is not None:
        loc = model.location
        x = np.add(x, np.concatenate((loc.real, loc.imag))[:, None], out=None if x is z else x)
    return x, z


def generate(model: ModelSpec, length: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(x, z)``: observed and latent series of the mixing model.

    ``z`` stacks the ``2d`` subordinated parts into ``d`` complex
    components; every part is evaluated from its centered Hermite
    coefficients and rescaled under ``normalize``, and an unnormalized part
    beyond the double range raises ``NonFiniteError``.  ``x = z A^T +
    location`` rowwise, and it is a separate array from ``z`` even when it
    holds the same values.  In both, each component's path ``x[:, j]`` is
    one run of memory.

    ``seed`` is an int or a ``SeedSequence``; anything else, a list
    included, raises ``ConfigError``.  The series draws from one generator
    seeded by it, and the parts take their normals from it in model order
    (the ``d`` real parts, then the ``d`` imaginary ones), each exactly
    its own count: ``T`` for ``iid`` and ``ar1``, the embedding size
    ``m`` for ``fgn``.  Adding or removing a part, or switching one
    between ``fgn`` and another kind, shifts the draws of the parts after it.
    """
    t = json_int(length, "length")
    if t < MIN_LENGTH:
        raise DimensionError(f"need at least {MIN_LENGTH} observations, got {t}")
    x, z = _draw(model, t, [seed])
    x = None if x is z else x[0]
    # one at a time, so that each plane block is freed once it is converted
    z = _complex(z[0])
    return z.copy(order="K") if x is None else _complex(x), z


def population_lambdas(model: ModelSpec, tau: int) -> np.ndarray:
    """Population lag-``tau`` autocovariance of each latent component.

    Uses the Hermite-expansion identity
    ``Cov[f(X_s), f(X_t)] = sum_k k! a_k^2 rho^k`` with ``rho`` the driver
    autocovariance, combining the real and imaginary parts with the same
    scaling as :func:`generate`.  On an unnormalized model, a part whose
    autocovariance leaves the double range raises ``NonFiniteError``, even
    where its draw stays finite.
    """
    tau = json_int(tau, "tau")
    parts = []
    for idx, spec in enumerate(model.components):
        rho = float(spec.driver.autocov(np.array([tau]))[0])
        # from the coefficients at unit scale: no square overflows or underflows
        c, var, shift = transform_moments(spec.transform)
        cov = float(np.sum(_FACTORIALS[1:c.size] * c[1:] ** 2 * rho ** np.arange(1, c.size)))
        parts.append(cov / (2.0 * var) if model.normalize else linalg._ldexp(
            cov, 2 * shift, f"components[{idx}]: the lag-{tau} autocovariance"))
    # each component: its real part, then its imaginary part
    return np.add(parts[:model.d], parts[model.d:])


# ---------------------------------------------------------------------------
# Rate regime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateInfo:
    """Convergence-rate exponent and regime diagnostics for a model.

    ``exponent`` is the power of ``T`` at which the unmixing estimate
    converges: ``1/2`` in the short-range regime, otherwise
    ``-max_i q2_i (2 H_i - 2) / 2 < 1/2`` over the long-range parts.

    Flags (informational, never errors):

    * ``cross_terms_dominated`` - the squared-transform decay strictly
      dominates every cross-product decay and the ``-1`` summability
      floor; when False the slower cross terms may pollute the limit.
    * ``mean_term_compatible`` - the location-estimate contribution does
      not decay slower than the leading term.
    * ``sqrt_log_boundary`` - the exponent sits exactly on the ``-1``
      floor, where the true rate picks up a ``sqrt(log T)`` factor.
    """

    exponent: float
    regime: str
    ranks: tuple = ()
    cross_terms_dominated: bool = True
    mean_term_compatible: bool = True
    sqrt_log_boundary: bool = False


def theoretical_gamma(model: ModelSpec) -> RateInfo:
    """Rate exponent for a model, with regime-assumption diagnostics.

    Each part's ranks ``(q1, q2)`` are its ``declared_ranks`` when set,
    else the ranks of its transform.  Only long-range parts strictly need
    ranks: for short-range parts an undeterminable rank is recorded as
    ``None`` instead of failing, and for a long-range part it raises
    ``ConfigError``.
    """
    lr = tuple(i for i, spec in enumerate(model.components) if spec.driver.is_long_range())
    ranks = []
    for i, spec in enumerate(model.components):
        try:
            ranks.append(component_ranks(spec))
        except ConfigError as exc:
            if i in lr:
                raise ConfigError(f"model.components[{i}]: {exc}; set declared_ranks "
                                  "for this long-range part") from None
            ranks.append(None)
    ranks = tuple(ranks)
    if not lr:
        return RateInfo(exponent=0.5, regime="short-range", ranks=ranks)

    hurst = {i: model.components[i].driver.param for i in lr}
    q2_terms = {i: ranks[i][1] * (2.0 * hurst[i] - 2.0) for i in lr}
    dominant = max(q2_terms.values())
    gamma = -0.5 * dominant

    cross_terms = [
        ranks[j][0] * (2.0 * hurst[j] - 2.0) + ranks[k][0] * (2.0 * hurst[k] - 2.0)
        for j in lr for k in lr if j != k
    ]
    floor = max(cross_terms, default=-np.inf)
    eps = 1e-12
    dominated = dominant > max(floor, -1.0) + eps
    boundary = abs(dominant + 1.0) <= eps
    mean_ok = all(dominant >= ranks[k][0] * (4.0 * hurst[k] - 4.0) - eps for k in lr)
    return RateInfo(
        exponent=float(gamma),
        regime="long-range",
        ranks=ranks,
        cross_terms_dominated=bool(dominated),
        mean_term_compatible=bool(mean_ok),
        sqrt_log_boundary=bool(boundary),
    )
