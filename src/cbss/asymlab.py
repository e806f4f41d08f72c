"""Monte-Carlo experiments for convergence rates and limit-law diagnostics.

The lab repeatedly generates model realizations, fits the unmixing
matrix, and aggregates alignment errors across a grid of sample lengths:

* ``run_rate_experiment`` - log-log slope of the median error versus the
  sample length, with per-element normality statistics at the top length.
  Its ``per_t`` rows also hold the diagonal and off-diagonal error medians,
  whose ratio shrinks along the grid under long-range dependence.
* ``expansion_residual_check`` - the first-order expansion of the
  estimator leaves residuals one order smaller than the leading terms;
  measures the residual decay across 4x length steps.
* ``mu_contribution_check`` - the off-diagonal entries of the scaled
  outer product of the location-estimate error vanish.

Replications are seeded by ``(grid index, replication index)`` spawn
keys.  The lab runs in two stages.  The block stage draws each grid
length's replications in stacked blocks of ``BLOCK_SAMPLES // T`` series
(at least one, at most all) as the real part planes the model makes
(``genproc._draw``), centers them in place (``estimators._centered``),
since the lab never reads a drawn block again, and reduces them to their
stacked lag-0 and lag-``tau`` Gram products and means
(``estimators._cross_products``): no complex copy of a block is made.
The length stage concatenates a length's block statistics in replication
order, and one call of a score function fits, aligns and scores them all
(``unmixing._fit_covariances``), reducing each series to a short vector
of floats.  ``unmix`` takes the same centering, products and fit, so a
lab fit equals ``unmix`` of ``generate``'s series bit for bit.  A
replication's row depends neither on its block nor on the series stacked
beside it, so reports are bit-identical no matter how many workers run
the blocks (``CBSS_THREADS`` caps the pool; unset means serial, ``0``
means all cores, and no value goes past the core count or the block
count).  The workers return statistics and the parent scores them.
Each pool worker sets numpy's bundled OpenBLAS to one thread.  Both
stages isolate a failure alike (``_each_alone``): a block whose draw or
centering fails with a ``NumericalError``, or a length whose score fails
with a ``NumericalError`` or ``PhaseError``, runs again one replication
at a time, the score from the statistics, with no draw.  Each failing
replication is dropped from every statistic and counted in the report's
``failures``; past ``FAILURE_BUDGET`` of all replications the experiment
raises ``ExperimentError``, naming a length's draw failures before its
score failures.  Any other exception propagates.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import (ConfigError, DimensionError, ExperimentError, NonFiniteError, NumericalError,
                     PhaseError)
# ``autocov_sym``, ``generate`` and ``unmix`` are unused here but stay bound:
# bench/layers.py traces them, and tests/test_bench_sites.py checks that they resolve
from .estimators import _centered, _cross_products, autocov_sym
from .genproc import (MIN_LENGTH, ModelSpec, RateInfo, _build, _draw, _json_list, _require_type,
                      generate, json_int, json_object, population_lambdas, theoretical_gamma)
from .metrics import md_index
from .unmixing import _fit_covariances, align_phase_to, unmix

ERROR_METRICS = ("md", "frobenius_after_alignment", "elementwise")
#: Replication failure fraction above which an experiment aborts.
FAILURE_BUDGET = 0.01
#: Samples (replications times length) drawn and fitted as one block.
BLOCK_SAMPLES = 16384


@dataclass(frozen=True)
class RateExperimentConfig:
    """Experiment description: model, lag, length grid and seeding."""

    model: ModelSpec
    tau: int = 1
    t_grid: tuple = (1024, 2048, 4096, 8192, 16384)
    replications: int = 200
    seed: int = 0
    error_metric: str = "frobenius_after_alignment"

    def __post_init__(self):
        _require_type(self.model, "model", ModelSpec)
        object.__setattr__(self, "t_grid", _json_list(self.t_grid, "t_grid", json_int))
        for name in ("tau", "replications", "seed"):
            object.__setattr__(self, name, json_int(getattr(self, name), name))
        if len(self.t_grid) < 3:
            raise ConfigError("t_grid needs at least 3 points")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        if self.t_grid[0] < MIN_LENGTH:
            raise ConfigError(f"t_grid must start at {MIN_LENGTH} or more")
        if not 1 <= self.tau <= self.t_grid[0] - 2:
            raise ConfigError(f"tau must lie in [1, {self.t_grid[0] - 2}] for this t_grid")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.replications < 50:
            raise ConfigError("need at least 50 replications")
        if self.error_metric not in ERROR_METRICS:
            raise ConfigError(f"error_metric must be one of {ERROR_METRICS}")
        if self.error_metric == "md" and self.model.d < 2:
            raise ConfigError("error_metric 'md' needs a model with at least 2 components")
        # every experiment needs the rate regime: refuse an undeterminable rank now
        theoretical_gamma(self.model)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "tau": self.tau,
            "t_grid": list(self.t_grid),
            "replications": self.replications,
            "seed": self.seed,
            "error_metric": self.error_metric,
        }

    @staticmethod
    def from_dict(d: dict) -> "RateExperimentConfig":
        json_object(d, "config", ("model", "tau", "t_grid", "replications", "seed",
                                  "error_metric"), ("model",))
        return _build(RateExperimentConfig, "config",
                      **{**d, "model": ModelSpec.from_dict(d["model"])})


@dataclass(frozen=True)
class RateExperimentReport:
    """Aggregated rate experiment output.

    ``per_t`` rows are ``(T, median_error, iqr, diag_median,
    offdiag_median)``; ``gaussianity`` maps element labels (``re[j,k]`` /
    ``im[j,k]``) to KS statistics of the errors at the largest length;
    ``scale_diag`` holds per-diagonal fitted scale and shape summaries,
    the empirical stand-ins for the limit constants.
    """

    per_t: tuple
    fitted_slope: float
    slope_stderr: float
    diag_slope: float | None
    offdiag_slope: float | None
    theoretical_exponent: float
    rate_info: RateInfo
    gaussianity: dict
    scale_diag: dict
    failures: int

    def to_dict(self) -> dict:
        """Every field but ``rate_info``, whose ``regime`` is kept; ``per_t`` as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rate_info"}
        out["per_t"] = [list(row) for row in self.per_t]
        out["regime"] = self.rate_info.regime
        return out


# ---------------------------------------------------------------------------
# replication plumbing
# ---------------------------------------------------------------------------

def _resolve_workers(tasks: int) -> int:
    """Pool size: ``CBSS_THREADS`` (unset 1, ``0`` all cores), at most cores and tasks.

    The pool starts all its workers at once, so the request is capped.
    """
    raw = os.environ.get("CBSS_THREADS", "").strip()
    if not raw:
        return 1
    if not (raw.isascii() and raw.isdigit()):
        raise ConfigError(f"CBSS_THREADS must be a non-negative integer, got {raw!r}")
    cores = os.cpu_count() or 1
    digits = raw.lstrip("0")
    # more digits than the core count means more than the cores: int() of
    # thousands of digits would raise
    requested = cores if len(digits) > len(str(cores)) else int(digits or "0")
    return min(requested or cores, cores, tasks)


def _openblas():
    """numpy's bundled scipy-openblas through ``ctypes``, or None with another BLAS build."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def _pin_blas() -> None:
    """Pool initializer: one BLAS thread in this worker, so that the workers
    do not oversubscribe the cores; with another BLAS build it does nothing."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def _each_alone(run, start: int, stop: int, errors) -> list:
    """``[run(start, stop)]``, else ``run(i, i + 1)`` for each index alone:
    an index failing with ``errors`` gets its message in place of its result."""
    try:
        return [run(start, stop)]
    except errors as exc:
        if stop - start == 1:
            return [f"{type(exc).__name__}: {exc}"]
    return [out for i in range(start, stop) for out in _each_alone(run, i, i + 1, errors)]


def _run_block(cfg, task) -> list:
    """The statistics of replications ``start..stop-1`` of one length, drawn as one block.

    Returns the stacked ``(s0, s_tau, mu, shift)`` of each run of
    replications that drew (``_centered`` and ``_cross_products``, one
    shift per replication) and a failed replication's message in its place.
    """
    t_index, start, stop = task

    def statistics(start, stop):
        seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(t_index, rep))
                 for rep in range(start, stop)]
        y, mu, shift = _centered(_draw(cfg.model, cfg.t_grid[t_index], seeds)[0])
        return (*_cross_products(y, cfg.tau), mu, shift)

    return _each_alone(statistics, start, stop, NumericalError)


def _map_replications(cfg: RateExperimentConfig, score, extra=None):
    """Run ``score(cfg, T, stats, extra)`` once on every grid length's replications.

    The blocks of ``_run_block`` run serially or on the pool.  The parent
    concatenates each length's block statistics in replication order into
    ``stats``, one array per field, and ``score`` returns one row per
    replication.  Returns ``(rows, failures)``: ``rows[t_index]`` stacks
    the score rows of that length's successful replications in replication
    order, and ``failures`` counts the dropped ones.  Raises
    ``ExperimentError`` when more than ``FAILURE_BUDGET`` of them failed.
    """
    reps = cfg.replications
    tasks = []
    for t_index, length in enumerate(cfg.t_grid):
        size = max(1, min(reps, BLOCK_SAMPLES // length))
        tasks += [(t_index, start, min(start + size, reps)) for start in range(0, reps, size)]
    run = functools.partial(_run_block, cfg)
    workers = _resolve_workers(len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # longest blocks first, one per message, so no worker idles behind
        # a long last block
        order = sorted(tasks, reverse=True, key=lambda t: cfg.t_grid[t[0]] * (t[2] - t[1]))
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
            blocks = dict(zip(order, pool.map(run, order)))
    else:
        blocks = {task: run(task) for task in tasks}
    out = []
    for t_index, length in enumerate(cfg.t_grid):
        drawn = [one for task in tasks if task[0] == t_index for one in blocks[task]]
        stats = [np.concatenate(c) for c in zip(*(o for o in drawn if not isinstance(o, str)))]
        # a length's draw failures, then its score rows and failures
        out.append([o for o in drawn if isinstance(o, str)])
        if stats:
            out[-1] += _each_alone(
                lambda start, stop: score(cfg, length, [c[start:stop] for c in stats], extra),
                0, len(stats[0]), (NumericalError, PhaseError))
    failures = [o for length in out for o in length if isinstance(o, str)]
    if len(failures) > FAILURE_BUDGET * reps * len(out):
        raise ExperimentError(
            f"{len(failures)} of {reps * len(out)} replications failed; first: {failures[0]}")
    return [np.concatenate([o for o in length if not isinstance(o, str)])
            for length in out], len(failures)


def _medians(rows, column: int) -> list:
    return [float(np.median(r[:, column])) for r in rows]


# per-replication scores, one row per series of a grid length's stacked statistics

def _gain_score(cfg: RateExperimentConfig, length: int, stats, extra):
    """``(error, diag_err, off_err, *gain as float pairs)`` against the truth."""
    mixing, gamma_ref = extra
    res = _fit_covariances(*stats, cfg.tau)[0]
    aligned = align_phase_to(res.gamma, gamma_ref)
    gain = aligned @ mixing
    b, d = gain.shape[:2]
    diag_err = np.max(np.abs(np.diagonal(gain, axis1=1, axis2=2) - 1.0), axis=1)
    off_err = np.max(np.abs(gain[:, ~np.eye(d, dtype=bool)]), axis=1, initial=0.0)
    if cfg.error_metric == "md":
        err = md_index(res.gamma, mixing)
    else:
        # at the reference's scale, one exact power of two off: no square overflows
        _, shift = np.frexp(np.max(np.abs(gamma_ref)))
        diff = np.abs(linalg._ldexp(aligned, -shift) - linalg._ldexp(gamma_ref, -shift))
        if cfg.error_metric == "frobenius_after_alignment":
            err = np.sqrt(np.sum((diff ** 2).reshape(b, -1), axis=1))
        else:
            err = np.max(diff.reshape(b, -1), axis=1)
        err = linalg._ldexp(err, shift, "the error")
    return np.column_stack((err, diag_err, off_err, gain.reshape(b, -1).view(float)))


def _truth(cfg: RateExperimentConfig):
    """The mixing matrix and its inverse, the reference of ``_gain_score``."""
    mixing = cfg.model.mixing_matrix()
    return mixing, linalg.inverse(mixing)


def _residual_score(cfg: RateExperimentConfig, length: int, stats, lam):
    fit, s0, st = _fit_covariances(*stats, cfg.tau)
    # the fit's covariances are at unit scale; the expansion reads them at the model's
    back = -2 * stats[3][:, None, None]
    s0, st = linalg._ldexp(s0, back), linalg._ldexp(st, back)
    # trivial mixing: the gain is the standardized estimate
    gain = fit.gamma
    diag = np.diagonal(gain, axis1=1, axis2=2)
    r_diag = np.max(np.abs((diag - 1.0) - 0.5 * (1.0 - np.diagonal(s0, axis1=1, axis2=2))),
                    axis=1)
    resid = (lam[None, :] - lam[:, None]) * gain - (lam[:, None] * s0 - st)
    off = resid[:, ~np.eye(len(lam), dtype=bool)]
    # hypot, as abs() of one complex number: numpy's vectorized abs rounds differently
    r_off = np.max(np.hypot(off.real, off.imag), axis=1, initial=0.0)
    return np.column_stack((r_diag, r_off))


def _mu_score(cfg: RateExperimentConfig, length: int, stats, exponent):
    d = cfg.model.d
    # the mean of the centering that the fits run
    mu_err = stats[2] - cfg.model.location_vector()
    outer = mu_err[:, :, None] * np.conj(mu_err)[:, None, :] * (length ** exponent)
    diag_max = np.max(np.abs(np.diagonal(outer, axis1=1, axis2=2)), axis=1)
    off_max = np.max(np.abs(outer[:, ~np.eye(d, dtype=bool)]), axis=1, initial=0.0)
    return np.column_stack((off_max, diag_max))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def fit_loglog_slope(lengths, values) -> tuple[float, float]:
    """Least-squares slope of ``log(values)`` against ``log(lengths)``.

    Returns ``(slope, stderr)``; the standard error comes from the usual
    residual-variance formula (zero when only two points are given).  Both
    sequences must be 1-D, the lengths distinct (else ``DimensionError``),
    positive and finite (else ``NonFiniteError``).
    """
    lx, ly = np.asarray(lengths, dtype=float), np.asarray(values, dtype=float)
    if lx.ndim != 1 or lx.shape != ly.shape or np.unique(lx).size < max(lx.size, 2):
        raise DimensionError("need equally many values and distinct lengths, at least two, 1-D")
    if not np.all((np.minimum(lx, ly) > 0) & (np.maximum(lx, ly) < np.inf)):
        raise NonFiniteError("lengths and values must be positive and finite")
    lx, ly = np.log(lx), np.log(ly)
    slope, intercept = np.polyfit(lx, ly, 1)
    n = lx.size
    if n == 2:
        return float(slope), 0.0
    resid = ly - (slope * lx + intercept)
    sigma2 = float(resid @ resid) / (n - 2)
    denom = float(np.sum((lx - lx.mean()) ** 2))
    return float(slope), float(np.sqrt(sigma2 / denom))


def normality_diagnostic(samples) -> float:
    """Two-sided KS statistic of the standardized samples against the standard normal.

    The samples are standardized internally (brought to unit scale by one exact
    power of two, then less their mean, over their sample standard deviation), so
    the statistic is free of their scale; at least 20 finite ones, in 1-D, are needed.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size < 20:
        raise DimensionError(f"need at least 20 samples in one dimension, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NonFiniteError("the samples hold a NaN or an infinity")
    s = linalg._pow2_scaled(s)
    sd = s.std(ddof=1)
    if sd <= 0:
        raise NumericalError("zero variance; statistic undefined")
    xs = np.sort((s - s.mean()) / sd)
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in xs / np.sqrt(2.0)]))
    n = xs.size
    upper = float(np.max(np.arange(1, n + 1) / n - cdf))
    lower = float(np.max(cdf - np.arange(0, n) / n))
    return max(upper, lower)


def run_rate_experiment(cfg: RateExperimentConfig) -> RateExperimentReport:
    """Estimate the error-decay exponent of the unmixing estimator.

    For every grid length and replication the model is sampled, the
    unmixing fitted, the estimate phase-aligned to the truth and scored
    with the configured metric.  The report carries the per-length
    median/IQR table, the fitted log-log slope of the median, per-element
    KS statistics at the largest length, and per-diagonal scale/shape
    summaries.
    """
    info = theoretical_gamma(cfg.model)
    rows, failures = _map_replications(cfg, _gain_score, _truth(cfg))
    quartiles = [np.quantile(r[:, 0], [0.25, 0.5, 0.75]) for r in rows]
    diag_meds, off_meds = _medians(rows, 1), _medians(rows, 2)
    per_t = [(length, float(q50), float(q75 - q25), diag, off)
             for length, (q25, q50, q75), diag, off
             in zip(cfg.t_grid, quartiles, diag_meds, off_meds)]
    slope, stderr = fit_loglog_slope(cfg.t_grid, [row[1] for row in per_t])
    diag_slope = (fit_loglog_slope(cfg.t_grid, diag_meds)[0]
                  if all(m > 0 for m in diag_meds) else None)
    offdiag_slope = (fit_loglog_slope(cfg.t_grid, off_meds)[0]
                     if all(m > 0 for m in off_meds) else None)

    d = cfg.model.d
    gains = np.ascontiguousarray(rows[-1][:, 3:]).view(np.complex128).reshape(-1, d, d)
    gaussianity = _elementwise_ks(gains)
    scale_diag = _diag_scale_summary(gains, cfg.t_grid[-1], info.exponent)
    return RateExperimentReport(
        per_t=tuple(per_t),
        fitted_slope=slope,
        slope_stderr=stderr,
        diag_slope=diag_slope,
        offdiag_slope=offdiag_slope,
        theoretical_exponent=-info.exponent,
        rate_info=info,
        gaussianity=gaussianity,
        scale_diag=scale_diag,
        failures=failures,
    )


def _elementwise_ks(gains: np.ndarray) -> dict:
    d = gains.shape[1]
    target = np.eye(d)
    out = {}
    worst = 0.0
    for j in range(d):
        for k in range(d):
            samples = gains[:, j, k] - target[j, k]
            stats = []
            re = samples.real
            if re.std(ddof=1) > 0:
                stats.append(("re", normality_diagnostic(re)))
            im = samples.imag
            if j != k and im.std(ddof=1) > 0:
                stats.append(("im", normality_diagnostic(im)))
            for part, stat in stats:
                out[f"{part}[{j},{k}]"] = float(stat)
                worst = max(worst, stat)
    out["max"] = float(worst)
    return out


def _diag_scale_summary(gains: np.ndarray, length: int, exponent: float) -> dict:
    out = {}
    for j in range(gains.shape[1]):
        err = np.abs(gains[:, j, j] - 1.0)
        scale = float(np.median(err) * length ** exponent)
        centered = gains[:, j, j].real - gains[:, j, j].real.mean()
        sd = centered.std(ddof=1)
        if sd > 0:
            z = centered / sd
            skew = float(np.mean(z ** 3))
            kurt = float(np.mean(z ** 4) - 3.0)
        else:
            skew, kurt = 0.0, 0.0
        out[f"component_{j}"] = {"scale": scale, "skewness": skew, "excess_kurtosis": kurt}
    return out


@dataclass(frozen=True)
class ResidualFragment:
    """Expansion-residual medians per length and their 4x-step ratios."""

    lengths: tuple
    diag_medians: tuple
    off_medians: tuple
    diag_ratios: tuple
    off_ratios: tuple


def expansion_residual_check(cfg: RateExperimentConfig) -> ResidualFragment:
    """Measure how fast the first-order expansion residuals decay.

    Requires trivial mixing.  The diagonal residual is
    ``|(G_jj - 1) - (1 - S0_jj)/2|`` and the off-diagonal one
    ``|(lam_k - lam_j) G_jk - (lam_j S0_jk - Stau_jk)|`` with ``G`` the
    phase-standardized estimate and ``lam`` the population lag spectrum.
    Both are second-order quantities: with a short-range design their
    medians shrink roughly fourfold per 4x length step, while the leading
    terms only halve.
    """
    mixing = cfg.model.mixing_matrix()
    if float(np.max(np.abs(mixing - np.eye(cfg.model.d)))) > 1e-12:
        raise ConfigError("expansion residuals are defined under trivial mixing only")
    lam = population_lambdas(cfg.model, cfg.tau)
    if np.any(lam[:-1] <= lam[1:]):
        raise ConfigError(
            "list the model components in strictly decreasing lag-autocovariance "
            "order so estimate entries line up with the raw autocovariances")
    rows, _ = _map_replications(cfg, _residual_score, lam)
    diag_medians, off_medians = _medians(rows, 0), _medians(rows, 1)
    diag_ratios = tuple(b / a for a, b in zip(diag_medians, diag_medians[1:]) if a > 0)
    off_ratios = tuple(b / a for a, b in zip(off_medians, off_medians[1:]) if a > 0)
    return ResidualFragment(
        lengths=cfg.t_grid,
        diag_medians=tuple(diag_medians),
        off_medians=tuple(off_medians),
        diag_ratios=diag_ratios,
        off_ratios=off_ratios,
    )


@dataclass(frozen=True)
class MeanContributionFragment:
    """Scaled location-error outer-product medians along the grid."""

    lengths: tuple
    offdiag_medians: tuple
    diag_medians: tuple
    decreasing: bool


def mu_contribution_check(cfg: RateExperimentConfig) -> MeanContributionFragment:
    """Track the scaled outer product of the location-estimate error.

    Off-diagonal entries of ``T^gamma * mu_err mu_err^H`` must vanish
    along the grid (the diagonal may contribute to the limit and is
    reported, not asserted).  Requires a long-range model; note
    that empirically centered generation pins the sample mean and makes
    the statistic vanish identically, so population centering is the
    meaningful setting here.  A one-component model has no off-diagonal
    entries and passes trivially.
    """
    info = theoretical_gamma(cfg.model)
    if info.regime != "long-range":
        raise ConfigError("the location-error check applies to long-range models")
    if cfg.model.normalize and cfg.model.centering == "empirical":
        warnings.warn("empirically centered generation makes the location error "
                      "identically zero; use centering='population'", stacklevel=2)
    rows, _ = _map_replications(cfg, _mu_score, info.exponent)
    off_medians, diag_medians = _medians(rows, 0), _medians(rows, 1)
    return MeanContributionFragment(
        lengths=cfg.t_grid,
        offdiag_medians=tuple(off_medians),
        diag_medians=tuple(diag_medians),
        decreasing=cfg.model.d == 1 or bool(off_medians[-1] < off_medians[0]),
    )
