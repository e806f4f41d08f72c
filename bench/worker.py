"""One benchmark workload in a fresh process; prints one JSON line.

Started by ``run.py``, which has already written the inputs to
``--workdir`` and puts ``src`` on ``PYTHONPATH``.  The first call is
the warm-up.  With ``--trace 0`` the following calls are timed until
``--seconds`` are used up, with set-up probes (fresh interpreters that
import ``cbss.cli``) among them and a run of a reference kernel
(``reference.py``) after each call and probe; with ``--trace 1``
untraced and traced calls alternate, and the traced ones feed the
per-layer metrics.  Only the
program's own calls are timed; the output checks run between them.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_clock = time.perf_counter
_start = _clock()
import cbss.cli  # noqa: E402  (timed: every user of the CLI pays it)

IMPORT_S = _clock() - _start

import numpy as np  # noqa: E402

from cbss import asymlab, cli  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Share of failed replications above which an experiment fails (README).
FAILURE_BUDGET = 0.01
#: Criterion 1's tolerance on the defining equations.
DEFINING_EQ_TOL = 1e-8
#: Criterion 9's bound on the image pipeline's MD index.
IMAGE_MD_BOUND = 0.3
#: Criterion 5's bound on the slope of the median error.  The criterion
#: runs 200 replications over T = 1024..16384; mc-short keeps the bound
#: at 50 replications over T = 256..4096 (54 seeds: -0.565 to -0.461).
SHORT_SLOPE_BOUNDS = (-0.65, -0.35)
#: Criterion 7's bound on the expansion-residual ratio per 4x step.  The
#: criterion runs 200 replications over T = 256..16384; mc-short keeps
#: the bound at 50 replications over T = 256..4096 (54 seeds: 0.15 to 0.40).
RESIDUAL_RATIO_BOUNDS = (0.1, 0.65)
#: Criterion 6's bound on the slope of the median diagonal error is
#: [-0.3, -0.1] at 200 replications over T = 1024..65536.  At 50
#: replications over the bundled T = 4096..65536 the slope spreads
#: wider (39 seeds: -0.247 to -0.138); the bound used here is widened
#: by 0.05 on each side.
LONG_DIAG_SLOPE_BOUNDS = (-0.35, -0.05)
#: Criterion 6 wants the off-diagonal/diagonal error ratio to drop below
#: half its first value over 64x in T.  The bundled grid spans 16x, where
#: theory gives 16^-0.3 = 0.44 (39 seeds: 0.27 to 0.59); the bound used
#: here is 0.8.
LONG_RATIO_DROP_BOUND = 0.8

#: Reference-kernel time after each call or probe, as a share of its
#: time, and its floor in seconds.
REF_SHARE = 0.15
REF_MIN_S = 0.05
#: Fresh processes timed for set-up per run.
SETUP_PROBES = 7
PROBE = "import time, cbss.cli; print(time.monotonic())"
#: Reference kernel for the probes: imports run interpreted code.
PROBE_REFERENCE = "interpreted"

_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


@dataclass
class Outcome:
    """One call: program seconds, ops attempted and failed, problems seen."""

    seconds: float
    attempted: int
    failed: int
    problems: list


def _within(value, bounds) -> bool:
    return value is not None and bounds[0] <= value <= bounds[1]


def _replication_failures(call):
    """Run ``call()``; return its result and the failed replications seen.

    The count is read from ``asymlab._map_replications`` while that
    helper exists; without it, only the failure budget (which asymlab
    enforces by raising) is observed.
    """
    original = getattr(asymlab, "_map_replications", None)
    if original is None:
        return call(), 0
    seen = []

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
            seen.append(out[1])
        return out

    asymlab._map_replications = counting
    try:
        return call(), sum(seen)
    finally:
        asymlab._map_replications = original


def _short_rate_problem(report):
    if not _within(report.fitted_slope, SHORT_SLOPE_BOUNDS):
        return f"fitted slope {report.fitted_slope:.3f} outside {SHORT_SLOPE_BOUNDS}"
    return None


def _residual_problem(frag):
    ratios = tuple(frag.diag_ratios) + tuple(frag.off_ratios)
    if len(ratios) != 2 * (len(frag.lengths) - 1) or not all(
            _within(r, RESIDUAL_RATIO_BOUNDS) for r in ratios):
        return f"residual ratios {ratios} outside {RESIDUAL_RATIO_BOUNDS}"
    return None


def _long_rate_problem(report):
    if not _within(report.diag_slope, LONG_DIAG_SLOPE_BOUNDS):
        return f"diagonal slope {report.diag_slope} outside {LONG_DIAG_SLOPE_BOUNDS}"
    first, last = report.per_t[0], report.per_t[-1]
    drop = (last[4] / last[3]) / (first[4] / first[3])
    if not drop < LONG_RATIO_DROP_BOUND:
        return f"off/diagonal ratio changed by {drop:.3f}, not below {LONG_RATIO_DROP_BOUND}"
    return None


class MonteCarlo:
    """Calls asymlab entry points on one config; an op is one replication.

    Each step is ``(entry point name, check)``.  The entry point is
    looked up on ``cbss.asymlab`` at call time, so the tracer's wrapper
    is seen.  A step that raises or fails its check fails all its
    replications; otherwise its failed replications count.  Every call
    runs the same config, so each step must also repeat its first
    call's result exactly.  ``reference`` names the reference kernel
    that scales its calls, None for wall seconds.
    """

    def __init__(self, workdir: Path, steps, reference: str | None):
        self.reference = reference
        self.cfg = asymlab.RateExperimentConfig.from_dict(
            json.loads((workdir / "config.json").read_text(encoding="utf-8")))
        self.steps = steps
        self.reps = len(self.cfg.t_grid) * self.cfg.replications
        self.first = {}

    def call(self) -> Outcome:
        seconds, failed, problems = 0.0, 0, []
        for name, check in self.steps:
            start = _clock()
            try:
                result, rep_failed = _replication_failures(
                    lambda: getattr(asymlab, name)(self.cfg))
            except Exception as exc:  # any error of the program fails the step
                seconds += _clock() - start
                failed += self.reps
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            seconds += _clock() - start
            summary = result.to_dict() if hasattr(result, "to_dict") else result
            problem = check(result)
            if problem is None and rep_failed > FAILURE_BUDGET * self.reps:
                problem = f"{rep_failed} of {self.reps} replications failed"
            if problem is None and self.first.setdefault(name, summary) != summary:
                problem = "result differs from the first call's on the same config"
            if problem is None:
                failed += rep_failed
            else:
                failed += self.reps
                problems.append(f"{name}: {problem}")
        return Outcome(seconds, self.reps * len(self.steps), failed, problems)


def _autocov_sym(x, tau):
    """Symmetrized lag-``tau`` autocovariance, as the estimator defines it."""
    c = x - x.mean(axis=0)
    t = x.shape[0]
    s = c[:t - tau].T @ np.conj(c[tau:]) / (t - 1 if tau == 0 else t - tau)
    return 0.5 * (s + s.conj().T)


def _read_complex_csv(path):
    cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return cells[:, 0::2] + 1j * cells[:, 1::2]


class CliUnmix:
    """``cbss unmix`` on the seeded 65536x3 CSV; an op is one command."""

    reference = "interpreted"

    def __init__(self, workdir: Path, seed: int):
        self.input = workdir / "x.csv"
        self.prefix = workdir / "fit_"
        x = inputs.unmix_series(seed)
        self.length, self.d = x.shape
        self.s0 = _autocov_sym(x, 0)
        self.s1 = _autocov_sym(x, 1)

    def call(self) -> Outcome:
        outputs = [Path(f"{self.prefix}{name}.csv") for name in ("gamma", "lambdas", "latent")]
        for path in outputs:
            path.unlink(missing_ok=True)
        argv = ["unmix", "--input", str(self.input), "--tau", "1", "--out", str(self.prefix)]
        start = _clock()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op
            return Outcome(_clock() - start, 1, 1, [f"unmix: {type(exc).__name__}: {exc}"])
        seconds = _clock() - start
        problem = self._problem(code, *outputs)
        return Outcome(seconds, 1, int(problem is not None), [problem] if problem else [])

    def _problem(self, code, gamma_csv, lambdas_csv, latent_csv):
        if code != 0:
            return f"exit code {code}"
        gamma = _read_complex_csv(gamma_csv)
        if gamma.shape != (self.d, self.d):
            return f"gamma has shape {gamma.shape}"
        scaled = gamma @ self.s0 @ gamma.conj().T
        diagonalized = gamma @ self.s1 @ gamma.conj().T
        scale_err = float(np.max(np.abs(scaled - np.eye(self.d))))
        off_err = float(np.max(np.abs(diagonalized - np.diag(np.diag(diagonalized)))))
        if not max(scale_err, off_err) < DEFINING_EQ_TOL:
            return (f"defining equations off by {scale_err:.2e} (scaling), "
                    f"{off_err:.2e} (diagonal) against {DEFINING_EQ_TOL}")
        with open(lambdas_csv, encoding="ascii") as fh:
            lambda_rows = sum(1 for line in fh if line.strip())
        with open(latent_csv, encoding="ascii") as fh:
            latent_rows = sum(1 for line in fh if line.strip())
        if lambda_rows != self.d + 1 or latent_rows != self.length + 1:
            return f"{lambda_rows} lambda rows and {latent_rows} latent rows written"
        return None


class CliImage:
    """``cbss image`` on three seeded 512x512 PPMs; an op is one command."""

    reference = "bulk"

    def __init__(self, workdir: Path, seed: int):
        self.inputs = [str(workdir / f"in{k}.ppm") for k in (1, 2, 3)]
        self.out = workdir / "images"
        self.seed = seed
        self.outputs = [self.out / f"{kind}_{k}.ppm" for kind in ("mixed", "unmixed")
                        for k in (1, 2, 3)]

    def call(self) -> Outcome:
        for path in self.outputs + [self.out / "metrics.json"]:
            path.unlink(missing_ok=True)
        argv = ["image", "--inputs", *self.inputs, "--seed", str(self.seed), "--tau", "1",
                "--out", str(self.out)]
        start = _clock()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op
            return Outcome(_clock() - start, 1, 1, [f"image: {type(exc).__name__}: {exc}"])
        seconds = _clock() - start
        problem = self._problem(code)
        return Outcome(seconds, 1, int(problem is not None), [problem] if problem else [])

    def _problem(self, code):
        if code != 0:
            return f"exit code {code}"
        md = json.loads((self.out / "metrics.json").read_text(encoding="ascii"))["md"]
        if not md < IMAGE_MD_BOUND:
            return f"MD index {md} not below {IMAGE_MD_BOUND}"
        size = inputs.IMAGE_SIZE
        for path in self.outputs:
            data = path.read_bytes()
            match = _PPM_HEADER.match(data)
            if (match is None or match.groups() != (b"%d" % size, b"%d" % size, b"255")
                    or len(data) - match.end() != size * size * 3):
                return f"{path.name} is not a {size}x{size} P6 image"
        return None


def make_workload(name: str, workdir: Path, seed: int):
    if name == "mc-short":
        return MonteCarlo(workdir, [("run_rate_experiment", _short_rate_problem),
                                    ("expansion_residual_check", _residual_problem)],
                          "interpreted")
    if name == "mc-longrange":
        # the pool spreads the work over both cores, while a reference
        # kernel in this process sees only its own core's slow spells
        return MonteCarlo(workdir, [("run_rate_experiment", _long_rate_problem)], None)
    if name == "cli-unmix":
        return CliUnmix(workdir, seed)
    if name == "cli-image":
        return CliImage(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


class _Gauge:
    """Chains reference-kernel measurements between timed stretches.

    A stretch reuses the measurement that ended the previous one when
    it is of the same kernel; the measurement after it runs for
    ``REF_SHARE`` of the stretch's time.
    """

    def __init__(self):
        self.last = (None, 0.0)

    def time(self, kind: str | None, stretch) -> list:
        """Run ``stretch()``, which returns wall seconds; return
        ``[wall seconds, reference before, reference after]``, with no
        reference measured when ``kind`` is None."""
        if kind is None:
            return [stretch(), None, None]
        before = self.last[1] if self.last[0] == kind else reference.per_run(kind, REF_MIN_S)
        seconds = stretch()
        return [seconds, before, self.after(kind, seconds)]

    def after(self, kind: str, seconds: float) -> float:
        """Measure the reference after ``seconds`` of work; return it."""
        self.last = (kind, reference.per_run(kind, max(REF_MIN_S, REF_SHARE * seconds)))
        return self.last[1]


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _probe() -> float:
    """Wall seconds of one fresh interpreter's start plus ``import cbss.cli``."""
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True).stdout
    return float(out.split()[-1]) - spawned


def measure(workload, seconds: float) -> tuple[dict, list]:
    """Warm up, then time calls until ``seconds`` would be overrun.

    Every call and every set-up probe lies between two measurements of
    the host's speed by a reference kernel: the workload's own kind for
    calls (none if it has none), ``PROBE_REFERENCE`` for probes.  One probe follows each of
    the first ``SETUP_PROBES`` timed calls, so probes and calls share
    the host's slow and fast spells; probes still missing run at the end.

    Peak memory is read after the warm-up call, before the reference
    kernels and probes first run, so that their memory does not count;
    the warm-up is scaled by the reference measured after it alone.
    """
    gauge, outcomes = _Gauge(), []

    def call():
        outcomes.append(workload.call())
        return outcomes[-1].seconds

    def timed_call():
        return gauge.time(workload.reference, call) + [outcomes[-1].attempted]

    first_s = call()
    peak_kb = _peak_rss_kb()
    after = None if workload.reference is None else gauge.after(workload.reference, first_s)
    first = [first_s, after, after]
    calls, probes = [], []
    start = _clock()
    while True:
        calls.append(timed_call())
        if len(probes) < SETUP_PROBES:
            probes.append(gauge.time(PROBE_REFERENCE, _probe))
        if len(calls) >= 2 and (_clock() - start
                                + statistics.median(c[0] for c in calls) > seconds):
            break
    while len(probes) < SETUP_PROBES:
        probes.append(gauge.time(PROBE_REFERENCE, _probe))
    return {"reference": {"calls": workload.reference, "probes": PROBE_REFERENCE},
            "first": first, "calls": calls, "probes": probes, "maxrss_kb": peak_kb}, outcomes


def trace(workload, seconds: float, replications: bool) -> tuple[dict, list]:
    """Warm up, then alternate untraced and traced calls for ``seconds``."""
    outcomes = [workload.call()]
    tracer = Tracer(layers.SITES)
    untraced, traced = [], []
    start = _clock()
    while True:
        outcomes.append(workload.call())
        untraced.append(outcomes[-1])
        with tracer:
            outcomes.append(workload.call())
        traced.append(outcomes[-1])
        if _clock() - start + untraced[-1].seconds + traced[-1].seconds > seconds:
            break
    traced_s = sum(o.seconds for o in traced)
    untraced_s = sum(o.seconds for o in untraced)
    run = {
        "import_s": IMPORT_S,
        "reps_attempted": sum(o.attempted for o in traced) if replications else 0,
        "reps_failed": sum(o.failed for o in traced) if replications else 0,
        "ops": sum(o.attempted for o in traced),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "overhead_frac": traced_s / untraced_s - 1.0,
    }
    result = {"per_layer": layers.per_layer_metrics(tracer, run)}
    if tracer.work_errors:
        result["work_errors"] = dict(tracer.work_errors)
    return result, outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = make_workload(args.workload, args.workdir, args.seed)
    if args.trace:
        result, outcomes = trace(workload, args.seconds, isinstance(workload, MonteCarlo))
    else:
        result, outcomes = measure(workload, args.seconds)
    problems = [p for o in outcomes for p in o.problems]
    result.update(
        import_s=IMPORT_S,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        problems=problems[:10],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
