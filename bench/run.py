"""Benchmark of cbss: Monte-Carlo throughput and the CLI's unmix and image paths.

Usage, from the root of a checkout (no install step; ``src`` is put on
the children's path)::

    python3 bench/run.py --workload mc-short --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1          # all four workloads in turn

Workloads (an op is one replication in ``mc-*`` and one command in
``cli-*``; every workload is one process plus, for mc-longrange, a pool
of two):

* ``mc-short``     - run_rate_experiment (md metric) and
  expansion_residual_check on the bundled short-range model at
  T = 256..4096, serial: fixed per-replication cost dominates.
* ``mc-longrange`` - run_rate_experiment on the bundled long-range model
  and grid (T = 4096..65536) with ``CBSS_THREADS=2``: FFT-bound, and the
  only workload that uses the process pool.
* ``cli-unmix``    - ``cbss unmix`` on a seeded 65536x3 CSV: CSV parsing
  and formatting, no FFT.
* ``cli-image``    - ``cbss image`` on three seeded 512x512 PPMs: the
  imagepipe colour chain, PPM I/O, one fit at T = 262144.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of interpreter start plus ``import cbss.cli``, plus the
first call's excess over the slowest timed call), ``ops_per_s`` (ops of
all timed calls over their total time), ``ok_frac`` (ops that passed
their output check) and ``peak_rss_mb`` (largest process, up to the end
of the warm-up call).  Both times are in reference seconds (see ``reference.py``),
except the calls of mc-longrange: each timed stretch lies between two
runs of a fixed kernel that does the same kind of work, and its wall
time is scaled by how fast the kernel ran against its nominal time, so
that a shared host's slow spells do not read as changes of the
program.  The wall-clock figures are printed beside them.  ``--trace 1``
runs serially and prints the per-layer metrics of ``layers.PER_LAYER``.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: workload -> CBSS_THREADS for its end-to-end run (None: unset, serial).
WORKLOADS = {
    "mc-short": None,
    "mc-longrange": "2",
    "cli-unmix": None,
    "cli-image": None,
}
#: Wall-clock budget of one workload, all its processes included.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def prepare_inputs(name: str, seed: int, workdir: Path) -> None:
    configs = SRC / "cbss" / "configs"
    if name == "mc-short":
        cfg = inputs.mc_config(configs, "shortrange.json", seed,
                               t_grid=list(inputs.MC_SHORT_GRID))
    elif name == "mc-longrange":
        cfg = inputs.mc_config(configs, "longrange_h09.json", seed)
    elif name == "cli-unmix":
        inputs.write_series_csv(workdir / "x.csv", inputs.unmix_series(seed))
        return
    else:
        for k, pixels in enumerate(inputs.synthetic_images(seed), start=1):
            inputs.write_ppm(workdir / f"in{k}.ppm", pixels)
        return
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")


def child_env(threads: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # two pool workers on two cores must not each start a BLAS thread pool
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("CBSS_THREADS", None)
    if threads is not None:
        env["CBSS_THREADS"] = threads
    return env


def run_child(cmd: list, env: dict, deadline: float) -> str:
    """Run ``cmd`` to completion in its own process group; return stdout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} overran the {RUN_BUDGET_S:.0f} s budget") from None
    finally:
        try:  # leftovers of the group, such as pool workers, end with it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited with code {proc.returncode}")
    return out


def worker_json(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepare_inputs(name, seed, workdir)
        env = child_env(None if traced else WORKLOADS[name])
        out = run_child([sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
                         "--workdir", str(workdir), "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(int(traced))],
                        env, deadline)
        res = worker_json(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = None
    if traced:
        metrics = res["per_layer"]
    else:
        # each call and probe lies between two reference measurements;
        # times below are in reference seconds, except where named wall
        def ref_s(kind, entry):
            return entry[0] * reference.scale(kind, entry[1], entry[2])

        kinds = res["reference"]
        first = ref_s(kinds["calls"], res["first"])
        calls = [ref_s(kinds["calls"], c) for c in res["calls"]]
        setup = [ref_s(kinds["probes"], p) for p in res["probes"]]
        setup_wall = [p[0] for p in res["probes"]]
        scales = [c / w for c, w in zip(calls, (c[0] for c in res["calls"]))]
        # warm-up cost the steady calls never pay: the first call's excess
        # over the slowest timed call (over the median, the calls' own
        # spread would make it noise)
        excess = max(first - max(calls), 0.0)
        ops = sum(c[3] for c in res["calls"])
        metrics = {
            "setup_s": {"value": statistics.median(setup) + excess, "unit": "s"},
            "ops_per_s": {"value": ops / sum(calls), "unit": "ops/s"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "frac"},
            "peak_rss_mb": {"value": res["maxrss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
        wall_rate = ops / sum(c[0] for c in res["calls"])
        detail = (f"process start + import: median {statistics.median(setup):.3f} s "
                  f"(wall {statistics.median(setup_wall):.3f} s) of {len(setup)}; "
                  f"first-call excess {excess:.3f} s; timed calls: {len(calls)}, "
                  f"{min(calls):.3f}..{max(calls):.3f} s; wall ops/s {wall_rate:.4g}; "
                  f"{kinds['calls'] or 'no'} reference, reference s per wall s "
                  f"{min(scales):.2f}..{max(scales):.2f}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "problems": res["problems"],
            "detail": detail, "work_errors": res.get("work_errors")}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def report(name: str, seed: int, traced: bool, result: dict) -> None:
    threads = "unset" if traced or WORKLOADS[name] is None else WORKLOADS[name]
    print(f"workload {name}  seed {seed}  trace {int(traced)}  CBSS_THREADS={threads}  "
          f"ops {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    for metric, entry in result["metrics"].items():
        note = "  (absent: no binding left to trace)" if entry.get("absent") else ""
        print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}{note}")
    if result["detail"]:
        print(f"  {result['detail']}")
    for problem in result["problems"]:
        print(f"  failed check: {problem}")
    if result["work_errors"]:
        print(f"  work measures that could not read their arguments: {result['work_errors']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still unwinds, so run_child's cleanup ends its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "cbss" / "__init__.py").is_file():
        print(f"bench: no cbss sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    facts["loadavg_start"] = _loadavg()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, bool(args.trace), results[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = _loadavg()
    facts["cbss_threads"] = {name: None if args.trace else WORKLOADS[name] for name in names}
    print("facts " + json.dumps(facts, sort_keys=True))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry for name, res in results.items()
                   for metric, entry in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
