"""Command-line driver.

Commands::

    cbss simulate --config model.json --T 4096 --seed N --out x.csv
    cbss unmix    --input X.csv --tau 1 --out prefix
    cbss md       --gamma g.csv --mixing a.csv
    cbss rate     --config cfg.json --out dir
    cbss image    --inputs a.ppm b.ppm c.ppm --seed N --tau 1 --out dir

Exit codes: 0 success, 2 configuration or parse error (also a file that
cannot be opened, read, decoded or written, a non-object JSON config, a
negative seed and a length too large to allocate), 3 numerical failure,
4 experiment failure budget exceeded.  Every command is deterministic
given its arguments and seed; numbers are written with 17 significant
digits so CSV round trips are lossless.

Complex series CSV layout: header ``re_1,im_1,...,re_d,im_d``, one time
step per row.  Square complex matrices use the same layout with one
matrix row per CSV row.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .asymlab import RateExperimentConfig, run_rate_experiment
from .errors import CbssError, ConfigError, ExperimentError, NumericalError, PhaseError
from .genproc import ModelSpec, generate
from .imagepipe import read_ppm, separate_images, write_ppm
from .metrics import md_index
from .unmixing import apply_unmixing, unmix

FLOAT_FMT = "%.17g"
#: Rows ``write_complex_csv`` formats at a time.
CSV_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _header(d: int) -> str:
    return ",".join(f"re_{k + 1},im_{k + 1}" for k in range(d))


def write_complex_csv(path, values: np.ndarray) -> None:
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    d = a.shape[1]
    row = ",".join([FLOAT_FMT] * (2 * d)) + "\n"
    # re_1, im_1, ... in memory order: no copy for a C-ordered series
    cells = np.ascontiguousarray(a).view(np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_header(d) + "\n")
        # one format per block of rows: fast, and the text in memory stays small
        for start in range(0, len(cells), CSV_BLOCK_ROWS):
            block = cells[start:start + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_complex_csv(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = (ln for ln in fh if not ln.isspace())
        try:
            header = [cell.strip() for cell in next(lines, "").split(",")]
            expected = _header(max(len(header) // 2, 1))
            if header != expected.split(","):
                raise ConfigError(f"expected header {expected}")
            first = next(lines, None)
            if first is None:
                raise ConfigError("no data rows")
            out = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                             comments=None, ndmin=2)
        except ValueError as exc:  # also a malformed cell, a ragged row or a non-ASCII byte
            raise ConfigError(f"{path}: {exc}") from exc
    if out.shape[1] != len(header):
        raise ConfigError(f"{path}: rows have {out.shape[1]} cells, expected {len(header)}")
    out = out.view(np.complex128)
    finite = np.isfinite(out)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ConfigError(f"{path}: data row {row + 1} has a non-finite cell")
    return out


def _load_config(path, from_dict):
    """Build a config from the JSON object in ``path``; every error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        return from_dict(obj)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    model = _load_config(args.config, ModelSpec.from_dict)
    x, z = generate(model, args.T, args.seed)
    write_complex_csv(args.out, x)
    if args.latent:
        write_complex_csv(args.latent, z)
    return 0


def cmd_unmix(args) -> int:
    series = read_complex_csv(args.input)
    result = unmix(series, args.tau)
    prefix = args.out
    write_complex_csv(prefix + "gamma.csv", result.gamma)
    np.savetxt(prefix + "lambdas.csv", result.lambdas, fmt=FLOAT_FMT,
               header="lambda", comments="")
    write_complex_csv(prefix + "latent.csv", apply_unmixing(result, series))
    return 0


def cmd_md(args) -> int:
    gamma = read_complex_csv(args.gamma)
    mixing = read_complex_csv(args.mixing)
    print(FLOAT_FMT % md_index(gamma, mixing))
    return 0


def cmd_rate(args) -> int:
    cfg = _load_config(args.config, RateExperimentConfig.from_dict)
    report = run_rate_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    np.savetxt(os.path.join(args.out, "report.csv"), report.per_t, fmt=["%d"] + [FLOAT_FMT] * 4,
               delimiter=",", header="T,median_error,iqr,diag_median,offdiag_median", comments="")
    _dump_json(report.to_dict(), os.path.join(args.out, "summary.json"))
    return 0


def cmd_image(args) -> int:
    images = [read_ppm(p) for p in args.inputs]
    result = separate_images(images, tau=args.tau, identity=args.identity, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for idx, img in enumerate(result.mixed, start=1):
        write_ppm(img, os.path.join(args.out, f"mixed_{idx}.ppm"))
    for idx, img in enumerate(result.unmixed, start=1):
        write_ppm(img, os.path.join(args.out, f"unmixed_{idx}.ppm"))
    # no 8-bit pixel lands on the north pole, so none is ever clamped
    _dump_json({"md": result.md, "clamped_pixels": 0,
                "tau": args.tau, "identity": bool(args.identity)},
               os.path.join(args.out, "metrics.json"))
    return 0


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbss",
                                     description="complex-valued blind source separation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a model realization to CSV")
    p.add_argument("--config", required=True, help="model spec JSON")
    p.add_argument("--T", type=int, required=True, help="sample length")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True, help="output CSV for the observed series")
    p.add_argument("--latent", help="optional output CSV for the latent series")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unmix", help="fit the unmixing matrix from a CSV series")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--out", required=True, help="output prefix for gamma/lambdas/latent CSVs")
    p.set_defaults(func=cmd_unmix)

    p = sub.add_parser("md", help="minimum-distance score of an estimate")
    p.add_argument("--gamma", required=True, help="estimated unmixing matrix CSV")
    p.add_argument("--mixing", required=True, help="true mixing matrix CSV")
    p.set_defaults(func=cmd_md)

    p = sub.add_parser("rate", help="run a convergence-rate experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("image", help="mix and unmix three PPM images")
    p.add_argument("--inputs", nargs=3, required=True, metavar="PPM")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--identity", action="store_true",
                   help="use the identity mixing (chain check, no estimation)")
    p.set_defaults(func=cmd_image)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, PhaseError) as exc:
        print(f"cbss: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ExperimentError as exc:
        print(f"cbss: {exc}", file=sys.stderr)
        return 4
    except (CbssError, OSError, UnicodeError) as exc:
        print(f"cbss: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"cbss: cannot allocate memory: {exc}", file=sys.stderr)
        return 2
