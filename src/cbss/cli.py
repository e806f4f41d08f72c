"""Command-line driver.

Commands::

    cbss simulate --config model.json --T 4096 --seed N --out x.csv
    cbss unmix    --input X.csv --tau 1 --out prefix
    cbss md       --gamma g.csv --mixing a.csv
    cbss rate     --config cfg.json --out dir
    cbss image    --inputs a.ppm b.ppm c.ppm --seed N --tau 1 --out dir

Exit codes: 0 success, 2 configuration or parse error, 3 numerical
failure, 4 experiment failure budget exceeded.  Every command is
deterministic given its arguments and seed; numbers are written with 17
significant digits so CSV round trips are lossless.

Complex series CSV layout: header ``re_1,im_1,...,re_d,im_d``, one time
step per row.  Square complex matrices use the same layout with one
matrix row per CSV row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .asymlab import RateExperimentConfig, run_rate_experiment, write_report
from .errors import CbssError, ConfigError, DimensionError, ExperimentError, NumericalError, PhaseError
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

def write_complex_csv(path, values: np.ndarray) -> None:
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    d = a.shape[1]
    header = ",".join(f"re_{k + 1},im_{k + 1}" for k in range(d))
    row = ",".join([FLOAT_FMT] * (2 * d)) + "\n"
    cells = np.stack([a.real, a.imag], axis=-1).reshape(len(a), 2 * d)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        # one format per block of rows: fast, and the text in memory stays small
        for start in range(0, len(cells), CSV_BLOCK_ROWS):
            block = cells[start:start + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_complex_csv(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) % 2 != 0 or not header or header[0] != "re_1":
        raise ConfigError(f"{path}: expected header re_1,im_1,...,re_d,im_d")
    if len(lines) < 2:
        raise ConfigError(f"{path}: no data rows")
    d = len(header) // 2
    out = np.empty((len(lines) - 1, 2 * d))
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != 2 * d:
            raise ConfigError(f"{path}: row has {len(cells)} cells, expected {2 * d}")
        try:
            out[i] = cells
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    out = out.view(np.complex128)
    finite = np.isfinite(out)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ConfigError(f"{path}: data row {row + 1} has a non-finite cell")
    return out


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    model = ModelSpec.from_dict(_load_json(args.config))
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
    with open(prefix + "lambdas.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("lambda\n")
        for lam in result.lambdas:
            fh.write((FLOAT_FMT % lam) + "\n")
    write_complex_csv(prefix + "latent.csv", apply_unmixing(result, series))
    return 0


def cmd_md(args) -> int:
    gamma = read_complex_csv(args.gamma)
    mixing = read_complex_csv(args.mixing)
    print(FLOAT_FMT % md_index(gamma, mixing))
    return 0


def cmd_rate(args) -> int:
    cfg = RateExperimentConfig.from_dict(_load_json(args.config))
    report = run_rate_experiment(cfg)
    write_report(report, args.out)
    return 0


def cmd_image(args) -> int:
    if len(args.inputs) != 3:
        raise ConfigError(f"need exactly 3 input images, got {len(args.inputs)}")
    images = [read_ppm(p) for p in args.inputs]
    mixing = "identity" if args.identity else "random"
    result = separate_images(images, tau=args.tau, mixing=mixing, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for idx, img in enumerate(result.mixed, start=1):
        write_ppm(img, os.path.join(args.out, f"mixed_{idx}.ppm"))
    for idx, img in enumerate(result.unmixed, start=1):
        write_ppm(img, os.path.join(args.out, f"unmixed_{idx}.ppm"))
    _dump_json({"md": result.md, "clamped_pixels": result.perturbed_pixels,
                "tau": args.tau, "identity": bool(args.identity)},
               os.path.join(args.out, "metrics.json"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbss",
                                     description="complex-valued blind source separation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a model realization to CSV")
    p.add_argument("--config", required=True, help="model spec JSON")
    p.add_argument("--T", type=int, required=True, help="sample length")
    p.add_argument("--seed", type=int, required=True)
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
    p.add_argument("--seed", type=int, default=0)
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
    except (ConfigError, DimensionError, FileNotFoundError) as exc:
        print(f"cbss: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, PhaseError) as exc:
        print(f"cbss: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ExperimentError as exc:
        print(f"cbss: {exc}", file=sys.stderr)
        return 4
    except CbssError as exc:
        print(f"cbss: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
