"""Which cbss bindings the traced run wraps, and the per-layer metrics.

Every site names the module whose global the *caller* looks up, so the
wrapper sees calls made through ``from .x import f`` copies.  Counts
and times are totals over the traced calls; ``trace.ops`` is their base.
"""

from __future__ import annotations

import math
import os

from tracer import Site

MB = 1e6


def _file_mb(key, arg):
    """Work measure: size in MB of the file named by positional ``arg``."""
    return lambda args, kwargs: {key: os.path.getsize(args[arg]) / MB}


def _transform_work(args, kwargs):
    n = len(args[0])
    return {"fourier.points": n, "fourier.flops": 5.0 * n * math.log2(n) if n > 1 else 0.0}


def _autocov_work(args, kwargs):
    t, d = args[0].shape
    return {"estimators.autocov_sym.flops": 8.0 * t * d * d}


SITES = (
    Site("cbss.cli", "read_complex_csv", "cli", "cli.read_complex_csv",
         _file_mb("cli.csv_mb_read", 0)),
    Site("cbss.cli", "write_complex_csv", "cli", "cli.write_complex_csv",
         _file_mb("cli.csv_mb_written", 0)),
    Site("cbss.asymlab", "run_rate_experiment", "asymlab", "asymlab.run_rate_experiment"),
    Site("cbss.asymlab", "expansion_residual_check", "asymlab",
         "asymlab.expansion_residual_check"),
    Site("cbss.asymlab", "generate", "genproc", "genproc.generate"),
    Site("cbss.cli", "generate", "genproc", "genproc.generate"),
    Site("cbss.genproc", "transform_moments", "genproc", "genproc.transform_moments"),
    Site("cbss.genproc", "embedding_spectrum", "genproc", "genproc.embedding_spectrum"),
    Site("cbss.fourier", "fft", "fourier", "fourier.fft", _transform_work),
    Site("cbss.fourier", "ifft", "fourier", "fourier.ifft", _transform_work),
    Site("cbss.unmixing", "autocov_sym", "estimators", "estimators.autocov_sym", _autocov_work),
    Site("cbss.asymlab", "autocov_sym", "estimators", "estimators.autocov_sym", _autocov_work),
    # no metric of its own: keeps estimator time out of unmixing.self_s
    Site("cbss.unmixing", "sample_mean", "estimators", "estimators.sample_mean"),
    Site("cbss.unmixing", "as_timeseries", "estimators", "estimators.as_timeseries"),
    Site("cbss.estimators", "as_timeseries", "estimators", "estimators.as_timeseries"),
    Site("cbss.linalg", "hermitian_eig", "linalg", "linalg.hermitian_eig"),
    Site("cbss.linalg", "herm_inv_sqrt", "linalg", "linalg.herm_inv_sqrt"),
    Site("cbss.linalg", "inverse", "linalg", "linalg.inverse"),
    Site("cbss.linalg", "as_cmatrix", "linalg", "linalg.as_cmatrix"),
    Site("cbss.asymlab", "unmix", "unmixing", "unmixing.unmix"),
    Site("cbss.cli", "unmix", "unmixing", "unmixing.unmix"),
    Site("cbss.imagepipe", "unmix", "unmixing", "unmixing.unmix"),
    Site("cbss.asymlab", "align_phase_to", "unmixing", "unmixing.align_phase_to"),
    Site("cbss.cli", "apply_unmixing", "unmixing", "unmixing.apply_unmixing"),
    Site("cbss.imagepipe", "apply_unmixing", "unmixing", "unmixing.apply_unmixing"),
    Site("cbss.asymlab", "md_index", "metrics", "metrics.md_index"),
    Site("cbss.imagepipe", "md_index", "metrics", "metrics.md_index"),
    Site("cbss.cli", "md_index", "metrics", "metrics.md_index"),
    Site("cbss.metrics", "solve_assignment", "metrics", "metrics.solve_assignment"),
    Site("cbss.metrics", "linear_sum_assignment", "metrics", "metrics.linear_sum_assignment"),
    Site("cbss.cli", "read_ppm", "imagepipe", "imagepipe.read_ppm",
         _file_mb("imagepipe.ppm_mb", 0)),
    Site("cbss.cli", "write_ppm", "imagepipe", "imagepipe.write_ppm",
         _file_mb("imagepipe.ppm_mb", 1)),
    Site("cbss.cli", "separate_images", "imagepipe", "imagepipe.separate_images"),
    Site("cbss.imagepipe", "color_correct", "imagepipe", "imagepipe.color_correct"),
    Site("cbss.imagepipe", "rgb_to_complex", "imagepipe", "imagepipe.rgb_to_complex"),
    Site("cbss.imagepipe", "complex_to_rgb", "imagepipe", "imagepipe.complex_to_rgb"),
)


def _calls(func):
    return (func,), "count", lambda tr, run: tr.calls[func]


def _busy(func):
    return (func,), "s", lambda tr, run: tr.busy_s[func]


def _self(layer, *funcs):
    return funcs, "s", lambda tr, run: tr.layer_self_s[layer]


def _work(key, unit, *funcs):
    return funcs, unit, lambda tr, run: tr.work[key]


def _cache_hit_ratio(tr, run):
    # 1 - misses / lookups; with no lookups there were no misses either
    return 1.0 - tr.calls["genproc.embedding_spectrum"] / max(tr.calls["fourier.ifft"], 1)


def _lsa_per_md(tr, run):
    # 0 when md_index is not called
    return tr.calls["metrics.linear_sum_assignment"] / max(tr.calls["metrics.md_index"], 1)


#: name -> (functions it needs, unit, value(tracer, run)); ``run`` holds
#: the traced run's own figures.  A metric is reported as absent when
#: one of the functions it needs has no binding left to wrap.
PER_LAYER = {
    "cli.import_s": ((), "s", lambda tr, run: run["import_s"]),
    "cli.read_complex_csv.busy_s": _busy("cli.read_complex_csv"),
    "cli.write_complex_csv.busy_s": _busy("cli.write_complex_csv"),
    "cli.csv_mb_read": _work("cli.csv_mb_read", "MB", "cli.read_complex_csv"),
    "cli.csv_mb_written": _work("cli.csv_mb_written", "MB", "cli.write_complex_csv"),
    "asymlab.self_s": _self("asymlab", "asymlab.run_rate_experiment"),
    "asymlab.reps_attempted": ((), "count", lambda tr, run: run["reps_attempted"]),
    "asymlab.reps_failed": ((), "count", lambda tr, run: run["reps_failed"]),
    "genproc.generate.calls": _calls("genproc.generate"),
    "genproc.generate.busy_s": _busy("genproc.generate"),
    "genproc.self_s": _self("genproc", "genproc.generate"),
    "genproc.transform_moments.calls": _calls("genproc.transform_moments"),
    "genproc.embedding_spectrum.calls": _calls("genproc.embedding_spectrum"),
    "genproc.embedding_cache_hit_ratio": (("genproc.embedding_spectrum", "fourier.ifft"),
                                          "ratio", _cache_hit_ratio),
    "fourier.fft.calls": _calls("fourier.fft"),
    "fourier.ifft.calls": _calls("fourier.ifft"),
    "fourier.busy_s": (("fourier.fft",), "s", lambda tr, run: tr.layer_busy_s["fourier"]),
    "fourier.points": _work("fourier.points", "count", "fourier.fft"),
    "fourier.flops_computed": _work("fourier.flops", "flop", "fourier.fft"),
    "estimators.autocov_sym.calls": _calls("estimators.autocov_sym"),
    "estimators.autocov_sym.busy_s": _busy("estimators.autocov_sym"),
    "estimators.autocov_sym.flops_computed": _work("estimators.autocov_sym.flops", "flop",
                                                   "estimators.autocov_sym"),
    "estimators.as_timeseries.calls": _calls("estimators.as_timeseries"),
    "estimators.as_timeseries.busy_s": _busy("estimators.as_timeseries"),
    "linalg.hermitian_eig.calls": _calls("linalg.hermitian_eig"),
    "linalg.hermitian_eig.busy_s": _busy("linalg.hermitian_eig"),
    "linalg.herm_inv_sqrt.busy_s": _busy("linalg.herm_inv_sqrt"),
    "linalg.inverse.calls": _calls("linalg.inverse"),
    "linalg.inverse.busy_s": _busy("linalg.inverse"),
    "linalg.as_cmatrix.calls": _calls("linalg.as_cmatrix"),
    "unmixing.unmix.calls": _calls("unmixing.unmix"),
    "unmixing.unmix.busy_s": _busy("unmixing.unmix"),
    "unmixing.self_s": _self("unmixing", "unmixing.unmix"),
    "unmixing.align_phase_to.busy_s": _busy("unmixing.align_phase_to"),
    "unmixing.apply_unmixing.busy_s": _busy("unmixing.apply_unmixing"),
    "metrics.md_index.calls": _calls("metrics.md_index"),
    "metrics.md_index.busy_s": _busy("metrics.md_index"),
    "metrics.solve_assignment.busy_s": _busy("metrics.solve_assignment"),
    "metrics.lsa_per_md": (("metrics.md_index", "metrics.linear_sum_assignment"),
                           "ratio", _lsa_per_md),
    "imagepipe.read_ppm.busy_s": _busy("imagepipe.read_ppm"),
    "imagepipe.write_ppm.busy_s": _busy("imagepipe.write_ppm"),
    "imagepipe.color_correct.busy_s": _busy("imagepipe.color_correct"),
    "imagepipe.rgb_to_complex.busy_s": _busy("imagepipe.rgb_to_complex"),
    "imagepipe.complex_to_rgb.busy_s": _busy("imagepipe.complex_to_rgb"),
    "imagepipe.self_s": _self("imagepipe", "imagepipe.separate_images"),
    "imagepipe.ppm_mb": _work("imagepipe.ppm_mb", "MB", "imagepipe.read_ppm"),
    "trace.overhead_frac": ((), "ratio", lambda tr, run: run["overhead_frac"]),
    "trace.ops": ((), "count", lambda tr, run: run["ops"]),
    "trace.traced_s": ((), "s", lambda tr, run: run["traced_s"]),
    "trace.untraced_s": ((), "s", lambda tr, run: run["untraced_s"]),
}


def per_layer_metrics(tracer, run: dict) -> dict:
    """Every PER_LAYER metric as ``{"value", "unit"}``, plus ``absent`` where due."""
    out = {}
    for name, (funcs, unit, value) in PER_LAYER.items():
        if not all(f in tracer.present for f in funcs):
            out[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value(tracer, run), "unit": unit}
    return out
