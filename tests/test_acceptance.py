"""Acceptance suite: one test per criterion, each printing a verdict line.

The heavy Monte-Carlo criteria (5 and 6) run at their full stated sizes;
expect a few minutes of wall time for the whole module.
"""

import itertools
import json
import subprocess
import sys
import time
from importlib import resources

import numpy as np
from scipy.optimize import linear_sum_assignment

import conftest
from cbss import asymlab, estimators, genproc, linalg, metrics, unmixing
from cbss import fourier
from cbss import imagepipe as ip
from cbss.cli import write_complex_csv

from conftest import cli_env, long_range_model, random_mixing, short_range_model
from test_imagepipe import gradient_images, surface_sweep


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, detail


def load_bundled_config(name: str) -> asymlab.RateExperimentConfig:
    text = resources.files("cbss").joinpath(f"configs/{name}").read_text()
    return asymlab.RateExperimentConfig.from_dict(json.loads(text))


def random_model(rng, d):
    phis = np.sort(rng.uniform(0.05, 0.95, size=d))[::-1]
    mixing = random_mixing(rng, d)
    location = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    parts = [genproc.LatentComponentSpec(genproc.Driver("ar1", p)) for p in phis]
    return genproc.ModelSpec(d=d, components=parts * 2, mixing=mixing, location=location)


def test_criterion_1_defining_equations():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_scale, worst_diag = 0.0, 0.0
    for index in range(100):
        d = (2, 3, 5)[index % 3]
        model = random_model(rng, d)
        x, _ = genproc.generate(model, 4096, seed=np.random.SeedSequence(500 + index))
        res = unmixing.unmix(x, 1)
        s0 = estimators.autocov_sym(x, 0)
        st = estimators.autocov_sym(x, 1)
        worst_scale = max(worst_scale, float(np.max(np.abs(
            res.gamma @ s0 @ res.gamma.conj().T - np.eye(d)))))
        diagonalized = res.gamma @ st @ res.gamma.conj().T
        off = diagonalized - np.diag(np.diag(diagonalized))
        worst_diag = max(worst_diag, float(np.max(np.abs(off))))
    elapsed = time.monotonic() - start
    ok = worst_scale < 1e-8 and worst_diag < 1e-8 and elapsed < 60.0
    verdict(1, ok, "defining equations on 100 random models "
            f"(max scaling residual {worst_scale:.2e}, max off-diagonal "
            f"{worst_diag:.2e}, {elapsed:.1f}s)")


def test_criterion_2_affine_invariance():
    rng = np.random.default_rng(202)
    x, _ = genproc.generate(short_range_model(), 2048, seed=11)
    base = unmixing.unmix(x, 1).gamma
    worst = 0.0
    for _ in range(100):
        b_mat = random_mixing(rng, 3)
        b_vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        transformed = unmixing.unmix(x @ b_mat.T + b_vec, 1).gamma
        expected = base @ linalg.inverse(b_mat)
        aligned = unmixing.align_phase_to(transformed, expected)
        worst = max(worst, float(np.max(np.abs(aligned - expected))))
    ok = worst < 1e-6
    verdict(2, ok, f"affine invariance over 100 transformations (max entry diff {worst:.2e})")


def test_criterion_3_linear_algebra_oracles():
    rng = np.random.default_rng(303)
    worst_eig = 0.0
    for d in (2, 10, 30, 50):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = 0.5 * (a + a.conj().T)
        eig = linalg.hermitian_eig(herm)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        worst_eig = max(worst_eig, float(np.linalg.norm(recon - herm) / np.linalg.norm(herm)))

    worst_fft = 0.0
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k = np.arange(n)
        oracle = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
        worst_fft = max(worst_fft, float(np.max(np.abs(fourier.fft(x) - oracle))))

    assign_ok = True
    for d in range(1, 7):
        for _ in range(50):
            cost = rng.uniform(0, 1, (d, d))
            perm = metrics.solve_assignment(cost)
            total = float(cost[np.arange(d), perm].sum())
            best = min(sum(cost[j, p[j]] for j in range(d))
                       for p in itertools.permutations(range(d)))
            rows, cols = linear_sum_assignment(cost)
            if abs(total - best) > 1e-12 or abs(total - cost[rows, cols].sum()) > 1e-12:
                assign_ok = False
    ok = worst_eig < 1e-10 and worst_fft < 1e-10 and assign_ok
    verdict(3, ok, f"oracles (eig recon {worst_eig:.2e}, fft vs dft {worst_fft:.2e}, "
            f"assignment exact: {assign_ok})")


def test_criterion_4_hand_computed_values():
    x = np.array([1.0, 1j, -1.0])
    s0 = estimators.autocov_sym(x, 0)[0, 0]
    s1 = estimators.autocov_sym(x, 1)[0, 0]
    gamma = unmixing.unmix(x, 1).gamma[0, 0]
    err_s0 = abs(s0 - 4.0 / 3.0)
    err_s1 = abs(s1 - (-2.0 / 9.0))
    err_g = abs(gamma - np.sqrt(3.0) / 2.0)
    ok = err_s0 < 1e-15 and err_s1 < 1e-15 and err_g < 1e-15
    verdict(4, ok, f"hand-computed estimators (|dS0|={err_s0:.1e}, "
            f"|dS1|={err_s1:.1e}, |dGamma|={err_g:.1e})")


def test_criterion_5_short_range_rate():
    start = time.monotonic()
    report = asymlab.run_rate_experiment(load_bundled_config("shortrange.json"))
    slope_ok = -0.65 <= report.fitted_slope <= -0.35

    ks_cfg = asymlab.RateExperimentConfig(
        model=short_range_model(), tau=1, t_grid=(256, 1024, 16384),
        replications=500, seed=501, error_metric="frobenius_after_alignment")
    ks_report = asymlab.run_rate_experiment(ks_cfg)
    ks_max = ks_report.gaussianity["max"]
    elapsed = time.monotonic() - start
    ok = slope_ok and ks_max < 0.08 and elapsed < 600.0
    verdict(5, ok, f"short-range rate (slope {report.fitted_slope:.3f} in [-0.65,-0.35], "
            f"elementwise KS {ks_max:.3f} < 0.08 at T=2^14/500 reps, {elapsed:.0f}s)")


def test_criterion_6_long_range_rate():
    start = time.monotonic()
    rate_cfg = asymlab.RateExperimentConfig(
        model=long_range_model(), tau=1,
        t_grid=(2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16),
        replications=200, seed=601, error_metric="frobenius_after_alignment")
    report = asymlab.run_rate_experiment(rate_cfg)
    diag_slope = report.diag_slope
    slope_ok = -0.3 <= diag_slope <= -0.1

    ratios = [row[4] / row[3] for row in report.per_t]
    ratio_ok = ratios[-1] < 0.5 * ratios[0]

    reps = 800
    lr_ks_cfg = asymlab.RateExperimentConfig(
        model=long_range_model(), tau=1, t_grid=(256, 1024, 2 ** 14),
        replications=reps, seed=602)
    sr_ks_cfg = asymlab.RateExperimentConfig(
        model=short_range_model(), tau=1, t_grid=(256, 1024, 2 ** 14),
        replications=reps, seed=602)
    lr_g = asymlab.run_rate_experiment(lr_ks_cfg).gaussianity
    sr_g = asymlab.run_rate_experiment(sr_ks_cfg).gaussianity
    diag_keys = ("re[0,0]", "re[1,1]", "re[2,2]")
    lr_ks = max(lr_g[k] for k in diag_keys)
    sr_ks = max(sr_g[k] for k in diag_keys)
    ks_ok = lr_ks > sr_ks
    elapsed = time.monotonic() - start
    ok = slope_ok and ratio_ok and ks_ok and elapsed < 1800.0
    verdict(6, ok, f"long-range rate (diag slope {diag_slope:.3f} in [-0.3,-0.1]; "
            f"off/diag ratio {ratios[0]:.2f} -> {ratios[-1]:.2f}; "
            f"KS long-range {lr_ks:.3f} > short-range {sr_ks:.3f} "
            f"at T=2^14/{reps} reps; {elapsed:.0f}s)")


def test_criterion_7_expansion_residual_order():
    cfg = asymlab.RateExperimentConfig(
        model=short_range_model(), tau=1,
        t_grid=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14),
        replications=200, seed=701)
    frag = asymlab.expansion_residual_check(cfg)
    all_ratios = list(frag.diag_ratios) + list(frag.off_ratios)
    ok = all(0.1 <= r <= 0.65 for r in all_ratios)
    verdict(7, ok, "expansion residual ratios across 4x steps in [0.1, 0.65] "
            f"(diag {[round(r, 3) for r in frag.diag_ratios]}, "
            f"off {[round(r, 3) for r in frag.off_ratios]})")


def test_criterion_8_md_metric():
    rng = np.random.default_rng(808)
    worst_class = 0.0
    for d in (2, 3, 5):
        for _ in range(20):
            mixing = random_mixing(rng, d)
            phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
            perm = np.eye(d)[rng.permutation(d)]
            scale = np.diag(rng.uniform(0.5, 2.0, d))
            gamma = phases @ perm @ scale @ linalg.inverse(mixing)
            worst_class = max(worst_class, metrics.md_index(gamma, mixing))
    hand = metrics.md_index(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    hand_err = abs(hand - np.sqrt(0.5))
    ok = worst_class < 1e-12 and hand_err < 1e-9
    verdict(8, ok, f"md metric (identifiability-class max {worst_class:.2e} < 1e-12, "
            f"|md - sqrt(1/2)| = {hand_err:.2e} < 1e-9)")


def test_criterion_9_image_pipeline():
    # full cube-surface sweep: every quantized pixel on all six faces,
    # the eight corners, and 1e5 random interior pixels snapped on
    img = surface_sweep()
    back = ip.complex_to_rgb(ip.rgb_to_complex(img))
    max_step = int(np.max(np.abs(back.pixels.astype(int) - img.pixels.astype(int))))
    sweep_ok = max_step <= 1

    imgs = gradient_images()
    identity_md = ip.separate_images(imgs, tau=1, identity=True).md
    seeded_md = ip.separate_images(imgs, tau=1, seed=5).md
    ok = sweep_ok and identity_md < 1e-8 and seeded_md < 0.3
    verdict(9, ok, f"image pipeline (surface sweep of {img.width} pixels within "
            f"{max_step} quantization step; identity MD {identity_md:.1e} < 1e-8; "
            f"seeded synthetic MD {seeded_md:.3f} < 0.3)")


def hermite_model(normalize: bool) -> genproc.ModelSpec:
    """One component: an fGn real part under ``coeffs`` ``(0, 1, 0.5)`` and an
    AR(1) imaginary part under ``H_3``."""
    parts = [genproc.LatentComponentSpec(genproc.Driver("fgn", 0.9),
                                         genproc.Transform("coeffs", coeffs=(0.0, 1.0, 0.5))),
             genproc.LatentComponentSpec(genproc.Driver("ar1", 0.5),
                                         genproc.Transform("hermite", degree=3))]
    return genproc.ModelSpec(d=1, components=parts, normalize=normalize)


def run_cli_command_set(tmp_path, tag: str) -> dict:
    """Run criterion 10's seeded commands once in ``tmp_path``: ``simulate``,
    ``unmix``, ``md``, ``rate`` and ``image`` with and without ``--identity``,
    and ``simulate --latent`` of a model with Hermite transforms, with and
    without ``normalize``.

    Returns ``{output name: bytes}``; ``tag`` keeps the output names of
    two runs in one directory apart.
    """
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "cbss", *map(str, args)],
                              capture_output=True, cwd=tmp_path, env=cli_env())
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    (tmp_path / "model.json").write_text(json.dumps(short_range_model().to_dict()))
    rate_cfg = {"model": short_range_model(phis=(0.8, 0.2)).to_dict(),
                "t_grid": [64, 128, 256], "replications": 50, "seed": 5,
                "error_metric": "md"}
    (tmp_path / "rate.json").write_text(json.dumps(rate_cfg))
    for idx, img in enumerate(gradient_images(w=40, h=30), start=1):
        ip.write_ppm(img, tmp_path / f"in{idx}.ppm")
    write_complex_csv(tmp_path / "eye.csv", np.eye(3, dtype=complex))

    run("simulate", "--config", "model.json", "--T", "512", "--seed", "3",
        "--out", f"x_{tag}.csv")
    run("unmix", "--input", f"x_{tag}.csv", "--tau", "1", "--out", f"fit_{tag}_")
    outputs = {"md stdout": run("md", "--gamma", f"fit_{tag}_gamma.csv", "--mixing", "eye.csv")}
    run("rate", "--config", "rate.json", "--out", f"rate_{tag}")
    run("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm", "--seed", "9",
        "--tau", "1", "--out", f"img_{tag}")
    run("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm", "--seed", "9",
        "--tau", "1", "--out", f"ident_{tag}", "--identity")
    for name, normalize in (("hermite", True), ("hermite_raw", False)):
        (tmp_path / f"{name}.json").write_text(json.dumps(hermite_model(normalize).to_dict()))
        run("simulate", "--config", f"{name}.json", "--T", "512", "--seed", "3",
            "--out", f"{name}_{tag}_x.csv", "--latent", f"{name}_{tag}_latent.csv")
    names = [f"x_{tag}.csv", f"fit_{tag}_gamma.csv", f"fit_{tag}_lambdas.csv",
             f"fit_{tag}_latent.csv", f"rate_{tag}/report.csv", f"rate_{tag}/summary.json",
             f"hermite_{tag}_latent.csv", f"hermite_raw_{tag}_latent.csv"]
    names += [f"{folder}_{tag}/{name}" for folder in ("img", "ident")
              for name in ("mixed_1.ppm", "unmixed_3.ppm", "metrics.json")]
    for name in names:
        outputs[name.replace(f"_{tag}", "")] = (tmp_path / name).read_bytes()
    return outputs


def test_criterion_10_cli_determinism(tmp_path):
    ok = run_cli_command_set(tmp_path, "a") == run_cli_command_set(tmp_path, "b")
    verdict(10, ok, "seeded CLI runs of simulate/unmix/md/rate/image are byte-identical")
