import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbss import cli, genproc, unmixing
from cbss import imagepipe as ip
from cbss.errors import ConfigError

from conftest import cli_env, short_range_model
from test_imagepipe import gradient_images

X3_CSV = "re_1,im_1\n1,0\n0,1\n-1,0\n"


def run_cli(*args, cwd=None, **env):
    return subprocess.run([sys.executable, "-m", "cbss", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env={**cli_env(), **env})


def write_model_config(path, model):
    path.write_text(json.dumps(model.to_dict()))


def test_csv_round_trip(tmp_path, rng):
    values = rng.standard_normal((13, 3)) + 1j * rng.standard_normal((13, 3))
    values *= 10.0 ** rng.integers(-8, 8, size=(13, 3))
    # signed zero, the largest magnitudes and the smallest subnormal
    values[0] = [complex(-0.0, 1e300), complex(5e-324, -5e-324),
                 complex(-1.7976931348623157e308, 0.0)]
    path = tmp_path / "x.csv"
    cli.write_complex_csv(path, values)
    back = cli.read_complex_csv(path)
    np.testing.assert_array_equal(back, values)
    assert np.signbit(back[0, 0].real) and not np.signbit(back[0, 2].imag)
    # more rows than one formatting block
    tall = np.tile(values, (cli.CSV_BLOCK_ROWS // len(values) + 1, 1))
    cli.write_complex_csv(path, tall)
    np.testing.assert_array_equal(cli.read_complex_csv(path), tall)
    # blank and whitespace-only lines are skipped; CRLF and padded cells parse
    path.write_bytes(b" re_1 ,im_1\t\r\n\r\n 1.5 , -2\r\n \t \r\n0,1e-3\r\n\n")
    np.testing.assert_array_equal(cli.read_complex_csv(path), [[1.5 - 2j], [1e-3j]])


def test_csv_bytes_do_not_depend_on_memory_layout(tmp_path, rng):
    values = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    for view in (np.asfortranarray(values), values[3::2, ::-2]):
        cli.write_complex_csv(tmp_path / "view.csv", view)
        cli.write_complex_csv(tmp_path / "copy.csv", np.ascontiguousarray(view))
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    for text, message in [
        ("col_a,col_b\n1,2\n", "expected header re_1,im_1"),
        ("", "expected header re_1,im_1"),
        # planar and unnamed cells: only the interleaved header is read as d series
        ("re_1,re_2,im_1,im_2\n1,2,3,4\n", "expected header re_1,im_1,re_2,im_2"),
        ("re_1,im_1,foo,bar\n1,2,3,4\n", "expected header re_1,im_1,re_2,im_2"),
        ("re_1,im_1,re_2\n1,2,3\n", "expected header re_1,im_1$"),
        ("re_1,im_1\n", "no data rows"),
        ("re_1,im_1\n\n  \n", "no data rows"),
        ("re_1,im_1\n1,2\n3,4,5,6\n", "number of columns"),
        ("re_1,im_1,re_2,im_2\n1,2\n", "rows have 2 cells, expected 4"),
        ("re_1,im_1\n1,x\n", "could not convert"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=message) as info:
            cli.read_complex_csv(path)
        assert "bad.csv" in str(info.value)


def test_unmix_command_scalar_example(tmp_path):
    (tmp_path / "x.csv").write_text(X3_CSV)
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "run_", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    gamma = (tmp_path / "run_gamma.csv").read_text()
    assert "0.8660254037844386" in gamma
    lambdas = (tmp_path / "run_lambdas.csv").read_text().splitlines()
    assert lambdas[0] == "lambda"
    assert abs(float(lambdas[1]) + 1.0 / 6.0) < 1e-15
    latent = cli.read_complex_csv(tmp_path / "run_latent.csv")
    assert latent.shape == (3, 1)


def test_unmix_missing_file(tmp_path):
    proc = run_cli("unmix", "--input", "absent.csv", "--tau", "1", "--out", "y_", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_unmix_tau_out_of_range(tmp_path):
    (tmp_path / "x.csv").write_text(X3_CSV)
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "2", "--out", "y_", cwd=tmp_path)
    assert proc.returncode == 2
    assert "range" in proc.stderr


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_unmix_rejects_non_finite_cell(tmp_path, cell):
    (tmp_path / "x.csv").write_text(f"re_1,im_1\n1,0\n0,{cell}\n-1,0\n")
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "y_", cwd=tmp_path)
    assert proc.returncode == 2
    assert "non-finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unmix_fits_at_any_scale_and_a_degenerate_series_is_numerical_failure(tmp_path):
    # finite cells whose cross products overflow or underflow double
    # precision used to end in exit 3; the fit now runs them at unit scale
    x, _ = genproc.generate(short_range_model(), 256, seed=4)
    for scale in (1e200, 1e-300, 1e300, 2.0 ** 1000, 2.0 ** -1000):
        cli.write_complex_csv(tmp_path / "x.csv", x * scale)
        proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "y_", cwd=tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", scale
        np.testing.assert_allclose(cli.read_complex_csv(tmp_path / "y_gamma.csv") * scale,
                                   unmixing.unmix(x, 1).gamma, rtol=1e-9, err_msg=str(scale))
    # a zero component leaves S0 singular
    x[:, 1] = 0.0
    cli.write_complex_csv(tmp_path / "x.csv", x)
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "y_", cwd=tmp_path)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unmix_refuses_a_gamma_beyond_the_double_range(tmp_path):
    # cells near 1e-320 need a gamma near 2^1060: it used to be written as
    # inf with exit 0, the latent as nan, and numpy's warnings on stderr
    x, _ = genproc.generate(short_range_model(), 512, seed=4)
    tiny = np.ldexp(x.real, -1060) + 1j * np.ldexp(x.imag, -1060)
    cli.write_complex_csv(tmp_path / "x.csv", tiny)
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "y_", cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("cbss: numerical failure: the unmixing matrix overflows")
    assert "Warning" not in proc.stderr and not (tmp_path / "y_gamma.csv").exists()


def test_md_zero_row_gain_is_numerical_failure(tmp_path):
    cli.write_complex_csv(tmp_path / "g.csv", np.array([[1.0, 0.0], [0.0, 0.0]]))
    cli.write_complex_csv(tmp_path / "a.csv", np.eye(2))
    proc = run_cli("md", "--gamma", "g.csv", "--mixing", "a.csv", cwd=tmp_path)
    assert proc.returncode == 3
    assert "zero row" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_md_at_any_scale(tmp_path):
    cli.write_complex_csv(tmp_path / "g.csv", np.array([[1e10, 1.0], [1.0, 1e10]]))
    cli.write_complex_csv(tmp_path / "a.csv", 1e300 * np.eye(2))
    proc = run_cli("md", "--gamma", "g.csv", "--mixing", "a.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == 0.0


def test_simulate_then_unmix_then_md(tmp_path):
    model = short_range_model(mixing=np.eye(3) + 0.3j * np.eye(3)[::-1])
    write_model_config(tmp_path / "model.json", model)
    proc = run_cli("simulate", "--config", "model.json", "--T", "2048",
                   "--seed", "7", "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("unmix", "--input", "x.csv", "--tau", "1", "--out", "fit_", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    cli.write_complex_csv(tmp_path / "a.csv", model.mixing)
    proc = run_cli("md", "--gamma", "fit_gamma.csv", "--mixing", "a.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    score = float(proc.stdout.strip())
    assert 0.0 <= score <= 1.0
    assert score < 0.2


def test_simulate_deterministic(tmp_path):
    write_model_config(tmp_path / "model.json", short_range_model())
    for out in ("a.csv", "b.csv"):
        proc = run_cli("simulate", "--config", "model.json", "--T", "256",
                       "--seed", "3", "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_rejects_bad_config(tmp_path):
    (tmp_path / "model.json").write_text("{not json")
    proc = run_cli("simulate", "--config", "model.json", "--T", "64",
                   "--seed", "0", "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 2


def test_rate_command(tmp_path):
    cfg = {
        "model": short_range_model(phis=(0.8, 0.2)).to_dict(),
        "tau": 1,
        "t_grid": [64, 128, 256],
        "replications": 50,
        "seed": 5,
        "error_metric": "frobenius_after_alignment",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out1" / "summary.json").read_text())
    assert len(summary["per_t"]) == 3
    report = (tmp_path / "out1" / "report.csv").read_text().splitlines()
    assert report[0] == "T,median_error,iqr,diag_median,offdiag_median"
    # deterministic re-run
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out2", cwd=tmp_path)
    assert proc.returncode == 0
    for name in ("summary.json", "report.csv"):
        assert ((tmp_path / "out1" / name).read_bytes()
                == (tmp_path / "out2" / name).read_bytes())


def test_rate_bundled_long_range_config(tmp_path):
    # the shipped long-memory config lands in the slow-rate window
    from importlib import resources
    with resources.as_file(resources.files("cbss") / "configs/longrange_h09.json") as cfg:
        proc = run_cli("rate", "--config", cfg, "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert -0.3 <= summary["fitted_slope"] <= -0.1
    assert summary["regime"] == "long-range"
    assert abs(summary["theoretical_exponent"] + 0.2) < 1e-12


def test_a_length_too_large_to_allocate_exits_2(tmp_path):
    # 10^14 samples take petabytes, which numpy refuses at once
    write_model_config(tmp_path / "model.json", short_range_model())
    cfg = {"model": short_range_model().to_dict(), "t_grid": [16, 32, 10 ** 14],
           "replications": 50, "seed": 5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for args in (("simulate", "--config", "model.json", "--T", 10 ** 14, "--seed", 1,
                  "--out", "x.csv"),
                 ("rate", "--config", "cfg.json", "--out", "out")):
        proc = run_cli(*args, cwd=tmp_path, CBSS_THREADS="1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("cbss: cannot allocate memory: "), proc.stderr
        assert "100000000000000" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()


def test_rate_rejects_zero_replications(tmp_path):
    base = {
        "model": short_range_model(phis=(0.8, 0.2)).to_dict(),
        "t_grid": [64, 128, 256],
        "replications": 50,
        "seed": 5,
    }
    # a lag outside [1, t_grid[0] - 2], the MD index on one component, or a
    # negative seed is refused before any generation
    one = {"model": short_range_model(phis=(0.5,)).to_dict(), "error_metric": "md"}
    for change in ({"replications": 0}, {"tau": 0}, {"tau": -1}, {"tau": 5000}, one,
                   {"seed": -5}):
        (tmp_path / "cfg.json").write_text(json.dumps({**base, **change}))
        proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
        assert proc.returncode == 2, change
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


def _longrange_config():
    from importlib import resources
    text = (resources.files("cbss") / "configs/longrange_h09.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("field, edit", [
    # three ranks on the fGn part used to end in "too many values to unpack"
    ("declared_ranks", lambda c: c["model"]["components"][1].update(declared_ranks=[1, 2, 3])),
    # a NaN location used to run every replication and then exit 4
    ("location", lambda c: c["model"].update(
        location={"re": [float("nan"), 0, 0], "im": [0, 0, float("inf")]})),
    # an fGn part whose rank no coefficient determines used to end in a
    # traceback; unnormalized, since normalize refuses such a part first
    pytest.param("declared_ranks", lambda c: (
        c["model"].update(normalize=False),
        c["model"]["components"][1].update(transform={"kind": "coeffs", "coeffs": [3.0, 0.0]})),
        id="undeterminable-rank"),
])
def test_rate_rejects_bad_model_fields_before_generating(tmp_path, field, edit):
    cfg = _longrange_config()
    edit(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    assert not (tmp_path / "out").exists()


def test_rate_ranks_are_free_of_the_coefficient_scale(tmp_path):
    # coefficients (0, 2^-40, 2^-41) on the fGn part used to be refused with
    # exit 2: no coefficient cleared the rank threshold at their own scale
    for name, coeffs in (("small", [0, 2.0 ** -40, 2.0 ** -41]), ("unit", [0, 1.0, 0.5])):
        cfg = {**_longrange_config(), "t_grid": [1024, 2048, 4096], "replications": 50}
        cfg["model"]["components"][1]["transform"] = {"kind": "coeffs", "coeffs": coeffs}
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        proc = run_cli("rate", "--config", f"{name}.json", "--out", name, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "small" / "summary.json").read_bytes()
            == (tmp_path / "unit" / "summary.json").read_bytes())


def test_an_unnormalized_part_beyond_the_double_range_fails(tmp_path):
    # it used to be written as inf with exit 0, numpy's warnings on stderr
    parts = [genproc.LatentComponentSpec(genproc.Driver("iid")),
             genproc.LatentComponentSpec(genproc.Driver("ar1", 0.5), genproc.Transform(
                 "coeffs", coeffs=(0.0, 1e308, 1e308)))]
    model = genproc.ModelSpec(d=1, components=parts, normalize=False)
    write_model_config(tmp_path / "model.json", model)
    proc = run_cli("simulate", "--config", "model.json", "--T", "64", "--seed", "1",
                   "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("cbss: numerical failure: components[1]: "), proc.stderr
    assert "Warning" not in proc.stderr and not (tmp_path / "x.csv").exists()
    # in the lab every block fails, which exhausts the failure budget
    cfg = {"model": model.to_dict(), "t_grid": [64, 128, 256], "replications": 50, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert "components[1]: the part overflows" in proc.stderr
    assert "Warning" not in proc.stderr


def _rename_key(obj, old, new):
    obj[new] = obj.pop(old)


@pytest.mark.parametrize("where, edit", [
    ("config: unknown key 'replicatons'", lambda c: _rename_key(c, "replications", "replicatons")),
    ("config: unknown key 'error_metic'", lambda c: c.update(error_metic="md")),
    ("model: unknown key 'normalise'", lambda c: c["model"].update(normalise=False)),
    ("model.components[1]: unknown key 'transfrom'",
     lambda c: _rename_key(c["model"]["components"][1], "transform", "transfrom")),
    ("model.components[0].driver: unknown key 'hurst'",
     lambda c: c["model"]["components"][0]["driver"].update(hurst=0.9)),
])
def test_rate_refuses_unknown_config_keys(tmp_path, where, edit):
    # each key used to be ignored: the run went ahead with defaults
    cfg = {"model": short_range_model(phis=(0.8, 0.2)).to_dict(), "error_metric": "md",
           "t_grid": [64, 128, 256], "replications": 50, "seed": 5}
    edit(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert where in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, edit", [
    ("model: missing key 'd'", lambda c: c["model"].pop("d")),
    ("model.components[2]: missing key 'driver'",
     lambda c: c["model"]["components"][2].pop("driver")),
    ("config: missing key 'model'", lambda c: c.pop("model")),
])
def test_rate_names_missing_config_keys(tmp_path, where, edit):
    # these used to read "invalid model spec: 'd'", without the place
    cfg = {"model": short_range_model(phis=(0.8, 0.2)).to_dict(), "error_metric": "md",
           "t_grid": [64, 128, 256], "replications": 50, "seed": 5}
    edit(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert where in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_rate_refuses_a_kind_that_is_not_a_string(tmp_path):
    # this used to read "invalid model spec: unhashable type: 'list'"
    cfg = {"model": short_range_model(phis=(0.8, 0.2)).to_dict(),
           "t_grid": [64, 128, 256], "replications": 50, "seed": 5}
    cfg["model"]["components"][0]["driver"]["kind"] = ["ar1"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "model.components[0].driver: kind must be a string, got ['ar1']" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, change", [
    ("model.mixing: re and im must have the same shape",
     {"mixing": {"re": [[1, 0], [0, 1]], "im": 0.0}}),
    ("model.location: re and im must have the same shape",
     {"location": {"re": [1, 2], "im": [0]}}),
    ("location must be a vector of 2 finite values",
     {"location": {"re": [[1], [2]], "im": [[0], [0.5]]}}),
], ids=["mixing-scalar-im", "location-short-im", "location-column"])
def test_simulate_refuses_misshapen_complex_fields(tmp_path, where, change):
    # each used to be broadcast or flattened into a model nobody wrote
    model = {**short_range_model(phis=(0.8, 0.2)).to_dict(), **change}
    (tmp_path / "model.json").write_text(json.dumps(model))
    proc = run_cli(*SIMULATE, "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert where in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("threads", ["abc", "-1", "1.5"])
def test_rate_rejects_bad_thread_count(tmp_path, threads):
    cfg = {"model": short_range_model(phis=(0.8, 0.2)).to_dict(),
           "t_grid": [64, 128, 256], "replications": 50, "seed": 5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path,
                   CBSS_THREADS=threads)
    assert proc.returncode == 2
    assert "CBSS_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rate_failure_budget_exit_code(tmp_path):
    model = genproc.ModelSpec(
        d=2,
        components=[genproc.LatentComponentSpec(
            genproc.Driver("iid"), genproc.Transform("coeffs", coeffs=(0.0,)))] * 4,
        normalize=False)
    cfg = {"model": model.to_dict(), "t_grid": [64, 128, 256],
           "replications": 50, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = run_cli("rate", "--config", "cfg.json", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 4


def test_image_command(tmp_path):
    for idx, img in enumerate(gradient_images(w=40, h=30), start=1):
        ip.write_ppm(img, tmp_path / f"in{idx}.ppm")
    args = ("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm",
            "--seed", "9", "--tau", "1")
    proc = run_cli(*args, "--out", "d1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "d1" / "metrics.json").read_text())
    assert 0.0 <= metrics["md"] <= 1.0
    assert metrics["clamped_pixels"] == 0
    proc = run_cli(*args, "--out", "d2", cwd=tmp_path)
    assert proc.returncode == 0
    for name in ("mixed_1.ppm", "mixed_2.ppm", "mixed_3.ppm",
                 "unmixed_1.ppm", "unmixed_2.ppm", "unmixed_3.ppm", "metrics.json"):
        assert ((tmp_path / "d1" / name).read_bytes()
                == (tmp_path / "d2" / name).read_bytes())


def test_image_command_identity(tmp_path):
    for idx, img in enumerate(gradient_images(w=40, h=30), start=1):
        ip.write_ppm(img, tmp_path / f"in{idx}.ppm")
    proc = run_cli("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm",
                   "--identity", "--out", "d", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "d" / "metrics.json").read_text())
    assert metrics["md"] == 0.0


def test_image_command_mismatched_dimensions(tmp_path):
    imgs = gradient_images(w=40, h=30)
    other = gradient_images(w=32, h=30)
    ip.write_ppm(imgs[0], tmp_path / "in1.ppm")
    ip.write_ppm(imgs[1], tmp_path / "in2.ppm")
    ip.write_ppm(other[0], tmp_path / "in3.ppm")
    proc = run_cli("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm",
                   "--out", "d", cwd=tmp_path)
    assert proc.returncode == 2


def test_image_command_malformed_ppm(tmp_path):
    (tmp_path / "in1.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    imgs = gradient_images(w=4, h=4)
    ip.write_ppm(imgs[0], tmp_path / "in2.ppm")
    ip.write_ppm(imgs[1], tmp_path / "in3.ppm")
    proc = run_cli("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm",
                   "--out", "d", cwd=tmp_path)
    assert proc.returncode == 2


def _model_json(encoding="ascii", **change):
    model = {**short_range_model().to_dict(), **change}
    return json.dumps(model, ensure_ascii=False).encode(encoding)


SIMULATE = ("simulate", "--config", "model.json", "--T", "64", "--seed", "0")
PPM_4X4 = b"P6\n4 4\n255\n" + bytes(48)
#: (files to create, command, file or argument the error must name); a
#: ``None`` file is created as a directory
UNREADABLE = {
    "csv-non-ascii": ({"x.csv": b"re_1,im_1\n1,0\n0,1\xc3\xa9\n-1,0\n"},
                      ("unmix", "--input", "x.csv", "--out", "y_"), "x.csv"),
    "ppm-is-directory": ({"pics": None},
                         ("image", "--inputs", "pics", "pics", "pics", "--out", "o"), "pics"),
    "out-is-directory": ({"model.json": _model_json(), "taken": None},
                         SIMULATE + ("--out", "taken"), "taken"),
    "json-array": ({"model.json": b"[1, 2]"}, SIMULATE + ("--out", "x.csv"),
                   "model.json: expected a JSON object"),
    "json-not-utf8": ({"model.json": _model_json("latin-1", centering="\xe9")},
                      SIMULATE + ("--out", "x.csv"), "model.json"),
    "component-is-list": ({"model.json": _model_json(components=[[1]] * 6)},
                          SIMULATE + ("--out", "x.csv"), "model.json"),
    "phi-not-a-number": ({"model.json": _model_json(
                             components=[{"driver": {"kind": "ar1", "phi": "x"}}] * 6)},
                         SIMULATE + ("--out", "x.csv"), "model.json"),
    "ragged-mixing": ({"model.json": _model_json(
                          mixing={"re": [[1, 0, 0], [0, 1]], "im": [[0] * 3] * 3})},
                      SIMULATE + ("--out", "x.csv"), "model.json"),
    "location-nan": ({"model.json": _model_json(
                         location={"re": [float("nan"), 0, 0], "im": [0, 0, float("inf")]})},
                     SIMULATE + ("--out", "x.csv"), "location"),
    "simulate-negative-seed": ({"model.json": _model_json()},
                               SIMULATE[:-1] + ("-1", "--out", "x.csv"), "--seed"),
    "image-negative-seed": ({"in1.ppm": PPM_4X4, "in2.ppm": PPM_4X4, "in3.ppm": PPM_4X4},
                            ("image", "--inputs", "in1.ppm", "in2.ppm", "in3.ppm",
                             "--seed", "-2", "--out", "o"), "--seed"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_input_exits_2(tmp_path, case):
    files, command, name = UNREADABLE[case]
    for fname, content in files.items():
        if content is None:
            (tmp_path / fname).mkdir()
        else:
            (tmp_path / fname).write_bytes(content)
    proc = run_cli(*command, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert name in proc.stderr


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # the lag products run through dsyrk and dgemm, which must not split a sum across threads
    model = short_range_model(mixing=[[1.0, 0.5j, 0.0], [0.2, 1.0, -0.3], [0.0, 0.1j, 2.0]])
    rate_cfg = {"model": model.to_dict(), "t_grid": [512, 2048, 4608],
                "replications": 50, "seed": 3, "error_metric": "md"}
    (tmp_path / "rate.json").write_text(json.dumps(rate_cfg))
    x, _ = genproc.generate(model, 3079, seed=5)
    cli.write_complex_csv(tmp_path / "x.csv", x)
    outputs = []
    for threads in ("1", "2"):
        for args in (("rate", "--config", "rate.json", "--out", f"rate_{threads}"),
                     ("unmix", "--input", "x.csv", "--tau", "2", "--out", f"fit_{threads}_")):
            proc = run_cli(*args, cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        outputs.append([(tmp_path / name).read_bytes() for name in (
            f"rate_{threads}/report.csv", f"rate_{threads}/summary.json",
            f"fit_{threads}_gamma.csv", f"fit_{threads}_lambdas.csv")])
    assert outputs[0] == outputs[1]


def test_readme_quick_start_runs(tmp_path):
    # the first python block of README.md, run as it stands: a trimmed or
    # renamed API must not leave the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= float(proc.stdout) < 0.1
