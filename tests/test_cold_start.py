"""The CLI imports without scipy, and the bundled d = 3 paths run without it.

scipy and the process pool cost most of a cold ``import cbss.cli``; each
check starts a fresh interpreter and lists what it loaded.
"""

import json
import subprocess
import sys

import pytest

from cbss import cli, genproc
from cbss import imagepipe as ip

from conftest import cli_env, short_range_model
from test_imagepipe import gradient_images

LIST_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")))
"""

RATE = """
import json
from importlib import resources
from cbss import asymlab
cfg = json.loads((resources.files("cbss") / "configs/shortrange.json").read_text())
cfg.update(t_grid=[64, 128, 256], replications=50, error_metric="md")
asymlab.run_rate_experiment(asymlab.RateExperimentConfig.from_dict(cfg))
"""


def loaded_after(code, cwd):
    proc = subprocess.run([sys.executable, "-c", code + LIST_MODULES], capture_output=True,
                          text=True, cwd=cwd, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_nor_the_process_pool(tmp_path):
    assert loaded_after("import cbss.cli", tmp_path) == []


@pytest.mark.parametrize("code", [
    "from cbss.cli import main\nassert main(['unmix', '--input', 'x.csv', '--out', 'y_']) == 0",
    "from cbss.cli import main\n"
    "assert main(['image', '--inputs', 'in1.ppm', 'in2.ppm', 'in3.ppm', '--out', 'd']) == 0",
    RATE,
], ids=["unmix", "image", "rate-md"])
def test_d3_paths_load_no_scipy(tmp_path, code):
    x, _ = genproc.generate(short_range_model(), 512, seed=2)
    cli.write_complex_csv(tmp_path / "x.csv", x)
    for idx, img in enumerate(gradient_images(w=40, h=30), start=1):
        ip.write_ppm(img, tmp_path / f"in{idx}.ppm")
    assert loaded_after(code, tmp_path) == []
