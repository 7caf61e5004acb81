"""Which scipy modules a CLI run loads, each checked in a fresh interpreter.

scipy.optimize and scipy.special take most of a second to import, so they
are loaded only for the runs that call them, and then before the suite
driver or the command body starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eivpred import models

from conftest import make_abs_spec, make_exponential_spec, make_poly_spec
from test_cli import linear_spec_dict, write_config

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Prints, as JSON, the scipy modules loaded after running the CLI on the
# arguments in sys.argv, and those loaded when the suite driver was entered.
_RUN_CLI = """
import json, sys
from eivpred import cli

def scipy_modules():
    return sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules)

entered = []
for suite, driver in list(cli._SUITES.items()):
    def wrapped(cfg, driver=driver):
        entered.append(scipy_modules())
        return driver(cfg)
    cli._SUITES[suite] = wrapped
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": scipy_modules(), "entered": entered}))
"""


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def run_cli(*args: str) -> dict:
    return json.loads(run_fresh(_RUN_CLI, *args))


def test_importing_the_cli_loads_no_scipy():
    loaded = run_fresh(
        "import sys, eivpred.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert loaded == "[]"


def test_linear_simulate_and_polynomial_consistency_load_no_scipy(tmp_path):
    sim = write_config(
        tmp_path, "sim.json", {"spec": linear_spec_dict(), "n": 50, "seed": 1, "out": str(tmp_path / "ds")}
    )
    assert run_cli("simulate", "--config", sim) == {"code": 0, "loaded": [], "entered": []}
    exp = write_config(
        tmp_path,
        "exp.json",
        {
            "suite": "consistency",
            "spec": models.spec_to_dict(make_poly_spec()),
            "n_grid": [100, 200],
            "replications": 2,
            "master_seed": 3,
            "out": str(tmp_path / "report"),
        },
    )
    assert run_cli("experiment", "--config", exp) == {"code": 0, "loaded": [], "entered": [[]]}


@pytest.mark.parametrize(
    "extra, needed",
    [
        (
            {"suite": "abs_failure", "spec": models.spec_to_dict(make_abs_spec()), "test_subjects": 20},
            ["scipy.optimize", "scipy.special"],
        ),
        (
            {"suite": "coverage", "spec": linear_spec_dict(), "region_kinds": ["chi_square"]},
            ["scipy.special"],
        ),
    ],
    ids=["abs_failure", "chi_square_coverage"],
)
def test_needed_scipy_is_loaded_before_the_driver(tmp_path, extra, needed):
    config = {"n_grid": [200], "replications": 2, "master_seed": 5, "out": str(tmp_path / "report")}
    exp = write_config(tmp_path, "exp.json", dict(config, **extra))
    result = run_cli("experiment", "--config", exp)
    assert result["code"] == 0
    assert result["entered"] == [needed]


def test_exponential_fit_predict_fits_in_a_fresh_process(tmp_path):
    spec = models.spec_to_dict(make_exponential_spec())
    sim = write_config(tmp_path, "sim.json", {"spec": spec, "n": 500, "seed": 2, "out": str(tmp_path / "ds")})
    assert run_cli("simulate", "--config", sim)["code"] == 0
    fp = write_config(
        tmp_path,
        "fp.json",
        {
            "data": str(tmp_path / "ds"),
            "family": "exponential",
            "predict": [{"x0": 0.5}],
        },
    )
    result = run_cli("fit-predict", "--config", fp, "--out", str(tmp_path / "fit.json"))
    assert result == {"code": 0, "loaded": ["scipy.optimize", "scipy.special"], "entered": []}
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["fit"]["converged"] is True
    assert report["fit"]["params"]["rate"] > 0
