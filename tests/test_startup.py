"""Which scipy modules, and whether multiprocessing, a CLI run loads, each checked in a fresh interpreter.

scipy.optimize and scipy.special take most of a second to import, so they
are loaded only for the runs that call them, and then before the suite
driver or the command body starts.  multiprocessing is loaded only by an
experiment that runs on more than one worker, and only once its suite
driver has started.  Once those modules are loaded, and before the command
starts, the CLI freezes the heap (``gc.freeze``).
"""

import json
import os
import subprocess
import sys

import pytest

from eivpred import models

from conftest import make_abs_spec, make_exponential_spec, make_poly_spec
from test_cli import SRC, linear_spec_dict, write_config

# Prints, as JSON, the watched modules (multiprocessing and the scipy ones)
# loaded after running the CLI on the arguments in sys.argv, and those loaded
# when the suite driver was entered; and the number of frozen objects
# (gc.get_freeze_count) when the suite driver was entered and after the run.
_RUN_CLI = """
import gc, json, sys
from eivpred import cli

def watched_modules():
    watched = ("multiprocessing", "scipy.optimize", "scipy.special")
    return sorted(m for m in watched if m in sys.modules)

entered, frozen = [], []
for suite, driver in list(cli._SUITES.items()):
    def wrapped(cfg, driver=driver):
        entered.append(watched_modules())
        frozen.append(gc.get_freeze_count())
        return driver(cfg)
    cli._SUITES[suite] = wrapped
code = cli.main(sys.argv[1:])
frozen.append(gc.get_freeze_count())
print(json.dumps({"code": code, "loaded": watched_modules(), "entered": entered, "frozen": frozen}))
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
    result = run_cli("simulate", "--config", sim)
    assert result.pop("frozen")[-1] > 0  # the heap stays frozen after main returns
    assert result == {"code": 0, "loaded": [], "entered": []}
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
    result = run_cli("experiment", "--config", exp)
    assert result.pop("frozen")[0] > 0
    assert result == {"code": 0, "loaded": [], "entered": [[]]}


def test_multiprocessing_is_loaded_only_by_a_pooled_run(tmp_path):
    assert run_fresh("import sys, eivpred.cli; print('multiprocessing' in sys.modules)") == "False"
    config = {
        "suite": "coverage",
        "spec": linear_spec_dict(),
        "region_kinds": ["chebyshev"],
        "n_grid": [200],
        "replications": 40,  # two chunks of 20
        "master_seed": 7,
        "out": str(tmp_path / "report"),
    }
    exp = write_config(tmp_path, "exp.json", config)
    for threads, loaded in (("1", []), ("2", ["multiprocessing"])):
        result = run_cli("experiment", "--config", exp, "--threads", threads)
        assert result.pop("frozen")[0] > 0  # before the workers fork
        assert result == {"code": 0, "loaded": loaded, "entered": [[]]}


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
    assert result["frozen"][0] > 0  # frozen by the time the driver starts, scipy loaded


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
    assert result.pop("frozen")[-1] > 0
    assert result == {"code": 0, "loaded": ["scipy.optimize", "scipy.special"], "entered": []}
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["fit"]["converged"] is True
    assert report["fit"]["params"]["rate"] > 0
