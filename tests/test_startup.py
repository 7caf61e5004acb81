"""Which scipy modules, and whether multiprocessing, a CLI run loads, each checked in a fresh interpreter.

scipy.optimize and scipy.special take most of a second to import, so they
are loaded only by the runs that fit a nonlinear (NLS) family, and then
before the suite driver or the command body starts; a chi-square region's
threshold needs no scipy.  multiprocessing is loaded only by an experiment
that runs on more than one worker, with the worker pool's modules, also
before its suite driver starts.  Once those modules are loaded, and before
the command starts, the CLI freezes the heap (``gc.freeze``) and keeps freed
memory in the process (glibc's ``mallopt``), which changes no output.
Importing the CLI builds none of the dataset writer's lookup tables.  The
CLI checks configs against its schemas itself: no command loads jsonschema
or the packages it brings (referencing, attrs, rpds).
"""

import json
import os
import subprocess
import sys

from eivpred import models

from conftest import make_abs_spec, make_exponential_spec, make_poly_spec
from test_cli import SRC, linear_spec_dict, write_config

# jsonschema and the packages it loads, which only the tests use
SCHEMA_LIBRARIES = ("jsonschema", "referencing", "attrs", "rpds")

# Prints, as JSON, the watched modules (multiprocessing, the scipy ones and
# SCHEMA_LIBRARIES, which the caller defines) loaded after running the CLI on
# the arguments in sys.argv, and those loaded when the suite driver was
# entered; and the number of frozen objects (gc.get_freeze_count) when the
# suite driver was entered and after the run.
_RUN_CLI = """
import gc, json, sys
from eivpred import cli

def watched_modules():
    watched = ("multiprocessing", "scipy.optimize", "scipy.special", *SCHEMA_LIBRARIES)
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
    return json.loads(run_fresh(f"SCHEMA_LIBRARIES = {SCHEMA_LIBRARIES!r}" + _RUN_CLI, *args))


# Runs the CLI on sys.argv[2:] and prints its exit code, with the heap setting
# as sys.argv[1] says: "kept" as it is, "noop" replaced by a no-op, or its
# mallopt lookup raising "AttributeError" (a C library without mallopt) or
# "OSError" (no C library to load).
_RUN_HEAP = """
import sys, types
from eivpred import cli

class NoMallopt:
    def __init__(self, name):
        pass

def unloadable(name):
    raise OSError("no C library")

how = sys.argv[1]
if how == "noop":
    cli._keep_freed_heap = lambda: None
elif how != "kept":
    cli.ctypes = types.SimpleNamespace(CDLL={"AttributeError": NoMallopt, "OSError": unloadable}[how])
print(cli.main(sys.argv[2:]))
"""


def test_the_heap_setting_changes_no_report_byte(tmp_path):
    config = {
        "suite": "consistency",
        "spec": models.spec_to_dict(make_poly_spec()),
        "n_grid": [200, 2000, 20_000],
        "replications": 3,
        "master_seed": 11,
        "mean_prediction": True,
    }
    exp = write_config(tmp_path, "exp.json", config)
    reports = []
    for how in ("kept", "noop"):
        out = tmp_path / how
        assert run_fresh(_RUN_HEAP, how, "experiment", "--config", exp, "--out", str(out)) == "0"
        reports.append([out.with_suffix(suffix).read_bytes() for suffix in (".json", ".csv")])
    assert reports[0] == reports[1]


def test_a_c_library_without_mallopt_still_runs(tmp_path):
    config = {
        "suite": "consistency",
        "spec": models.spec_to_dict(make_poly_spec()),
        "n_grid": [100, 200],
        "replications": 2,
        "master_seed": 3,
        "out": str(tmp_path / "report"),
    }
    exp = write_config(tmp_path, "exp.json", config)
    for error in ("AttributeError", "OSError"):
        assert run_fresh(_RUN_HEAP, error, "experiment", "--config", exp) == "0"


def test_importing_the_cli_loads_no_scipy():
    loaded = run_fresh(
        "import sys, eivpred.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert loaded == "[]"


def test_importing_the_cli_loads_no_schema_library():
    code = f"import sys, eivpred.cli; print([m for m in {SCHEMA_LIBRARIES!r} if m in sys.modules])"
    loaded = run_fresh(code)
    assert loaded == "[]"


def test_importing_the_cli_builds_no_writer_tables():
    """Every CLI run imports the dataset writer; its tables wait for the first save."""
    built = run_fresh("from eivpred import cli, models; print(models._text_tables.cache_info().currsize)")
    assert built == "0"


def test_runs_without_an_nls_fit_load_no_scipy(tmp_path):
    sim = write_config(
        tmp_path, "sim.json", {"spec": linear_spec_dict(), "n": 50, "seed": 1, "out": str(tmp_path / "ds")}
    )
    result = run_cli("simulate", "--config", sim)
    assert result.pop("frozen")[-1] > 0  # the heap stays frozen after main returns
    assert result == {"code": 0, "loaded": [], "entered": []}
    tr = write_config(tmp_path, "tr.json", {"spec": linear_spec_dict()})
    result = run_cli("transform", "--config", tr, "--out", str(tmp_path / "params.json"))
    assert result.pop("frozen")[-1] > 0
    assert result == {"code": 0, "loaded": [], "entered": []}
    fp = write_config(
        tmp_path,
        "fp.json",
        {
            "data": str(tmp_path / "ds"),
            "family": "linear",
            "predict": [{"z0": [0.2], "x0": [1.5]}],
            "regions": [{"kind": "chi_square", "alpha": 0.05, "purely_normal": True}],
        },
    )
    result = run_cli("fit-predict", "--config", fp, "--out", str(tmp_path / "fit.json"))
    assert result.pop("frozen")[-1] > 0
    assert result == {"code": 0, "loaded": [], "entered": []}
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["predictions"][0]["regions"][0]["threshold"] == 3.841458820694126
    config = {"n_grid": [100, 200], "replications": 2, "master_seed": 3, "out": str(tmp_path / "report")}
    for extra in (
        {"suite": "consistency", "spec": models.spec_to_dict(make_poly_spec())},
        {"suite": "coverage", "spec": linear_spec_dict(), "region_kinds": ["chi_square"]},
    ):
        exp = write_config(tmp_path, "exp.json", dict(config, **extra))
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
        # a pooled run loads the pool before the driver, so it is frozen too
        assert result == {"code": 0, "loaded": loaded, "entered": [loaded]}


def test_needed_scipy_is_loaded_before_the_driver(tmp_path):
    config = {
        "suite": "abs_failure",
        "spec": models.spec_to_dict(make_abs_spec()),
        "test_subjects": 20,
        "n_grid": [200],
        "replications": 2,
        "master_seed": 5,
        "out": str(tmp_path / "report"),
    }
    exp = write_config(tmp_path, "exp.json", config)
    result = run_cli("experiment", "--config", exp)
    assert result["code"] == 0
    assert result["entered"] == [["scipy.optimize", "scipy.special"]]
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
