"""The repository's tools still find what they measure in the package."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# not module functions: the tracer wraps the suite drivers and McReport.write
PSEUDO_NAMES = {"montecarlo.driver", "montecarlo.report_write"}


def traced_layers() -> dict[str, tuple[str, ...]]:
    """The ``LAYERS`` table of the benchmark tracer, read from its source."""
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {CHILD}")


@pytest.mark.parametrize(
    "full_name",
    [
        f"{layer}.{name}"
        for layer, names in traced_layers().items()
        for name in names
        if f"{layer}.{name}" not in PSEUDO_NAMES
    ],
)
def test_every_traced_layer_function_exists(full_name):
    """The tracer lists a missing name and skips it, so a renamed function
    would silently drop out of the layer timings."""
    layer, name = full_name.split(".")
    module = importlib.import_module(f"eivpred.{layer}")
    assert callable(getattr(module, name, None)), f"eivpred.{full_name} is not a callable"


def test_every_suite_is_a_callable_named_in_the_experiment_schema():
    """The benchmark's child wraps each ``cli._SUITES`` value in its timer and
    tracer, so each must stay a plain callable ``cfg -> McReport``."""
    from eivpred import cli

    assert all(callable(run) for run in cli._SUITES.values())
    assert list(cli._SUITES) == cli.CONFIG_SCHEMAS["experiment"]["properties"]["suite"]["enum"]


def test_every_config_schema_is_valid_against_its_metaschema():
    """``cli._load_config`` does not check a schema itself on every call, so
    each one is checked here."""
    from jsonschema.validators import validator_for

    from eivpred import cli

    assert sorted(cli.CONFIG_SCHEMAS) == sorted(cli._COMMANDS)
    for schema in cli.CONFIG_SCHEMAS.values():
        validator_for(schema).check_schema(schema)


ROOT = Path(__file__).resolve().parents[1]
EXPERIMENT_CONFIGS = sorted(
    path.relative_to(ROOT).as_posix()
    for pattern in ("scripts/configs/*.json", "perfbench/configs/*.json")
    for path in ROOT.glob(pattern)
    if '"suite"' in path.read_text()
)


@pytest.mark.parametrize("config", EXPERIMENT_CONFIGS)
def test_every_shipped_experiment_config_passes_the_config_checks(config):
    """The schema and the per-suite keys accept every experiment config the
    scripts and the benchmark run."""
    from eivpred import cli

    assert cli._load_config(str(ROOT / config), "experiment")["suite"] in cli._SUITES


def load_compare_outputs():
    """``scripts/compare_outputs.py``, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_csv_outputs_are_sized_cell_by_cell():
    """A differing CSV gets the largest relative difference of its numeric
    cells, as a JSON output does; a differing text cell, a missing row or an
    infinity against a number has no size (inf)."""
    compare = load_compare_outputs()
    head = "experiment,n,alpha,kind,statistic,value,se\r\n"
    old = head + "coverage,50,0.05,chebyshev,coverage,0.95,0.01\r\nconsistency,50,,,mse,2.0,\r\n"

    def size(new: str) -> float:
        return compare.largest_rel_diff(compare.csv_cells(old), compare.csv_cells(new))

    assert compare.csv_cells(old)[1] == ["coverage", 50.0, 0.05, "chebyshev", "coverage", 0.95, 0.01]
    assert size(old) == 0.0
    assert size(old.replace("2.0,", "2.5,")) == pytest.approx(0.2)
    assert size(old.replace("0.95", "0.9500000001")) == pytest.approx(0.1 / 0.95 * 1e-9)
    assert size(old.replace("chebyshev", "chi_square")) == math.inf
    assert size(old.replace("2.0,", "inf,")) == math.inf
    assert size(old.rsplit("consistency", 1)[0]) == math.inf


FAMILY_NAMES = {"linear", "polynomial", "quadratic", "exponential", "trigonometric", "absolute_value"}


def test_family_names_are_written_only_where_a_class_declares_its_family():
    """A family's fit and report facts live in its ``estimators.FAMILIES``
    record, which is keyed by the ``family`` of its parameter container, so
    no other module keeps a table keyed by family names or branches on one.
    A family name is a string constant only where a spec or parameter class
    declares its ``family``, and in ``oracle.py``, the independent check,
    which keeps its own dispatch on purpose."""
    found = []
    for path in sorted((ROOT / "src" / "eivpred").glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text())
        declared = {
            id(node.value)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["family"]
            or isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "family"
        }
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in FAMILY_NAMES and id(node) not in declared
        ]
    assert found == []
