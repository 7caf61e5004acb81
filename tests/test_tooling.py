"""The repository's tools still find what they measure in the package."""

import ast
import importlib
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
