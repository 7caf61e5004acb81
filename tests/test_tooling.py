"""The repository's tools still find what they measure in the package."""

import ast
import copy
import functools
import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivpred import cli

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


# -- the config schema interpreter --------------------------------------------


def schema_keywords(schema: dict):
    """Every (keyword, value) of a schema tree, down through the keywords that hold subschemas."""
    for keyword, value in schema.items():
        yield keyword, value
        if keyword == "properties":
            value = list(value.values())
        elif keyword in ("items", "if", "then"):
            value = [value]
        elif keyword not in ("allOf", "oneOf"):
            continue
        for subschema in value:
            yield from schema_keywords(subschema)


def unimplemented(schema: dict) -> list[str]:
    """The keywords of a schema tree that the CLI's interpreter would not
    check as jsonschema does: one it does not implement, or a form of one it
    implements only in part."""
    forms = {
        "type": lambda value: isinstance(value, str) and value in cli._TYPES,
        "enum": lambda value: all(isinstance(each, str) for each in value),
        "const": lambda value: isinstance(value, str),
        "additionalProperties": lambda value: value is False,
    }
    return [
        keyword
        for keyword, value in schema_keywords(schema)
        if keyword not in cli._KEYWORDS or not forms.get(keyword, lambda value: True)(value)
    ]


def test_every_config_schema_keyword_is_one_the_interpreter_implements():
    """A keyword the CLI does not check, such as ``pattern`` or ``minItems``,
    would otherwise be ignored without a word."""
    found = {command: unimplemented(schema) for command, schema in cli.CONFIG_SCHEMAS.items()}
    assert found == dict.fromkeys(cli.CONFIG_SCHEMAS, [])
    schema = {"properties": {"a": {"type": ["string", "null"], "pattern": "x"}}, "items": {"minItems": 1}}
    assert unimplemented(schema) == ["type", "pattern", "minItems"]


@functools.cache
def strict_jsonschema():
    """jsonschema's validator class for the config schemas (which name no
    ``$schema``), with an ``integer`` that is a JSON integer only, as in the
    CLI, not an integer-valued float such as 20.0."""
    from jsonschema import validators

    base = validators.validator_for({})
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    )
    return validators.extend(base, type_checker=checker)


def strict_jsonschema_error(config, schema) -> str | None:
    """The message of jsonschema's ``best_match`` violation of ``schema`` by ``config``, or None."""
    from jsonschema.exceptions import best_match

    error = best_match(strict_jsonschema()(schema).iter_errors(config))
    return None if error is None else error.message


def shipped_configs() -> dict[str, list[dict]]:
    """Every shipped config by its command: the scripts', the benchmark's (a
    fit-predict config there gets its dataset path from the benchmark, so it
    is given one here) and the golden fit-predict config; a transform config
    for each of their specs; and a fit-predict config that uses the keys and
    forms the others leave out (a size key, a quadratic_bound region, a
    number x0, a null z0 and a number sigma_eps_delta)."""
    configs = {command: [] for command in ("simulate", "transform", "fit-predict", "experiment")}
    paths = [*ROOT.glob("scripts/configs/*.json"), *ROOT.glob("perfbench/configs/*.json")]
    for path in sorted(paths) + [ROOT / "tests" / "data" / "golden_fit_predict_config.json"]:
        config = json.loads(path.read_text())
        if "suite" in config:
            configs["experiment"].append(config)
        elif "family" in config:
            configs["fit-predict"].append({"data": "dataset", **config})
        else:
            configs["simulate"].append(config)
        if "spec" in config:
            configs["transform"].append({"schema_version": 1, "spec": config["spec"]})
    configs["fit-predict"].append(
        {
            "data": "dataset",
            "family": "polynomial",
            "degree": 2,
            "predict": [{"x0": 0.5, "z0": None}],
            "regions": [{"kind": "quadratic_bound", "alpha": 0.1, "k0": 0.4}],
            "sigma_eps_delta": 0.1,
        }
    )
    return configs


SHIPPED = shipped_configs()


def test_every_shipped_config_passes_both_schema_checks():
    assert all(SHIPPED.values())
    for command, configs in SHIPPED.items():
        schema = cli.CONFIG_SCHEMAS[command]
        for config in configs:
            assert cli.schema_error(config, schema) is None
            assert strict_jsonschema_error(config, schema) is None


def nodes(value, path=()):
    """The path and value of every node of a JSON value, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from nodes(item, (*path, key))


def replaced(config, path, value):
    """``config`` with its node at ``path`` replaced by ``value``, in place."""
    if not path:
        return value
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


def schema_words(schema: dict) -> set:
    """The property names and enum and const values of a schema, for mutations to reuse."""
    words = set()
    for keyword, value in schema_keywords(schema):
        if keyword in ("required", "enum", "properties"):
            words.update(value)
        elif keyword == "const":
            words.add(value)
    return words


NAMES = sorted(set().union(*map(schema_words, cli.CONFIG_SCHEMAS.values())) | {"", "unknown", "Linear"})
BOUNDS = sorted(
    {
        value
        for schema in cli.CONFIG_SCHEMAS.values()
        for keyword, value in schema_keywords(schema)
        if keyword in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
    }
)
NUMBERS = st.one_of(
    st.sampled_from([b + d for b in BOUNDS for d in (-1, -0.5, 0, 0.5, 1)]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, 20.0]),
    st.integers(-(2**70), 2**70),
    st.floats(),
)
# values of every JSON type, and ones that break each oneOf: a mixed or a
# nested-and-flat array, and an empty one, which both array alternatives admit
OTHER_TYPES = st.sampled_from(
    [None, True, False, 0, 3, 20.0, -1.5, "text", {}, {"x0": 1}]
    + [[], [1, "a"], [[1.0], 2.0], [[]], [[1.0], [True]]]
).map(copy.deepcopy)


# the keys whose values a oneOf checks
ONE_OF_KEYS = ("x0", "z0", "sigma_eps_delta")


def last_key(path) -> str:
    """The last object key on a path ("" for the root)."""
    return next((key for key in reversed(path) if isinstance(key, str)), "")


def by_key(draw, paths):
    """One of ``paths``, drawn by its last key first, so that a key on one
    path weighs as much as one on forty: a ``k0`` as much as a ``z0``."""
    key = draw(st.sampled_from(sorted(set(map(last_key, paths)))))
    return draw(st.sampled_from([path for path in paths if last_key(path) == key]))


@st.composite
def mutated(draw, config):
    """``config`` (a copy), changed by one or two of: a key dropped, a key
    added, a value of another type, a number out of range, a string outside
    its enum, and a oneOf broken."""
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 2))):
        found = dict(nodes(config))
        objects = [path for path, value in found.items() if isinstance(value, dict)]
        how = draw(st.sampled_from(["drop", "add", "type", "number", "string", "oneOf"]))
        if how == "drop" and (paths := [(*p, k) for p in objects for k in found[p]]):
            path = by_key(draw, paths)
            del found[path[:-1]][path[-1]]
        elif how == "add" and objects:
            found[by_key(draw, objects)][draw(st.sampled_from(NAMES))] = draw(OTHER_TYPES | NUMBERS)
        elif how == "number" and (paths := [p for p, v in found.items() if cli._TYPES["number"](v)]):
            config = replaced(config, by_key(draw, paths), draw(NUMBERS))
        elif how == "string" and (paths := [p for p, v in found.items() if isinstance(v, str)]):
            config = replaced(config, by_key(draw, paths), draw(st.sampled_from(NAMES)))
        elif how == "oneOf" and (paths := [p for p in found if p[-1:] and p[-1] in ONE_OF_KEYS]):
            config = replaced(config, by_key(draw, paths), draw(OTHER_TYPES | NUMBERS))
        else:
            config = replaced(config, by_key(draw, list(found)), draw(OTHER_TYPES))
    return config


@pytest.mark.parametrize("command", sorted(SHIPPED))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_schema_interpreter_agrees_with_jsonschema(command, data):
    """Accept or reject, and the one message reported: the CLI's interpreter
    picks the violation jsonschema's ``best_match`` picks."""
    schema = cli.CONFIG_SCHEMAS[command]
    config = data.draw(st.sampled_from(SHIPPED[command]).flatmap(mutated))
    assert cli.schema_error(config, schema) == strict_jsonschema_error(config, schema)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"predict": [{"x0": [1, "a"]}]}, "'a' is not of type 'number'"),
        ({"predict": [{"x0": "a"}]}, "'a' is not valid under any of the given schemas"),
        ({"predict": [{"x0": [1, "a"], "z0": "b"}]}, "'b' is not valid under any of the given schemas"),
        ({"predict": [{"x0": [1, "a"]}], "regions": 1}, "1 is not of type 'array'"),
        ({"zz": 1, "aa": 2}, "Additional properties are not allowed ('aa', 'zz' were unexpected)"),
        # of two at one path, the one whose schema names no type, or another
        # type than the value's: here the ``then`` of the polynomial family
        ({"family": "polynomial", "zz": 1}, "'degree' is a required property"),
        # NaN violates no bound: no comparison with it is true
        ({"regions": [{"kind": "quadratic_bound", "alpha": float("nan"), "k0": float("nan")}]}, None),
        (
            {"sigma_eps_delta": []},
            "[] is valid under each of "
            "{'type': 'array', 'items': {'type': 'array', 'items': {'type': 'number'}}}, "
            "{'type': 'array', 'items': {'type': 'number'}}",
        ),
    ],
    ids=[
        "deeper-alternative",
        "tied-alternatives",
        "later-key",
        "shallower",
        "extra-keys",
        "untyped-schema",
        "nan-bounds",
        "two-alternatives-hold",
    ],
)
def test_the_reported_violation_is_the_one_best_match_picks(change, message):
    """A shallower violation beats a deeper one; of two at one depth, the one
    at the later key does; a failed oneOf reports its alternatives' deepest
    violation, or its own message where two of them tie, or where two of
    them hold."""
    config = {"data": "dataset", "family": "linear", **change}
    schema = cli.CONFIG_SCHEMAS["fit-predict"]
    assert cli.schema_error(config, schema) == strict_jsonschema_error(config, schema) == message


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
