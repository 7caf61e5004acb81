"""Command-line front door.

Four subcommands driven by declarative JSON config files:

    simulate     draw a dataset and write CSV plus a spec sidecar
    transform    print the observable-regression parameters of a spec
    fit-predict  fit a dataset, predict at new points, build regions
    experiment   run a Monte Carlo suite and write JSON + CSV reports

Configs are schema-validated and unknown keys are rejected.  Exit codes:
0 success, 1 acceptance-check failure, 2 config/spec error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
from jsonschema.validators import validator_for

from .errors import DatasetError, EivError, SpecError
from .estimators import NLS_FAMILIES, fit_family
from .models import FAMILIES, load_dataset, sample, save_dataset, spec_from_dict, to_jsonable, validate
from .montecarlo import (
    ExperimentConfig,
    check_sample_sizes,
    run_abs_failure,
    run_consistency,
    run_coverage,
)
from .predictors import REGION_KINDS, build_region, predict_individual, predict_mean
from .transform import transform

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_SUITES = {"consistency": run_consistency, "coverage": run_coverage, "abs_failure": run_abs_failure}
# the experiment config keys that only some suites read, by the suites that read them
_SUITE_KEYS = {
    "consistency": {"fixed_subject", "mean_prediction"},
    "coverage": {"alphas", "region_kinds", "purely_normal", "fixed_subject"},
    "abs_failure": {"test_subjects"},
}

_SPEC_SCHEMA = {"type": "object", "required": ["family"], "properties": {"family": {"type": "string"}}}
_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

# a region holds only the keys its kind reads
_REGION_SCHEMA = {
    "type": "object",
    "required": ["kind", "alpha"],
    "properties": {"kind": {"enum": list(REGION_KINDS)}},
    "allOf": [
        {
            "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {
                "additionalProperties": False,
                "required": list(required),
                "properties": {
                    "kind": {},
                    "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    **own,
                },
            },
        }
        for kind, own, required in [
            ("chebyshev", {}, ()),
            ("chi_square", {"purely_normal": {"type": "boolean"}}, ()),
            ("quadratic_bound", {"k0": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5}}, ("k0",)),
        ]
    ],
}

_CHECK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["statistic"],
    "properties": {
        "statistic": {"type": "string"},
        "kind": {"type": "string"},
        "alpha": {"type": "number"},
        "n": {"type": "integer"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "min_se_ratio": {"type": "number"},
    },
}

CONFIG_SCHEMAS = {
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["spec", "n", "seed"],
        "properties": {
            "schema_version": {"type": "integer"},
            "spec": _SPEC_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
            "out": {"type": "string"},
            "include_hidden": {"type": "boolean"},
        },
    },
    "transform": {
        "type": "object",
        "additionalProperties": False,
        "required": ["spec"],
        "properties": {"schema_version": {"type": "integer"}, "spec": _SPEC_SCHEMA},
    },
    "fit-predict": {
        "type": "object",
        "additionalProperties": False,
        "required": ["data", "family"],
        "properties": {
            "schema_version": {"type": "integer"},
            "data": {"type": "string"},
            "family": {"enum": list(FAMILIES)},
            "degree": {"type": "integer", "minimum": 1},
            "harmonics": {"type": "integer", "minimum": 1},
            "predict": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["x0"],
                    "properties": {
                        "z0": {"oneOf": [_NUMBER_ARRAY, {"type": "null"}]},
                        "x0": {"oneOf": [_NUMBER_ARRAY, {"type": "number"}]},
                    },
                },
            },
            "regions": {"type": "array", "items": _REGION_SCHEMA},
            "sigma_eps_delta": {
                "oneOf": [
                    {"type": "number"},
                    _NUMBER_ARRAY,
                    {"type": "array", "items": _NUMBER_ARRAY},
                    {"type": "null"},
                ]
            },
            "out": {"type": "string"},
        },
        "if": {"required": ["family"], "properties": {"family": {"const": "polynomial"}}},
        "then": {"required": ["degree"]},
    },
    "experiment": {
        "type": "object",
        "additionalProperties": False,
        "required": ["suite", "spec", "n_grid", "replications", "master_seed"],
        "properties": {
            "schema_version": {"type": "integer"},
            "suite": {"enum": list(_SUITES)},
            "spec": _SPEC_SCHEMA,
            "n_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "replications": {"type": "integer", "minimum": 1},
            "alphas": {"type": "array", "items": {"type": "number"}},
            "master_seed": {"type": "integer"},
            "region_kinds": {"type": "array", "items": {"enum": list(REGION_KINDS)}},
            "purely_normal": {"type": "boolean"},
            "fixed_subject": {"type": "boolean"},
            "mean_prediction": {"type": "boolean"},
            "test_subjects": {"type": "integer", "minimum": 2},
            "out": {"type": "string"},
            "checks": {"type": "array", "items": _CHECK_SCHEMA},
        },
    },
}


def _load_config(path: str, command: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    # the schemas are fixed, so their metaschema check runs in the tests, not on every call
    schema = CONFIG_SCHEMAS[command]
    error = jsonschema.exceptions.best_match(validator_for(schema)(schema).iter_errors(config))
    if error is not None:
        raise error
    if command == "fit-predict":
        cross = config.get("sigma_eps_delta")
        values = [("sigma_eps_delta", cross)]
        values += [(key, point.get(key)) for point in config.get("predict", []) for key in ("z0", "x0")]
        bad = dict.fromkeys(key for key, value in values if not all(map(math.isfinite, _numbers(value))))
        if bad:
            raise ValueError(f"{', '.join(bad)} must hold finite numbers only")
        # the schema admits a list of rows but cannot require them to be of one length
        if isinstance(cross, list) and len({len(row) for row in cross if isinstance(row, list)}) > 1:
            raise ValueError("the rows of sigma_eps_delta must all have the same length")
    if command == "experiment":
        others = set().union(*_SUITE_KEYS.values()) - _SUITE_KEYS[config["suite"]]
        unread = [key for key in config if key in others]
        if unread:
            raise ValueError(f"the {config['suite']} suite does not read {', '.join(unread)}")
    return config


def _numbers(value) -> list:
    """The numbers in a JSON number, null or (nested) array of numbers."""
    if isinstance(value, list):
        return [number for item in value for number in _numbers(item)]
    return [] if value is None else [value]


def _dump(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(config: dict, args) -> int:
    out = args.out or config.get("out")
    if not out:
        raise SpecError(["simulate needs an output prefix (config 'out' or --out)"])
    spec = spec_from_dict(config["spec"])
    seed = args.seed if args.seed is not None else config["seed"]
    data = sample(spec, config["n"], seed, keep_hidden=config.get("include_hidden", False))
    csv_path, json_path = save_dataset(data, spec, out)
    sys.stdout.write(f"{csv_path}\n{json_path}\n")
    return EXIT_OK


def cmd_transform(config: dict, args) -> int:
    spec = spec_from_dict(config["spec"])
    violations = validate(spec)
    if violations:
        raise SpecError(violations)
    params = transform(spec)
    _dump({"schema_version": 1, "params": to_jsonable(params)}, args.out)
    return EXIT_OK


def _fit_report(fit) -> dict:
    """FittedModel's fields in order, ``moments`` replaced by x_mean and x_cov at the end."""
    report = to_jsonable(fit)
    moments = report.pop("moments")
    return dict(report, x_mean=moments["x_mean"], x_cov=moments["x_cov"])


def cmd_fit_predict(config: dict, args) -> int:
    regions = config.get("regions", [])
    if config["family"] != "quadratic" and any(r["kind"] == "quadratic_bound" for r in regions):
        raise SpecError(["quadratic_bound regions apply to the quadratic family only"])
    data, _spec = load_dataset(config["data"])
    fit = fit_family(
        data, config["family"], degree=config.get("degree"), harmonics=config.get("harmonics", 1)
    )

    report = {"schema_version": 1, "fit": _fit_report(fit), "predictions": []}
    cross = config.get("sigma_eps_delta")
    for point in config.get("predict", []):
        z0 = point.get("z0")
        x0 = point["x0"]
        pred = predict_individual(fit, z0, x0)
        entry = {"z0": z0, "x0": pred.x0.tolist(), "individual": pred.point.tolist(), "regions": []}
        if cross is not None:
            entry["mean"] = predict_mean(fit, z0, x0, cross).point.tolist()
        # the schema admits only the keys a region's kind reads: build_region's arguments
        entry["regions"] = [to_jsonable(build_region(fit=fit, pred=pred, **region)) for region in regions]
        report["predictions"].append(entry)
    _dump(report, args.out or config.get("out"))
    return EXIT_OK


def _evaluate_checks(report, checks: list[dict]) -> list[str]:
    problems = []
    for check in checks:
        keys = {k: check[k] for k in ("kind", "alpha", "n") if k in check}
        try:
            row = report.row(check["statistic"], **keys)
        except KeyError:
            problems.append(f"no report row matches {check}")
            continue
        value = row["value"]
        if "min" in check and not value >= check["min"]:
            problems.append(f"{check['statistic']} {keys}: {value:.6g} < min {check['min']}")
        if "max" in check and not value <= check["max"]:
            problems.append(f"{check['statistic']} {keys}: {value:.6g} > max {check['max']}")
        if "min_se_ratio" in check:
            se = row.get("se") or 0.0
            if se <= 0 or value / se < check["min_se_ratio"]:
                problems.append(
                    f"{check['statistic']} {keys}: value/se "
                    f"{value / se if se else float('nan'):.3g} < {check['min_se_ratio']}"
                )
    return problems


def cmd_experiment(config: dict, args) -> int:
    out = args.out or config.get("out")
    if not out:
        raise SpecError(["experiment needs an output prefix (config 'out' or --out)"])
    # the config keys that name ExperimentConfig fields; absent ones take its defaults
    options = {k: config[k] for k in ExperimentConfig.__dataclass_fields__ if k in config}
    options.update(
        spec=spec_from_dict(config["spec"]),
        master_seed=args.seed if args.seed is not None else config["master_seed"],
        threads=args.threads,
    )
    cfg = ExperimentConfig(**options)
    check_sample_sizes(cfg)
    report = _SUITES[config["suite"]](cfg)
    json_path, csv_path = report.write(out)
    sys.stdout.write(f"{json_path}\n{csv_path}\n")
    sys.stderr.write(f"elapsed: {report.elapsed_seconds:.3f}s\n")
    if args.check:
        problems = _evaluate_checks(report, config.get("checks", []))
        if problems:
            for p in problems:
                sys.stderr.write(f"CHECK FAILED: {p}\n")
            return EXIT_CHECK_FAILED
        sys.stderr.write("all checks passed\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_FLAGS = {
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--out": dict(default=None, help="output path or prefix"),
    "--check": dict(action="store_true", help="evaluate acceptance checks"),
    "--threads": dict(type=int, default=1, help="workers: this process and threads - 1 forked ones"),
}


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags its command reads."""
    parser = argparse.ArgumentParser(
        prog="eivpred",
        description="Prediction in structural errors-in-variables regression models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in [
        ("simulate", "draw a dataset and write CSV + spec sidecar", ("--seed", "--out")),
        ("transform", "print observable-regression parameters for a spec", ("--out",)),
        ("fit-predict", "fit a dataset, predict, and build confidence regions", ("--out",)),
        ("experiment", "run a Monte Carlo experiment suite", ("--seed", "--out", "--check", "--threads")),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "transform": cmd_transform,
    "fit-predict": cmd_fit_predict,
    "experiment": cmd_experiment,
}


def _scipy_modules(command: str, config: dict) -> list[str]:
    """The scipy modules a run of ``command`` on a validated ``config`` calls:
    scipy.optimize and scipy.special for an NLS fit (the abs_failure suite
    fits the absolute-value family), none otherwise (the chi-square region's
    threshold comes from the standard library)."""
    if command == "experiment":
        family = config["spec"]["family"]
    elif command == "fit-predict":
        family = config["family"]
    else:
        return []
    return ["scipy.optimize", "scipy.special"] if family in NLS_FAMILIES else []


def main(argv=None) -> int:
    """Run one CLI command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    This is a process entry point: before the command runs it freezes
    (``gc.freeze``) every object the process has loaded, so an in-process
    caller, such as a test, keeps a frozen heap afterwards.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiment" and args.threads < 1:
            raise ValueError(f"--threads must be a positive integer, got {args.threads}")
        config = _load_config(args.config, args.command)
    except (OSError, ValueError) as exc:  # ValueError: bad --threads, not UTF-8, not JSON, or unread keys
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"config schema error: {exc.message}\n")
        return EXIT_CONFIG
    # scipy takes most of a second to import, so it is loaded only for the
    # runs that call it, and before the command starts its work; so is the
    # worker pool (and with it multiprocessing), for a run on several workers
    modules = _scipy_modules(args.command, config)
    if args.command == "experiment" and args.threads > 1:
        modules.append("concurrent.futures.process")
    for module in modules:
        importlib.import_module(module)
    gc.freeze()  # the loaded heap lives to exit: no later full collection, in any process, walks it
    try:
        return _COMMANDS[args.command](config, args)
    except SpecError as exc:
        for violation in exc.violations:
            sys.stderr.write(f"spec violation: {violation}\n")
        return EXIT_CONFIG
    except (OSError, DatasetError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_CONFIG
    except EivError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numeric error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # a defect: still one line, not a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
