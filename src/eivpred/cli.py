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
import importlib
import json
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

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

THREADS_ENV = "EIVPRED_THREADS"

_SUITES = {"consistency": run_consistency, "coverage": run_coverage, "abs_failure": run_abs_failure}

_SPEC_SCHEMA = {"type": "object", "required": ["family"], "properties": {"family": {"type": "string"}}}
_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

_REGION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "alpha"],
    "properties": {
        "kind": {"enum": list(REGION_KINDS)},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "purely_normal": {"type": "boolean"},
        "k0": {"type": "number"},
    },
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
            "threads": {"type": "integer", "minimum": 1},
            "region_kinds": {"type": "array", "items": {"enum": list(REGION_KINDS)}},
            "purely_normal": {"type": "boolean"},
            "k0": {"type": "number"},
            "fixed_subject": {"type": "boolean"},
            "mean_prediction": {"type": "boolean"},
            "degree": {"type": "integer", "minimum": 1},
            "harmonics": {"type": "integer", "minimum": 1},
            "test_subjects": {"type": "integer", "minimum": 2},
            "out": {"type": "string"},
            "checks": {"type": "array", "items": _CHECK_SCHEMA},
        },
    },
}


def _load_config(path: str, command: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    jsonschema.validate(config, CONFIG_SCHEMAS[command])
    return config


def _thread_count(flag: int | None, config: dict) -> int:
    """``--threads``, else the config's ``threads``, else ``EIVPRED_THREADS``, else 1."""
    value = flag if flag is not None else config.get("threads", os.environ.get(THREADS_ENV, "1"))
    if not str(value).isdecimal() or int(value) < 1:
        raise ValueError(f"--threads or {THREADS_ENV} must be a positive integer, got {value!r}")
    return int(value)


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
        entry = {
            "z0": z0,
            "x0": pred.x0.tolist(),
            "individual": pred.point.tolist(),
            "regions": [],
        }
        if cross is not None:
            entry["mean"] = predict_mean(fit, z0, x0, cross).point.tolist()
        for reg_cfg in config.get("regions", []):
            region = build_region(
                reg_cfg["kind"],
                fit,
                pred,
                reg_cfg["alpha"],
                purely_normal=reg_cfg.get("purely_normal", False),
                k0=reg_cfg.get("k0", 0.5),
            )
            entry["regions"].append(to_jsonable(region))
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
    sys.stderr.write(f"elapsed: {report.elapsed_seconds:.2f}s\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivpred",
        description="Prediction in structural errors-in-variables regression models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "draw a dataset and write CSV + spec sidecar"),
        ("transform", "print observable-regression parameters for a spec"),
        ("fit-predict", "fit a dataset, predict, and build confidence regions"),
        ("experiment", "run a Monte Carlo experiment suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path or prefix")
        p.add_argument("--check", action="store_true", help="evaluate acceptance checks")
        p.add_argument(
            "--threads", type=int, default=None, help="experiment workers: this process and forked ones"
        )
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
    fits the absolute-value family), scipy.special for a chi-square region."""
    if command == "experiment":
        nls = config["spec"]["family"] in NLS_FAMILIES
        kinds = config.get("region_kinds", ())
    elif command == "fit-predict":
        nls = config["family"] in NLS_FAMILIES
        kinds = [region["kind"] for region in config.get("regions", ())]
    else:
        return []
    if nls:
        return ["scipy.optimize", "scipy.special"]
    return ["scipy.special"] if "chi_square" in kinds else []


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        if args.command == "experiment":  # the one command that runs workers
            args.threads = _thread_count(args.threads, config)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, a bad thread count
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except jsonschema.ValidationError as exc:
        sys.stderr.write(f"config schema error: {exc.message}\n")
        return EXIT_CONFIG
    # scipy takes most of a second to import, so it is loaded only for the
    # runs that call it, and before the command starts its work
    for module in _scipy_modules(args.command, config):
        importlib.import_module(module)
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
