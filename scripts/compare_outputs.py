#!/usr/bin/env python3
"""Compare this checkout's CLI outputs with those of a git revision, byte for byte.

    python3 scripts/compare_outputs.py REF

REF is extracted with ``git archive`` into a temporary directory.  From both
trees, with ``OPENBLAS_NUM_THREADS=1``, the script runs ``transform`` for one
spec of each of the six families, both simulate configs
(``scripts/configs/simulate_linear.json`` and
``perfbench/configs/fit_predict_file.simulate.json``), ``fit-predict`` on the
latter's dataset and on ``tests/data/golden_fit_predict_config.json``, a
``simulate`` with hidden columns whose CSV holds every ``%g`` layout
(``WIDE_RANGE_SIMULATE``: an exponential spec with rate 10, n = 2000), a
``simulate`` (n = 2000) and a ``fit-predict`` run for each entry of
``SIMULATE_FIT_RUNS`` (each nonlinear family with one point and one Chebyshev
region, two harmonics for the trigonometric fit; the quadratic family with
all three region kinds, and the polynomial family with mean predictions, at
six points each), and every experiment config in ``scripts/configs`` and
``perfbench/configs`` at ``--threads 1`` and ``--threads 2``.  Those configs
use n >= 1e4 except ``coverage_small_n``, so each of their chunks holds one
replication; ten small-n experiments written into the temporary directory
(``SMALL_N_EXPERIMENTS``), two of them on nonlinear families, two on linear
specs with ``uniform`` and ``two_point`` z, one on a polynomial spec with a
gaussian z and one with a master seed of two 32-bit words (every other
config's seed is one word), run chunks of many
replications next to chunks of one, at ``--threads 1``, ``2`` and ``3``
(three workers split the chunks unevenly: the CLI process and two forked ones).
Every output goes to the temporary directory, which is removed at the end.

Each output is printed as identical or differing; for a JSON or CSV output
that differs, the largest relative difference between its numbers (for a CSV,
cell by cell, numeric cells parsed) is printed too.
Exits 1 on any difference or failed run, 0 otherwise.  The experiments make
this take a few minutes.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one spec per family, small and valid; the transform is closed-form
TRANSFORM_SPECS = [
    {"family": "linear", "intercept": [1.0], "z_slopes": [[0.5]], "latent_slopes": [[1.0]],
     "latent_mean": [0.5], "latent_cov": [[1.0]],
     "errors": {"sigma_e": [[0.2]], "sigma_eps": [[0.3]], "sigma_delta": [[0.5]],
                "sigma_eps_delta": [[0.1]]},
     "z_dist": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}},
    {"family": "polynomial", "intercept": 0.7, "coefs": [1.0, -0.5, 0.3], "latent_mean": 0.5,
     "latent_var": 1.0, "sigma2_e": 0.2, "sigma2_eps": 0.3, "sigma2_delta": 0.8,
     "sigma_eps_delta": 0.1},
    {"family": "quadratic", "intercept": 0.4, "slope": 0.7, "curvature": 1.0, "latent_mean": 1.0,
     "latent_var": 1.0, "sigma2_e": 0.2, "sigma2_delta": 1.0},
    {"family": "exponential", "scale": 2.0, "rate": 1.0, "latent_mean": 1.0, "latent_var": 1.0,
     "sigma2_e": 0.1, "sigma2_delta": 1.0},
    {"family": "trigonometric", "const": 0.3, "cos_amps": [1.0, 0.5], "sin_amps": [-0.7, 0.2],
     "freq": 1.3, "latent_mean": 0.4, "latent_var": 1.2, "sigma2_e": 0.05, "sigma2_delta": 0.8},
    {"family": "absolute_value", "scale": 1.0, "shift": 1.0, "latent_mean": 0.0,
     "latent_var": 1.0, "sigma2_e": 0.1, "sigma2_delta": 1.0},
]

# n_grid [50, 200, 5000]: one chunk of 60 replications (4096 // 50 = 81), chunks
# of 20, and chunks of one
_SMALL_N = {"n_grid": [50, 200, 5000], "replications": 60}
SMALL_N_EXPERIMENTS = {
    "small_n_coverage_linear_fixed_subject": dict(
        _SMALL_N, suite="coverage", spec=TRANSFORM_SPECS[0], master_seed=21, alphas=[0.05, 0.5],
        region_kinds=["chebyshev", "chi_square"], fixed_subject=True),
    "small_n_coverage_quadratic_bound": dict(
        _SMALL_N, suite="coverage", spec=dict(TRANSFORM_SPECS[2], reliability_floor=0.4), master_seed=22,
        alphas=[0.1, 0.3], region_kinds=["quadratic_bound", "chebyshev"]),
    "small_n_consistency_linear_mean": dict(
        _SMALL_N, suite="consistency", spec=TRANSFORM_SPECS[0], master_seed=23, mean_prediction=True),
    "small_n_consistency_polynomial_mean": dict(
        _SMALL_N, suite="consistency", spec=TRANSFORM_SPECS[1], master_seed=24, mean_prediction=True),
    # the polynomial fit puts z columns before the powers; no other spec has both
    "small_n_consistency_polynomial_z_mean": dict(
        _SMALL_N, suite="consistency", master_seed=29, mean_prediction=True,
        spec=dict(TRANSFORM_SPECS[1], z_slopes=[0.4],
                  z_dist={"kind": "gaussian", "mean": [0.5], "cov": [[2.0]]})),
    # the stacked draw fills a chunk's z per kind; gaussian z is covered above
    **{f"small_n_coverage_linear_{kind}_z": dict(
        _SMALL_N, suite="coverage", master_seed=seed, alphas=[0.05, 0.5],
        spec=dict(TRANSFORM_SPECS[0], z_dist={"kind": kind, "mean": [0.5], "cov": [[2.0]]}),
        region_kinds=["chebyshev", "chi_square"]) for kind, seed in (("uniform", 27), ("two_point", 28))},
    # a master seed above 2**32 enters every stream's entropy as two words
    "small_n_coverage_linear_two_word_seed": dict(
        _SMALL_N, suite="coverage", spec=TRANSFORM_SPECS[0], master_seed=2**40 + 21, alphas=[0.05, 0.5],
        region_kinds=["chebyshev", "chi_square"]),
    "small_n_coverage_exponential": dict(
        _SMALL_N, suite="coverage", spec=TRANSFORM_SPECS[3], master_seed=25, alphas=[0.05, 0.5],
        region_kinds=["chebyshev", "chi_square"]),
    # a two-harmonic trigonometric fit takes 0.03-0.25 s (means of 10 fits at
    # n = 50 to 5000) on a 2-core x86-64 VM, so 30 replications, and n = 2500
    # (still chunks of one) in place of 5000
    "small_n_consistency_trigonometric": dict(
        suite="consistency", spec=TRANSFORM_SPECS[4], master_seed=26, n_grid=[50, 200, 2500],
        replications=30),
}

# x0 values whose C-pow square (Python's float ``x0**2``) differs from the
# product x0 * x0 in the last bit, so that a quadratic-bound half-width of one
# fit moves if the rule squares one way instead of the other
_POW_POINTS = [2.4621229753342657, -0.7216088579636935, 2.0070948059639395, 0.3484479973618271,
               -0.47536382453165515, 3.3444883747977414]

# name -> (spec, fit-predict options): each spec is simulated (n = 2000) and
# then fitted by fit-predict; every region holds only the keys its kind reads
SIMULATE_FIT_RUNS = {
    **{f"nls_{spec['family']}": (spec, {"predict": [{"x0": [0.5]}],
                                        "regions": [{"kind": "chebyshev", "alpha": 0.05}]})
       for spec in TRANSFORM_SPECS[3:6]},
    "quadratic_regions": (TRANSFORM_SPECS[2], {
        "predict": [{"x0": [x0]} for x0 in _POW_POINTS],
        "regions": [{"kind": "chebyshev", "alpha": 0.05},
                    {"kind": "chi_square", "alpha": 0.05, "purely_normal": True},
                    {"kind": "quadratic_bound", "alpha": 0.1, "k0": 0.4},
                    {"kind": "quadratic_bound", "alpha": 0.3, "k0": 0.25}]}),
    "polynomial_mean": (TRANSFORM_SPECS[1], {
        "degree": len(TRANSFORM_SPECS[1]["coefs"]),
        "predict": [{"x0": [x0]} for x0 in _POW_POINTS],
        "sigma_eps_delta": 0.1}),
}
SIMULATE_FIT_RUNS["nls_trigonometric"][1]["harmonics"] = len(TRANSFORM_SPECS[4]["cos_amps"])

# a dataset whose CSV holds all three %g layouts: exponents above 16 (exp(10 xi)
# for large xi), below -4 and from -4 to -1 (small xi and the deltas), and zeros
# (the noiseless response's hidden e)
WIDE_RANGE_SIMULATE = {"spec": dict(TRANSFORM_SPECS[3], rate=10.0, sigma2_e=0.0, sigma2_delta=0.25),
                       "n": 2000, "seed": 31, "include_hidden": True}

EXPERIMENTS = sorted(
    str(path.relative_to(ROOT))
    for pattern in ("scripts/configs/*.json", "perfbench/configs/*.json")
    for path in ROOT.glob(pattern)
    if "suite" in json.loads(path.read_text())
)


def run_all(tree: Path, out: Path, configs: Path) -> list[str]:
    """Run every command from ``tree``, writing under ``out``; returns the
    failed runs, each with its exit code and last stderr line."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    fit = json.loads((tree / "perfbench/configs/fit_predict_file.fit.json").read_text())
    fit["data"] = str(out / "fit_predict_file")
    temp_configs = {"fit_predict_file.fit": fit, "simulate_wide_range": WIDE_RANGE_SIMULATE}
    runs = []
    for spec in TRANSFORM_SPECS:
        name = f"transform_{spec['family']}"
        runs.append((name, ["transform", "--config", str(configs / f"{spec['family']}.json"),
                            "--out", str(out / f"{name}.json")]))
    runs += [
        ("simulate_linear", ["simulate", "--config", "scripts/configs/simulate_linear.json",
                             "--out", str(out / "simulate_linear")]),
        ("fit_predict_file.simulate", ["simulate", "--config",
                                       "perfbench/configs/fit_predict_file.simulate.json",
                                       "--out", str(out / "fit_predict_file")]),
        ("fit_predict_file.fit", ["fit-predict", "--config", str(out / "fit_predict_file.fit.json"),
                                  "--out", str(out / "fit_predict_file.prediction.json")]),
        ("golden_fit_predict", ["fit-predict", "--config", "tests/data/golden_fit_predict_config.json",
                                "--out", str(out / "golden_fit_predict.json")]),
        ("simulate_wide_range", ["simulate", "--config", str(out / "simulate_wide_range.json"),
                                 "--out", str(out / "simulate_wide_range")]),
    ]
    for name, (spec, options) in SIMULATE_FIT_RUNS.items():
        temp_configs[f"{name}.simulate"] = {"spec": spec, "n": 2000, "seed": 31}
        temp_configs[f"{name}.fit"] = dict(options, data=str(out / name), family=spec["family"])
        runs += [
            (f"{name}.simulate", ["simulate", "--config", str(out / f"{name}.simulate.json"),
                                  "--out", str(out / name)]),
            (f"{name}.fit", ["fit-predict", "--config", str(out / f"{name}.fit.json"),
                             "--out", str(out / f"{name}.prediction.json")]),
        ]
    for name, config in temp_configs.items():
        (out / f"{name}.json").write_text(json.dumps(config))
    small_n = [str(configs / f"{name}.json") for name in SMALL_N_EXPERIMENTS]
    for config in EXPERIMENTS + small_n:
        for threads in ("1", "2", "3") if config in small_n else ("1", "2"):
            name = f"{Path(config).stem}_t{threads}"  # a dot would become the suffix
            runs.append((name, ["experiment", "--config", config, "--threads", threads,
                                "--out", str(out / name)]))
    failed = []
    for name, argv in runs:
        print(f"  {tree.name}: {name}", file=sys.stderr, flush=True)
        proc = subprocess.run([sys.executable, "-m", "eivpred.cli", *argv], cwd=tree, env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            failed.append(f"{name}: exit {proc.returncode}: {last[0]}")
    for name in temp_configs:
        (out / f"{name}.json").unlink()
    return failed


def largest_rel_diff(a, b) -> float:
    """Largest relative difference between corresponding numbers of two JSON
    values (or two CSV tables, see :func:`csv_cells`); inf when their
    structure, a string or an infinity differs."""
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0 if a == b else math.inf
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return max((largest_rel_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((largest_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def csv_cells(text: str) -> list[list]:
    """The rows of a CSV text, each a list of cells, a cell that parses as a
    float as that float."""

    def cell(value: str):
        try:
            return float(value)
        except ValueError:
            return value

    return [[cell(value) for value in row] for row in csv.reader(io.StringIO(text))]


PARSERS = {".json": json.loads, ".csv": csv_cells}


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    ref = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        configs = tmp / "configs"
        configs.mkdir()
        for spec in TRANSFORM_SPECS:
            (configs / f"{spec['family']}.json").write_text(json.dumps({"spec": spec}))
        for name, config in SMALL_N_EXPERIMENTS.items():
            (configs / f"{name}.json").write_text(json.dumps(config))

        failed = [f"{ref}: {f}" for f in run_all(ref_tree, tmp / "out_ref", configs)]
        failed += [f"checkout: {f}" for f in run_all(ROOT, tmp / "out_new", configs)]
        names = sorted({p.name for side in ("out_ref", "out_new") for p in (tmp / side).iterdir()})
        differing = 0
        for name in names:
            old, new = tmp / "out_ref" / name, tmp / "out_new" / name
            if old.exists() and new.exists() and old.read_bytes() == new.read_bytes():
                print(f"identical  {name}")
                continue
            differing += 1
            detail = "missing on one side" if not (old.exists() and new.exists()) else ""
            parse = PARSERS.get(Path(name).suffix)
            if not detail and parse:
                diff = largest_rel_diff(parse(old.read_text()), parse(new.read_text()))
                detail = f"largest relative difference {diff:.3g}"
            print(f"DIFFERS    {name}" + (f"  ({detail})" if detail else ""))
        for f in failed:
            print(f"FAILED     {f}")
        print(f"{len(names) - differing} identical, {differing} differing, {len(failed)} failed runs")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
