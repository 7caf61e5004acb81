"""eivpred benchmark: one workload through the real CLI, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports nothing from ``src/`` itself.
Each cycle spawns fresh interpreters (``perfbench/child.py``) that run the
``eivpred`` CLI on inputs derived from ``--seed``.  Cycles repeat until
``--seconds`` have passed (at least ``MIN_CYCLES``), and every end-to-end
metric is the median over cycles.  With ``--trace 1`` one more cycle runs
with every layer function wrapped, and the per-layer totals of that cycle
are reported instead.  Every cycle passes a correctness gate; a failed gate
is printed and its operations count as failed.  The last stdout line is the
JSON result; the line before it holds the environment and per-cycle details.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from child import DRIVER, LAYERS

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
ROOT = Path.cwd()
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_CYCLES = 3
HARD_LIMIT_S = 165.0  # no cycle starts, and no child survives, past this

# Experiment workload -> worker threads passed to the CLI.
EXPERIMENTS = {"coverage_small_n": 2, "consistency_poly_large_n": 1, "abs_nls": 1}
WORKLOADS = (*EXPERIMENTS, "fit_predict_file")

# fit_predict_file gate: every fitted coefficient within COEF_TOL of the
# closed-form observable coefficients (over 10 standard errors at n = 2e5),
# and every individual prediction within PRED_TOL of the best predictor.
COEF_TOL = 0.02
PRED_TOL = 0.05

PROBE = """
import json, platform
import numpy, scipy
import eivpred.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {"name": blas.get("name"), "version": blas.get("version")}
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class Child:
    """One finished CLI process: exit code, timings, resource use, sidecar."""

    def __init__(self, code: int, spawned: float, wall_s: float, usage, sidecar, stderr: str):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr
        self.trace = (sidecar or {}).get("trace")
        stamps = (sidecar or {}).get("body") or []
        # Exactly one suite driver or command body per CLI call.
        self.setup_s = stamps[0][0] - spawned if len(stamps) == 1 else math.nan
        self.body_s = stamps[0][1] - stamps[0][0] if len(stamps) == 1 else math.nan

    def problems(self, what: str) -> list[str]:
        if self.code != 0:
            return [f"{what} exited {self.code}: {self.stderr.strip()[-600:]}"]
        if math.isnan(self.body_s):
            return [f"{what} did not record exactly one command body"]
        return []


class Runner:
    """Spawns CLI children one at a time inside a scratch directory."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
        self.env.pop("EIVPRED_THREADS", None)
        self.count = 0

    def probe(self) -> dict:
        """Import the CLI once (warms caches, compiles bytecode) and report versions."""
        out = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=self.tmp, env=self.env, capture_output=True,
            text=True, timeout=max(1.0, self.deadline - time.monotonic()), check=True,
        )
        return json.loads(out.stdout)

    def spawn(self, cli_args: list[str], trace: bool) -> Child:
        self.count += 1
        tag = self.tmp / f"child{self.count}"
        sidecar = tag.with_suffix(".sidecar.json")
        cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), str(int(trace)), "--", *cli_args]
        with open(tag.with_suffix(".out"), "wb") as out, open(tag.with_suffix(".err"), "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.tmp, env=self.env, stdout=out, stderr=err)
            try:
                timer = threading.Timer(max(1.0, self.deadline - spawned), proc.kill)
                timer.start()
                try:
                    # Wait without reaping, so a late kill can only reach a zombie.
                    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                finally:
                    timer.cancel()
                    timer.join()
                wall = time.monotonic() - spawned
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            record = json.loads(sidecar.read_text())
        except (OSError, ValueError):
            record = None
        return Child(
            proc.returncode, spawned, wall, usage, record, tag.with_suffix(".err").read_text(errors="replace")
        )


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _load(path: Path, what: str, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{what} unreadable: {exc}")
        return None


def _cycle(children: list[Child], ops: int, rows: int, digest: str, problems: list[str]) -> dict:
    return {
        "wall_s": sum(c.wall_s for c in children),
        "setup_s": sum(c.setup_s for c in children),
        "body_s": sum(c.body_s for c in children),
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
        "ops": ops,
        "rows": rows,
        "digest": digest,
        "problems": problems,
        "traces": [c.trace for c in children if c.trace],
    }


def experiment_cycle(runner: Runner, workload: str, seed: int, k: int, trace: bool) -> dict:
    """One ``eivpred experiment --check`` call."""
    path = CONFIGS / f"{workload}.json"
    config = json.loads(path.read_text())
    prefix = runner.tmp / f"cycle{k}" / "report"
    child = runner.spawn(
        ["experiment", "--config", str(path), "--seed", str(seed), "--out", str(prefix),
         "--check", "--threads", str(EXPERIMENTS[workload])],
        trace,
    )
    problems = child.problems("experiment")
    report = _load(prefix.with_suffix(".json"), "report", problems) if not problems else None
    if report is not None:
        if report.get("failures"):
            problems.append(f"report lists {len(report['failures'])} failed replications: "
                            f"{report['failures'][:3]}")
        if not report.get("rows"):
            problems.append("report has no rows")
    reps = config["replications"] * len(config["n_grid"])
    rows = config["replications"] * sum(config["n_grid"])
    digest = _digest(prefix.with_suffix(".json"), prefix.with_suffix(".csv"))
    return _cycle([child], reps, rows, digest, problems)


def linear_truth(spec: dict) -> tuple[float, float, float]:
    """(intercept, z slope, x slope) of E[y | z, x] for a linear spec with one
    latent covariate and z independent of it:
    slope = (b S_xi + S_eps_delta) / S_x, intercept = a + mu (b S_delta - S_eps_delta) / S_x."""
    mu = spec["latent_mean"][0]
    s_xi = spec["latent_cov"][0][0]
    s_delta = spec["errors"]["sigma_delta"][0][0]
    s_ed = spec["errors"]["sigma_eps_delta"][0][0]
    b = spec["latent_slopes"][0][0]
    s_x = s_xi + s_delta
    return (
        spec["intercept"][0] + mu * (b * s_delta - s_ed) / s_x,
        spec["z_slopes"][0][0],
        (b * s_xi + s_ed) / s_x,
    )


def _point_ok(point: dict, truth: tuple[float, float, float], n_regions: int) -> bool:
    a, g, k = truth
    best = a + g * point["z0"][0] + k * point["x0"][0]
    values = [*point["individual"], *point.get("mean", [math.nan])]
    values += [r["threshold"] for r in point["regions"]]
    return (
        all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        and abs(point["individual"][0] - best) <= PRED_TOL
        and len(point["regions"]) == n_regions
        and all(r["center"] == point["individual"] for r in point["regions"])
    )


def _check_prediction(report: dict, sim: dict, fit: dict) -> list[str]:
    problems = []
    truth = linear_truth(sim["spec"])
    params = report["fit"]["params"]
    got = (params["intercept"][0], params["z_slopes"][0][0], params["x_slopes"][0][0])
    if report["fit"]["n"] != sim["n"]:
        problems.append(f"fit read {report['fit']['n']} rows, simulate wrote {sim['n']}")
    if any(abs(x - t) > COEF_TOL for x, t in zip(got, truth)):
        problems.append(f"coefficients {got} not within {COEF_TOL} of {truth}")
    n_points = len(fit["predict"])
    bad = sum(not _point_ok(p, truth, len(fit["regions"])) for p in report["predictions"])
    bad += n_points - len(report["predictions"])
    if bad:
        problems.append(f"{bad} of {n_points} prediction points failed their check")
    return problems


def fit_predict_cycle(runner: Runner, workload: str, seed: int, k: int, trace: bool) -> dict:
    """``eivpred simulate`` writes a CSV; ``eivpred fit-predict`` reads, fits, predicts."""
    sim_path = CONFIGS / f"{workload}.simulate.json"
    sim = json.loads(sim_path.read_text())
    fit = json.loads((CONFIGS / f"{workload}.fit.json").read_text())
    cycle_dir = runner.tmp / f"cycle{k}"
    cycle_dir.mkdir()
    data = cycle_dir / "data"
    fit["data"] = str(data)
    fit_path = cycle_dir / "fit.json"
    fit_path.write_text(json.dumps(fit))
    out = cycle_dir / "prediction.json"
    children = [runner.spawn(["simulate", "--config", str(sim_path), "--seed", str(seed),
                              "--out", str(data)], trace)]
    problems = children[0].problems("simulate")
    if not problems:
        children.append(runner.spawn(["fit-predict", "--config", str(fit_path), "--out", str(out)], trace))
        problems = children[1].problems("fit-predict")
    report = _load(out, "prediction report", problems) if not problems else None
    if report is not None:
        try:
            problems += _check_prediction(report, sim, fit)
        except (KeyError, IndexError, TypeError) as exc:
            problems.append(f"prediction report lacks an expected field: {exc!r}")
    digest = _digest(data.with_suffix(".csv"), data.with_suffix(".spec.json"), out)
    shutil.rmtree(cycle_dir)
    return _cycle(children, len(fit["predict"]), 2 * sim["n"], digest, problems)


def end_to_end(cycles: list[dict]) -> dict:
    """Median over cycles of each end-to-end metric, plus the success rate.

    Timings come from the cycles whose CLI calls all ran to completion.
    """
    attempted = sum(c["ops"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    timed = [c for c in cycles if math.isfinite(c["body_s"])]

    def med(f) -> float:
        return statistics.median(f(c) for c in timed) if timed else 0.0

    return {
        "wall_s": {"value": med(lambda c: c["wall_s"]), "unit": "s"},
        "setup_s": {"value": med(lambda c: c["setup_s"]), "unit": "s"},
        "reps_per_s": {"value": med(lambda c: (c["ops"] - c["failed"]) / c["body_s"]), "unit": "1/s"},
        "rows_per_s": {"value": med(lambda c: c["rows"] * (not c["failed"]) / c["body_s"]), "unit": "1/s"},
        "cpu_s": {"value": med(lambda c: c["cpu_s"]), "unit": "s"},
        "peak_rss_mb": {"value": med(lambda c: c["peak_rss_mb"]), "unit": "MB"},
        "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def per_layer(traced: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-function totals of the traced cycle (all its CLI calls summed)."""
    stats: dict[str, list] = {}
    errors = {layer: 0 for layer in LAYERS}
    nls = [0, 0]
    busy = capacity = 0.0
    missing: set[str] = set()
    for t in traced["traces"]:
        for name, values in t["stats"].items():
            total = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                total[i] += v
        for layer, n in t["errors"].items():
            errors[layer] += n
        nls = [nls[0] + t["nls"][0], nls[1] + t["nls"][1]]
        busy += t["busy_s"]
        capacity += t["driver_s"] * t["threads"]
        missing.update(t["missing"])
    metrics = {}
    for layer, names in LAYERS.items():
        for name in names:
            full = f"{layer}.{name}"
            if full in missing:
                continue
            calls, self_s, wait_s = stats.get(full, (0, 0.0, 0.0))
            metrics[f"{full}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{full}.self_s"] = {"value": self_s, "unit": "s"}
            metrics[f"{full}.wait_s"] = {"value": wait_s, "unit": "s"}
        metrics[f"{layer}.errors"] = {"value": errors[layer], "unit": "count"}
    if "estimators.nls_fit" not in missing:
        # Vacuously 1 when the workload fits no NLS model.
        ratio = nls[0] / nls[1] if nls[1] else 1.0
        metrics["estimators.nls_fit.converged_ratio"] = {"value": ratio, "unit": "ratio"}
    if DRIVER not in missing:
        metrics["montecarlo.pool_busy_ratio"] = {"value": busy / capacity if capacity else 0.0, "unit": "ratio"}
    overhead = traced["wall_s"] / untraced_wall if untraced_wall else 0.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics, sorted(missing)


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        cpu = platform.processor() or None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout, not a git repository
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "threads_env": PINNED,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eivpred" / "cli.py").is_file():
        sys.stderr.write(f"no eivpred sources under {ROOT / 'src'}; run from the repository root\n")
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    env = {"load_start": os.getloadavg(), **environment()}
    cycle_fn = fit_predict_cycle if args.workload == "fit_predict_file" else experiment_cycle
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(tmp, deadline)
        env.update(runner.probe())
        measure_until = time.monotonic() + args.seconds
        cycles: list[dict] = []
        while len(cycles) < MIN_CYCLES or time.monotonic() < measure_until:
            longest = max((c["wall_s"] for c in cycles), default=0.0)
            if cycles and time.monotonic() + 2 * longest > deadline:
                break
            cycles.append(cycle_fn(runner, args.workload, args.seed, len(cycles), False))
        traced = cycle_fn(runner, args.workload, args.seed, len(cycles), True) if args.trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["load_end"] = os.getloadavg()

    checked = cycles + ([traced] if traced else [])
    for c in checked:
        # Same seed, same bytes: every cycle's outputs, traced or not, match the first.
        if c["digest"] != cycles[0]["digest"]:
            which = "traced" if c is traced else "repeated"
            c["problems"].append(f"{which} outputs differ from the first cycle at the same seed")
        c["failed"] = c["ops"] if c["problems"] else 0
        for problem in c["problems"]:
            sys.stderr.write(f"GATE FAILED [{args.workload}]: {problem}\n")

    attempted = sum(c["ops"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    e2e = end_to_end(cycles)
    missing: list[str] = []
    if traced:
        metrics, missing = per_layer(traced, e2e["wall_s"]["value"])
        for name in missing:
            sys.stderr.write(f"trace: {name} not found; its metrics are absent\n")
    else:
        metrics = e2e
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": len(cycles),
        "environment": env,
        "end_to_end": {k: v["value"] for k, v in e2e.items()},
        "per_cycle": [
            {k: None if c[k] != c[k] else c[k]  # NaN (no timing) is not JSON
             for k in ("wall_s", "setup_s", "body_s", "cpu_s", "peak_rss_mb", "ops", "failed")}
            for c in cycles
        ],
        "problems": [p for c in checked for p in c["problems"]],
        "missing": missing,
    }
    print(json.dumps({"benchmark": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
