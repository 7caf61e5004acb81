"""Run one eivpred CLI command in this interpreter and record its timings.

    python3 perfbench/child.py SIDECAR TRACE -- <eivpred CLI arguments>

The command goes through ``eivpred.cli.main``, the function behind the
``eivpred`` console script.  Before calling it, this shim wraps the suite
drivers in ``eivpred.cli._SUITES`` and the ``simulate`` / ``fit-predict``
bodies in ``eivpred.cli._COMMANDS`` with a timer that records when each body
starts and ends; ``run.py`` turns those stamps into ``setup_s`` and the
throughput metrics.  With TRACE=1 it also installs a ``Tracer`` on every
function in ``LAYERS``.  The stamps and trace totals go to SIDECAR as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# Layer (eivpred module) -> public functions the traced run wraps.
LAYERS = {
    "models": ("sample", "new_subject", "save_dataset", "load_dataset", "spec_from_dict"),
    "linalg": ("cholesky_psd", "pinv", "sym_sqrt", "min_eigenvalue"),
    "rng": ("derive_seed", "make_rng"),
    "transform": ("predict_rows", "abs_F"),
    "estimators": ("ols_fit", "sample_moments", "nls_fit", "naive_ols_abs"),
    "predictors": (
        "predict_individual",
        "predict_mean",
        "region_chebyshev",
        "region_chisquare",
        "region_contains",
        "chi2_upper_quantile",
    ),
    "montecarlo": ("driver", "report_write"),
    "cli": ("main",),
}
DRIVER = "montecarlo.driver"  # the run_* entries of eivpred.cli._SUITES
REPORT_WRITE = "montecarlo.report_write"  # McReport.write


class Tracer:
    """Per-function call counts, self time and wait time, thread-safe.

    A span's self time is its wall time minus that of the wrapped calls it
    made; its wait time is self time minus the thread CPU time it used
    (``time.thread_time``), i.e. time spent on the GIL, I/O or the scheduler.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, wait_s]
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.nls = [0, 0]  # [converged, attempted]
        self.busy_s = 0.0
        self.driver_s = 0.0
        self.missing: list[str] = []

    def install(self, cli) -> None:
        """Wrap every function in ``LAYERS`` where its callers look it up.

        A name that no longer exists is listed in ``missing`` and skipped.
        """
        suites = getattr(cli, "_SUITES", None)
        report = getattr(sys.modules.get("eivpred.montecarlo"), "McReport", None)
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"eivpred.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                if full == DRIVER:
                    found = isinstance(suites, dict)
                    for suite, fn in (suites if found else {}).items():
                        suites[suite] = self._wrap(full, fn)
                elif full == REPORT_WRITE:
                    found = callable(getattr(report, "write", None))
                    if found:
                        report.write = self._wrap(full, report.write)
                else:
                    original = getattr(module, name, None)
                    found = callable(original)
                    if found:
                        self._replace(original, self._wrap(full, original))
                if not found:
                    self.missing.append(full)

    @staticmethod
    def _replace(original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "eivpred" or modname.startswith("eivpred."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, full: str, fn):
        layer = full.split(".")[0]
        self.stats[full] = [0, 0.0, 0.0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [full, 0.0, 0.0]  # name, child wall, child CPU
            stack.append(frame)
            failed = False
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - w0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                self_wall = wall - frame[1]
                self_cpu = cpu - frame[2]
                # Work the pool runs: spans directly under the driver (threads=1)
                # or at the top of a worker thread (threads>1).
                pooled = (parent is not None and parent[0] == DRIVER) or (
                    parent is None and threading.current_thread() is not threading.main_thread()
                )
                with self._lock:
                    entry = self.stats[full]
                    entry[0] += 1
                    entry[1] += self_wall
                    entry[2] += self_wall - self_cpu
                    if failed:
                        self.errors[layer] += 1
                    if pooled:
                        self.busy_s += wall
                    if full == DRIVER:
                        self.driver_s += wall
            if full == "estimators.nls_fit":
                with self._lock:
                    self.nls[0] += bool(getattr(result, "converged", False))
                    self.nls[1] += 1
            return result

        return wrapper

    def summary(self) -> dict:
        with self._lock:
            return {
                "stats": self.stats,
                "errors": self.errors,
                "nls": self.nls,
                "busy_s": self.busy_s,
                "driver_s": self.driver_s,
                "threads": self.threads,
                "missing": self.missing,
            }


def _stamped(fn, stamps: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            stamps.append([start, time.monotonic()])

    return wrapper


def main() -> int:
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py SIDECAR TRACE -- <eivpred CLI arguments>")
    argv = sys.argv[4:]
    threads = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1

    from eivpred import cli

    stamps: list = []
    tracer = None
    if trace:
        tracer = Tracer(threads)
        tracer.install(cli)
    for suite, fn in cli._SUITES.items():
        cli._SUITES[suite] = _stamped(fn, stamps)
    for command in ("simulate", "fit-predict"):
        cli._COMMANDS[command] = _stamped(cli._COMMANDS[command], stamps)
    try:
        return cli.main(argv)
    finally:
        with open(sidecar, "w") as fh:
            json.dump({"body": stamps, "trace": tracer.summary() if tracer else None}, fh)


if __name__ == "__main__":
    sys.exit(main())
