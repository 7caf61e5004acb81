"""Monte Carlo experiment suites.

Turns the asymptotic guarantees of the predictors into finite-sample
empirical checks: consistency curves for the plug-in predictors, coverage
tables for the confidence regions, and the head-to-head comparison that
demonstrates where the naive plug-in predictor fails.

Every suite runs on one skeleton, :func:`_run`.  A suite is a compile
function, run once before the replication loop: it checks the config and
compiles the spec into a validated :class:`~eivpred.models.Sampler` with
cached Cholesky factors, the fixed-subject conditional law (when requested)
into its moments and factors, and the region settings into checked values,
so invalid specs and settings raise :class:`~eivpred.errors.SpecError` up
front instead of failing every replication (and the spec must not be
mutated while a run is in progress).  It returns ``one``, the outcomes of a
chunk of replications, and ``rows``, the report rows of one sample size.
``_run`` owns the rest: the clock, the provenance, the failure entries, one
``failure_rate`` row per sample size and the trailing log-log slope rows.

The replications of one sample size n run in chunks of
``max(1, _CHUNK_ROWS // n)``.  The suites that score fitted predictions fit
a chunk's datasets into one stack of fits, a
:class:`~eivpred.estimators.FittedModel` whose arrays carry a leading axis
over the chunk (:func:`~eivpred.estimators.fit_stack`), and compute its
predictions, regions and memberships for the whole stack on the one-fit
code path (:func:`_fitted_prediction`).  Each replication still draws from
its own counter-based seeds, and every stacked quantity equals the
one-replication value to the bit.  When a chunk raises
:class:`~eivpred.errors.EivError` it is run again one replication at a time,
so a failed replication gets the failure entry it would get alone.  Chunks
are dealt to the workers, this process and forked copies of it, in
interleaved shares and merged in replication order.  So a report is
byte-identical for a fixed master seed across worker counts and chunkings;
wall-clock time is kept out of the serialized payload for the same reason.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import EivError, ReplicationsFailed, SpecError
from .estimators import fit_stack, min_sample_size, naive_ols_abs, nls_fit
from .linalg import cholesky_psd
from .models import AbsSpec, LinearSpec, ModelSpec, NewSubject, QuadraticSpec, Sampler, spec_to_dict
from .predictors import (
    REGION_KINDS,
    build_region,
    predict_individual,
    predict_mean,
    region_contains,
)
from .rng import derive_seed, make_rng
from .transform import condition_gaussian, predict_rows, transform

__all__ = [
    "ExperimentConfig",
    "McReport",
    "check_sample_sizes",
    "run_consistency",
    "run_coverage",
    "run_abs_failure",
]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    spec: ModelSpec
    n_grid: tuple[int, ...]
    replications: int
    alphas: tuple[float, ...] = (0.05,)
    master_seed: int = 0
    threads: int = 1  # worker processes: this one and threads - 1 forked ones
    region_kinds: tuple[str, ...] = ("chebyshev",)
    purely_normal: bool = False
    k0: Optional[float] = None  # quadratic-interval reliability floor
    fixed_subject: bool = False  # condition on one (z0, x0) instead of redrawing
    mean_prediction: bool = False  # also track the noiseless-value predictor
    degree: Optional[int] = None  # polynomial fit degree; defaults to the model's
    harmonics: Optional[int] = None  # trigonometric fit harmonics; defaults to the model's
    test_subjects: int = 1000  # fresh subjects per replication (abs comparison)

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "region_kinds", tuple(self.region_kinds))
        if self.replications < 1:
            raise SpecError(["replications must be >= 1"])
        if not self.n_grid or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise SpecError([f"n_grid must be non-empty and strictly ascending, got {list(self.n_grid)}"])


@dataclass(eq=False)
class McReport:
    """Flat result rows plus provenance.

    Every coverage row carries its binomial standard error.  ``elapsed_seconds``
    is informational only and intentionally excluded from the serialized
    payload so reports stay byte-identical across worker counts.
    """

    experiment: str
    rows: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": self.experiment,
            "rows": self.rows,
            "failures": self.failures,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "n", "alpha", "kind", "statistic", "value", "se"])
        for row in self.rows:
            writer.writerow(
                [
                    self.experiment,
                    row.get("n", ""),
                    _fmt(row.get("alpha")),
                    row.get("kind", ""),
                    row["statistic"],
                    _fmt(row.get("value")),
                    _fmt(row.get("se")),
                ]
            )
        return buf.getvalue()

    def write(self, prefix) -> tuple[Path, Path]:
        prefix = Path(prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        json_path = prefix.with_suffix(".json")
        csv_path = prefix.with_suffix(".csv")
        json_path.write_text(self.to_json())
        csv_path.write_text(self.to_csv())
        return json_path, csv_path

    def row(self, statistic: str, **keys) -> dict:
        """The first row of ``statistic`` matching ``keys``; KeyError if none does."""
        for row in self.rows:
            if row["statistic"] == statistic and all(row.get(k) == v for k, v in keys.items()):
                return row
        raise KeyError(f"no row with statistic={statistic!r} and {keys!r}")

    def value(self, statistic: str, **keys) -> float:
        """The value of :meth:`row` (test convenience)."""
        return self.row(statistic, **keys)["value"]


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    return format(float(v), ".17g")


def _provenance(cfg: ExperimentConfig, experiment: str) -> dict:
    return {
        "experiment": experiment,
        "spec": spec_to_dict(cfg.spec),
        "master_seed": cfg.master_seed,
        "n_grid": list(cfg.n_grid),
        "replications": cfg.replications,
        "alphas": list(cfg.alphas),
        "fixed_subject": cfg.fixed_subject,
        "package_version": __version__,
    }


def _coef_vector(params) -> np.ndarray:
    fields = {
        "linear": ("intercept", "z_slopes", "x_slopes"),
        "polynomial": ("intercept", "z_slopes", "coefs"),
        "quadratic": ("intercept", "slope", "curvature"),
        "exponential": ("scale", "rate"),
        "trigonometric": ("const", "cos_amps", "sin_amps", "freq"),
        "absolute_value": ("scale", "gain", "offset"),
    }[params.family]
    return np.concatenate([np.ravel(getattr(params, f)) for f in fields])


def _true_mean_point(spec: ModelSpec, best_point: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Noiseless-value predictor from the true model parameters."""
    if isinstance(spec, LinearSpec):
        cross = spec.errors.sigma_eps_delta
        corr = cross @ np.linalg.solve(spec.x_cov, x0 - spec.latent_mean)
        return best_point - corr
    cross = float(spec.sigma_eps_delta)
    return best_point - cross / spec.x_var * (x0 - spec.latent_mean)


def _conditional_subject(spec: ModelSpec, fixed: NewSubject):
    """Draws of a fresh response at the fixed (z0, x0) of ``fixed``, from the
    exact conditional law; its moments and factors are computed once here."""
    cg = condition_gaussian(spec)
    m = cg.xi_coef.shape[0]
    mu, _, errors = spec.gaussian_blocks()
    x0 = fixed.x0
    mean_xi = cg.xi_offset + cg.xi_coef @ x0
    mean_eps = cg.eps_coef @ (x0 - mu)
    cond_factor = cholesky_psd(cg.cond_cov)
    e_factor = cholesky_psd(errors.sigma_e)
    zrow = fixed.z0[None, :]

    def draw(rng: np.random.Generator) -> NewSubject:
        g = cond_factor @ rng.standard_normal(cond_factor.shape[0])
        xi0 = mean_xi + g[:m]
        eps0 = mean_eps + g[m:]
        e0 = e_factor @ rng.standard_normal(e_factor.shape[0])
        eta0 = spec.regression(zrow, xi0[None, :])[0]
        return NewSubject(z0=fixed.z0, x0=x0, y0=eta0 + e0 + eps0, eta0=eta0, xi0=xi0)

    return draw


def _subject_drawer(cfg: ExperimentConfig, sampler: Sampler):
    """``(n_idx, rep) -> NewSubject`` for the prediction target of each
    replication: a fresh subject, or a fresh response at one fixed subject."""
    if not cfg.fixed_subject:
        return lambda n_idx, rep: sampler.new_subject(derive_seed(cfg.master_seed, 2, n_idx, rep))
    conditional = _conditional_subject(cfg.spec, sampler.new_subject(derive_seed(cfg.master_seed, 4)))
    return lambda n_idx, rep: conditional(make_rng(cfg.master_seed, 3, n_idx, rep))


def _fit_size(cfg: ExperimentConfig) -> tuple[Optional[int], int]:
    """The fit's ``degree`` and ``harmonics``: the config's, else the spec's own."""
    degree = cfg.degree or getattr(cfg.spec, "degree", None)
    return degree, cfg.harmonics or getattr(cfg.spec, "harmonics", 1)


def check_sample_sizes(cfg: ExperimentConfig) -> None:
    """Reject ``n_grid`` entries below the smallest sample the run's fit
    accepts, each of which would fail every replication.

    The drivers themselves accept such entries and report them as failed
    replications; a front end calls this before the run instead."""
    spec = cfg.spec
    degree, harmonics = _fit_size(cfg)
    need = min_sample_size(spec.family, spec.z_dim, spec.latent_dim, degree, harmonics)
    small = [n for n in cfg.n_grid if n < need]
    if small:
        raise SpecError(
            [f"n_grid entries {small} are below {need}, the smallest sample a {spec.family} fit accepts"]
        )


def _fitted_prediction(cfg: ExperimentConfig, score):
    """``one(n_idx, reps)`` for a suite that scores fitted predictions: it fits
    a chunk of replications of one sample size as one stack of fits (whose
    ``[i]`` is the fit of replication ``reps[i]``), draws each replication's
    subject, predicts for them, and returns ``score(stack, subjects, pred)``,
    one value per replication.

    Compiles the spec into one :class:`Sampler` for the run.  A chunk of one
    replication warns of an ill-conditioned fit right after fitting, as
    :func:`fit_family` does; a larger chunk warns only once it is scored (a
    chunk that fails runs again in chunks of one), so each fit warns once."""
    spec = cfg.spec
    sampler = Sampler(spec)
    draw_subject = _subject_drawer(cfg, sampler)
    degree, harmonics = _fit_size(cfg)

    def one(n_idx: int, reps: tuple[int, ...]):
        n = cfg.n_grid[n_idx]
        data = [
            sampler.sample(n, derive_seed(cfg.master_seed, 1, n_idx, rep), keep_hidden=False)
            for rep in reps
        ]
        stack = fit_stack(data, spec.family, degree=degree, harmonics=harmonics)
        if len(reps) == 1:
            stack.warn_ill_conditioned()
        subjects = [draw_subject(n_idx, rep) for rep in reps]
        z0 = np.array([s.z0 for s in subjects]) if subjects[0].z0.size else None
        pred = predict_individual(stack, z0, np.array([s.x0 for s in subjects]))
        scores = score(stack, subjects, pred)
        if len(reps) > 1:
            stack.warn_ill_conditioned()
        return scores

    return one


# A chunk of replications of sample size n holds max(1, _CHUNK_ROWS // n) of
# them.  The budget bounds the stacked arrays' memory; it depends on n only,
# so, like the thread count, it cannot change a report.
_CHUNK_ROWS = 4096


def _chunks(cfg: ExperimentConfig) -> list[tuple[int, tuple[int, ...]]]:
    """``(n_idx, reps)`` tasks covering every replication, in grid order."""
    tasks = []
    for n_idx, n in enumerate(cfg.n_grid):
        size = max(1, _CHUNK_ROWS // max(n, 1))
        tasks += [
            (n_idx, tuple(range(start, min(start + size, cfg.replications))))
            for start in range(0, cfg.replications, size)
        ]
    return tasks


# The ``(tasks, worker)`` of the pool run in progress.  The forked workers
# inherit it, so the worker (a closure) is never pickled.
_JOB = None


def _share(j: int, k: int) -> list:
    tasks, worker = _JOB
    return [worker(t) for t in tasks[j::k]]


def _run_tasks(cfg: ExperimentConfig, tasks, worker):
    """Run ``worker(task)`` over all tasks; results in task order.

    With k > 1 workers, worker j runs every k-th task starting at j, so each
    gets an even share of every sample size.  Worker 0 is this process; the
    others are forked for the call, so they inherit ``worker`` and the
    compiled run it closes over (neither can be pickled), and they send back
    only their shares' results.  The CLI has no other thread for a fork to
    cut off.  Without ``fork``, the tasks run here, as with k = 1."""
    global _JOB
    k = min(cfg.threads, len(tasks))
    if k > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if k <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [worker(t) for t in tasks]
    _JOB = tasks, worker
    try:
        with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_share, j, k) for j in range(1, k)]
            shares = [_share(0, k)] + [f.result() for f in futures]
    finally:
        _JOB = None
    results = [None] * len(tasks)
    for j, share in enumerate(shares):
        results[j::k] = share
    return results


def _replications(cfg: ExperimentConfig, one):
    """Run ``one(n_idx, reps)``, which returns one value per replication of
    the chunk ``reps``, for every chunk on the pool; then yield
    ``(n, values, messages)`` per sample size, in grid order: the values of
    the replications that succeeded (empty where every one failed) and the
    failure messages of the others.

    A chunk that raises :class:`EivError` runs again one replication at a
    time, and a replication that raises alone fails with that message.  When
    no replication succeeded at all, raises :class:`ReplicationsFailed`
    before yielding.
    """

    def attempt(task):
        n_idx, reps = task
        try:
            return [(True, value) for value in one(n_idx, reps)]
        except EivError as exc:
            if len(reps) == 1:
                return [(False, str(exc))]
        return [outcome for rep in reps for outcome in attempt((n_idx, (rep,)))]

    results = [outcome for chunk in _run_tasks(cfg, _chunks(cfg), attempt) for outcome in chunk]
    if not any(ok for ok, _ in results):
        raise ReplicationsFailed(
            f"all {len(results)} replications failed; first failure: {results[0][1]}"
        )
    for i, n in enumerate(cfg.n_grid):
        chunk = results[i * cfg.replications : (i + 1) * cfg.replications]
        yield n, [value for ok, value in chunk if ok], [value for ok, value in chunk if not ok]


def _slope(rows: list[dict], statistic: str) -> float:
    """Log-log slope over n of the positive per-n values of ``statistic``."""
    pairs = [(r["n"], r["value"]) for r in rows if r["statistic"] == statistic and r["value"] > 0]
    if len(pairs) < 2:
        return float("nan")
    logs_n = np.log([p[0] for p in pairs])
    logs_v = np.log([p[1] for p in pairs])
    return float(np.polyfit(logs_n, logs_v, 1)[0])


def _run(cfg: ExperimentConfig, experiment: str, compile, slopes=()) -> McReport:
    """Run one suite and report it.

    ``compile(cfg)`` checks the config, computes the per-spec invariants
    once and returns ``(one, rows)``: ``one(n_idx, reps)`` gives one outcome
    per replication of a chunk (see :func:`_replications`), ``rows(n, oks)``
    the rows of sample size n from its successful outcomes.  Every n then
    gets a ``failure_rate`` row, last, and the report ends with one row
    ``{"statistic": name, "value": slope}`` per ``(name, statistic)`` in
    ``slopes``: the log-log slope of that per-n statistic.
    """
    t0 = time.perf_counter()
    one, rows = compile(cfg)
    report = McReport(experiment, provenance=_provenance(cfg, experiment))
    for n, oks, messages in _replications(cfg, one):
        report.failures += [{"n": n, "message": message} for message in messages]
        if oks:
            report.rows += rows(n, oks)
        report.rows.append({"n": n, "statistic": "failure_rate", "value": 1.0 - len(oks) / cfg.replications})
    report.rows += [{"statistic": name, "value": _slope(report.rows, stat)} for name, stat in slopes]
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def _check_fit_size(cfg: ExperimentConfig) -> None:
    """Reject a fit whose coefficients would not line up with the truth's."""
    for name in ("degree", "harmonics"):
        given, own = getattr(cfg, name), getattr(cfg.spec, name, None)
        if given is not None and own is not None and given != own:
            raise SpecError(
                [f"{name} {given} differs from the spec's {own}; coefficient errors need the spec's"]
            )


# ---------------------------------------------------------------------------
# suites: a compile function for _run each, and the driver that runs it
# ---------------------------------------------------------------------------


def _consistency(cfg: ExperimentConfig):
    def score(stack, subjects, pred):
        out = []
        for i, subject in enumerate(subjects):
            fit = stack[i]
            z0 = None if pred.z0 is None else pred.z0[i]
            best = np.atleast_1d(true_params.predict(z0, subject.x0))
            err = float(np.linalg.norm(pred.point[i] - best))
            coef_rel = float(
                np.linalg.norm(_coef_vector(fit.params) - true_vec) / max(true_norm, 1e-300)
            )
            mean_rel = None
            if cross is not None:
                mpred = predict_mean(fit, z0, subject.x0, cross)
                mtrue = _true_mean_point(cfg.spec, best, subject.x0)
                mean_rel = float(
                    np.linalg.norm(mpred.point - mtrue) / max(float(np.linalg.norm(mtrue)), 1e-12)
                )
            out.append((err, coef_rel, mean_rel))
        return out

    one = _fitted_prediction(cfg, score)  # its Sampler checks the spec before transform sees it
    _check_fit_size(cfg)
    true_params = transform(cfg.spec)
    true_vec = _coef_vector(true_params)
    true_norm = float(np.linalg.norm(true_vec))
    cross = cfg.spec.gaussian_blocks()[2].sigma_eps_delta if cfg.mean_prediction else None

    def rows(n, oks):
        errs, coefs, mean_rels = (np.array(column) for column in zip(*oks))
        out = [
            {"n": n, "statistic": "median_abs_prediction_error", "value": float(np.median(errs))},
            {"n": n, "statistic": "q90_abs_prediction_error", "value": float(np.quantile(errs, 0.9))},
            {"n": n, "statistic": "median_rel_coef_error", "value": float(np.median(coefs))},
        ]
        if cross is not None:
            value = float(np.median(mean_rels))
            out.append({"n": n, "statistic": "median_rel_mean_prediction_error", "value": value})
        return out

    return one, rows


def _check_regions(cfg: ExperimentConfig) -> None:
    """Reject region settings that would fail every replication."""
    problems = [f"{name} must be non-empty" for name in ("alphas", "region_kinds") if not getattr(cfg, name)]
    if not all(0 < alpha < 1 for alpha in cfg.alphas):
        problems.append(f"alphas must lie in (0, 1), got {list(cfg.alphas)}")
    unknown = [kind for kind in cfg.region_kinds if kind not in REGION_KINDS]
    if unknown:
        problems.append(f"unknown region kinds {unknown}")
    if "quadratic_bound" in cfg.region_kinds:
        if not isinstance(cfg.spec, QuadraticSpec):
            problems.append("quadratic_bound regions apply to the quadratic family only")
        if not (cfg.k0 is not None and 0 < cfg.k0 <= 0.5):
            problems.append("quadratic_bound regions need k0 in (0, 1/2] in the experiment config")
    if problems:
        raise SpecError(problems)


def _coverage(cfg: ExperimentConfig):
    _check_regions(cfg)
    cells = [(kind, alpha) for kind in cfg.region_kinds for alpha in cfg.alphas]

    def score(stack, subjects, pred):
        y0 = np.array([s.y0 for s in subjects])
        inside = [
            region_contains(
                build_region(kind, stack, pred, alpha, purely_normal=cfg.purely_normal, k0=cfg.k0), y0
            ).tolist()
            for kind, alpha in cells
        ]
        return list(zip(*inside))

    def rows(n, oks):
        out = []
        for (kind, alpha), hits in zip(cells, zip(*oks)):
            p = float(np.mean(hits))
            se = float(np.sqrt(p * (1.0 - p) / len(oks)))
            out.append({"n": n, "alpha": alpha, "kind": kind, "statistic": "coverage", "value": p, "se": se})
        return out

    return _fitted_prediction(cfg, score), rows


def _abs_failure(cfg: ExperimentConfig):
    if not isinstance(cfg.spec, AbsSpec):
        raise SpecError([f"the abs_failure suite needs an absolute_value spec, got {cfg.spec.family}"])
    sampler = Sampler(cfg.spec)
    true_params = transform(cfg.spec)

    def one_replication(n_idx, rep):
        data = sampler.sample(
            cfg.n_grid[n_idx], derive_seed(cfg.master_seed, 1, n_idx, rep), keep_hidden=False
        )
        fit = nls_fit(data, "absolute_value")
        naive_scale, naive_shift = naive_ols_abs(data)
        test = sampler.sample(
            cfg.test_subjects, derive_seed(cfg.master_seed, 5, n_idx, rep), keep_hidden=False
        )
        xs = test.x
        best = predict_rows(true_params, None, xs)[:, 0]
        ls_pred = predict_rows(fit.params, None, xs)[:, 0]
        naive_pred = naive_scale * np.abs(xs[:, 0] + naive_shift)
        ls_sq = (ls_pred - best) ** 2
        naive_sq = (naive_pred - best) ** 2
        diff = naive_sq - ls_sq
        return (
            float(np.mean(ls_sq)),
            float(np.mean(naive_sq)),
            float(np.mean(diff)),
            float(np.std(diff, ddof=1) / np.sqrt(diff.shape[0])),
        )

    def rows(n, oks):
        ls_mse, naive_mse, gap, gap_se = (float(np.median(column)) for column in zip(*oks))
        return [
            {"n": n, "statistic": "ls_predictor_mse", "value": ls_mse},
            {"n": n, "statistic": "naive_predictor_mse", "value": naive_mse},
            {"n": n, "statistic": "mse_gap", "value": gap, "se": gap_se},
        ]

    return (lambda n_idx, reps: [one_replication(n_idx, rep) for rep in reps]), rows


def run_consistency(cfg: ExperimentConfig) -> McReport:
    """Prediction and coefficient errors of the fitted predictor versus the
    true best predictor, across the sample-size grid."""
    slopes = (
        ("prediction_error_loglog_slope", "median_abs_prediction_error"),
        ("coef_error_loglog_slope", "median_rel_coef_error"),
    )
    return _run(cfg, "consistency", _consistency, slopes)


def run_coverage(cfg: ExperimentConfig) -> McReport:
    """Empirical coverage of the requested regions at each (n, alpha)."""
    return _run(cfg, "coverage", _coverage)


def run_abs_failure(cfg: ExperimentConfig) -> McReport:
    """Out-of-sample comparison of the folded-normal least-squares predictor
    against the naive plug-in predictor for the absolute-value family.

    Both predictors are scored against the true best predictor on fresh test
    subjects; the gap row carries the paired-difference standard error.
    """
    return _run(cfg, "abs_failure", _abs_failure, (("ls_mse_loglog_slope", "ls_predictor_mse"),))
