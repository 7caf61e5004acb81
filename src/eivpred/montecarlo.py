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
``max(1, _CHUNK_ROWS // n)``.  The suites that score fitted predictions draw
a chunk's datasets and subjects as stacked ``(R, n, .)`` arrays in one
:meth:`~eivpred.models.Sampler.draw` each, each replication's rows from its
own counter-based streams; they fit the datasets into one stack of fits, a
:class:`~eivpred.estimators.FittedModel` whose arrays carry a leading axis
over the chunk (:func:`~eivpred.estimators.fit_stack`), and compute its
predictions, regions and memberships for the whole stack on the one-fit
code path (:func:`_fitted_prediction`).  Every stacked quantity, the draws
included, equals the one-replication value to the bit.  When a chunk raises
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

import numpy as np

from . import __version__
from .errors import EivError, ReplicationsFailed, SpecError
from .estimators import FAMILIES, MAX_POLY_DEGREE, fit_stack, min_sample_size, naive_ols_abs, nls_fit
from .linalg import cholesky_psd
from .models import AbsSpec, LinearSpec, ModelSpec, NewSubject, QuadraticSpec, Sampler, raw_draws, spec_to_dict
from .predictors import (
    REGION_KINDS,
    build_region,
    predict_individual,
    predict_mean,
    region_contains,
)
from .rng import derive_seed, derive_seeds, make_rngs
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
    fixed_subject: bool = False  # condition on one (z0, x0) instead of redrawing
    mean_prediction: bool = False  # also track the noiseless-value predictor
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


def _coef_vector(params, lead: tuple[int, ...] = ()) -> np.ndarray:
    """The coefficients of ``params`` as one vector, or one row per fit for
    the ``params`` of a stack of fits with leading shape ``lead``."""
    fields = FAMILIES[params.family].fields
    return np.concatenate([np.reshape(getattr(params, f), lead + (-1,)) for f in fields], axis=-1)


def _true_mean_point(spec: ModelSpec, best_point: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Noiseless-value predictor from the true model parameters, row by row:
    ``best_point`` (R, d) is the best prediction at each row of ``x0`` (R, m)."""
    if isinstance(spec, LinearSpec):
        cross = spec.errors.sigma_eps_delta
        dev = np.linalg.solve(spec.x_cov, (x0 - spec.latent_mean)[..., None])
        return best_point - (cross @ dev)[..., 0]
    cross = float(spec.sigma_eps_delta)
    return best_point - cross / spec.x_var * (x0 - spec.latent_mean)


def _conditional_subject(spec: ModelSpec, fixed: NewSubject):
    """Draws of a fresh response at the fixed (z0, x0) of ``fixed``, from the
    exact conditional law; its moments and factors are computed once here.

    ``draw(rngs)`` gives one subject per generator, stacked as
    :meth:`~eivpred.models.Sampler.subjects` stacks them: each generator
    draws the conditional Gaussian (g1, g2), then the equation error, each
    block transformed row by row as ``(k, k) @ (k, 1)`` products, so row r
    equals the draw from ``rngs[r]`` alone to the bit."""
    cg = condition_gaussian(spec)
    m = cg.xi_coef.shape[0]
    mu, _, errors = spec.gaussian_blocks()
    x0 = fixed.x0
    mean_xi = cg.xi_offset + cg.xi_coef @ x0
    mean_eps = cg.eps_coef @ (x0 - mu)
    cond_factor = cholesky_psd(cg.cond_cov)
    e_factor = cholesky_psd(errors.sigma_e)

    def draw(rngs) -> NewSubject:
        g = (cond_factor @ raw_draws(rngs, (cond_factor.shape[0], 1)))[..., 0]
        e0 = (e_factor @ raw_draws(rngs, (e_factor.shape[0], 1)))[..., 0]
        xi0 = mean_xi + g[:, :m]
        eps0 = mean_eps + g[:, m:]
        eta0 = spec.regression(fixed.z0[None, None, :], xi0[:, None, :])[:, 0]
        rows = (len(rngs), 1)
        return NewSubject(
            z0=np.tile(fixed.z0, rows), x0=np.tile(x0, rows), y0=eta0 + e0 + eps0, eta0=eta0, xi0=xi0
        )

    return draw


def _seed_table(cfg: ExperimentConfig, tag: int):
    """``(n_idx, reps) -> seeds``: the child seeds of the streams
    ``(master_seed, tag, n_idx, rep)`` of the replications ``reps``.  A
    process derives the seeds of every replication of a sample size in one
    pass, the first time it needs one of them: a pass costs about as much
    for one stream as for hundreds, and chunks can hold one replication."""
    table = {}

    def seeds(n_idx: int, reps) -> list[int]:
        if n_idx not in table:
            table[n_idx] = derive_seeds(cfg.master_seed, tag, n_idx, range(cfg.replications))
        return [table[n_idx][rep] for rep in reps]

    return seeds


def _subject_drawer(cfg: ExperimentConfig, sampler: Sampler):
    """``(n_idx, reps) -> NewSubject``, the prediction targets of the
    replications ``reps`` stacked: fresh subjects, or fresh responses at one
    fixed subject."""
    if not cfg.fixed_subject:
        seeds = _seed_table(cfg, 2)
        return lambda n_idx, reps: sampler.subjects(seeds(n_idx, reps))
    conditional = _conditional_subject(cfg.spec, sampler.new_subject(derive_seed(cfg.master_seed, 4)))
    return lambda n_idx, reps: conditional(make_rngs(cfg.master_seed, 3, n_idx, reps))


def check_sample_sizes(cfg: ExperimentConfig) -> None:
    """Reject a fit degree above ``MAX_POLY_DEGREE`` and ``n_grid`` entries
    below the smallest sample the run's fit accepts: each fails every
    replication.  The drivers themselves accept such runs and report their
    replications as failed; a front end calls this before the run instead."""
    spec = cfg.spec
    sizes = FAMILIES[spec.family].sizes(spec)
    degree = sizes.get("degree", 0)
    if degree > MAX_POLY_DEGREE:
        raise SpecError([f"degree {degree} above cap {MAX_POLY_DEGREE}; raw powers become too ill-conditioned"])
    need = min_sample_size(spec.family, spec.z_dim, spec.latent_dim, **sizes)
    small = [n for n in cfg.n_grid if n < need]
    if small:
        raise SpecError(
            [f"n_grid entries {small} are below {need}, the smallest sample a {spec.family} fit accepts"]
        )


def _fitted_prediction(cfg: ExperimentConfig, score):
    """``one(n_idx, reps)`` for a suite that scores fitted predictions: it
    draws the datasets of a chunk of replications of one sample size as one
    stack, fits them as one stack of fits (whose ``[i]`` is the fit of
    replication ``reps[i]``), draws the chunk's subjects as one stack,
    predicts for them, and returns ``score(stack, subjects, pred)``, one value
    per replication.

    Compiles the spec into one :class:`Sampler` for the run.  A chunk of one
    replication warns of an ill-conditioned fit right after fitting, as
    :func:`fit_family` does; a larger chunk warns only once it is scored (a
    chunk that fails runs again in chunks of one), so each fit warns once."""
    spec = cfg.spec
    sampler = Sampler(spec)
    seeds, draw_subjects = _seed_table(cfg, 1), _subject_drawer(cfg, sampler)
    sizes = FAMILIES[spec.family].sizes(spec)

    def one(n_idx: int, reps: tuple[int, ...]):
        data = sampler.samples(cfg.n_grid[n_idx], seeds(n_idx, reps))
        stack = fit_stack(data, spec.family, **sizes)
        if len(reps) == 1:
            stack.warn_ill_conditioned()
        subjects = draw_subjects(n_idx, reps)
        pred = predict_individual(stack, subjects.z0 if spec.z_dim else None, subjects.x0)
        scores = score(stack, subjects, pred)
        if len(reps) > 1:
            stack.warn_ill_conditioned()
        return scores

    return one


# A chunk of replications of sample size n holds max(1, _CHUNK_ROWS // n) of
# them.  The budget bounds the stacked arrays' memory; it depends on n only,
# and a report does not depend on how its replications are chunked.
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


def _slope(rows: list[dict], statistic: str) -> float | None:
    """Log-log slope over n of the positive per-n values of ``statistic``;
    None, undefined, where fewer than two sample sizes have one."""
    pairs = [(r["n"], r["value"]) for r in rows if r["statistic"] == statistic and r["value"] > 0]
    if len(pairs) < 2:
        return None
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
    ``slopes``: the log-log slope of that per-n statistic.  A slope that is
    undefined, with fewer than two sample sizes where the statistic is
    positive, gets no row, so a report never holds a NaN.
    """
    t0 = time.perf_counter()
    one, rows = compile(cfg)
    report = McReport(experiment, provenance=_provenance(cfg, experiment))
    for n, oks, messages in _replications(cfg, one):
        report.failures += [{"n": n, "message": message} for message in messages]
        if oks:
            report.rows += rows(n, oks)
        report.rows.append({"n": n, "statistic": "failure_rate", "value": 1.0 - len(oks) / cfg.replications})
    slope_rows = [{"statistic": name, "value": _slope(report.rows, stat)} for name, stat in slopes]
    report.rows += [row for row in slope_rows if row["value"] is not None]
    report.elapsed_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suites: a compile function for _run each, and the driver that runs it
# ---------------------------------------------------------------------------


def _norms(rows: np.ndarray) -> list[float]:
    """The 2-norm of each row, each taken alone: a norm along the last axis
    sums a row's squares in another order than the norm of one vector."""
    return [float(np.linalg.norm(row)) for row in rows]


def _consistency(cfg: ExperimentConfig):
    def score(stack, subjects, pred):
        z0 = None if pred.z0 is None else pred.z0[:, None]
        best = predict_rows(true_params, z0, pred.x0[:, None])[:, 0]
        errs = _norms(pred.point - best)
        coefs = _coef_vector(stack.params, (len(errs),)) - true_vec
        coef_rels = [err / max(true_norm, 1e-300) for err in _norms(coefs)]
        mean_rels = [None] * len(errs)
        if cross is not None:
            mtrue = _true_mean_point(cfg.spec, best, pred.x0)
            mean_errs = _norms(predict_mean(stack, pred.z0, pred.x0, cross).point - mtrue)
            mean_rels = [err / max(scale, 1e-12) for err, scale in zip(mean_errs, _norms(mtrue))]
        return list(zip(errs, coef_rels, mean_rels))

    one = _fitted_prediction(cfg, score)  # its Sampler checks the spec before transform sees it
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
        elif not 0 < (cfg.spec.reliability_floor or 0) <= 0.5:
            problems.append("quadratic_bound regions need the spec's reliability_floor k0 in (0, 1/2]")
    if problems:
        raise SpecError(problems)


def _coverage(cfg: ExperimentConfig):
    _check_regions(cfg)
    cells = [(kind, alpha) for kind in cfg.region_kinds for alpha in cfg.alphas]
    k0 = getattr(cfg.spec, "reliability_floor", None)

    def score(stack, subjects, pred):
        inside = [
            region_contains(
                build_region(kind, stack, pred, alpha, purely_normal=cfg.purely_normal, k0=k0), subjects.y0
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
        fit = nls_fit(data, cfg.spec.family)
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
