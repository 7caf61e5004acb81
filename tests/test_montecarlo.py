"""Monte Carlo experiment drivers: determinism, coverage, comparisons."""

import re
import warnings

import numpy as np
import pytest

from eivpred import estimators, linalg, models, montecarlo, predictors, transform
from eivpred.errors import ReplicationsFailed, SpecError
from eivpred.rng import make_rng

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    same_bits,
)


def coverage_config(**overrides):
    base = dict(
        spec=make_linear_spec(sigma_e=[[0.0]]),
        n_grid=(800,),
        replications=2000,
        alphas=(0.5,),
        master_seed=101,
        threads=2,
        region_kinds=("chebyshev", "chi_square"),
        purely_normal=True,
    )
    base.update(overrides)
    return montecarlo.ExperimentConfig(**base)


class TestConfig:
    def test_ascending_grid_required(self):
        with pytest.raises(SpecError):
            montecarlo.ExperimentConfig(
                spec=make_linear_spec(), n_grid=(100, 100), replications=2, master_seed=0
            )

    def test_replication_floor(self):
        with pytest.raises(SpecError):
            montecarlo.ExperimentConfig(
                spec=make_linear_spec(), n_grid=(100,), replications=0, master_seed=0
            )


class TestConsistency:
    def test_zero_noise_errors_vanish(self):
        spec = make_linear_spec(
            sigma_e=[[0.0]], sigma_eps=[[0.0]], sigma_delta=[[0.0]], sigma_eps_delta=[[0.0]]
        )
        cfg = montecarlo.ExperimentConfig(
            spec=spec, n_grid=(100, 400), replications=20, master_seed=3
        )
        report = montecarlo.run_consistency(cfg)
        for n in (100, 400):
            assert report.value("median_abs_prediction_error", n=n) <= 1e-10
            assert report.value("failure_rate", n=n) == 0.0

    def test_errors_shrink_with_n(self):
        cfg = montecarlo.ExperimentConfig(
            spec=make_linear_spec(), n_grid=(500, 8000), replications=60, master_seed=5
        )
        report = montecarlo.run_consistency(cfg)
        small = report.value("median_abs_prediction_error", n=500)
        large = report.value("median_abs_prediction_error", n=8000)
        assert large < small

    def test_mean_prediction_tracked_and_small(self):
        spec = make_linear_spec(sigma_eps_delta=[[0.2]])
        cfg = montecarlo.ExperimentConfig(
            spec=spec,
            n_grid=(20_000,),
            replications=40,
            master_seed=7,
            mean_prediction=True,
        )
        report = montecarlo.run_consistency(cfg)
        assert report.value("median_rel_mean_prediction_error", n=20_000) < 0.05

    def test_mean_prediction_polynomial_family(self):
        from conftest import make_poly_spec

        cfg = montecarlo.ExperimentConfig(
            spec=make_poly_spec(),
            n_grid=(20_000,),
            replications=40,
            master_seed=9,
            mean_prediction=True,
        )
        report = montecarlo.run_consistency(cfg)
        assert report.value("median_rel_mean_prediction_error", n=20_000) < 0.05

    def test_sample_size_where_every_replication_failed_reports_rate_one(self):
        cfg = montecarlo.ExperimentConfig(
            spec=make_linear_spec(), n_grid=(2, 200, 400), replications=4, master_seed=3
        )
        report = montecarlo.run_consistency(cfg)
        assert report.value("failure_rate", n=2) == 1.0
        assert [f["n"] for f in report.failures] == [2] * 4
        assert [r["statistic"] for r in report.rows if r.get("n") == 2] == ["failure_rate"]
        assert report.rows[0] == {"n": 2, "statistic": "failure_rate", "value": 1.0}
        assert report.value("failure_rate", n=200) == 0.0

    @pytest.mark.parametrize(
        "driver, spec",
        [
            (montecarlo.run_consistency, make_linear_spec()),
            (montecarlo.run_coverage, make_linear_spec()),
            (montecarlo.run_abs_failure, make_abs_spec()),
        ],
    )
    # the non-finite response is on purpose, and so are numpy's warnings on it
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_every_sample_size_ends_with_one_failure_rate_row(self, driver, spec, monkeypatch):
        """The first n is below the fit's smallest sample, so every replication
        fails there; at n = 50 replication 1 gets a non-finite response."""
        poisoned = montecarlo.derive_seed(0, 1, 1, 1)

        class Damaging(models.Sampler):
            def sample(self, n, seed, *, keep_hidden=True):  # the abs_failure draw
                data = super().sample(n, seed, keep_hidden=keep_hidden)
                if seed == poisoned:
                    data.y[0, 0] = np.inf
                return data

            def samples(self, n, seeds):  # the stacked draw of the fitted suites
                y, z, x = super().samples(n, seeds)
                y[[seed == poisoned for seed in seeds], 0, 0] = np.inf
                return y, z, x

        small = estimators.min_sample_size(spec.family, spec.z_dim, spec.latent_dim) - 1
        cfg = montecarlo.ExperimentConfig(
            spec=spec, n_grid=(small, 50, 80), replications=3, master_seed=0, test_subjects=20
        )
        monkeypatch.setattr(montecarlo, "Sampler", Damaging)
        report = driver(cfg)
        for n, rate in {small: 1.0, 50: 1.0 - 2 / 3, 80: 0.0}.items():
            statistics = [r["statistic"] for r in report.rows if r.get("n") == n]
            assert statistics.count("failure_rate") == 1 and statistics[-1] == "failure_rate"
            assert report.value("failure_rate", n=n) == rate
        assert [f["n"] for f in report.failures] == [small] * 3 + [50]

    @pytest.mark.parametrize(
        "driver, spec",
        [
            (montecarlo.run_consistency, make_linear_spec()),
            (montecarlo.run_coverage, make_linear_spec()),
            (montecarlo.run_abs_failure, make_abs_spec()),
        ],
    )
    def test_every_replication_failed_raises(self, driver, spec):
        cfg = montecarlo.ExperimentConfig(spec=spec, n_grid=(2,), replications=3, master_seed=0)
        with pytest.raises(ReplicationsFailed, match="all 3 replications failed; first failure: "):
            driver(cfg)

    def test_consistency_with_nonlinear_family(self):
        from conftest import make_exponential_spec

        cfg = montecarlo.ExperimentConfig(
            spec=make_exponential_spec(sigma2_e=0.05, sigma2_delta=0.5),
            n_grid=(2_000,),
            replications=10,
            master_seed=11,
        )
        report = montecarlo.run_consistency(cfg)
        assert report.value("failure_rate", n=2_000) == 0.0
        assert report.value("median_rel_coef_error", n=2_000) < 0.2


class TestCoverage:
    def test_purely_normal_half_alpha(self):
        report = montecarlo.run_coverage(coverage_config())
        cov = report.value("coverage", n=800, alpha=0.5, kind="chi_square")
        assert abs(cov - 0.5) <= 0.03

    def test_distribution_free_region_wider(self):
        report = montecarlo.run_coverage(coverage_config())
        cheb = report.value("coverage", n=800, alpha=0.5, kind="chebyshev")
        chi = report.value("coverage", n=800, alpha=0.5, kind="chi_square")
        assert cheb >= chi  # nesting on the same draws

    def test_every_coverage_row_has_binomial_se(self):
        report = montecarlo.run_coverage(coverage_config(replications=500))
        rows = [r for r in report.rows if r["statistic"] == "coverage"]
        assert rows
        for row in rows:
            p, reps = row["value"], 500
            assert row["se"] == pytest.approx(np.sqrt(p * (1 - p) / reps), abs=1e-12)

    def test_quadratic_interval_slack_floor_covers_more(self):
        tight = montecarlo.ExperimentConfig(
            spec=make_quadratic_spec(reliability_floor=0.5),  # the true reliability
            n_grid=(2000,),
            replications=800,
            alphas=(0.1,),
            master_seed=17,
            threads=2,
            region_kinds=("quadratic_bound",),
        )
        slack = montecarlo.ExperimentConfig(
            spec=make_quadratic_spec(reliability_floor=0.3),
            n_grid=(2000,),
            replications=800,
            alphas=(0.1,),
            master_seed=17,
            threads=2,
            region_kinds=("quadratic_bound",),
        )
        cov_tight = montecarlo.run_coverage(tight).value(
            "coverage", n=2000, alpha=0.1, kind="quadratic_bound"
        )
        cov_slack = montecarlo.run_coverage(slack).value(
            "coverage", n=2000, alpha=0.1, kind="quadratic_bound"
        )
        assert cov_slack >= cov_tight

    def test_fixed_subject_mode(self):
        cfg = coverage_config(replications=300, fixed_subject=True, alphas=(0.1,))
        report = montecarlo.run_coverage(cfg)
        cov = report.value("coverage", n=800, alpha=0.1, kind="chi_square")
        assert 0.8 <= cov <= 0.99


class TestDeterminism:
    def test_reports_identical_across_thread_counts(self):
        reports = []
        for threads in (1, 3):
            cfg = coverage_config(replications=300, threads=threads)
            reports.append(montecarlo.run_coverage(cfg))
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].to_csv() == reports[1].to_csv()

    def test_consistency_report_identical_across_threads(self):
        cfgs = [
            montecarlo.ExperimentConfig(
                spec=make_linear_spec(),
                n_grid=(300, 900),
                replications=40,
                master_seed=23,
                threads=t,
            )
            for t in (1, 4)
        ]
        a, b = (montecarlo.run_consistency(c) for c in cfgs)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("threads", [2, 3, 12])
    def test_pool_runs_each_task_once_in_interleaved_shares(self, threads, tmp_path):
        """Each task logs its process id to a file, since a forked worker
        cannot append to this process's lists; the first task of every share
        waits at a barrier of k parties, so each share must be running in a
        process of its own."""
        import multiprocessing
        import os

        tasks = [(0, r) for r in range(10)]
        k = min(threads, len(tasks))
        barrier = multiprocessing.get_context("fork").Barrier(k)
        log = tmp_path / "ran.txt"

        def worker(task):
            with open(log, "a") as fh:
                fh.write(f"{task[1]} {os.getpid()}\n")
            if task[1] < k:
                barrier.wait(timeout=60)
            return task[1] ** 2

        cfg = coverage_config(replications=10, threads=threads)
        assert montecarlo._run_tasks(cfg, tasks, worker) == [r**2 for r in range(10)]
        ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(r for r, _ in ran) == list(range(10))
        owner = dict(ran)
        for j in range(k):
            assert len({owner[r] for _, r in tasks[j::k]}) == 1
        assert len(set(owner.values())) == k
        assert owner[0] == os.getpid()
        assert multiprocessing.active_children() == []

    def test_wall_clock_not_serialized(self):
        cfg = coverage_config(replications=50)
        report = montecarlo.run_coverage(cfg)
        assert report.elapsed_seconds > 0
        assert "elapsed" not in report.to_json()


class TestAbsFailure:
    def test_vanishing_error_gap_is_negligible(self):
        # in the no-measurement-error limit both predictors are consistent:
        # the gap and both mean squared errors collapse by orders of magnitude
        spec = make_abs_spec(sigma2_delta=1e-4)
        cfg = montecarlo.ExperimentConfig(
            spec=spec, n_grid=(20_000,), replications=1, master_seed=31, test_subjects=5000
        )
        report = montecarlo.run_abs_failure(cfg)
        scale = spec.scale**2 * (spec.latent_var + spec.shift**2)  # ~ E[y^2] size
        assert abs(report.value("mse_gap", n=20_000)) <= 1e-3 * scale
        assert report.value("ls_predictor_mse", n=20_000) <= 1e-3 * scale
        assert report.value("naive_predictor_mse", n=20_000) <= 1e-3 * scale

    def test_gap_positive_under_measurement_error(self):
        cfg = montecarlo.ExperimentConfig(
            spec=make_abs_spec(),
            n_grid=(20_000,),
            replications=1,
            master_seed=37,
            test_subjects=5000,
        )
        report = montecarlo.run_abs_failure(cfg)
        gap = report.value("mse_gap", n=20_000)
        rows = [r for r in report.rows if r["statistic"] == "mse_gap"]
        assert gap > 4 * rows[0]["se"]

    def test_wrong_family_rejected(self):
        cfg = montecarlo.ExperimentConfig(
            spec=make_linear_spec(), n_grid=(100,), replications=1, master_seed=0
        )
        with pytest.raises(SpecError, match="needs an absolute_value spec, got linear"):
            montecarlo.run_abs_failure(cfg)


class TestFailFast:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(alphas=(1.5,)), "alphas must lie in (0, 1)"),
            (dict(alphas=(0.0, 0.1)), "alphas must lie in (0, 1)"),
            (dict(spec=make_quadratic_spec(), region_kinds=("quadratic_bound",)), "k0 in (0, 1/2]"),
            (
                dict(spec=make_quadratic_spec(reliability_floor=0.7), region_kinds=("quadratic_bound",)),
                "k0 in (0, 1/2]",
            ),
            (dict(region_kinds=("quadratic_bound",)), "quadratic family only"),
            (dict(region_kinds=("ellipse",)), "unknown region kinds"),
            (dict(spec=make_linear_spec(latent_cov=[[-1.0]])), "not PSD"),
        ],
    )
    def test_invalid_coverage_run_raises_before_the_loop(self, overrides, message):
        cfg = coverage_config(replications=5, threads=1, **overrides)
        with pytest.raises(SpecError, match=re.escape(message)):
            montecarlo.run_coverage(cfg)

    @pytest.mark.parametrize("driver", [montecarlo.run_consistency, montecarlo.run_abs_failure])
    def test_invalid_spec_raises_before_the_loop(self, driver):
        cfg = montecarlo.ExperimentConfig(
            spec=make_abs_spec(sigma2_e=-1.0), n_grid=(50,), replications=2, master_seed=0
        )
        with pytest.raises(SpecError, match="sigma2_e negative"):
            driver(cfg)


# Where the package binds each counted function; callers look them up there.
_MODULES = (models, estimators, predictors, montecarlo, transform, linalg)
_COUNTED = (
    (linalg, "cholesky_psd"),
    (linalg, "min_eigenvalue"),
    (linalg, "pinv"),
    (linalg, "sym_sqrt"),
)


def _count_calls(monkeypatch) -> dict:
    counts = {}
    for owner, name in _COUNTED:
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in _MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _coverage_counts(replications: int, **overrides) -> dict:
    cfg = coverage_config(
        n_grid=(60,), replications=replications, alphas=(0.05, 0.1), threads=1, **overrides
    )
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_calls(mp)
        report = montecarlo.run_coverage(cfg)
    assert report.failures == []
    return counts


class TestSpecCompiledOnce:
    @pytest.mark.parametrize("fixed_subject", [False, True])
    def test_spec_work_does_not_grow_with_replications(self, fixed_subject):
        small = _coverage_counts(5, fixed_subject=fixed_subject)
        large = _coverage_counts(10, fixed_subject=fixed_subject)
        assert small["cholesky_psd"] > 0
        extra = {name: large[name] - small[name] for name in small}
        # Both runs fit their replications as one chunk (n = 60), so the
        # chunk's pinv in OLS, its pinv, sym_sqrt and near-singularity check
        # for the shared region shapes are one call each, however many
        # replications the chunk holds.
        assert extra == {
            "cholesky_psd": 0,
            "min_eigenvalue": 0,
            "pinv": 0,
            "sym_sqrt": 0,
        }

    @pytest.mark.parametrize(
        "driver, spec",
        [
            (montecarlo.run_coverage, make_linear_spec()),
            (montecarlo.run_consistency, make_linear_spec()),
            (montecarlo.run_abs_failure, make_abs_spec()),
        ],
    )
    def test_one_sampler_per_run(self, driver, spec, monkeypatch):
        built = []

        class CountingSampler(models.Sampler):
            def __init__(self, spec):
                built.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(montecarlo, "Sampler", CountingSampler)
        cfg = montecarlo.ExperimentConfig(
            spec=spec, n_grid=(50, 80), replications=3, master_seed=1, test_subjects=20
        )
        assert driver(cfg).failures == []
        assert built == [spec]


def _chunked_and_single(monkeypatch, driver, cfg) -> tuple[str, str]:
    """A report's JSON at the default chunking and at one replication per chunk."""
    default = driver(cfg).to_json()
    with monkeypatch.context() as mp:
        mp.setattr(montecarlo, "_CHUNK_ROWS", 1)
        single = driver(cfg).to_json()
    return default, single


# n_grid (30, 200, 5000) with 45 replications: one chunk of 45, chunks of
# 20, 20 and 5, and 45 chunks of one
_GRID = dict(n_grid=(30, 200, 5000), replications=45, master_seed=41, threads=1)


class TestChunking:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alphas=(0.05, 0.5)),
            dict(alphas=(0.05, 0.5), fixed_subject=True),
            dict(spec=make_linear_spec(d=2, q=2, m=2), purely_normal=False),
            dict(
                spec=make_quadratic_spec(reliability_floor=0.4),
                region_kinds=predictors.REGION_KINDS,
                alphas=(0.1,),
            ),
            dict(
                spec=make_quadratic_spec(reliability_floor=0.5),
                region_kinds=("quadratic_bound",),
                fixed_subject=True,
            ),
            dict(spec=make_poly_spec(), region_kinds=("chi_square",)),
            dict(spec=make_exponential_spec(), n_grid=(40, 300), replications=6),
        ],
        ids=["linear", "linear-fixed", "linear-2d", "quadratic-all-kinds", "quadratic-fixed", "poly", "nls"],
    )
    def test_coverage_report_does_not_depend_on_chunking(self, monkeypatch, overrides):
        cfg = coverage_config(**{**_GRID, **overrides})
        default, single = _chunked_and_single(monkeypatch, montecarlo.run_coverage, cfg)
        assert default == single

    @pytest.mark.parametrize(
        "spec",
        [
            make_linear_spec(sigma_eps_delta=[[0.2]]),
            make_linear_spec(d=2, q=1, m=2, sigma_eps_delta=[[0.1, 0.0], [0.0, 0.2]]),
            make_poly_spec(),
            make_quadratic_spec(),
            make_exponential_spec(),
        ],
        ids=["linear", "linear-2d", "poly", "quadratic", "exponential"],
    )
    def test_consistency_report_does_not_depend_on_chunking(self, monkeypatch, spec):
        cfg = montecarlo.ExperimentConfig(spec=spec, mean_prediction=spec.family != "quadratic", **_GRID)
        default, single = _chunked_and_single(monkeypatch, montecarlo.run_consistency, cfg)
        assert default == single

    def test_chunk_size_follows_the_row_budget(self):
        cfg = coverage_config(**_GRID)
        sizes = [(cfg.n_grid[i], len(reps)) for i, reps in montecarlo._chunks(cfg)]
        assert sizes == [(30, 45), (200, 20), (200, 20), (200, 5)] + [(5000, 1)] * 45

    @pytest.mark.parametrize("driver", [montecarlo.run_coverage, montecarlo.run_consistency])
    @pytest.mark.parametrize("rows", [montecarlo._CHUNK_ROWS, 1])
    def test_a_failed_replication_fails_alone_and_warnings_stay_one_per_fit(
        self, monkeypatch, driver, rows
    ):
        """Replication 5 of a 12-replication chunk gets a non-finite response,
        and replications 2 and 5 collinear regressors: 5 alone gets a failure
        row, with the message it gets in a chunk of one, and each of 2 and 5
        warns exactly once, although their chunk runs twice."""
        cfg = coverage_config(n_grid=(100,), replications=12, threads=1)
        poisoned = montecarlo.derive_seed(cfg.master_seed, 1, 0, 5)
        collinear = montecarlo.derive_seed(cfg.master_seed, 1, 0, 2)

        class Damaging(models.Sampler):
            def samples(self, n, seeds):
                y, z, x = super().samples(n, seeds)
                y[[seed == poisoned for seed in seeds], 7, 0] = np.inf
                for i, seed in enumerate(seeds):
                    if seed in (collinear, poisoned):
                        z[i] = x[i]
                return y, z, x

        monkeypatch.setattr(montecarlo, "Sampler", Damaging)
        monkeypatch.setattr(montecarlo, "_CHUNK_ROWS", rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = driver(cfg)
        assert report.failures == [{"n": 100, "message": "prediction is not finite"}]
        assert report.value("failure_rate", n=100) == 1.0 - 11 / 12
        conditioning = [str(w.message) for w in caught if w.category is UserWarning]
        assert conditioning == ["regressor covariance condition number inf"] * 2


@pytest.mark.parametrize("reps", [1, 3, 20])
@pytest.mark.parametrize(
    "spec",
    [
        make_linear_spec(),
        make_linear_spec(d=2, q=2, m=2),
        make_poly_spec(),
        make_quadratic_spec(),
        make_exponential_spec(),
        make_abs_spec(),
    ],
    ids=["linear", "linear-2d", "polynomial", "quadratic", "exponential", "absolute_value"],
)
def test_fixed_subject_chunk_equals_its_per_replication_draws(spec, reps):
    """A chunk's conditional draws at the fixed subject, stacked, equal each
    replication's draw alone and the one-replication formula: (g1, g2) =
    L @ normals, then the equation error, from that replication's stream."""
    fixed = models.Sampler(spec).new_subject(4)
    draw = montecarlo._conditional_subject(spec, fixed)
    streams = [(9, 3, 0, rep) for rep in range(reps)]
    chunk = draw([make_rng(*stream) for stream in streams])
    cg = transform.condition_gaussian(spec)
    mu, _, errors = spec.gaussian_blocks()
    cond_factor, e_factor = linalg.cholesky_psd(cg.cond_cov), linalg.cholesky_psd(errors.sigma_e)
    m = spec.latent_dim
    for r, stream in enumerate(streams):
        alone = draw([make_rng(*stream)])
        for name in ("z0", "x0", "y0", "eta0", "xi0"):
            assert same_bits(getattr(chunk, name)[r], getattr(alone, name)[0])
        rng = make_rng(*stream)
        g = cond_factor @ rng.standard_normal(cond_factor.shape[0])
        e0 = e_factor @ rng.standard_normal(e_factor.shape[0])
        xi0 = cg.xi_offset + cg.xi_coef @ fixed.x0 + g[:m]
        eps0 = cg.eps_coef @ (fixed.x0 - mu) + g[m:]
        eta0 = spec.regression(fixed.z0[None, :], xi0[None, :])[0]
        assert same_bits(chunk.xi0[r], xi0) and same_bits(chunk.eta0[r], eta0)
        assert same_bits(chunk.y0[r], eta0 + e0 + eps0)
        assert same_bits(chunk.z0[r], fixed.z0) and same_bits(chunk.x0[r], fixed.x0)
