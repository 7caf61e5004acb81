"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np

from eivpred import estimators, models, montecarlo, oracle, predictors, transform
from eivpred.linalg import pinv

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    make_trig_spec,
)

THREADS = 4


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_moore_penrose_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        rank = int(rng.integers(1, dim + 1))
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.1, 3.0, rank) * rng.choice([-1.0, 1.0], rank)
        a = (basis * vals) @ basis.T
        p = pinv(a)
        scale_a = max(np.linalg.norm(a), 1e-300)
        scale_p = max(np.linalg.norm(p), 1e-300)
        ap, pa = a @ p, p @ a
        worst = max(
            worst,
            np.linalg.norm(a @ p @ a - a) / scale_a,
            np.linalg.norm(p @ a @ p - p) / scale_p,
            np.linalg.norm(ap - ap.T) / max(np.linalg.norm(ap), 1.0),
            np.linalg.norm(pa - pa.T) / max(np.linalg.norm(pa), 1.0),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"pseudo-inverse identities over 1000 matrices, worst {worst:.2e}, {elapsed:.1f}s",
    )


def _random_specs(rng):
    """20 randomized specs per family, parameter ranges kept numerically sane."""
    specs = []
    for _ in range(20):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        basis = rng.standard_normal((d + m, d + m))
        stacked = basis @ basis.T + 0.1 * np.eye(d + m)
        lat_basis = rng.standard_normal((m, m))
        specs.append(
            make_linear_spec(
                d=d,
                q=1,
                m=m,
                intercept=rng.standard_normal(d),
                z_slopes=rng.standard_normal((1, d)),
                latent_slopes=rng.standard_normal((m, d)),
                latent_mean=rng.standard_normal(m),
                latent_cov=lat_basis @ lat_basis.T + 0.1 * np.eye(m),
                sigma_e=np.zeros((d, d)),
                sigma_eps=stacked[:d, :d],
                sigma_delta=stacked[d:, d:],
                sigma_eps_delta=stacked[:d, d:],
            )
        )
    for _ in range(20):
        k = int(rng.integers(2, 5))
        specs.append(
            make_poly_spec(
                intercept=rng.standard_normal(),
                coefs=rng.standard_normal(k),
                latent_mean=rng.uniform(-1, 1),
                latent_var=rng.uniform(0.3, 1.5),
                sigma2_delta=rng.uniform(0.3, 1.5),
                sigma2_eps=rng.uniform(0.1, 0.5),
                sigma_eps_delta=rng.uniform(-0.15, 0.15),
            )
        )
    for _ in range(20):
        specs.append(
            make_quadratic_spec(
                intercept=rng.standard_normal(),
                slope=rng.standard_normal(),
                curvature=rng.standard_normal(),
                latent_mean=rng.uniform(-1, 1),
                latent_var=rng.uniform(0.3, 1.5),
                sigma2_delta=rng.uniform(0.3, 1.5),
            )
        )
    for _ in range(20):
        specs.append(
            make_exponential_spec(
                scale=rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                rate=rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0]),
                latent_mean=rng.uniform(-1, 1),
                latent_var=rng.uniform(0.3, 1.5),
                sigma2_delta=rng.uniform(0.3, 1.5),
            )
        )
    for _ in range(20):
        h = int(rng.integers(1, 4))
        specs.append(
            make_trig_spec(
                const=rng.standard_normal(),
                cos_amps=rng.standard_normal(h),
                sin_amps=rng.standard_normal(h),
                freq=rng.uniform(0.3, 1.5),
                latent_mean=rng.uniform(-1, 1),
                latent_var=rng.uniform(0.3, 1.5),
                sigma2_delta=rng.uniform(0.3, 1.5),
            )
        )
    for _ in range(20):
        specs.append(
            make_abs_spec(
                scale=rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]),
                shift=rng.uniform(-1.5, 1.5),
                latent_mean=rng.uniform(-1, 1),
                latent_var=rng.uniform(0.3, 1.5),
                sigma2_delta=rng.uniform(0.3, 1.5),
            )
        )
    return specs


def test_criterion_02_transform_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    worst_family = ""
    for spec in _random_specs(rng):
        params = transform.transform(spec)
        if isinstance(spec, models.LinearSpec):
            sd = np.sqrt(np.diag(spec.x_cov))
            center = spec.latent_mean
            z0 = rng.standard_normal(1)
            for t in np.linspace(-3, 3, 100):
                x0 = center + t * sd
                closed = params.predict(z0, x0)
                quad = oracle.conditional_expectation(spec, x0, nodes=24, z0=z0)
                err = float(np.max(np.abs(closed - quad)))
                if err > worst:
                    worst, worst_family = err, spec.family
            continue
        sd = np.sqrt(spec.x_var)
        z0 = None
        for x in np.linspace(spec.latent_mean - 3 * sd, spec.latent_mean + 3 * sd, 100):
            closed = params.predict(z0, x)
            quad = oracle.conditional_expectation(spec, x)
            err = abs(closed - quad)
            if err > worst:
                worst, worst_family = err, spec.family
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-8 and elapsed < 30.0,
        f"closed-form vs quadrature over 120 specs, worst {worst:.2e} ({worst_family}), {elapsed:.1f}s",
    )


def test_criterion_03_quadratic_coefficient_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(500):
        spec = make_poly_spec(
            intercept=rng.standard_normal(),
            coefs=rng.standard_normal(2),
            latent_mean=rng.uniform(-2, 2),
            latent_var=rng.uniform(0.2, 3.0),
            sigma2_delta=rng.uniform(0.2, 3.0),
            sigma2_eps=0.0,
            sigma_eps_delta=0.0,
        )
        params = transform.transform_polynomial(spec)
        k, mu = spec.reliability, spec.latent_mean
        b1, b2 = spec.coefs
        scale = max(abs(b1), abs(b2), abs(mu), 1.0)
        worst = max(
            worst,
            abs(params.coefs[0] - (b1 * k + 2 * b2 * k * (1 - k) * mu)) / scale,
            abs(params.coefs[1] - b2 * k**2) / scale,
        )
    report(3, worst <= 1e-14, f"degree-2 coefficient identity, worst {worst:.2e}")


def test_criterion_04_consistency_rates():
    start = time.perf_counter()
    results = {}
    lin = make_linear_spec(sigma_e=[[0.2]], sigma_eps_delta=[[0.1]])
    pol = make_poly_spec()
    for name, spec in (("linear", lin), ("polynomial", pol)):
        cfg = montecarlo.ExperimentConfig(
            spec=spec,
            n_grid=(1_000, 10_000, 100_000),
            replications=200,
            master_seed=1004,
            threads=THREADS,
        )
        rep = montecarlo.run_consistency(cfg)
        results[name] = (
            rep.value("prediction_error_loglog_slope"),
            rep.value("coef_error_loglog_slope"),
            rep.value("median_rel_coef_error", n=100_000),
        )
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    for name, (slope, coef_slope, coef_err) in results.items():
        ok = ok and -0.65 <= slope <= -0.35 and -0.65 <= coef_slope <= -0.35 and coef_err < 0.05
    detail = ", ".join(
        f"{name}: slopes {slope:.3f}/{cslope:.3f}, coef err {err:.4f}"
        for name, (slope, cslope, err) in results.items()
    )
    report(4, ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_05_chisquare_coverage_purely_normal():
    spec = make_linear_spec(sigma_e=[[0.0]], sigma_eps_delta=[[0.1]])  # Gaussian z, no eq error
    cfg = montecarlo.ExperimentConfig(
        spec=spec,
        n_grid=(10_000,),
        replications=2000,
        alphas=(0.05,),
        master_seed=1005,
        threads=THREADS,
        region_kinds=("chi_square",),
        purely_normal=True,
    )
    rep = montecarlo.run_coverage(cfg)
    cov = rep.value("coverage", n=10_000, alpha=0.05, kind="chi_square")
    report(5, 0.935 <= cov <= 0.965, f"exact-region coverage {cov:.4f} in [0.935, 0.965]")


def test_criterion_06_chebyshev_coverage_non_gaussian():
    spec = make_linear_spec(sigma_e=[[0.2]], sigma_eps_delta=[[0.1]], z_kind="uniform")
    cfg = montecarlo.ExperimentConfig(
        spec=spec,
        n_grid=(10_000,),
        replications=2000,
        alphas=(0.05,),
        master_seed=1006,
        threads=THREADS,
        region_kinds=("chebyshev",),
    )
    rep = montecarlo.run_coverage(cfg)
    cov = rep.value("coverage", n=10_000, alpha=0.05, kind="chebyshev")
    report(6, cov >= 0.93, f"distribution-free coverage {cov:.4f} >= 0.93 (non-Gaussian z, eq error on)")


def test_criterion_07_quadratic_interval_coverage():
    covs = {}
    for k0 in (0.4, 0.5):
        cfg = montecarlo.ExperimentConfig(
            spec=make_quadratic_spec(reliability_floor=k0),  # reliability ratio exactly 0.5
            n_grid=(10_000,),
            replications=2000,
            alphas=(0.1,),
            master_seed=1007,
            threads=THREADS,
            region_kinds=("quadratic_bound",),
        )
        rep = montecarlo.run_coverage(cfg)
        covs[k0] = rep.value("coverage", n=10_000, alpha=0.1, kind="quadratic_bound")
    ok = all(c >= 0.88 for c in covs.values())
    report(7, ok, f"bound-interval coverage {covs} all >= 0.88")


def test_criterion_08_mean_prediction():
    sigma2_eps, sigma2_delta = 0.3, 0.5
    cross = 0.3 * np.sqrt(sigma2_eps) * np.sqrt(sigma2_delta)
    spec = make_linear_spec(
        sigma_eps=[[sigma2_eps]], sigma_delta=[[sigma2_delta]], sigma_eps_delta=[[cross]]
    )
    cfg = montecarlo.ExperimentConfig(
        spec=spec,
        n_grid=(100_000,),
        replications=40,
        master_seed=1008,
        threads=THREADS,
        mean_prediction=True,
    )
    rep = montecarlo.run_consistency(cfg)
    rel = rep.value("median_rel_mean_prediction_error", n=100_000)

    # with zero cross-covariance the two predictors coincide exactly
    spec0 = make_linear_spec(sigma_eps_delta=[[0.0]])
    data = models.sample(spec0, 5000, seed=1008, keep_hidden=False)
    fit = estimators.ols_fit(data, "linear")
    sub = models.new_subject(spec0, seed=42)
    ind = predictors.predict_individual(fit, sub.z0, sub.x0)
    mean = predictors.predict_mean(fit, sub.z0, sub.x0, 0.0)
    exact = np.array_equal(ind.point, mean.point)
    report(
        8,
        rel < 0.05 and exact,
        f"mean-prediction median relative error {rel:.4f} < 0.05; zero-cross case exact={exact}",
    )


def test_criterion_09_abs_family_negative_result():
    start = time.perf_counter()
    spec = make_abs_spec(scale=1.0, shift=1.0, latent_mean=0.0, latent_var=1.0, sigma2_delta=1.0)
    cfg = montecarlo.ExperimentConfig(
        spec=spec,
        n_grid=(1_000, 10_000, 100_000),
        replications=1,
        master_seed=1009,
        test_subjects=10_000,
    )
    rep = montecarlo.run_abs_failure(cfg)
    gap = rep.value("mse_gap", n=100_000)
    gap_se = next(
        r["se"] for r in rep.rows if r["statistic"] == "mse_gap" and r.get("n") == 100_000
    )
    ls_small = rep.value("ls_predictor_mse", n=1_000)
    ls_large = rep.value("ls_predictor_mse", n=100_000)
    naive_mid = rep.value("naive_predictor_mse", n=10_000)
    naive_large = rep.value("naive_predictor_mse", n=100_000)
    elapsed = time.perf_counter() - start
    ok = (
        gap > 4 * gap_se
        and ls_large < 0.2 * ls_small  # folded-normal predictor keeps improving
        and naive_large > 10 * ls_large  # naive plateaus above a positive floor
        and naive_large > 0.5 * naive_mid
    )
    report(
        9,
        ok,
        f"gap {gap:.4f} ({gap / gap_se:.0f} SE), ls mse {ls_small:.2e}->{ls_large:.2e}, "
        f"naive mse {naive_mid:.2e}->{naive_large:.2e}, {elapsed:.0f}s",
    )


def test_criterion_10_determinism_across_thread_counts():
    spec = make_linear_spec(sigma_e=[[0.0]])
    outputs = []
    for threads in (1, 3):
        cfg = montecarlo.ExperimentConfig(
            spec=spec,
            n_grid=(500,),
            replications=200,
            alphas=(0.05, 0.5),
            master_seed=1010,
            threads=threads,
            region_kinds=("chebyshev", "chi_square"),
            purely_normal=True,
        )
        rep = montecarlo.run_coverage(cfg)
        outputs.append((rep.to_json(), rep.to_csv()))
    ok = outputs[0] == outputs[1]
    report(10, ok, f"reports byte-identical across thread counts: {ok}")
