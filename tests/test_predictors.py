"""Point predictors and confidence regions."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from eivpred import estimators, models, predictors, transform
from eivpred.errors import DimensionError, InvalidInput

from conftest import (
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    stacked,
)


def fitted(spec, n=2000, seed=1, family=None, degree=None):
    data = models.sample(spec, n, seed=seed, keep_hidden=False)
    return estimators.ols_fit(data, family or spec.family, degree=degree)


class TestPredictIndividual:
    def test_zero_slopes_returns_intercept(self):
        params = transform.LinearObservable(
            intercept=np.array([4.2]), z_slopes=np.zeros((0, 1)), x_slopes=np.zeros((1, 1))
        )
        moments = estimators.SampleMoments(
            y_mean=np.zeros(1),
            r_mean=np.zeros(1),
            s_rr=np.eye(1),
            s_ry=np.zeros((1, 1)),
            x_mean=np.zeros(1),
            x_cov=np.eye(1),
            n=10,
        )
        fit = estimators.FittedModel(
            family="linear", params=params, residual_moment=np.eye(1), moments=moments, n=10
        )
        pred = predictors.predict_individual(fit, None, [123.0])
        assert pred.point[0] == pytest.approx(4.2, abs=0)

    def test_hand_coefficients(self):
        params = transform.LinearObservable(
            intercept=np.array([1.0]),
            z_slopes=np.array([[2.0]]),
            x_slopes=np.array([[3.0]]),
        )
        moments = estimators.SampleMoments(
            y_mean=np.zeros(1),
            r_mean=np.zeros(2),
            s_rr=np.eye(2),
            s_ry=np.zeros((2, 1)),
            x_mean=np.zeros(1),
            x_cov=np.eye(1),
            n=10,
        )
        fit = estimators.FittedModel(
            family="linear", params=params, residual_moment=np.eye(1), moments=moments, n=10
        )
        pred = predictors.predict_individual(fit, [1.0], [1.0])
        assert pred.point[0] == pytest.approx(6.0, abs=0)

    def test_close_to_best_predictor_at_large_n(self, linear_spec):
        fit = fitted(linear_spec, n=100_000, seed=3)
        true = transform.transform_linear(linear_spec)
        sub = models.new_subject(linear_spec, seed=44)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        best = true.predict(sub.z0, sub.x0)
        scale = max(np.linalg.norm(best), 1.0)
        assert np.linalg.norm(pred.point - best) <= 0.05 * scale

    def test_shape_mismatch(self, linear_spec):
        fit = fitted(linear_spec)
        with pytest.raises(DimensionError):
            predictors.predict_individual(fit, [0.0], [1.0, 2.0])
        with pytest.raises(DimensionError):
            predictors.predict_individual(fit, [0.0, 1.0], [1.0])

    @pytest.mark.parametrize(
        "spec, family, degree, z0, x0, message",
        [
            (lambda: make_linear_spec(m=2), "linear", None, [0.0], 1.0, r"x0 must have shape \(2,\)"),
            (
                lambda: make_poly_spec(
                    z_slopes=[0.4, -0.2],
                    z_dist=models.ZDistribution("gaussian", mean=[0.0, 0.0], cov=np.eye(2)),
                ),
                "polynomial",
                3,
                [0.0],
                1.0,
                r"z0 must have shape \(2,\)",
            ),
            (make_exponential_spec, "exponential", None, None, [1.0, 2.0], r"x0 must have shape \(1,\)"),
            (make_linear_spec, "linear", None, None, [1.0], r"z0 must have shape \(1,\)"),
        ],
        ids=["linear-m2-scalar-x0", "polynomial-short-z0", "exponential-x0-length-2", "linear-missing-z0"],
    )
    def test_point_shape_follows_the_fit(self, spec, family, degree, z0, x0, message):
        data = models.sample(spec(), 400, seed=2, keep_hidden=False)
        fit = estimators.fit_family(data, family, degree=degree)
        with pytest.raises(DimensionError, match=message):
            predictors.predict_individual(fit, z0, x0)


class TestPredictMean:
    def test_equals_individual_when_cross_cov_zero(self, linear_spec):
        fit = fitted(linear_spec)
        sub = models.new_subject(linear_spec, seed=5)
        ind = predictors.predict_individual(fit, sub.z0, sub.x0)
        mean = predictors.predict_mean(fit, sub.z0, sub.x0, 0.0)
        assert np.array_equal(ind.point, mean.point)

    def test_equals_individual_at_sample_mean(self, linear_spec):
        fit = fitted(linear_spec)
        x0 = fit.moments.x_mean.copy()
        ind = predictors.predict_individual(fit, [0.3], x0)
        mean = predictors.predict_mean(fit, [0.3], x0, 0.5)
        assert np.allclose(ind.point, mean.point, atol=1e-15)

    @pytest.mark.parametrize("cross", [[0.1, 0.2], []])
    def test_cross_covariance_of_the_wrong_size(self, linear_spec, cross):
        fit = fitted(linear_spec)
        with pytest.raises(DimensionError, match=r"sigma_eps_delta must have shape \(1, 1\)"):
            predictors.predict_mean(fit, [0.3], [0.5], cross)

    def test_converges_to_true_mean_predictor(self):
        spec = make_linear_spec(sigma_eps_delta=[[0.3]])
        fit = fitted(spec, n=100_000, seed=7)
        true = transform.transform_linear(spec)
        sub = models.new_subject(spec, seed=71)
        best = true.predict(sub.z0, sub.x0)
        eta_true = best - spec.errors.sigma_eps_delta @ np.linalg.solve(
            spec.x_cov, sub.x0 - spec.latent_mean
        )
        got = predictors.predict_mean(fit, sub.z0, sub.x0, spec.errors.sigma_eps_delta)
        assert np.linalg.norm(got.point - eta_true) <= 0.05 * max(np.linalg.norm(eta_true), 1.0)


class TestChiSquareQuantile:
    def test_reference_values(self):
        assert predictors.chi2_upper_quantile(1, 0.05) == pytest.approx(3.841458820694124, abs=1e-9)
        assert predictors.chi2_upper_quantile(2, 0.05) == pytest.approx(5.991464547107979, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=12),
        alpha=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_against_scipy(self, dim, alpha):
        ours = predictors.chi2_upper_quantile(dim, alpha)
        ref = scipy.stats.chi2.isf(alpha, dim)
        assert ours == pytest.approx(ref, abs=1e-8, rel=1e-10)

    def test_alpha_domain(self):
        with pytest.raises(InvalidInput):
            predictors.chi2_upper_quantile(1, 0.0)
        with pytest.raises(InvalidInput):
            predictors.chi2_upper_quantile(1, 1.0)


class TestRegions:
    def test_chebyshev_threshold(self, linear_spec):
        fit = fitted(linear_spec)
        sub = models.new_subject(linear_spec, seed=8)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        region = predictors.region_chebyshev(fit, pred, 0.04)
        assert region.threshold == pytest.approx(25.0, abs=0)

    def test_chebyshev_ball_with_identity_covariance(self):
        params = transform.LinearObservable(
            intercept=np.zeros(2), z_slopes=np.zeros((0, 2)), x_slopes=np.eye(2)
        )
        moments = estimators.SampleMoments(
            y_mean=np.zeros(2),
            r_mean=np.zeros(2),
            s_rr=np.eye(2),
            s_ry=np.zeros((2, 2)),
            x_mean=np.zeros(2),
            x_cov=np.eye(2),
            n=10,
        )
        fit = estimators.FittedModel(
            family="linear", params=params, residual_moment=np.eye(2), moments=moments, n=10
        )
        pred = predictors.predict_individual(fit, None, [0.0, 0.0])
        region = predictors.region_chebyshev(fit, pred, 0.5)
        assert region.threshold == pytest.approx(4.0, abs=0)  # squared radius
        assert predictors.region_contains(region, [1.9, 0.0])
        assert not predictors.region_contains(region, [2.1, 0.0])

    def test_contains_center_always(self, linear_spec):
        fit = fitted(linear_spec)
        sub = models.new_subject(linear_spec, seed=13)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        for builder in (
            lambda: predictors.region_chebyshev(fit, pred, 0.1),
            lambda: predictors.region_chisquare(fit, pred, 0.1),
        ):
            region = builder()
            assert predictors.region_contains(region, region.center)

    def test_boundary_membership(self):
        region = predictors.ConfidenceRegion(
            kind="chebyshev",
            center=np.array([0.0]),
            threshold=25.0,
            alpha=0.04,
            shape=np.eye(1),
        )
        assert predictors.region_contains(region, [4.999])
        assert not predictors.region_contains(region, [5.001])

    def test_chisquare_note_without_assertion(self, linear_spec):
        fit = fitted(linear_spec)
        sub = models.new_subject(linear_spec, seed=2)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        region = predictors.region_chisquare(fit, pred, 0.05)
        assert any("purely-normal" in n for n in region.notes)
        asserted = predictors.region_chisquare(fit, pred, 0.05, purely_normal=True)
        assert not any("purely-normal" in n for n in asserted.notes)

    def test_nesting_thresholds(self):
        # chi-square quantile below d/alpha for alpha <= 1/2, so the
        # chi-square region is contained in the distribution-free one
        for d in range(1, 11):
            for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
                assert predictors.chi2_upper_quantile(d, alpha) <= d / alpha

    @settings(max_examples=30, deadline=None)
    @given(
        a1=st.floats(min_value=0.01, max_value=0.5),
        a2=st.floats(min_value=0.01, max_value=0.5),
    )
    # one ulp apart: the chi-square quantile rounds to the same float for both
    @example(a1=0.010000000000000002, a2=0.01)
    def test_threshold_monotone_in_alpha(self, a1, a2):
        if a1 == a2:
            return
        lo, hi = min(a1, a2), max(a1, a2)
        # weakly monotone for every pair; strictly once the alphas differ by
        # more than a relative 1e-9, where rounding cannot merge the values
        strict = hi - lo > 1e-9 * hi
        spec = make_linear_spec()
        fit = fitted(spec, n=500)
        sub = models.new_subject(spec, seed=3)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        quad_fit = fitted(make_quadratic_spec(), n=500)
        qpred = predictors.predict_individual(quad_fit, None, [1.0])
        pairs = [
            (builder(fit, pred, lo).threshold, builder(fit, pred, hi).threshold)
            for builder in (predictors.region_chebyshev, predictors.region_chisquare)
        ]
        pairs.append(
            (
                predictors.region_quadratic(quad_fit, qpred, lo, 0.4).threshold,
                predictors.region_quadratic(quad_fit, qpred, hi, 0.4).threshold,
            )
        )
        for at_lo, at_hi in pairs:
            assert at_lo >= at_hi
            if strict:
                assert at_lo > at_hi

    def test_rescaling_invariance(self, linear_spec):
        data = models.sample(linear_spec, 3000, seed=17, keep_hidden=False)
        scale = 3.7
        scaled = models.Dataset(y=scale * data.y, z=data.z, x=data.x, seed=data.seed)
        fit = estimators.ols_fit(data, "linear")
        fit_s = estimators.ols_fit(scaled, "linear")
        sub = models.new_subject(linear_spec, seed=18)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        pred_s = predictors.predict_individual(fit_s, sub.z0, sub.x0)
        assert np.allclose(pred_s.point, scale * pred.point, rtol=1e-10)
        r = predictors.region_chebyshev(fit, pred, 0.05)
        r_s = predictors.region_chebyshev(fit_s, pred_s, 0.05)
        h = sub.y0
        assert predictors.region_contains(r, h) == predictors.region_contains(r_s, scale * h)


class TestQuadraticRegion:
    def test_zero_curvature_half_width(self):
        spec = make_quadratic_spec(curvature=0.0)
        data = models.sample(spec, 5000, seed=23, keep_hidden=False)
        fit = estimators.ols_fit(data, "quadratic")
        # force an exactly-zero curvature estimate to isolate the formula
        params = transform.QuadraticObservable(
            intercept=fit.params.intercept, slope=fit.params.slope, curvature=0.0
        )
        fit = estimators.FittedModel(
            family="quadratic",
            params=params,
            residual_moment=fit.residual_moment,
            moments=fit.moments,
            n=fit.n,
        )
        pred = predictors.predict_individual(fit, None, [2.0])
        region = predictors.region_quadratic(fit, pred, alpha=0.1, k0=0.5)
        expected = np.sqrt(fit.residual_moment[0, 0]) / np.sqrt(0.1)
        assert region.half_width == pytest.approx(expected, rel=1e-12)

    def test_center_point_uses_mean_residual_term_only(self):
        spec = make_quadratic_spec()
        data = models.sample(spec, 5000, seed=29, keep_hidden=False)
        fit = estimators.ols_fit(data, "quadratic")
        x0 = float(fit.moments.x_mean[0])
        pred = predictors.predict_individual(fit, None, [x0])
        region = predictors.region_quadratic(fit, pred, alpha=0.1, k0=0.5)
        expected = np.sqrt(fit.residual_moment[0, 0]) / np.sqrt(0.1)
        assert region.half_width == pytest.approx(expected, rel=1e-12)

    def test_k0_domain(self):
        spec = make_quadratic_spec()
        fit = fitted(spec, n=500)
        pred = predictors.predict_individual(fit, None, [1.0])
        for bad in (0.0, 0.7):
            with pytest.raises(InvalidInput):
                predictors.region_quadratic(fit, pred, 0.1, bad)

    def test_wrong_family_rejected(self, linear_spec):
        fit = fitted(linear_spec)
        sub = models.new_subject(linear_spec, seed=1)
        pred = predictors.predict_individual(fit, sub.z0, sub.x0)
        with pytest.raises(InvalidInput):
            predictors.region_quadratic(fit, pred, 0.1, 0.4)


@pytest.mark.parametrize(
    "spec",
    [make_linear_spec(), make_linear_spec(d=2, q=1, m=2), make_poly_spec(), make_quadratic_spec()],
    ids=["linear-1d", "linear-2d", "polynomial", "quadratic"],
)
def test_regions_on_a_stack_equal_the_regions_of_each_fit(spec):
    """Mean prediction, every region kind built on a stack of fits, and its
    membership test, give each fit's own point, threshold, shape and verdict."""
    degree = getattr(spec, "degree", None)
    sampler = models.Sampler(spec)
    data = [sampler.sample(40, seed, keep_hidden=False) for seed in range(6)]
    subjects = [sampler.new_subject(50 + seed) for seed in range(6)]
    fits = [estimators.ols_fit(dataset, spec.family, degree=degree) for dataset in data]
    stack = estimators.fit_stack(stacked(data), spec.family, degree=degree)
    z0 = np.array([s.z0 for s in subjects]) if spec.z_dim else None
    preds = predictors.predict_individual(stack, z0, np.array([s.x0 for s in subjects]))
    alone_preds = [
        predictors.predict_individual(fit, subject.z0 if spec.z_dim else None, subject.x0)
        for fit, subject in zip(fits, subjects)
    ]
    d, m = preds.point.shape[-1], preds.x0.shape[-1]
    cross = 0.1 * np.arange(1.0, d * m + 1.0).reshape(d, m)
    means = predictors.predict_mean(stack, z0, preds.x0, cross)
    for i, (fit, pred) in enumerate(zip(fits, alone_preds)):
        assert np.array_equal(means.point[i], predictors.predict_mean(fit, pred.z0, pred.x0, cross).point)
    y0 = np.array([s.y0 for s in subjects])
    kinds = predictors.REGION_KINDS if spec.family == "quadratic" else ("chebyshev", "chi_square")
    for kind in kinds:
        for alpha in (0.05, 0.5):
            region = predictors.build_region(kind, stack, preds, alpha, k0=0.4)
            inside = predictors.region_contains(region, y0)
            for i, (fit, pred, subject) in enumerate(zip(fits, alone_preds, subjects)):
                alone = predictors.build_region(kind, fit, pred, alpha, k0=0.4)
                assert np.array_equal(region.center[i], alone.center)
                assert np.asarray(region.threshold).flat[i if kind == "quadratic_bound" else 0] == alone.threshold
                if alone.shape is not None:
                    assert np.array_equal(region.shape[i], alone.shape)
                assert inside[i] == predictors.region_contains(alone, subject.y0)


def _quadratic_half_width(m_u2, x_mean, x_var, x0, slope, curvature, alpha, k0):
    """The bound-based half-width of one fit, computed on Python floats, whose
    ``v**2`` is C pow."""
    dev = x0 - x_mean
    neg_part = max(-(x_mean * dev), 0.0)
    bracket = x0**2 - x_mean**2 - x_var + 2.0 * neg_part * (1.0 - k0) ** 2 * (1.0 + 1.0 / k0)
    bound = curvature**2 * max(bracket, 0.0) + max(slope * curvature * dev, 0.0)
    total = m_u2 + 4.0 * (1.0 / k0 - 1.0) * x_var * bound
    return 0.0 if total <= 0.0 else float(np.sqrt(total) / np.sqrt(alpha))


def test_quadratic_bound_on_a_stack_equals_the_rule_on_python_floats():
    """At points x0 whose C-pow square differs from the product x0 * x0, each
    half-width, on a stack and for one fit, equals the rule on Python floats
    to the bit."""
    spec = make_quadratic_spec()
    sampler = models.Sampler(spec)
    data = [sampler.sample(40, seed, keep_hidden=False) for seed in range(64)]
    stack = estimators.fit_stack(stacked(data), "quadratic")
    draws = np.random.default_rng(7).uniform(1.5, 3.5, 200_000).tolist()
    x0 = np.array([v for v in draws if v**2 != v * v][:64])[:, None]
    assert x0.shape == (64, 1)
    pred = predictors.predict_individual(stack, None, x0)
    for alpha in (0.1, 0.3):
        region = predictors.region_quadratic(stack, pred, alpha, 0.4)
        for i in range(64):
            fit = stack[i]
            alone = predictors.region_quadratic(
                fit, predictors.predict_individual(fit, None, x0[i]), alpha, 0.4
            )
            expected = _quadratic_half_width(
                *(float(v) for v in (fit.residual_moment[0, 0], fit.moments.x_mean[0], fit.moments.x_cov[0, 0])),
                float(x0[i, 0]),
                float(fit.params.slope),
                float(fit.params.curvature),
                alpha,
                0.4,
            )
            assert region.threshold[i] == expected
            assert alone.threshold == expected
