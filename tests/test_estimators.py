"""Sample moments, OLS, and nonlinear least squares."""

import math

import numpy as np
import pytest

from eivpred import cli, estimators, models, montecarlo, predictors, transform
from eivpred.errors import InsufficientData, InvalidInput, NonConvergence

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    make_trig_spec,
    stacked,
)


def handmade_dataset(y, z, x, seed=0):
    y = np.asarray(y, float).reshape(len(y), -1)
    x = np.asarray(x, float).reshape(len(x), -1)
    z = np.asarray(z, float).reshape(len(y), -1) if z is not None else np.zeros((len(y), 0))
    return models.Dataset(y=y, z=z, x=x, seed=seed)


class TestSampleMoments:
    def test_constant_data_gives_zero_s_matrices(self):
        data = handmade_dataset([2.0] * 5, [[1.0]] * 5, [3.0] * 5)
        mom = estimators.sample_moments(data, "linear")
        assert np.all(mom.s_rr == 0.0)
        assert np.all(mom.s_ry == 0.0)

    def test_two_point_hand_computation(self):
        data = handmade_dataset([0.0, 2.0], None, [0.0, 2.0])
        mom = estimators.sample_moments(data, "linear")
        assert mom.s_rr[0, 0] == pytest.approx(1.0, abs=0)
        assert mom.s_ry[0, 0] == pytest.approx(1.0, abs=0)

    def test_unbiased_vs_plain_normalization(self, linear_spec):
        data = models.sample(linear_spec, 500, seed=2)
        mom = estimators.sample_moments(data, "linear")
        n = data.n
        s_xx = mom.s_rr[-1:, -1:]  # x block of the 1/n matrix
        assert np.allclose(mom.x_cov * (n - 1) / n, s_xx, atol=1e-14)

    def test_too_small_sample(self):
        data = handmade_dataset([1.0], None, [1.0])
        with pytest.raises(InsufficientData):
            estimators.sample_moments(data, "linear")

    def test_means_and_covariance_of_far_off_columns_are_accurate(self):
        """Columns far from zero, against exactly rounded sums: the means are
        pairwise sums along each regressor column, not running sums over its
        rows, which drift by tens of ulps at this size."""
        n = 200_000
        rng = np.random.default_rng(5)
        x = 1e4 + rng.standard_normal((n, 1))
        z = -3e3 + rng.standard_normal((n, 1))
        data = handmade_dataset(2.0 + 0.5 * z + x + rng.standard_normal((n, 1)), z, x)
        mom = estimators.sample_moments(data, "linear")
        cols = [z[:, 0], x[:, 0]]
        means = np.array([math.fsum(col) / n for col in cols])
        assert np.all(np.abs(mom.r_mean - means) <= 4 * np.abs(np.spacing(means)))
        centred = [col - mean for col, mean in zip(cols, means)]
        s_rr = np.array([[math.fsum(a * b) / n for b in centred] for a in centred])
        assert np.abs(mom.s_rr - s_rr).max() <= 1e-15 * np.abs(s_rr).max()


class TestOlsFit:
    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((200, 2))
        x = rng.standard_normal((200, 1))
        y = 1.5 + z @ np.array([0.3, -0.7]) + 2.0 * x[:, 0]
        data = handmade_dataset(y, z, x)
        fit = estimators.ols_fit(data, "linear")
        assert fit.params.intercept[0] == pytest.approx(1.5, abs=1e-10)
        assert np.allclose(fit.params.z_slopes[:, 0], [0.3, -0.7], atol=1e-10)
        assert fit.params.x_slopes[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert fit.residual_moment[0, 0] <= 1e-18

    def test_constant_regressor_minimum_norm(self):
        data = handmade_dataset([1.0, 2.0, 3.0, 4.0], None, [5.0, 5.0, 5.0, 5.0])
        with pytest.warns(UserWarning, match="condition number"):
            fit = estimators.ols_fit(data, "linear")  # singular S_rr: no failure
        assert fit.params.x_slopes[0, 0] == 0.0  # minimum-norm coefficient
        assert fit.params.intercept[0] == pytest.approx(2.5, abs=1e-12)
        assert fit.notes

    def test_eiv_consistency_against_transform(self, linear_spec):
        data = models.sample(linear_spec, 100_000, seed=4, keep_hidden=False)
        fit = estimators.ols_fit(data, "linear")
        true = transform.transform_linear(linear_spec)
        stack_hat = np.vstack([fit.params.z_slopes, fit.params.x_slopes])
        stack_true = np.vstack([true.z_slopes, true.x_slopes])
        assert np.linalg.norm(stack_hat - stack_true) <= 0.05 * np.linalg.norm(stack_true)

    def test_residuals_have_zero_mean_and_are_orthogonal(self, linear_spec):
        data = models.sample(linear_spec, 5000, seed=6, keep_hidden=False)
        fit = estimators.ols_fit(data, "linear")
        resid = data.y - transform.predict_rows(fit.params, data.z, data.x)
        scale = np.abs(data.y).max()
        assert abs(resid.mean()) <= 1e-10 * scale
        regs = np.column_stack([data.z, data.x])
        for k in range(regs.shape[1]):
            dot = float(resid[:, 0] @ regs[:, k]) / data.n
            assert abs(dot - resid[:, 0].mean() * regs[:, k].mean()) <= 1e-10 * scale * np.abs(
                regs[:, k]
            ).max().clip(1.0)

    def test_region_shape_cached_per_fit(self, linear_spec, monkeypatch):
        calls = []
        real_pinv = estimators.pinv
        monkeypatch.setattr(estimators, "pinv", lambda a: calls.append(1) or real_pinv(a))
        fits = [
            estimators.ols_fit(models.sample(linear_spec, 200, seed=s, keep_hidden=False), "linear")
            for s in (1, 2)
        ]
        calls.clear()  # the fits use pinv too
        first = [fit.region_shape for fit in fits]
        assert all(fit.region_shape is shape for fit, shape in zip(fits, first))
        assert len(calls) == 2
        assert not np.array_equal(first[0][0], first[1][0])
        assert not first[0][0].flags.writeable

    def test_objective_is_global_minimum(self):
        rng = np.random.default_rng(7)
        spec = make_linear_spec()
        data = models.sample(spec, 300, seed=8, keep_hidden=False)
        fit = estimators.ols_fit(data, "linear")

        def objective(intercept, z_slopes, x_slopes):
            pred = intercept + data.z @ z_slopes + data.x @ x_slopes
            return float(np.sum((data.y - pred) ** 2))

        base = objective(fit.params.intercept, fit.params.z_slopes, fit.params.x_slopes)
        assert base == pytest.approx(fit.objective, rel=1e-10)
        for _ in range(100):
            d_i = 0.05 * rng.standard_normal(1)
            d_z = 0.05 * rng.standard_normal((1, 1))
            d_x = 0.05 * rng.standard_normal((1, 1))
            perturbed = objective(
                fit.params.intercept + d_i, fit.params.z_slopes + d_z, fit.params.x_slopes + d_x
            )
            assert perturbed >= base - 1e-9 * base

    def test_polynomial_regressor_covariance_stays_nonsingular(self):
        spec = make_poly_spec(coefs=[0.5, -0.2, 0.1, 0.05])
        smallest = []
        for n in (2000, 20_000):
            data = models.sample(spec, n, seed=10, keep_hidden=False)
            mom = estimators.sample_moments(data, "polynomial", degree=4)
            smallest.append(np.min(np.linalg.eigvalsh(mom.s_rr)))
        assert min(smallest) > 1e-4
        assert smallest[1] > 0.5 * smallest[0]

    def test_degree_cap(self):
        data = models.sample(make_poly_spec(), 100, seed=1, keep_hidden=False)
        with pytest.raises(InvalidInput):
            estimators.ols_fit(data, "polynomial", degree=7)

    def test_regressors_are_the_power_basis_up_to_the_cap(self):
        data = models.sample(make_poly_spec(), 100, seed=1, keep_hidden=False)
        cap = estimators.MAX_POLY_DEGREE
        r, z_columns = estimators._regressors(data, "polynomial", cap)
        assert (z_columns, r.shape[0]) == (0, cap)
        assert r.flags.c_contiguous  # one contiguous column per power
        np.testing.assert_array_equal(r, transform.power_basis(data.x[:, 0], cap).T)
        with pytest.raises(InvalidInput, match=f"degree {cap + 1} above cap {cap}"):
            estimators._regressors(data, "polynomial", cap + 1)

    def test_insufficient_data(self):
        data = handmade_dataset([1.0, 2.0], None, [1.0, 2.0])
        with pytest.raises(InsufficientData):
            estimators.ols_fit(data, "polynomial", degree=2)


class TestResidualCovariance:
    def test_zero_residuals(self):
        x = np.linspace(0, 1, 10)
        data = handmade_dataset(2 * x + 1, None, x)
        fit = estimators.ols_fit(data, "linear")
        assert fit.residual_moment[0, 0] == pytest.approx(0.0, abs=1e-20)

    def test_hand_computed_scalar(self):
        # intercept-only fit on {0, 2}: residuals {-1, +1}, second moment 1
        data = handmade_dataset([0.0, 2.0], None, [1.0, 1.0])
        with pytest.warns(UserWarning, match="condition number"):
            fit = estimators.ols_fit(data, "linear")
        assert fit.residual_moment[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_converges_to_transformed_residual_cov(self, linear_spec):
        data = models.sample(linear_spec, 100_000, seed=12, keep_hidden=False)
        fit = estimators.ols_fit(data, "linear")
        true = transform.transform_linear(linear_spec)
        resid = data.y - transform.predict_rows(fit.params, data.z, data.x)
        np.testing.assert_allclose(fit.residual_moment, resid.T @ resid / data.n, rtol=1e-10)
        est = fit.residual_moment
        assert np.linalg.norm(est - true.residual_cov) <= 0.05 * np.linalg.norm(true.residual_cov)


NLS_SPECS = {
    "exponential": (make_exponential_spec(), 1),
    "trigonometric": (make_trig_spec(), 2),
    "absolute_value": (make_abs_spec(), 1),
}


# each nonlinear family at each harmonic count its fits use in the tests
NLS_ORDERS = [
    ("exponential", 1), ("trigonometric", 1), ("trigonometric", 2), ("trigonometric", 3), ("absolute_value", 1)
]


def fit_from(data, family, starts):
    """The family's table entry for nls_fit, run from ``starts``."""
    _, make, evaluate = estimators.FAMILIES[family].nls
    starts = [np.asarray(p0, dtype=float) for p0 in starts]
    return estimators._least_squares(make, evaluate, data.x[:, 0], data.y[:, 0], starts)


def surface(params, x):
    """The observable regression of a nonlinear family at ``x``, written out."""
    if params.family == "exponential":
        return params.scale * np.exp(params.rate * x)
    if params.family == "trigonometric":
        k = np.arange(1, params.cos_amps.size + 1)
        phase = params.freq * np.outer(x, k)
        return params.const + np.cos(phase) @ params.cos_amps + np.sin(phase) @ params.sin_amps
    return params.scale * transform.abs_F(params.gain * x + params.offset)


class TestNlsFit:
    def test_noiseless_exponential_recovery(self):
        spec = make_exponential_spec(sigma2_e=0.0, sigma2_delta=0.0, latent_mean=0.0, scale=1.5, rate=0.8)
        data = models.sample(spec, 2000, seed=3, keep_hidden=False)
        fit = estimators.nls_fit(data, "exponential")
        assert fit.params.scale == pytest.approx(1.5, abs=1e-8)
        assert fit.params.rate == pytest.approx(0.8, abs=1e-8)
        assert fit.converged

    def test_exponential_sign_flipped_start_recovers(self):
        """Sign-flipped starts reach the auto-start minimum: exponential
        (scale, rate) starts, and absolute-value (gain, offset) starts with
        their least-squares scale."""
        spec = make_exponential_spec(sigma2_e=0.01, sigma2_delta=0.2, scale=1.2, rate=0.6)
        data = models.sample(spec, 5000, seed=9, keep_hidden=False)
        auto = estimators.nls_fit(data, "exponential")
        flipped, objective, _ = fit_from(data, "exponential", [[-1.2, -0.6], [1.0, 0.3]])
        assert objective == pytest.approx(auto.objective, rel=1e-6)
        assert flipped.rate == pytest.approx(auto.params.rate, rel=1e-4)

        data = models.sample(make_abs_spec(), 5000, seed=9, keep_hidden=False)
        auto = estimators.nls_fit(data, "absolute_value")
        make = estimators.FAMILIES["absolute_value"].nls[1]
        x, y = data.x[:, 0], data.y[:, 0]
        starts = [estimators._scaled_start(make, x, y, pair) for pair in ((-0.7, 1.4), (0.5, -1.0))]
        flipped, objective, converged = fit_from(data, "absolute_value", starts)
        assert converged
        assert objective == pytest.approx(auto.objective, rel=1e-6)
        for got, want in (
            (flipped.scale, auto.params.scale),
            (flipped.gain, auto.params.gain),
            (flipped.offset, auto.params.offset),
        ):
            assert got == pytest.approx(want, rel=1e-4)

    def test_noiseless_abs_recovery(self):
        x = np.linspace(-3.0, 3.0, 400)
        data = handmade_dataset(1.3 * transform.abs_F(0.7 * x + 0.4), None, x)
        fit = estimators.nls_fit(data, "absolute_value")
        assert fit.params.scale == pytest.approx(1.3, abs=1e-8)
        assert fit.params.gain == pytest.approx(0.7, abs=1e-8)
        assert fit.params.offset == pytest.approx(0.4, abs=1e-8)
        assert fit.converged

    @pytest.mark.parametrize("family", estimators.NLS_FAMILIES)
    def test_objective_is_the_residual_sum_of_squares(self, family):
        spec, harmonics = NLS_SPECS[family]
        data = models.sample(spec, 2000, seed=17, keep_hidden=False)
        fit = estimators.nls_fit(data, family, harmonics=harmonics)
        resid = data.y[:, 0] - surface(fit.params, data.x[:, 0])
        assert fit.objective == pytest.approx(float(resid @ resid), rel=1e-12)
        assert fit.residual_moment[0, 0] * data.n == pytest.approx(float(resid @ resid), rel=1e-12)

    @pytest.mark.parametrize("family, harmonics", NLS_ORDERS)
    def test_jacobian_matches_central_differences(self, family, harmonics):
        """The analytic Jacobian that each family's ``evaluate`` returns, at
        random points (either orientation), equals the central differences of
        its surface."""
        _, make, evaluate = estimators.FAMILIES[family].nls
        rng = np.random.default_rng(harmonics)
        x = rng.standard_normal(60)

        def surface_at(p):
            return transform.predict_rows(make(p), None, x)[:, 0]

        for _ in range(5):
            p = rng.standard_normal(estimators.min_sample_size(family, harmonics=harmonics) - 1)
            analytic = evaluate(p, x)[1]
            steps = 1e-6 * np.maximum(np.abs(p), 1.0)
            numeric = np.column_stack(
                [(surface_at(p + step) - surface_at(p - step)) / (2 * step[i]) for i, step in enumerate(np.diag(steps))]
            )
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6 * np.abs(analytic).max())

    @pytest.mark.parametrize("family, harmonics", NLS_ORDERS)
    def test_evaluate_values_equal_predict_rows_bit_for_bit(self, family, harmonics):
        """``evaluate(p, x)`` gives the values of ``predict_rows(make(p))`` to
        the bit, in both orientations: a negative gain (absolute value) or
        frequency (trigonometric) is flipped by ``make`` but not by ``evaluate``."""
        _, make, evaluate = estimators.FAMILIES[family].nls
        rng = np.random.default_rng(100 + harmonics)
        x = 2.0 * rng.standard_normal(500)
        size = estimators.min_sample_size(family, harmonics=harmonics) - 1
        flip = {"exponential": 1, "trigonometric": size - 1, "absolute_value": 1}[family]
        for sign in (1.0, -1.0):
            for _ in range(20):
                p = rng.standard_normal(size)
                p[flip] = sign * abs(p[flip])
                values = evaluate(p, x)[0]
                assert values.shape == x.shape
                want = transform.predict_rows(make(p), None, x)[:, 0]
                assert values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", estimators.NLS_FAMILIES)
    def test_least_squares_evaluates_each_point_once(self, family):
        """One ``_least_squares`` run evaluates the family's surface and
        Jacobian once per distinct point: the finiteness check at a start,
        leastsq's shape checks and MINPACK's first requests share one
        evaluation, and the Jacobian that MINPACK asks for at the point it
        has just evaluated comes from that evaluation.  No point is evaluated
        twice, in one start or across them."""
        spec, harmonics = NLS_SPECS[family]
        data = models.sample(spec, 500, seed=23, keep_hidden=False)
        start_rule, make, evaluate = estimators.FAMILIES[family].nls
        x, y = data.x[:, 0], data.y[:, 0]
        starts = start_rule(x, y, harmonics)
        points = []

        def counted(p, x):
            points.append(p.tobytes())
            return evaluate(p, x)

        fitted, objective, _ = estimators._least_squares(make, counted, x, y, starts)
        assert len(points) > 3 * len(starts)  # every start took several steps
        assert all(a != b for a, b in zip(points, points[1:]))
        assert len(points) == len(set(points))
        # the same fit as with the uncounted evaluation
        again, again_objective, _ = estimators._least_squares(make, evaluate, x, y, starts)
        assert objective == again_objective
        assert models.to_jsonable(fitted) == models.to_jsonable(again)

    def test_start_with_non_finite_residuals_is_skipped(self):
        """A start whose residuals overflow is skipped, and the other starts
        give the fit they give without it."""
        spec = make_exponential_spec(sigma2_e=0.01, sigma2_delta=0.2, scale=1.2, rate=0.6)
        data = models.sample(spec, 2000, seed=9, keep_hidden=False)
        good = [1.0, 0.3]
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(surface(transform.ExponentialObservable(1e300, 1e3), data.x[:, 0])))
            got = fit_from(data, "exponential", [[1e300, 1e3], good])
        want = fit_from(data, "exponential", [good])
        assert got[1:] == want[1:]
        assert models.to_jsonable(got[0]) == models.to_jsonable(want[0])

    def test_all_starts_non_finite_raises(self):
        data = models.sample(make_exponential_spec(), 200, seed=9, keep_hidden=False)
        with np.errstate(over="ignore"), pytest.raises(NonConvergence, match="all 2 least-squares starts failed"):
            fit_from(data, "exponential", [[1e300, 1e3], [-1e300, 2e3]])

    def test_fit_does_not_depend_on_the_heap_it_runs_after(self):
        """scipy's lmder reads freed heap blocks of its Jacobian's size, so the
        fit of an ill-conditioned two-harmonic trigonometric sample moved in
        its last bits with what ran before it.  Between fits, arrays of many
        sizes are allocated and freed; the fits are all the same."""
        data = models.sample(make_trig_spec(), 60, seed=4, keep_hidden=False)
        rng = np.random.default_rng(0)
        held, fits = [], []
        for _ in range(8):
            held += [np.full(rng.integers(1, 500), rng.standard_normal()) for _ in range(30)]
            del held[: rng.integers(10, 40)]
            fits.append(models.to_jsonable(estimators.nls_fit(data, "trigonometric", harmonics=2)))
        assert all(fit == fits[0] for fit in fits)

    def test_evaluation_budget_exhausted_is_not_converged(self, monkeypatch):
        """One evaluation per parameter, at least three: MINPACK stops on its
        budget, and the fit says so."""
        data = models.sample(make_exponential_spec(), 2000, seed=9, keep_hidden=False)
        assert estimators.nls_fit(data, "exponential").converged
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        fit = estimators.nls_fit(data, "exponential")
        assert fit.converged is False
        assert np.isfinite(fit.objective)

    def test_abs_family_matches_transform_at_scale(self):
        spec = make_abs_spec()
        data = models.sample(spec, 100_000, seed=5, keep_hidden=False)
        fit = estimators.nls_fit(data, "absolute_value")
        true = transform.transform_abs(spec)
        for got, want in (
            (fit.params.scale, true.scale),
            (fit.params.gain, true.gain),
            (fit.params.offset, true.offset),
        ):
            assert got == pytest.approx(want, rel=0.05)

    def test_noiseless_trig_recovery(self):
        spec = models.TrigSpec(
            const=0.5,
            cos_amps=[1.0],
            sin_amps=[0.4],
            freq=1.1,
            latent_mean=0.0,
            latent_var=2.0,
            sigma2_e=0.0,
            sigma2_delta=0.0,
        )
        data = models.sample(spec, 3000, seed=13, keep_hidden=False)
        fit = estimators.nls_fit(data, "trigonometric", harmonics=1)
        assert fit.params.freq == pytest.approx(1.1, abs=1e-6)
        assert fit.params.cos_amps[0] == pytest.approx(1.0, abs=1e-6)
        assert fit.params.sin_amps[0] == pytest.approx(0.4, abs=1e-6)

    def test_deterministic_given_data(self):
        data = models.sample(make_abs_spec(), 5000, seed=21, keep_hidden=False)
        a = estimators.nls_fit(data, "absolute_value")
        b = estimators.nls_fit(data, "absolute_value")
        assert a.params.gain == b.params.gain
        assert a.objective == b.objective

    def test_unknown_family(self):
        data = models.sample(make_abs_spec(), 100, seed=1, keep_hidden=False)
        with pytest.raises(InvalidInput):
            estimators.nls_fit(data, "linear")


class TestNaiveOlsAbs:
    def test_recovers_on_error_free_latent_data(self):
        rng = np.random.default_rng(2)
        xi = rng.standard_normal(5000)
        y = 1.3 * np.abs(xi + 0.8)
        data = handmade_dataset(y, None, xi)
        scale, shift = estimators.naive_ols_abs(data)
        assert scale == pytest.approx(1.3, abs=1e-5)
        assert shift == pytest.approx(0.8, abs=1e-5)

    def test_deterministic(self):
        data = models.sample(make_abs_spec(), 5000, seed=31, keep_hidden=False)
        assert estimators.naive_ols_abs(data) == estimators.naive_ols_abs(data)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestFitStack:
    @pytest.mark.parametrize(
        "spec, family, options",
        [
            (make_linear_spec(), "linear", {}),
            (make_linear_spec(d=2, q=2, m=2), "linear", {}),
            (make_linear_spec(d=2, q=0, m=1), "linear", {}),
            (make_poly_spec(), "polynomial", {"degree": 3}),
            (make_quadratic_spec(), "quadratic", {}),
            (make_exponential_spec(), "exponential", {}),
            (make_trig_spec(), "trigonometric", {"harmonics": 2}),
            (make_abs_spec(), "absolute_value", {}),
        ],
        ids=[
            "linear",
            "linear-2d",
            "linear-no-z",
            "polynomial",
            "quadratic",
            "exponential",
            "trigonometric",
            "absolute_value",
        ],
    )
    def test_each_fit_equals_its_own_ols_fit_bit_for_bit(self, spec, family, options):
        """Each ``[i]`` slice of a stack equals the one-dataset fit (the OLS
        kernel, or nls_fit), and so do its stacked prediction and region shape."""
        sampler = models.Sampler(spec)
        data = [sampler.sample(60, seed, keep_hidden=False) for seed in range(7)]
        subjects = [sampler.new_subject(100 + seed) for seed in range(7)]
        stack = estimators.fit_stack(stacked(data), family, **options)
        z0 = np.array([s.z0 for s in subjects]) if spec.z_dim else None
        points = predictors.predict_individual(stack, z0, np.array([s.x0 for s in subjects])).point
        shapes, _ = stack.region_shape
        assert stack.residual_moment.shape[0] == 7 and points.shape[0] == 7
        for i, (one_data, subject) in enumerate(zip(data, subjects)):
            if family in estimators.NLS_FAMILIES:
                alone = estimators.nls_fit(one_data, family, **options)
            else:
                alone = estimators.ols_fit(one_data, family, **options)
            got = stack[i]
            assert models.to_jsonable(got) == models.to_jsonable(alone)
            assert _bits(got.residual_moment) == _bits(alone.residual_moment)
            for name in ("y_mean", "r_mean", "s_rr", "s_ry", "x_mean", "x_cov"):
                assert _bits(getattr(got.moments, name)) == _bits(getattr(alone.moments, name))
            assert _bits(shapes[i]) == _bits(alone.region_shape[0])
            z = subject.z0 if spec.z_dim else None
            assert _bits(points[i]) == _bits(predictors.predict_individual(alone, z, subject.x0).point)

    def test_nls_families_fit_one_dataset_at_a_time(self):
        spec = make_exponential_spec()
        data = [models.sample(spec, 80, seed, keep_hidden=False) for seed in range(3)]
        stack = estimators.fit_stack(stacked(data), "exponential")
        assert stack.params.scale.shape == stack.params.rate.shape == (3,)
        assert stack.converged.dtype == bool and stack.objective.shape == (3,)
        for i, one_data in enumerate(data):
            alone = estimators.nls_fit(one_data, "exponential")
            assert models.to_jsonable(stack[i]) == models.to_jsonable(alone)
            assert _bits(stack.residual_moment[i]) == _bits(alone.residual_moment)

    def test_ill_conditioning_warns_once_per_fit_when_asked(self, recwarn):
        x = np.linspace(0.0, 1.0, 12)
        collinear = handmade_dataset(2 * x + 1, x, x)
        plain = handmade_dataset(2 * x + 1, np.cos(7 * x), x)
        stack = estimators.fit_stack(stacked([plain, collinear, plain]), "linear")
        assert not recwarn.list
        stack.warn_ill_conditioned()
        assert [str(w.message) for w in recwarn.list] == ["regressor covariance condition number inf"]
        assert stack[1].notes == ("ill-conditioned regressors (cond inf)",)
        assert stack[0].notes == ()


# one spec per family, for the checks of the family table
FAMILY_SPECS = {
    "linear": make_linear_spec(),
    "polynomial": make_poly_spec(),
    "quadratic": make_quadratic_spec(),
    "exponential": make_exponential_spec(),
    "trigonometric": make_trig_spec(),
    "absolute_value": make_abs_spec(),
}


def test_the_family_table_covers_every_spec_class_and_transform():
    names = list(estimators.FAMILIES)
    assert names == list(models._SPEC_CLASSES) == [cls.family for cls in transform._TRANSFORMS]
    assert names == list(FAMILY_SPECS)
    assert estimators.NLS_FAMILIES == tuple(name for name in names if estimators.FAMILIES[name].nls)


@pytest.mark.parametrize("family", list(estimators.FAMILIES))
class TestFamilyContract:
    """Each record of ``estimators.FAMILIES`` agrees with the code that reads it."""

    def test_coefficient_vector_is_the_fields_concatenated(self, family):
        record = estimators.FAMILIES[family]
        params = transform.transform(FAMILY_SPECS[family])
        assert type(params) is record.observable
        want = np.concatenate([np.ravel(getattr(params, name)) for name in record.fields])
        assert _bits(montecarlo._coef_vector(params)) == _bits(want)

    def test_min_sample_size_is_one_more_than_the_fitted_parameters(self, family):
        """One more than the OLS regressor columns, the intercept's
        observation, or than the length of an NLS start; and a fit has one
        coefficient per fitted parameter (times the response dimension)."""
        record, spec = estimators.FAMILIES[family], FAMILY_SPECS[family]
        sizes = record.sizes(spec)
        need = estimators.min_sample_size(family, spec.z_dim, spec.latent_dim, **sizes)
        data = models.sample(spec, 60, seed=5, keep_hidden=False)
        coefs = montecarlo._coef_vector(estimators.fit_family(data, family, **sizes).params)
        if record.ols:
            r, _ = estimators._regressors(data, family, sizes.get("degree"))
            assert need == r.shape[0] + 1
            assert coefs.size == need * spec.response_dim
        else:
            x, y = data.x[:, 0], data.y[:, 0]
            assert {start.size + 1 for start in record.nls[0](x, y, sizes.get("harmonics", 1))} == {need}
            assert coefs.size == need - 1

    def test_scipy_is_loaded_for_the_nls_fits_only(self, family):
        want = ["scipy.optimize", "scipy.special"] if estimators.FAMILIES[family].nls else []
        spec = models.spec_to_dict(FAMILY_SPECS[family])
        assert cli._scipy_modules("fit-predict", {"family": family}) == want
        assert cli._scipy_modules("experiment", {"spec": spec}) == want
        assert cli._scipy_modules("transform", {"spec": spec}) == []
