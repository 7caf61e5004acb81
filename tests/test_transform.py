"""Latent-to-observable parameter transforms against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from eivpred import estimators, models, oracle, transform
from eivpred.errors import InvalidInput, SingularCovariance

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    make_trig_spec,
)


def grid_for(spec, points=100):
    if isinstance(spec, models.LinearSpec):
        sd = np.sqrt(float(spec.x_cov[0, 0]))
        center = float(spec.latent_mean[0])
    else:
        sd = np.sqrt(spec.x_var)
        center = spec.latent_mean
    return np.linspace(center - 3 * sd, center + 3 * sd, points)


class TestConditionGaussian:
    def test_no_measurement_error(self):
        spec = make_linear_spec(m=2, latent_cov=[[1.0, 0.2], [0.2, 0.8]], sigma_delta=np.zeros((2, 2)))
        cg = transform.condition_gaussian(spec)
        assert np.allclose(cg.xi_coef, np.eye(2), atol=1e-12)
        assert np.allclose(cg.g1_cov, 0.0, atol=1e-12)  # g1 degenerate at 0
        expected_eps_coef = spec.errors.sigma_eps_delta @ np.linalg.inv(spec.latent_cov)
        assert np.allclose(cg.eps_coef, expected_eps_coef, atol=1e-12)

    def test_scalar_halves_against_simulation(self):
        spec = make_linear_spec(latent_mean=[0.0], latent_cov=[[1.0]], sigma_delta=[[1.0]])
        cg = transform.condition_gaussian(spec)
        assert cg.xi_coef[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert cg.g1_cov[0, 0] == pytest.approx(0.5, abs=1e-14)
        # Monte Carlo oracle: regress the latent draw on the surrogate
        n = 1_000_000
        data = models.sample(spec, n, seed=42)
        x = data.x[:, 0]
        xi = data.hidden.xi[:, 0]
        slope = np.cov(xi, x)[0, 1] / np.var(x)
        resid = xi - slope * x
        assert slope == pytest.approx(0.5, abs=4 / np.sqrt(n) * 2)
        assert np.var(resid) == pytest.approx(0.5, rel=0.01)

    def test_determinant_identity_scalar(self):
        # det V_{1|2} = s2_xi * (s2_eps s2_delta - cross^2) / s2_x, positive
        # whenever both error variances are positive and |corr| < 1
        rng = np.random.default_rng(10)
        for _ in range(50):
            s2_xi, s2_delta, s2_eps = rng.uniform(0.2, 2.0, 3)
            corr = rng.uniform(-0.95, 0.95)
            cross = corr * np.sqrt(s2_eps * s2_delta)
            spec = make_linear_spec(
                latent_cov=[[s2_xi]],
                sigma_delta=[[s2_delta]],
                sigma_eps=[[s2_eps]],
                sigma_eps_delta=[[cross]],
            )
            cg = transform.condition_gaussian(spec)
            det = np.linalg.det(cg.cond_cov)
            s2_x = s2_xi + s2_delta
            expected = s2_xi * (s2_eps * s2_delta - cross**2) / s2_x
            assert det == pytest.approx(expected, rel=1e-9)
            assert det > 0

    def test_singular_surrogate_covariance_raises(self):
        spec = make_linear_spec(latent_cov=[[0.0]], sigma_delta=[[0.0]])
        with pytest.raises(SingularCovariance):
            transform.condition_gaussian(spec)

    def test_conditional_covariance_psd_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            d, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            basis = rng.standard_normal((d + m, d + m + 1))
            stacked = basis @ basis.T  # PSD, possibly near-singular
            spec = make_linear_spec(
                d=d,
                q=0,
                m=m,
                intercept=np.zeros(d),
                latent_slopes=np.zeros((m, d)),
                latent_mean=rng.standard_normal(m),
                latent_cov=np.eye(m),
                sigma_e=np.zeros((d, d)),
                sigma_eps=stacked[:d, :d],
                sigma_delta=stacked[d:, d:],
                sigma_eps_delta=stacked[:d, d:],
            )
            cg = transform.condition_gaussian(spec)
            scale = max(np.max(np.abs(cg.cond_cov)), 1.0)
            assert np.min(np.linalg.eigvalsh(cg.cond_cov)) >= -1e-10 * scale


class TestTransformLinear:
    def test_no_error_case(self):
        spec = make_linear_spec(
            sigma_delta=[[0.0]], sigma_eps=[[0.4]], sigma_e=[[0.2]], sigma_eps_delta=[[0.0]]
        )
        params = transform.transform_linear(spec)
        assert np.allclose(params.intercept, spec.intercept, atol=1e-12)
        assert np.allclose(params.x_slopes, spec.latent_slopes, atol=1e-12)
        assert np.allclose(params.residual_cov, [[0.6]], atol=1e-12)

    def test_attenuation_against_simulated_ols(self):
        spec = make_linear_spec(latent_mean=[0.0], latent_cov=[[1.0]], sigma_delta=[[1.0]])
        params = transform.transform_linear(spec)
        assert params.x_slopes[0, 0] == pytest.approx(0.5, abs=1e-14)
        # independent oracle: plain normal-equations OLS on a large sample
        data = models.sample(spec, 1_000_000, seed=8)
        design = np.column_stack([np.ones(data.n), data.z, data.x])
        coef, *_ = np.linalg.lstsq(design, data.y[:, 0], rcond=None)
        assert coef[2] == pytest.approx(0.5, abs=0.01)

    def test_hand_computed_values(self):
        spec = make_linear_spec(
            intercept=[0.0],
            q=0,
            latent_mean=[2.0],
            latent_cov=[[1.0]],
            sigma_delta=[[1.0]],
            sigma_eps=[[1.0]],
            sigma_eps_delta=[[0.3]],
        )
        params = transform.transform_linear(spec)
        assert params.x_slopes[0, 0] == pytest.approx(0.65, abs=1e-14)
        assert params.intercept[0] == pytest.approx(0.7, abs=1e-14)

    def test_residual_moments_against_simulation(self):
        spec = make_linear_spec(
            d=2,
            q=2,
            m=1,
            intercept=[1.0, -0.5],
            z_slopes=[[0.5, 0.1], [-0.3, 0.7]],
            latent_slopes=[[1.0, 0.4]],
            latent_mean=[2.0],
            latent_cov=[[1.0]],
            sigma_e=[[0.2, 0.0], [0.0, 0.3]],
            sigma_eps=[[0.3, 0.05], [0.05, 0.2]],
            sigma_delta=[[0.8]],
            sigma_eps_delta=[[0.1], [0.05]],
        )
        params = transform.transform_linear(spec)
        n = 1_000_000
        data = models.sample(spec, n, seed=14)
        resid = data.y - transform.predict_rows(params, data.z, data.x)
        # zero mean within 4 standard errors
        for j in range(2):
            se = resid[:, j].std(ddof=1) / np.sqrt(n)
            assert abs(resid[:, j].mean()) <= 4 * se
        # uncorrelated with every observable regressor within 4 SE
        regs = np.column_stack([data.z, data.x])
        for j in range(2):
            for k in range(regs.shape[1]):
                prods = resid[:, j] * (regs[:, k] - regs[:, k].mean())
                se = prods.std(ddof=1) / np.sqrt(n)
                assert abs(prods.mean()) <= 4 * se
        # covariance matches the closed form within 4 SE per entry
        for i in range(2):
            for j in range(2):
                prods = resid[:, i] * resid[:, j]
                se = prods.std(ddof=1) / np.sqrt(n)
                assert abs(prods.mean() - params.residual_cov[i, j]) <= 4 * se

    def test_degenerate_latent_cov_limit(self):
        # latent point mass: residual u = e + eps - cross/s2_delta * delta
        spec = make_linear_spec(
            q=0,
            latent_cov=[[0.0]],
            sigma_e=[[0.1]],
            sigma_eps=[[1.0]],
            sigma_delta=[[0.5]],
            sigma_eps_delta=[[0.3]],
        )
        params = transform.transform_linear(spec)
        expected_var = 0.1 + 1.0 - 0.3**2 / 0.5
        assert params.residual_cov[0, 0] == pytest.approx(expected_var, abs=1e-12)
        assert expected_var > 0

    def test_residual_cov_positive_definite_under_nonsingularity(self):
        # condition: either the equation-error covariance or the conditional
        # covariance of (g1, g2) is positive definite
        rng = np.random.default_rng(3)
        for _ in range(25):
            d, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            basis = rng.standard_normal((d + m, d + m))
            stacked = basis @ basis.T + 0.05 * np.eye(d + m)  # full-rank error law
            spec = make_linear_spec(
                d=d,
                q=0,
                m=m,
                intercept=rng.standard_normal(d),
                latent_slopes=rng.standard_normal((m, d)),
                latent_mean=rng.standard_normal(m),
                latent_cov=np.eye(m),
                sigma_e=np.zeros((d, d)),
                sigma_eps=stacked[:d, :d],
                sigma_delta=stacked[d:, d:],
                sigma_eps_delta=stacked[:d, d:],
            )
            params = transform.transform_linear(spec)
            assert np.min(np.linalg.eigvalsh(params.residual_cov)) > 0
        # other branch: degenerate conditional law but full-rank equation error
        for _ in range(10):
            d = int(rng.integers(1, 3))
            eq_basis = rng.standard_normal((d, d))
            spec = make_linear_spec(
                d=d,
                q=0,
                m=1,
                intercept=rng.standard_normal(d),
                latent_slopes=rng.standard_normal((1, d)),
                latent_mean=[0.0],
                latent_cov=[[1.0]],
                sigma_e=eq_basis @ eq_basis.T + 0.05 * np.eye(d),
                sigma_eps=np.zeros((d, d)),
                sigma_delta=[[0.0]],
                sigma_eps_delta=np.zeros((d, 1)),
            )
            params = transform.transform_linear(spec)
            assert np.min(np.linalg.eigvalsh(params.residual_cov)) > 0


class TestGaussianCentralMoment:
    def test_trivial_values(self):
        assert transform.gaussian_central_moment(1, 3.7) == 0.0
        assert transform.gaussian_central_moment(2, 1.0) == 1.0
        assert transform.gaussian_central_moment(4, 2.0) == 12.0
        assert transform.gaussian_central_moment(0, 5.0) == 1.0

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidInput):
            transform.gaussian_central_moment(2, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=12),
        variance=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_recursion(self, p, variance):
        lhs = transform.gaussian_central_moment(p, variance)
        rhs = (p - 1) * variance * transform.gaussian_central_moment(p - 2, variance)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTransformPolynomial:
    def test_no_error_identity(self):
        spec = make_poly_spec(sigma2_delta=0.0, sigma_eps_delta=0.0)
        params = transform.transform_polynomial(spec)
        assert params.intercept == pytest.approx(spec.intercept, abs=1e-14)
        assert np.allclose(params.coefs, spec.coefs, atol=1e-14)

    def test_quadratic_closed_form(self):
        # k=2, curvature 1, K=1/2, centered: top coefficient K^2, slope zero,
        # intercept picks up curvature * Var(g1)
        spec = make_poly_spec(
            intercept=0.0,
            coefs=[0.0, 1.0],
            latent_mean=0.0,
            latent_var=1.0,
            sigma2_delta=1.0,
            sigma2_eps=0.0,
            sigma_eps_delta=0.0,
        )
        params = transform.transform_polynomial(spec)
        assert params.coefs[1] == pytest.approx(0.25, abs=1e-15)
        assert params.coefs[0] == pytest.approx(0.0, abs=1e-15)
        assert params.intercept == pytest.approx(1.0 * 0.5 * 1.0, abs=1e-15)  # K Var(delta)

    def test_quadratic_identity_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            spec = make_poly_spec(
                intercept=rng.standard_normal(),
                coefs=rng.standard_normal(2),
                latent_mean=rng.standard_normal(),
                latent_var=rng.uniform(0.2, 2.0),
                sigma2_delta=rng.uniform(0.2, 2.0),
                sigma2_eps=0.0,
                sigma_eps_delta=0.0,
            )
            params = transform.transform_polynomial(spec)
            k = spec.reliability
            mu = spec.latent_mean
            b1, b2 = spec.coefs
            scale = max(abs(b1), abs(b2), 1.0)
            assert abs(params.coefs[0] - (b1 * k + 2 * b2 * k * (1 - k) * mu)) <= 1e-14 * scale * 10
            assert abs(params.coefs[1] - b2 * k**2) <= 1e-14 * scale

    def test_cubic_matches_quadrature_oracle(self):
        spec = make_poly_spec()
        params = transform.transform_polynomial(spec)
        z0 = [0.0]
        for x in grid_for(spec):
            closed = params.predict(z0, x)
            quad = oracle.conditional_expectation(spec, x)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_zero_x_variance_raises(self):
        spec = make_poly_spec(latent_var=0.0, sigma2_delta=0.0, sigma_eps_delta=0.0, sigma2_eps=0.0)
        with pytest.raises(SingularCovariance):
            transform.transform_polynomial(spec)


class TestQuadraticVariance:
    def test_linear_subcase_constant(self):
        spec = make_quadratic_spec(curvature=0.0)
        g1_var = spec.reliability * spec.sigma2_delta
        expected = spec.sigma2_e + spec.slope**2 * g1_var
        for x in (-3.0, 0.0, 5.0):
            var_u, m_u2, bound = transform.transform_quadratic_variance(spec, x, k0=0.4)
            assert var_u == pytest.approx(expected, abs=1e-14)
            assert bound == 0.0
            assert m_u2 == pytest.approx(expected, abs=1e-14)

    def test_at_center_bound_reduces_to_mean_term(self):
        spec = make_quadratic_spec()
        var_u, m_u2, bound = transform.transform_quadratic_variance(spec, spec.latent_mean, k0=0.5)
        assert bound == 0.0  # clamped bracket of a nonpositive quantity plus zero

    def test_exact_variance_matches_identity(self):
        # Var(u|x) - m_u2 == 4 (1/K - 1) Var(x) [c2x^2 (x^2-mu^2-s2x) + c1x c2x (x-mu)]
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = make_quadratic_spec(
                slope=rng.standard_normal(),
                curvature=rng.standard_normal(),
                latent_mean=rng.standard_normal(),
                latent_var=rng.uniform(0.3, 2.0),
                sigma2_delta=rng.uniform(0.3, 2.0),
            )
            obs = transform.transform_quadratic(spec)
            k = spec.reliability
            for x in rng.uniform(-4, 4, 10):
                var_u, m_u2, _ = transform.transform_quadratic_variance(spec, x, k0=0.4)
                h = obs.curvature**2 * (x**2 - spec.latent_mean**2 - spec.x_var) + (
                    obs.slope * obs.curvature * (x - spec.latent_mean)
                )
                ident = 4.0 * (1.0 / k - 1.0) * spec.x_var * h
                assert var_u - m_u2 == pytest.approx(ident, rel=1e-9, abs=1e-9)

    def test_bound_holds_on_grid_for_all_reliability_above_floor(self):
        rng = np.random.default_rng(29)
        k0 = 0.3
        x_var = 2.0
        for _ in range(10):
            slope = rng.standard_normal()
            curvature = rng.standard_normal()
            mu = rng.standard_normal()
            for k_true in np.linspace(k0, 0.99, 8):
                spec = models.QuadraticSpec(
                    intercept=0.0,
                    slope=slope,
                    curvature=curvature,
                    latent_mean=mu,
                    latent_var=k_true * x_var,
                    sigma2_e=0.1,
                    sigma2_delta=(1 - k_true) * x_var,
                )
                for x in np.linspace(mu - 6, mu + 6, 125):
                    var_u, m_u2, bound = transform.transform_quadratic_variance(spec, x, k0=k0)
                    assert var_u <= m_u2 + 4.0 * (1.0 / k0 - 1.0) * x_var * bound + 1e-9

    def test_invalid_reliability_floor(self):
        spec = make_quadratic_spec()
        for bad in (0.0, 0.6, -0.1, 1.0):
            with pytest.raises(InvalidInput):
                transform.transform_quadratic_variance(spec, 0.0, k0=bad)


class TestTransformExponential:
    def test_no_error_identity(self):
        spec = make_exponential_spec(sigma2_delta=0.0)
        params = transform.transform_exponential(spec)
        assert params.scale == pytest.approx(spec.scale, abs=1e-14)
        assert params.rate == pytest.approx(spec.rate, abs=1e-14)

    def test_constant_function_unchanged(self):
        spec = make_exponential_spec(rate=0.0)
        params = transform.transform_exponential(spec)
        assert params.scale == pytest.approx(spec.scale, abs=1e-14)
        assert params.rate == 0.0

    def test_hand_values_and_oracle(self):
        spec = make_exponential_spec(scale=2.0, rate=1.0, latent_mean=1.0, latent_var=1.0, sigma2_delta=1.0)
        params = transform.transform_exponential(spec)
        assert params.scale == pytest.approx(2.0 * np.exp(0.5) * np.exp(0.25), rel=1e-14)
        assert params.rate == pytest.approx(0.5, abs=1e-15)
        for x in grid_for(spec):
            assert params.predict(None, x) == pytest.approx(
                oracle.conditional_expectation(spec, x), abs=1e-8
            )

    @pytest.mark.parametrize("x0", [1000.0, -1000.0, 350.0])
    def test_scalar_and_row_paths_agree_at_large_x0(self, x0):
        params = transform.ExponentialObservable(scale=1.0, rate=2.0)
        scalar = params.predict(None, [x0])  # the exponent is clipped, not overflowed
        rows = transform.predict_rows(params, None, np.array([[x0]]))[0, 0]
        assert np.isfinite(scalar)
        assert scalar == pytest.approx(rows, rel=1e-15)


_ONE_ROW_SPECS = {
    "linear": lambda: make_linear_spec(d=2, q=2, m=2, latent_cov=[[1.0, 0.3], [0.3, 0.8]]),
    "polynomial": lambda: make_poly_spec(
        z_slopes=[0.4], z_dist=models.ZDistribution("gaussian", mean=[0.0], cov=[[1.0]])
    ),
    "quadratic": make_quadratic_spec,
    "exponential": make_exponential_spec,
    "trigonometric": make_trig_spec,
    "absolute_value": make_abs_spec,
}


@pytest.mark.parametrize("family", sorted(_ONE_ROW_SPECS))
def test_predict_is_one_row_of_predict_rows(family):
    spec = _ONE_ROW_SPECS[family]()
    params = transform.transform(spec)
    assert params.family == family
    rng = np.random.default_rng(7)
    for _ in range(200):
        x0 = rng.normal(scale=4.0, size=spec.latent_dim)
        z0 = rng.normal(size=spec.z_dim) if spec.z_dim else None
        row = transform.predict_rows(params, None if z0 is None else z0[None, :], x0[None, :])[0]
        point = params.predict(z0, x0)
        if family == "linear":
            assert point.shape == (spec.response_dim,)
            assert np.array_equal(point, row)
        else:
            assert type(point) is float
            assert point == row[0]


class TestTransformTrig:
    def test_no_error_identity(self):
        spec = make_trig_spec(sigma2_delta=0.0)
        params = transform.transform_trig(spec)
        assert np.allclose(params.cos_amps, spec.cos_amps, atol=1e-14)
        assert np.allclose(params.sin_amps, spec.sin_amps, atol=1e-14)
        assert params.freq == pytest.approx(spec.freq, abs=1e-15)

    def test_large_error_damps_to_unconditional_mean(self):
        # reliability near zero: the surrogate carries almost no information,
        # so the conditional mean flattens onto the unconditional mean
        spec = make_trig_spec(latent_var=6.0, sigma2_delta=600.0)
        params = transform.transform_trig(spec)
        assert np.max(np.abs(params.cos_amps)) < 1e-2
        assert np.max(np.abs(params.sin_amps)) < 1e-2
        assert params.const == spec.const
        k = np.arange(1, spec.harmonics + 1)
        damp = np.exp(-0.5 * (k * spec.freq) ** 2 * spec.latent_var)
        mean_y = spec.const + float(
            damp
            @ (
                spec.cos_amps * np.cos(k * spec.freq * spec.latent_mean)
                + spec.sin_amps * np.sin(k * spec.freq * spec.latent_mean)
            )
        )
        for x in (-20.0, 0.0, 20.0):
            assert params.predict(None, x) == pytest.approx(mean_y, abs=0.02)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = make_trig_spec(
                cos_amps=rng.standard_normal(2),
                sin_amps=rng.standard_normal(2),
                freq=rng.uniform(0.5, 2.0),
                latent_mean=rng.standard_normal(),
            )
            params = transform.transform_trig(spec)
            for x in grid_for(spec, points=40):
                assert params.predict(None, x) == pytest.approx(
                    oracle.conditional_expectation(spec, x), abs=1e-8
                )


class TestAbsF:
    def test_at_zero(self):
        assert transform.abs_F(0.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(min_value=-30, max_value=30))
    def test_even_function(self, a):
        assert transform.abs_F(a) == pytest.approx(transform.abs_F(-a), rel=1e-14)

    def test_against_adaptive_quadrature(self):
        for a in (0.3, 1.0, 3.0, -2.5):
            target, _ = integrate.quad(
                lambda t: abs(t + a) * np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi),
                -12.0,
                12.0,
                points=[-a],
                limit=200,
            )
            assert transform.abs_F(a) == pytest.approx(target, abs=1e-9)

    def test_large_argument_asymptote(self):
        assert transform.abs_F(40.0) == pytest.approx(40.0, rel=1e-12)


# magnitudes whose sixth power stays a normal double
_MAGNITUDES = st.floats(min_value=1e-40, max_value=1e40)
_BASIS_POINTS = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda v: -v))


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(_BASIS_POINTS, min_size=1, max_size=20),
    k=st.integers(min_value=1, max_value=estimators.MAX_POLY_DEGREE),
)
@example(xs=[0.0, -1.5, 3e39, -7e-39], k=estimators.MAX_POLY_DEGREE)
def test_power_basis_matches_raw_powers(xs, k):
    """Each column x^j is k - 1 rounded products at most, so it lies within
    k ulps (relative) of the correctly rounded power."""
    x = np.array(xs)
    reference = x[:, None] ** np.arange(1, k + 1)
    basis = transform.power_basis(x, k)
    assert basis.shape == reference.shape
    np.testing.assert_allclose(basis, reference, rtol=k * np.finfo(float).eps, atol=0)


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(_BASIS_POINTS, min_size=1, max_size=24),
    rows=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=estimators.MAX_POLY_DEGREE),
)
def test_power_basis_is_the_product_chain(xs, rows, k):
    """Column j + 1 is column j times x, exactly, for a vector and for a
    stack of R rows of x (cut from ``xs``); the result is C-contiguous, with
    the powers along the last axis or, for ``axis=-2``, the one before it."""
    x = np.array(xs)
    for points in (x, x[: len(xs) // rows * rows].reshape(rows, -1)):
        basis = transform.power_basis(points, k)
        columns = transform.power_basis(points, k, axis=-2)
        assert basis.shape == (*points.shape, k)
        assert columns.shape == (*points.shape[:-1], k, points.shape[-1])
        assert basis.flags.c_contiguous and columns.flags.c_contiguous
        column = points
        for j in range(k):
            assert np.array_equal(basis[..., j], column)
            assert np.array_equal(columns[..., j, :], column)
            column = column * points


def test_power_basis_has_one_home():
    assert transform.power_basis is models.power_basis is estimators.power_basis


class TestTransformAbs:
    def test_hand_values(self):
        spec = make_abs_spec(scale=1.0, shift=0.0, latent_mean=0.0, latent_var=1.0, sigma2_delta=1.0)
        params = transform.transform_abs(spec)
        assert params.scale == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert params.gain == pytest.approx(np.sqrt(0.5), rel=1e-14)
        assert params.offset == pytest.approx(0.0, abs=1e-14)

    def test_shift_moves_only_offset(self):
        base = make_abs_spec(shift=0.5, latent_mean=0.0)
        moved = make_abs_spec(shift=1.7, latent_mean=0.0)
        p0 = transform.transform_abs(base)
        p1 = transform.transform_abs(moved)
        assert p1.scale == p0.scale
        assert p1.gain == p0.gain
        sd_delta = np.sqrt(base.sigma2_delta)
        root_k = np.sqrt(base.reliability)
        assert p1.offset - p0.offset == pytest.approx(1.2 / (sd_delta * root_k), rel=1e-12)

    def test_matches_quadrature_oracle(self):
        spec = make_abs_spec()
        params = transform.transform_abs(spec)
        for x in grid_for(spec):
            assert params.predict(None, x) == pytest.approx(
                oracle.conditional_expectation(spec, x), abs=1e-8
            )

    def test_zero_variances_rejected(self):
        with pytest.raises(InvalidInput):
            transform.transform_abs(make_abs_spec(sigma2_delta=0.0))
        with pytest.raises(InvalidInput):
            transform.transform_abs(make_abs_spec(latent_var=0.0))


def test_linear_transform_matches_oracle_multivariate():
    spec = make_linear_spec(
        d=2,
        q=1,
        m=2,
        intercept=[1.0, -0.5],
        z_slopes=[[0.5, 0.1]],
        latent_slopes=[[1.0, 0.4], [-0.2, 0.9]],
        latent_mean=[0.5, -1.0],
        latent_cov=[[1.0, 0.3], [0.3, 0.8]],
        sigma_e=np.diag([0.2, 0.1]),
        sigma_eps=np.diag([0.3, 0.2]),
        sigma_delta=[[0.6, 0.1], [0.1, 0.5]],
        sigma_eps_delta=[[0.1, 0.0], [0.05, -0.1]],
    )
    params = transform.transform_linear(spec)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x0 = spec.latent_mean + rng.standard_normal(2)
        z0 = rng.standard_normal(1)
        closed = params.predict(z0, x0)
        quad = oracle.conditional_expectation(spec, x0, nodes=24, z0=z0)
        assert np.allclose(closed, quad, atol=1e-8)
