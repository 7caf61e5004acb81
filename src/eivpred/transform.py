"""Exact maps from latent-regression parameters to observable-regression
parameters.

Because the latent covariate, its measurement error and the response
measurement error are jointly Gaussian, conditioning on the surrogate
``x = xi + delta`` keeps the regression of ``y`` on the observables inside
the same parametric family, with transformed coefficients.  This module
computes those coefficients in closed form for every supported family; the
``oracle`` module provides the independent quadrature check.

The central identities, with ``mu = E[x]`` and reliability ``K``:

    xi  = a + K x + g1,        a = Var(delta) mu / Var(x),  K = Var(xi)/Var(x)
    eps = f (x - mu) + g2,     f = Cov(eps, delta) / Var(x)

where (g1, g2) is a zero-mean Gaussian vector independent of x whose
covariance is the Schur complement of Var(x) in the joint covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidInput, SingularCovariance
from .linalg import min_eigenvalue
from .models import (
    AbsSpec,
    ExponentialSpec,
    LinearSpec,
    ModelSpec,
    PolynomialSpec,
    QuadraticSpec,
    TrigSpec,
    power_basis,
    to_jsonable,
)

__all__ = [
    "ConditionalGaussian",
    "LinearObservable",
    "PolynomialObservable",
    "QuadraticObservable",
    "ExponentialObservable",
    "TrigObservable",
    "AbsObservable",
    "TransformedParams",
    "condition_gaussian",
    "gaussian_central_moment",
    "transform_linear",
    "transform_polynomial",
    "transform_quadratic",
    "transform_exponential",
    "transform_trig",
    "transform_abs",
    "transform",
    "transform_quadratic_variance",
    "quadratic_bound_term",
    "abs_F",
    "power_basis",
    "params_to_dict",
]

_SING_TOL = 1e-12


# ---------------------------------------------------------------------------
# Gaussian conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionalGaussian:
    """Regression of (xi, eps) on x implied by joint Gaussianity.

    ``xi = xi_offset + xi_coef @ x + g1`` and ``eps = eps_coef @ (x - mean) +
    g2``, where (g1, g2) ~ N(0, cond_cov) is independent of x.
    """

    xi_coef: np.ndarray  # (m, m)
    xi_offset: np.ndarray  # (m,)
    eps_coef: np.ndarray  # (d, m)
    cond_cov: np.ndarray  # (m + d, m + d)

    @property
    def g1_cov(self) -> np.ndarray:
        m = self.xi_coef.shape[0]
        return self.cond_cov[:m, :m]


def condition_gaussian(spec: ModelSpec) -> ConditionalGaussian:
    """Condition the stacked vector (xi, eps) on the surrogate x."""
    mu, s_xi, errors = spec.gaussian_blocks()
    s_eps, s_delta, s_cross = errors.sigma_eps, errors.sigma_delta, errors.sigma_eps_delta
    s_x = s_xi + s_delta
    scale = max(float(np.max(np.abs(s_x))), 1.0)
    if min_eigenvalue(s_x) <= _SING_TOL * scale:
        raise SingularCovariance("Cov(x) is singular")
    m = s_xi.shape[0]
    d = s_eps.shape[0]
    x_prec = np.linalg.inv(s_x)
    top = np.block([[s_xi, np.zeros((m, d))], [np.zeros((d, m)), s_eps]])
    cross = np.vstack([s_xi, s_cross])  # Cov((xi, eps), x), (m + d, m)
    cond_cov = top - cross @ x_prec @ cross.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return ConditionalGaussian(
        xi_coef=s_xi @ x_prec,
        xi_offset=s_delta @ x_prec @ mu,
        eps_coef=s_cross @ x_prec,
        cond_cov=cond_cov,
    )


def gaussian_central_moment(p: int, variance: float) -> float:
    """Central moment E[g^p] of g ~ N(0, variance).

    Zero for odd p; (p - 1)!! * variance^(p/2) for even p.
    """
    if p < 0:
        raise InvalidInput("moment order must be nonnegative")
    if variance < 0:
        raise InvalidInput("variance must be nonnegative")
    if p % 2 == 1:
        return 0.0
    double_fact = math.prod(range(p - 1, 0, -2)) if p >= 2 else 1
    return float(double_fact) * variance ** (p // 2)


# ---------------------------------------------------------------------------
# transformed parameter containers
# ---------------------------------------------------------------------------


class _Observable:
    """Shared point evaluation of an observable regression surface."""

    def predict(self, z0, x0):
        """Surface at one point through :func:`predict_rows`: a float for the
        scalar-response families, a (d,) vector for the linear family."""
        z = None if z0 is None else np.asarray(z0, dtype=float).reshape(1, -1)
        row = predict_rows(self, z, np.asarray(x0, dtype=float).reshape(1, -1))[0]
        return row if isinstance(self, LinearObservable) else float(row[0])


@dataclass(frozen=True, eq=False)
class LinearObservable(_Observable):
    """Observable-regression parameters of the linear family."""

    intercept: np.ndarray  # (d,)
    z_slopes: np.ndarray  # (q, d)
    x_slopes: np.ndarray  # (m, d)
    residual_cov: Optional[np.ndarray] = None  # (d, d)

    family = "linear"


@dataclass(frozen=True, eq=False)
class PolynomialObservable(_Observable):
    """Observable-regression parameters of the polynomial family."""

    intercept: float
    coefs: np.ndarray  # (k,)
    z_slopes: np.ndarray  # (q,)
    latent_offset: Optional[float] = None  # a in xi = a + K x + g1
    reliability: Optional[float] = None  # K
    latent_cond_var: Optional[float] = None  # Var(g1) = K Var(delta)

    family = "polynomial"


@dataclass(frozen=True, eq=False)
class QuadraticObservable(_Observable):
    """Observable-regression parameters of the quadratic family."""

    intercept: float
    slope: float
    curvature: float
    reliability: Optional[float] = None
    mean_resid_var: Optional[float] = None  # E[Var(u | x)]

    family = "quadratic"


@dataclass(frozen=True, eq=False)
class ExponentialObservable(_Observable):
    scale: float
    rate: float

    family = "exponential"


@dataclass(frozen=True, eq=False)
class TrigObservable(_Observable):
    const: float
    cos_amps: np.ndarray
    sin_amps: np.ndarray
    freq: float

    family = "trigonometric"


@dataclass(frozen=True, eq=False)
class AbsObservable(_Observable):
    """Observable mean shape scale * F(gain * x + offset) of the
    absolute-value family, with F the folded-normal mean function."""

    scale: float
    gain: float
    offset: float

    family = "absolute_value"


TransformedParams = Union[
    LinearObservable,
    PolynomialObservable,
    QuadraticObservable,
    ExponentialObservable,
    TrigObservable,
    AbsObservable,
]


# ---------------------------------------------------------------------------
# family transforms
# ---------------------------------------------------------------------------


def transform_linear(spec: LinearSpec) -> LinearObservable:
    """Observable-regression parameters and residual covariance.

    intercept_x = b + B' S_delta S_x^-1 mu - S_ed S_x^-1 mu
    x_slopes'   = B' S_xi S_x^-1 + S_ed S_x^-1
    residual    = e + B' g1 + g2, with covariance assembled from the
                  conditional covariance of (g1, g2).
    """
    cg = condition_gaussian(spec)
    b = spec.intercept
    bmat = spec.latent_slopes  # (m, d)
    d = spec.response_dim
    m = spec.latent_dim
    intercept = b + bmat.T @ cg.xi_offset - cg.eps_coef @ spec.latent_mean
    x_slopes = cg.xi_coef.T @ bmat + cg.eps_coef.T  # (m, d)
    mix = np.hstack([bmat.T, np.eye(d)])  # (d, m + d)
    residual_cov = spec.errors.sigma_e + mix @ cg.cond_cov @ mix.T
    residual_cov = 0.5 * (residual_cov + residual_cov.T)
    return LinearObservable(
        intercept=intercept,
        z_slopes=spec.z_slopes.copy(),
        x_slopes=x_slopes,
        residual_cov=residual_cov,
    )


def _poly_ingredients(spec) -> tuple[float, float, float]:
    """(a, K, Var(g1)) of the scalar conditional decomposition."""
    s2x = spec.x_var
    if s2x <= 0:
        raise SingularCovariance("Var(x) must be positive")
    reliability = spec.latent_var / s2x
    offset = spec.sigma2_delta * spec.latent_mean / s2x
    return offset, reliability, reliability * spec.sigma2_delta


def _poly_latent_coefs(spec) -> np.ndarray:
    if isinstance(spec, QuadraticSpec):
        return np.array([spec.slope, spec.curvature])
    return spec.coefs


def transform_polynomial(spec: Union[PolynomialSpec, QuadraticSpec]) -> PolynomialObservable:
    """Exact coefficient collection of the observable polynomial regression.

    Expands sum_j beta_j (a + K x + g1)^j, takes the conditional expectation
    term by term using the Gaussian central moments of g1, and adds the
    linear-in-x response-error correction.  Exact to machine precision.
    """
    offset, reliability, g1_var = _poly_ingredients(spec)
    beta = _poly_latent_coefs(spec)
    degree = beta.shape[0]
    coef = np.zeros(degree + 1)
    coef[0] = spec.intercept
    base = np.array([offset, reliability])  # a + K x as a polynomial in x
    for j in range(1, degree + 1):
        for p in range(0, j + 1):
            moment = gaussian_central_moment(p, g1_var)
            if moment == 0.0:
                continue
            weight = beta[j - 1] * math.comb(j, p) * moment
            poly = npoly.polypow(base, j - p)
            coef[: poly.shape[0]] += weight * poly
    cross = spec.sigma_eps_delta
    if cross:
        s2x = spec.x_var
        coef[0] += -cross * spec.latent_mean / s2x
        coef[1] += cross / s2x
    z_slopes = getattr(spec, "z_slopes", np.zeros(0))
    return PolynomialObservable(
        intercept=float(coef[0]),
        coefs=coef[1:].copy(),
        z_slopes=np.asarray(z_slopes, dtype=float).copy(),
        latent_offset=offset,
        reliability=reliability,
        latent_cond_var=g1_var,
    )


def _quadratic_mean_resid_var(spec: QuadraticSpec) -> float:
    """m_{u^2} = E[Var(u | x)] for the quadratic family."""
    _, reliability, g1_var = _poly_ingredients(spec)
    mu = spec.latent_mean
    mean_sq = spec.slope**2 + 4 * spec.slope * spec.curvature * mu + 4 * spec.curvature**2 * (
        mu**2 + reliability**2 * spec.x_var
    )
    return spec.sigma2_e + mean_sq * g1_var + 2 * spec.curvature**2 * g1_var**2


def transform_quadratic(spec: QuadraticSpec) -> QuadraticObservable:
    poly = transform_polynomial(spec)
    return QuadraticObservable(
        intercept=poly.intercept,
        slope=float(poly.coefs[0]),
        curvature=float(poly.coefs[1]),
        reliability=poly.reliability,
        mean_resid_var=_quadratic_mean_resid_var(spec),
    )


def quadratic_bound_term(x, mean, x_var, slope_x, curvature_x, k0: float):
    """Computable term G of the conditional-variance bound.

    Built from observable-scale quantities only; both the bracketed piece and
    the slope-curvature piece are clamped at zero so that

        Var(u | x) <= m_{u^2} + 4 (1/k0 - 1) Var(x) G(x)

    holds whenever the true reliability ratio is at least ``k0``.  Every
    argument but ``k0`` may be a float or an array (one entry per fit of a
    stack), and G is evaluated elementwise.
    """
    if not 0 < k0 <= 0.5:
        raise InvalidInput("reliability lower bound must lie in (0, 1/2]")
    dev = x - mean
    neg_term = 2.0 * np.maximum(-(mean * dev), 0.0) * (1.0 - k0) ** 2 * (1.0 + 1.0 / k0)
    # squares through C pow, as Python's float ``v**2`` computes them, so that
    # each entry equals G on Python floats: numpy's ``**`` multiplies, which
    # differs from pow in the last bit for about one value in a thousand
    bracket = np.float_power(x, 2) - np.float_power(mean, 2) - x_var + neg_term
    cross = np.maximum(slope_x * curvature_x * dev, 0.0)
    return np.float_power(curvature_x, 2) * np.maximum(bracket, 0.0) + cross


def transform_quadratic_variance(
    spec: QuadraticSpec, x: float, k0: float
) -> tuple[float, float, float]:
    """Exact Var(u | x), its mean over x, and the bound term G at ``x``.

    The exact conditional variance uses the latent parameters; G uses only
    observable-scale quantities plus the reliability lower bound ``k0``.
    """
    _, reliability, g1_var = _poly_ingredients(spec)
    mu = spec.latent_mean
    m_x = reliability * x + (1.0 - reliability) * mu
    var_u = (
        spec.sigma2_e
        + (spec.slope + 2.0 * m_x * spec.curvature) ** 2 * g1_var
        + 2.0 * spec.curvature**2 * g1_var**2
    )
    quad = transform_quadratic(spec)
    bound = quadratic_bound_term(x, mu, spec.x_var, quad.slope, quad.curvature, k0)
    return float(var_u), float(quad.mean_resid_var), float(bound)


def transform_exponential(spec: ExponentialSpec) -> ExponentialObservable:
    """scale_x = scale * exp(rate (1 - K) mu) * exp(rate^2 K Var(delta) / 2);
    rate_x = K * rate."""
    _, reliability, g1_var = _poly_ingredients(spec)
    scale_x = (
        spec.scale
        * math.exp(spec.rate * (1.0 - reliability) * spec.latent_mean)
        * math.exp(spec.rate**2 * g1_var / 2.0)
    )
    return ExponentialObservable(scale=scale_x, rate=reliability * spec.rate)


def transform_trig(spec: TrigSpec) -> TrigObservable:
    """Per-harmonic damping and phase shift of the trigonometric family.

    E[cos(k w xi) | x] = exp(-k^2 w^2 Var(g1)/2) cos(k w m_x) with
    m_x = K x + (1 - K) mu, and similarly for the sine, which yields damped
    coefficients at the reduced frequency K w with phase offset
    k w (1 - K) mu per harmonic.
    """
    _, reliability, g1_var = _poly_ingredients(spec)
    k = np.arange(1, spec.harmonics + 1)
    damp = np.exp(-0.5 * (k * spec.freq) ** 2 * g1_var)
    phase = k * spec.freq * (1.0 - reliability) * spec.latent_mean
    cos_x = damp * (spec.cos_amps * np.cos(phase) + spec.sin_amps * np.sin(phase))
    sin_x = damp * (spec.sin_amps * np.cos(phase) - spec.cos_amps * np.sin(phase))
    return TrigObservable(
        const=spec.const,
        cos_amps=cos_x,
        sin_amps=sin_x,
        freq=reliability * spec.freq,
    )


def abs_F(a):
    """Mean of |g + a| for standard normal g: 2 phi(a) + a (2 Phi(a) - 1).

    Even in ``a``; evaluated on the nonnegative branch where every term is
    positive, so there is no cancellation for large |a|.  Vectorized.
    """
    out = _folded_normal(np.asarray(a, dtype=float))[0]
    return out if out.ndim else float(out)


def _folded_normal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``abs_F(a)`` and its derivative erf(a / sqrt 2), from one erf: erf is odd to the bit."""
    from scipy.special import erf  # about 0.3 s to import, so loaded on first use

    mag = np.abs(a)
    pdf = np.exp(-0.5 * mag**2) / np.sqrt(2.0 * np.pi)
    erf_mag = erf(mag / np.sqrt(2.0))
    return 2.0 * pdf + mag * erf_mag, np.copysign(erf_mag, a)


def transform_abs(spec: AbsSpec) -> AbsObservable:
    """E[y | x] = scale_x F(gain_x x + offset_x) for the absolute-value family."""
    if spec.latent_var <= 0 or spec.sigma2_delta <= 0:
        raise InvalidInput("absolute-value transform requires positive latent and error variances")
    _, reliability, _ = _poly_ingredients(spec)
    sd_delta = math.sqrt(spec.sigma2_delta)
    root_k = math.sqrt(reliability)
    return AbsObservable(
        scale=spec.scale * sd_delta * root_k,
        gain=root_k / sd_delta,
        offset=(spec.shift + (1.0 - reliability) * spec.latent_mean) / (sd_delta * root_k),
    )


_TRANSFORMS = {
    LinearSpec: transform_linear, PolynomialSpec: transform_polynomial, QuadraticSpec: transform_quadratic,
    ExponentialSpec: transform_exponential, TrigSpec: transform_trig, AbsSpec: transform_abs,
}


def transform(spec: ModelSpec) -> TransformedParams:
    """Dispatch to the family transform."""
    return _TRANSFORMS[type(spec)](spec)


def _col(value) -> np.ndarray:
    """A scalar parameter, or a stack of them, as a column against rows."""
    return np.asarray(value)[..., None]


def _exp_terms(scale, rate, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponential surface scale exp(rate x) and its factor exp(rate x)."""
    ex = np.exp(np.clip(_col(rate) * xs, -700.0, 700.0))
    return _col(scale) * ex, ex


def _trig_terms(const, cos_amps, sin_amps, freq, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The trigonometric surface, and its columns cos(k freq x) and sin(k freq x)."""
    phase = np.asarray(freq)[..., None, None] * xs[..., None] * np.arange(1, cos_amps.shape[-1] + 1)
    cos, sin = np.cos(phase), np.sin(phase)
    values = _col(const) + (cos @ cos_amps[..., None])[..., 0] + (sin @ sin_amps[..., None])[..., 0]
    return values, cos, sin


def predict_rows(params: TransformedParams, z: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Vectorized observable-regression values, shape (n, d).

    ``x`` is (n, m) and ``z`` is (n, q) or None for families without z.  For
    every family ``params`` may also hold R fits, every field with a leading
    axis of length R (the ``params`` of a stack of fits,
    ``estimators.fit_stack``); ``z`` and ``x`` then carry that axis too and
    the values have shape (R, n, d), each fit's rows equal to its own values
    to the bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if isinstance(params, LinearObservable):
        out = params.intercept[..., None, :] + x @ params.x_slopes
        if params.z_slopes.shape[-2]:
            out = out + np.asarray(z, dtype=float) @ params.z_slopes
        return out
    xs = x[..., 0]
    if isinstance(params, PolynomialObservable):
        basis = power_basis(xs, params.coefs.shape[-1])
        out = _col(params.intercept) + (basis @ params.coefs[..., None])[..., 0]
        if params.z_slopes.shape[-1]:
            out = out + (np.asarray(z, dtype=float) @ params.z_slopes[..., None])[..., 0]
    elif isinstance(params, QuadraticObservable):
        out = _col(params.intercept) + _col(params.slope) * xs + _col(params.curvature) * xs**2
    elif isinstance(params, ExponentialObservable):
        out = _exp_terms(params.scale, params.rate, xs)[0]
    elif isinstance(params, TrigObservable):
        out = _trig_terms(params.const, params.cos_amps, params.sin_amps, params.freq, xs)[0]
    elif isinstance(params, AbsObservable):
        out = _col(params.scale) * _folded_normal(_col(params.gain) * xs + _col(params.offset))[0]
    else:
        raise InvalidInput(f"unknown parameter container {type(params).__name__}")
    return out[..., None]


params_to_dict = to_jsonable
