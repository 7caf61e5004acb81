"""Point predictors and confidence regions around them.

Individual prediction plugs the fitted observable-regression coefficients
into the regression surface at the new covariates.  Mean prediction removes
the part of the response measurement error that is predictable from the
surrogate, which requires the error cross-covariance to be known.

Three region constructions are provided: a distribution-free ellipsoid from
the Markov/Chebyshev bound, a chi-square ellipsoid that is exact for purely
normal models, and a bound-based interval for the quadratic family driven by
a known lower bound on the reliability ratio.

Individual and mean prediction, every region rule and the membership test
take a single fit or a stack of R fits
(:func:`~eivpred.estimators.fit_stack`) on one code path: on a stack,
predictions, regions and memberships carry a leading axis of length R, and
each slice equals the one-fit result to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InvalidInput, SingularCovariance
from .estimators import FittedModel
from .linalg import min_eigenvalue
from .transform import QuadraticObservable, predict_rows, quadratic_bound_term

__all__ = [
    "Prediction",
    "ConfidenceRegion",
    "predict_individual",
    "predict_mean",
    "chi2_upper_quantile",
    "region_chebyshev",
    "region_chisquare",
    "region_quadratic",
    "REGION_KINDS",
    "build_region",
    "region_contains",
]


@dataclass(frozen=True, eq=False)
class Prediction:
    """A point prediction at new covariates (for a stack of fits, one row per
    fit in every array)."""

    point: np.ndarray  # (d,), or (R, d)
    kind: str  # "individual" | "mean"
    z0: Optional[np.ndarray]  # (q,) or (R, q); None without z
    x0: np.ndarray  # (m,), or (R, m)


@dataclass(frozen=True, eq=False)
class ConfidenceRegion:
    """Region around a point prediction.

    For the ellipsoidal kinds membership is
    ``|| shape @ (h - center) ||^2 <= threshold`` with ``shape`` the
    symmetric square root of the pseudo-inverted residual covariance; for
    the interval kind it is ``|h - center| <= threshold``.  Built on a stack
    of R fits, ``center`` and ``shape`` carry a leading axis of length R, and
    so does the interval kind's threshold; ``notes`` then holds the notes of
    any of the fits.
    """

    kind: str  # "chebyshev" | "chi_square" | "quadratic_bound"
    alpha: float
    center: np.ndarray  # (d,), or (R, d)
    threshold: float  # or (R,) for the interval kind on a stack
    shape: Optional[np.ndarray] = None  # (d, d) or (R, d, d) for ellipsoidal kinds
    notes: tuple[str, ...] = ()

    @property
    def half_width(self) -> float:
        """Interval half-width (interval kind only)."""
        if self.kind != "quadratic_bound":
            raise InvalidInput("half_width applies to the interval region")
        return self.threshold


def _check_point(fit: FittedModel, z0, x0) -> tuple[Optional[np.ndarray], np.ndarray]:
    """``z0`` (None without z) and ``x0`` as arrays of the fit's point shape,
    with a leading axis of length R for a stack of R fits."""
    lead = fit.residual_moment.shape[:-2]
    q = fit.params.z_slopes.shape[len(lead)] if hasattr(fit.params, "z_slopes") else 0
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != fit.moments.x_mean.shape:
        raise DimensionError(f"x0 must have shape {fit.moments.x_mean.shape}")
    if not q:
        return None, x0
    z0 = None if z0 is None else np.atleast_1d(np.asarray(z0, dtype=float))
    if z0 is None or z0.shape != lead + (q,):
        raise DimensionError(f"z0 must have shape {lead + (q,)}")
    return z0, x0


def predict_individual(fit: FittedModel, z0, x0) -> Prediction:
    """Plug-in evaluation of the fitted regression surface at (z0, x0); for a
    stack of fits, of each fit at its own row of ``z0`` (R, q) and ``x0``
    (R, m)."""
    z0, x0 = _check_point(fit, z0, x0)
    z = None if z0 is None else z0[..., None, :]
    point = predict_rows(fit.params, z, x0[..., None, :])[..., 0, :]
    if not np.all(np.isfinite(point)):
        raise InvalidInput("prediction is not finite")
    return Prediction(point=point, kind="individual", z0=z0, x0=x0)


def predict_mean(fit: FittedModel, z0, x0, sigma_eps_delta) -> Prediction:
    """Prediction of the noiseless regression value.

    Subtracts the surrogate-predictable part of the response measurement
    error: ``center - sigma_eps_delta @ inv(x_cov) @ (x0 - x_mean)`` with the
    sample mean and 1/(n-1) covariance of the surrogate.  ``sigma_eps_delta``
    is the known error cross-covariance (d x m, or a scalar), shared by every
    fit of a stack; a stack with one singular covariance raises.
    """
    base = predict_individual(fit, z0, x0)
    m = fit.moments.x_mean.shape[-1]
    d = base.point.shape[-1]
    cross = np.asarray(sigma_eps_delta, dtype=float)
    if cross.size != d * m:
        raise DimensionError(f"sigma_eps_delta must have shape ({d}, {m}), got {cross.shape}")
    cross = cross.reshape(d, m)
    x_cov = fit.moments.x_cov
    scale = np.maximum(np.max(np.abs(x_cov), axis=(-2, -1)), 1e-300)
    if np.any(min_eigenvalue(x_cov) <= 1e-12 * scale):
        raise SingularCovariance("sample covariance of x is singular")
    dev = np.linalg.solve(x_cov, (base.x0 - fit.moments.x_mean)[..., None])
    correction = (cross @ dev)[..., 0]
    return Prediction(point=base.point - correction, kind="mean", z0=base.z0, x0=base.x0)


# Up to x = 1400 the factor exp(-x/2) of the chi-square forms below is a
# normal double (at least e^-700), so every term keeps its relative accuracy.
_CHI2_X_MAX = 1400.0
_SQRT_2_OVER_PI = math.sqrt(2 / math.pi)


def chi2_upper_quantile(dim: int, alpha: float) -> float:
    """Upper alpha-quantile of the chi-square law with ``dim`` degrees of
    freedom, within a few ulps of the exact root (:func:`_chi2_quantile`),
    computed once per (dim, alpha) in a process."""
    if not 0 < alpha < 1:
        raise InvalidInput("alpha must lie in (0, 1)")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise InvalidInput("dimension must be an integer")
    if dim < 1:
        raise InvalidInput("dimension must be >= 1")
    x = _chi2_quantile(int(dim), float(alpha))
    if x == _CHI2_X_MAX:
        raise InvalidInput(f"the chi-square quantile exceeds {_CHI2_X_MAX:g}")
    return x


def _chi2_tails(dim: int, x: float) -> tuple[float, float]:
    """The chi-square survival function Q(x) for ``dim`` degrees of freedom
    and the factor (x/2)^a e^(-x/2) / Gamma(a + 1), a = dim/2, of its lower
    tail.

    Q(x) is Abramowitz & Stegun 26.4.4 (odd ``dim``) and 26.4.5 (even): the
    same factor for a = 1/2, 3/2, ... (odd) or 0, 1, ... (even) below dim/2,
    summed onto erfc(sqrt(x/2)) or 0, each the last times (x/2)/a.
    """
    h = x / 2
    if dim % 2:
        terms, a = [math.erfc(math.sqrt(h))], 0.5
        factor = _SQRT_2_OVER_PI * math.sqrt(x) * math.exp(-h)
    else:
        terms, a, factor = [], 0.0, math.exp(-h)
    while a < dim / 2:
        terms.append(factor)
        a += 1
        factor *= h / a
    return math.fsum(terms), factor


def _chi2_lower(dim: int, x: float) -> float:
    """The chi-square distribution function P(x) for ``dim`` degrees of
    freedom, by the series of the regularized lower incomplete gamma function
    (Abramowitz & Stegun 6.5.29): the factor of :func:`_chi2_tails` times
    sum_n (x/2)^n / ((a+1) ... (a+n)), a = dim/2, which converges fast for x
    below dim."""
    h, a = x / 2, dim / 2
    terms, term = [], 1.0
    while term > 2.0**-60:  # the sum is at least 1
        terms.append(term)
        a += 1
        term *= h / a
    return _chi2_tails(dim, x)[1] * math.fsum(terms)


@functools.lru_cache(maxsize=128)
def _chi2_quantile(dim: int, alpha: float) -> float:
    """The root x of Q(x) = alpha, by bisection down to adjacent doubles.

    For alpha <= 1/2 it solves the closed form Q(x) = alpha on (0, 1400];
    above, P(x) = 1 - alpha (exact there) with the lower series, since the
    closed form loses accuracy as x -> 0, on (0, dim], as the root is below
    the median and so below the mean.  A root past 1400 returns 1400.
    """
    if alpha <= 0.5:
        hi = _CHI2_X_MAX

        def below(x):
            return _chi2_tails(dim, x)[0] > alpha
    else:
        hi = min(float(dim), _CHI2_X_MAX)

        def below(x):
            return _chi2_lower(dim, x) < 1 - alpha

    lo = 0.0
    mid = hi / 2
    while lo < mid < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return hi


def _ellipsoid(kind: str, fit: FittedModel, pred: Prediction, alpha: float, threshold, note=()):
    """The ellipsoidal region of ``kind`` around ``pred``, shaped by the fit's
    residual covariance, with threshold ``threshold(d)`` for a d-vector
    response; ``note`` is added to the fit's notes."""
    if not 0 < alpha < 1:
        raise InvalidInput("alpha must lie in (0, 1)")
    shape, notes = fit.region_shape
    return ConfidenceRegion(
        kind=kind,
        center=pred.point,
        threshold=threshold(pred.point.shape[-1]),
        alpha=alpha,
        shape=shape,
        notes=notes + note,
    )


def region_chebyshev(fit: FittedModel, pred: Prediction, alpha: float) -> ConfidenceRegion:
    """Distribution-free region with threshold d / alpha.

    Guarantees asymptotic coverage at least 1 - alpha whenever the residual
    covariance is positive definite; conservative in practice.
    """
    return _ellipsoid("chebyshev", fit, pred, alpha, lambda d: d / alpha)


def region_chisquare(
    fit: FittedModel, pred: Prediction, alpha: float, purely_normal: bool = False
) -> ConfidenceRegion:
    """Region with the chi-square upper alpha-quantile as threshold.

    Asymptotically exact when the model is purely normal (Gaussian z and no
    error in the equation); the caller asserts that via ``purely_normal`` and
    a note is recorded otherwise.
    """
    note = () if purely_normal else ("purely-normal assumption not asserted",)
    return _ellipsoid("chi_square", fit, pred, alpha, lambda d: chi2_upper_quantile(d, alpha), note)


def region_quadratic(
    fit: FittedModel, pred: Prediction, alpha: float, k0: float
) -> ConfidenceRegion:
    """Bound-based interval for the quadratic family.

    Half-width ``alpha^(-1/2) * sqrt(max(m_u2 + 4 (1/k0 - 1) x_var * G, 0))``
    evaluated from the fitted quantities; ``k0`` is the known lower bound on
    the reliability ratio.  A nonpositive bracket collapses the interval to
    zero width with a note instead of raising; a NaN bracket gives a NaN
    half-width.
    """
    if not 0 < alpha < 1:
        raise InvalidInput("alpha must lie in (0, 1)")
    params = fit.params
    if not isinstance(params, QuadraticObservable):
        raise InvalidInput("bound-based interval applies to the quadratic family")
    x_var = fit.moments.x_cov[..., 0, 0]
    bound = quadratic_bound_term(
        pred.x0[..., 0], fit.moments.x_mean[..., 0], x_var, params.slope, params.curvature, k0
    )
    bracket = fit.residual_moment[..., 0, 0] + 4.0 * (1.0 / k0 - 1.0) * x_var * bound
    width = np.where(bracket <= 0.0, 0.0, np.sqrt(np.maximum(bracket, 0.0)) / np.sqrt(alpha))
    notes: tuple[str, ...] = ()
    if np.any(bracket <= 0.0):
        notes = ("variance bracket nonpositive; interval degenerates to its center",)
    return ConfidenceRegion(
        kind="quadratic_bound",
        center=pred.point,
        threshold=float(width) if width.ndim == 0 else width,
        alpha=alpha,
        shape=None,
        notes=notes,
    )


REGION_KINDS = ("chebyshev", "chi_square", "quadratic_bound")


def build_region(
    kind: str,
    fit: FittedModel,
    pred: Prediction,
    alpha: float,
    *,
    purely_normal: bool = False,
    k0: Optional[float] = None,
) -> ConfidenceRegion:
    """The region of one of :data:`REGION_KINDS`; ``purely_normal`` applies
    to the chi-square kind and ``k0`` to the quadratic-bound kind."""
    if kind == "chebyshev":
        return region_chebyshev(fit, pred, alpha)
    if kind == "chi_square":
        return region_chisquare(fit, pred, alpha, purely_normal=purely_normal)
    if kind == "quadratic_bound":
        return region_quadratic(fit, pred, alpha, k0)
    raise InvalidInput(f"unknown region kind {kind!r}")


def region_contains(region: ConfidenceRegion, h):
    """Whether ``h`` satisfies the region's defining inequality: a bool, or
    for a region built on a stack, a bool array with one entry per row of
    ``h`` (R, d)."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != region.center.shape:
        raise DimensionError("point dimension does not match region")
    dev = h - region.center
    if region.kind == "quadratic_bound":
        inside = np.abs(dev[..., 0]) <= region.threshold
    else:
        stat = np.sum((region.shape @ dev[..., None])[..., 0] ** 2, axis=-1)
        inside = stat <= region.threshold
    return bool(inside) if inside.ndim == 0 else inside
