"""Sample statistics and least-squares fitting against observable data.

Ordinary least squares targets the observable regression of the response on
``(z, x)`` (or powers of x), which is exactly what the best predictor needs;
no attempt is made to recover the latent-regression parameters.  Singular
regressor covariances fall back to the minimum-norm pseudo-inverse solution.

:func:`fit_stack` fits R datasets of one size, given as their stacked
``(R, n, .)`` observed arrays, into one :class:`FittedModel` whose arrays
carry a leading axis of length R: the OLS kernel fits the arrays as they
are, and the nonlinear fits are stacked field by field.  A single fit is the
``[i]`` slice of a stack, and equals the one-dataset fit to the bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, InsufficientData, InvalidInput, NonConvergence
from .linalg import min_eigenvalue, pinv, sym_sqrt
from .models import Dataset
from .transform import (
    AbsObservable,
    ExponentialObservable,
    LinearObservable,
    PolynomialObservable,
    QuadraticObservable,
    TransformedParams,
    TrigObservable,
    _exp_terms,
    _folded_normal,
    _trig_terms,
    power_basis,
    predict_rows,
)

__all__ = [
    "SampleMoments",
    "FittedModel",
    "fit_stack",
    "sample_moments",
    "ols_fit",
    "nls_fit",
    "fit_family",
    "min_sample_size",
    "naive_ols_abs",
    "NLS_FAMILIES",
    "Family",
    "FAMILIES",
]

MAX_POLY_DEGREE = 6
CONDITION_WARN = 1e12


@dataclass(frozen=True, eq=False)
class SampleMoments:
    """Bar-means and sample covariance matrices of response and regressors.

    ``s_rr`` and ``s_ry`` use the 1/n normalization; ``x_cov`` is the
    unbiased 1/(n-1) covariance of the surrogate.
    """

    y_mean: np.ndarray  # (d,)
    r_mean: np.ndarray  # (p,)
    s_rr: np.ndarray  # (p, p)
    s_ry: np.ndarray  # (p, d)
    x_mean: np.ndarray  # (m,)
    x_cov: np.ndarray  # (m, m)
    n: int

    @property
    def x_var(self) -> float:
        return float(self.x_cov[0, 0])


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Estimated observable-regression coefficients plus residual moments.

    A stack of R fits to datasets of one size has the same fields, every
    array (those of ``params`` and ``moments`` too) with a leading axis of
    length R, and ``stack[i]`` is the fit of dataset ``i``.  The nonlinear
    fits set ``converged``, OLS sets ``condition_number``, and ``notes``
    holds one note per ill-conditioned OLS fit.
    """

    family: str
    params: TransformedParams
    residual_moment: np.ndarray  # (d, d); 1/n outer-product sum of residuals
    moments: SampleMoments
    n: int
    objective: Optional[float] = None
    converged: Optional[bool] = None
    condition_number: Optional[float] = None
    notes: tuple[str, ...] = field(init=False, default=())

    def __post_init__(self):
        notes = tuple(f"ill-conditioned regressors (cond {c:.2e})" for c in self._ill_conditioned())
        object.__setattr__(self, "notes", notes)  # frozen dataclass

    def __getitem__(self, i: int) -> FittedModel:
        """The fit of dataset ``i`` of a stack, as :func:`ols_fit` or
        :func:`nls_fit` returns it."""
        return _take(self, i)

    @functools.cached_property
    def region_shape(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Symmetric square root of the pseudo-inverted residual moment, shared
        by every ellipsoidal region on this fit, plus a note when that moment
        is near-singular.  Computed on first use, once per fit or stack."""
        return _region_shape(self.residual_moment)

    def _ill_conditioned(self) -> np.ndarray:
        """The condition numbers of the OLS fits whose regressor covariance
        is ill-conditioned."""
        conds = np.atleast_1d(np.asarray(self.condition_number, dtype=float))  # None: nan
        return conds[conds > CONDITION_WARN]

    def warn_ill_conditioned(self) -> None:
        """One warning per OLS fit whose regressor covariance is ill-conditioned."""
        for cond in self._ill_conditioned():
            warnings.warn(f"regressor covariance condition number {cond:.2e}", stacklevel=3)


def _take(value, i: int):
    """Row ``i`` of every array in ``value``, through its dataclass fields."""
    if is_dataclass(value):
        return replace(value, **{f.name: _take(getattr(value, f.name), i) for f in fields(value) if f.init})
    return value[i] if isinstance(value, np.ndarray) else value


def _stack(values: list):
    """``values`` stacked on a new leading axis, through their dataclass
    fields; sizes, strings and None are shared, and kept once."""
    first = values[0]
    if is_dataclass(first):
        return replace(
            first, **{f.name: _stack([getattr(v, f.name) for v in values]) for f in fields(first) if f.init}
        )
    return np.stack(values) if isinstance(first, (np.ndarray, float, bool)) else first


_NEAR_SINGULAR = "residual covariance near-singular; region lives on a subspace"


def _region_shape(resid_cov: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Symmetric square root of the pseudo-inverted residual moment (or of each
    moment in a stack), read-only, plus a note when it is near-singular (for a
    stack: when any of them is)."""
    scale = np.abs(resid_cov).max(axis=(-2, -1))
    near = (scale == 0.0) | (min_eigenvalue(resid_cov) <= 1e-12 * scale)
    shape = sym_sqrt(pinv(resid_cov))
    shape.setflags(write=False)  # shared by every region built on this fit
    return shape, (_NEAR_SINGULAR,) if np.any(near) else ()


class _Stacked(NamedTuple):
    """The observed arrays of R datasets of one size n, each (R, n, .)."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray

    @classmethod
    def of(cls, data: Dataset) -> _Stacked:
        """One dataset as a stack of one, in views: at large n a copy would
        cost time and memory."""
        return cls(data.y[None], data.z[None], data.x[None])


def _regressors(data: Dataset | _Stacked, family: str, degree: Optional[int]) -> tuple[np.ndarray, int]:
    """The OLS regressor columns of ``family`` (see :class:`Family`), the z
    columns first, in a C-contiguous (..., p, n) array, and the count of z
    columns.  Sums along a contiguous column are numpy's pairwise sums, and
    read memory in order."""
    record = FAMILIES.get(family)
    if record is None or record.ols is None:
        raise InvalidInput(f"no least-squares regressors for family {family!r}")
    z, x = data.z.swapaxes(-1, -2), data.x.swapaxes(-1, -2)
    if "z_slopes" not in record.fields:
        z = z[..., :0, :]
    powers = record.ols[0]
    if powers is None:  # the surrogate's own columns
        return _columns([z, x]), z.shape[-2]
    if x.shape[-2] != 1:
        raise DimensionError("polynomial-type families need a scalar surrogate")
    degree = powers(degree)
    if degree is None:
        raise InvalidInput(f"{family} fitting needs an explicit degree")
    if degree > MAX_POLY_DEGREE:
        raise InvalidInput(
            f"degree {degree} above cap {MAX_POLY_DEGREE}; raw powers become too ill-conditioned"
        )
    basis = power_basis(x[..., 0, :], degree, axis=-2)
    return (_columns([z, basis]) if z.shape[-2] else basis), z.shape[-2]


def _columns(blocks: list[np.ndarray]) -> np.ndarray:
    """The (..., k, n) ``blocks`` one after another in a new C-contiguous
    (..., p, n) array; ``np.concatenate`` alone would keep the row layout of
    transposed views."""
    *lead, _, n = blocks[0].shape
    out = np.empty((*lead, sum(block.shape[-2] for block in blocks), n))
    return np.concatenate(blocks, axis=-2, out=out)


def sample_moments(
    data: Dataset, family: str = LinearObservable.family, degree: Optional[int] = None
) -> SampleMoments:
    """All bar-means and S-matrices for the family's regressor vector."""
    if data.n < 2:
        raise InsufficientData("need at least two observations")
    return _moments(data.y, data.x, _regressors(data, family, degree)[0])


def _moments(y: np.ndarray, x: np.ndarray, r: np.ndarray) -> SampleMoments:
    """Moments of the response ``y`` (..., n, d) against the regressor
    columns ``r`` (..., p, n), and of the surrogate ``x`` (..., n, m); n >= 2."""
    n = y.shape[-2]
    y_mean = y.mean(axis=-2)
    r_mean = r.mean(axis=-1)
    rc = r - r_mean[..., None]
    yc = y - y_mean[..., None, :]
    s_rr = rc @ rc.swapaxes(-1, -2) / n
    s_ry = rc @ yc / n
    x_mean = x.mean(axis=-2)
    xc = x - x_mean[..., None, :]
    x_cov = xc.swapaxes(-1, -2) @ xc / (n - 1)
    return SampleMoments(
        y_mean=y_mean, r_mean=r_mean, s_rr=s_rr, s_ry=s_ry, x_mean=x_mean, x_cov=x_cov, n=n
    )


def _ols_stack(data: _Stacked, family: str, degree: Optional[int]) -> FittedModel:
    """The OLS kernel: the fits of R datasets of one size, stacked.

    Coefficients solve ``coefs = pinv(S_rr) @ S_ry`` with the intercept from
    the bar-mean relation, which minimizes the summed squared residuals; a
    singular S_rr yields the minimum-norm coefficients without failure.
    """
    y, _, x = data
    r, q = _regressors(data, family, degree)
    n = y.shape[1]
    need = r.shape[1] + 1
    if n < need:
        raise InsufficientData(f"need n >= {need} for {need - 1} regressors")
    moments = _moments(y, x, r)
    coefs = pinv(moments.s_rr) @ moments.s_ry  # (R, p, d)
    intercept = moments.y_mean - (moments.r_mean[:, None, :] @ coefs)[:, 0, :]
    resid = y - intercept[:, None, :] - r.swapaxes(-1, -2) @ coefs
    eigvals = np.abs(np.linalg.eigvalsh(moments.s_rr))
    low, high = eigvals.min(axis=-1), eigvals.max(axis=-1)
    return FittedModel(
        family=family,
        params=FAMILIES[family].ols[1](q, intercept, coefs),
        residual_moment=resid.swapaxes(-1, -2) @ resid / n,
        moments=moments,
        n=n,
        objective=np.sum(resid**2, axis=(1, 2)),
        condition_number=np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0),
    )


def ols_fit(data: Dataset, family: str = LinearObservable.family, degree: Optional[int] = None) -> FittedModel:
    """Ordinary least squares on the observable regressors: the OLS kernel
    (see :func:`fit_stack`) on the one dataset ``data``."""
    stack = _ols_stack(_Stacked.of(data), family, degree)
    stack.warn_ill_conditioned()
    return stack[0]


# ---------------------------------------------------------------------------
# nonlinear least squares
# ---------------------------------------------------------------------------

_REL_TOL = 1e-12
_MAX_ITER = 500


def _least_squares(make, evaluate, x: np.ndarray, y: np.ndarray, starts: list[np.ndarray]):
    """Levenberg-Marquardt from every start on ``y - values``: MINPACK's
    ``lmder`` through ``scipy.optimize.leastsq``, with its own column scaling,
    gradient tolerance 1e-8, and ``_MAX_ITER`` evaluations per parameter and
    at least three times that for each start.  ``evaluate(p, x)`` gives the
    values (those of ``predict_rows(make(p), None, x)`` to the bit) and their
    Jacobian in ``p`` from one set of intermediates; MINPACK asks for the
    Jacobian at the point it has just evaluated, so each call keeps its last
    point's pair, and every point is evaluated once.  A start whose residuals
    are not finite is skipped.

    Returns ``(make(p), objective, converged)`` for the lowest-cost finite
    result ``p``: its summed squared residuals, and whether a tolerance was met.
    """
    from scipy.optimize import leastsq

    @functools.lru_cache(maxsize=1)  # keyed by the point's bytes: reused only at the same point
    def evaluated(point: bytes) -> tuple[np.ndarray, np.ndarray]:
        values, jac = evaluate(np.frombuffer(point), x)
        return y - values, jac

    best = None
    for p0 in starts:
        if not np.all(np.isfinite(evaluated(p0.tobytes())[0])):
            continue
        # What scipy's lmder returns for an ill-conditioned fit depends on what
        # freed heap blocks of its Jacobian's size hold, so on what ran before
        # it (scipy 1.17.1).  Two zeroed blocks of that size, freed here, make
        # every solve start from the same heap contents.
        zeroed = [np.zeros((x.size, p0.size)) for _ in range(2)]
        del zeroed
        p, _, info, _, ier = leastsq(
            lambda p: evaluated(p.tobytes())[0], p0, Dfun=lambda p: -evaluated(p.tobytes())[1],
            full_output=True, ftol=_REL_TOL, xtol=_REL_TOL, gtol=1e-8, maxfev=_MAX_ITER * max(3, p0.size),
        )
        resid = info["fvec"]
        cost = 0.5 * np.dot(resid, resid)
        if np.isfinite(cost) and np.all(np.isfinite(p)) and (best is None or cost < best[1]):
            best = p, cost, ier in (1, 2, 3, 4)  # a tolerance was met; 5: evaluations ran out
    if best is None:
        raise NonConvergence(f"all {len(starts)} least-squares starts failed")
    p, cost, converged = best
    return make(p), 2.0 * float(cost), converged


def _scaled_start(make, x: np.ndarray, y: np.ndarray, shape: tuple) -> np.ndarray:
    """The start ``(scale, *shape)`` with the least-squares scale of the
    unit-scale surface ``make((1, *shape))``."""
    unit = predict_rows(make(np.array([1.0, *shape])), None, x)[:, 0]
    denom = float(unit @ unit)
    scale = float(y @ unit) / denom if denom > 0 else float(np.mean(y))
    return np.array([scale, *shape])


def _exp_starts(x: np.ndarray, y: np.ndarray, harmonics: int) -> list[np.ndarray]:
    """Moment-based rates plus sign flips, each with its least-squares scale."""
    sd = float(np.std(x)) or 1.0
    rates = []
    positive = y > 0
    if positive.sum() >= 3:
        slope = np.polyfit(x[positive], np.log(y[positive]), 1)[0]
        if np.isfinite(slope) and abs(slope) > 1e-12:
            rates += [slope, -slope, 2 * slope]
    rates += [1.0 / sd, -1.0 / sd, 0.5 / sd, -0.5 / sd, 0.0]
    return [_scaled_start(_exp_make, x, y, (rate,)) for rate in rates[:8]]


def _exp_make(p: np.ndarray) -> ExponentialObservable:
    return ExponentialObservable(scale=float(p[0]), rate=float(p[1]))


def _exp_evaluate(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values, ex = _exp_terms(p[0], p[1], x)
    return values, np.column_stack([ex, p[0] * x * ex])


def _trig_starts(x: np.ndarray, y: np.ndarray, harmonics: int) -> list[np.ndarray]:
    """An 8-frequency grid, each with its least-squares (profiled) amplitudes."""
    base = math.pi / (2.0 * (float(np.std(x)) or 1.0))
    starts = []
    for freq in base * np.array([0.25, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0, 3.0]):
        design = _trig_evaluate(np.r_[np.zeros(2 * harmonics + 1), freq], x)[1][:, :-1]  # amplitude columns
        amps, *_ = np.linalg.lstsq(design, y, rcond=None)
        starts.append(np.concatenate([amps, [freq]]))
    return starts


def _trig_make(p: np.ndarray) -> TrigObservable:
    """``p`` is (const, cos_amps, sin_amps, freq), oriented to freq > 0: cos
    is even, and sin flips with the frequency."""
    h = (p.size - 2) // 2
    sin_amps, freq = p[1 + h : 1 + 2 * h], float(p[-1])
    if freq < 0:
        sin_amps, freq = -sin_amps, -freq
    return TrigObservable(const=float(p[0]), cos_amps=p[1 : 1 + h], sin_amps=sin_amps, freq=freq)


def _trig_evaluate(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian: 1, cos(k w x), sin(k w x), and sum_k k x (b_k cos(k w x) - a_k sin(k w x))
    for the frequency w.  At w < 0 too the values are those of ``_trig_make(p)``."""
    h = (p.size - 2) // 2
    cos_amps, sin_amps = p[1 : 1 + h], p[1 + h : 1 + 2 * h]
    values, cos, sin = _trig_terms(p[0], cos_amps, sin_amps, p[-1], x)
    d_freq = x * ((cos * sin_amps - sin * cos_amps) @ np.arange(1.0, h + 1))
    return values, np.column_stack([np.ones_like(x), cos, sin, d_freq])


def _abs_starts(x: np.ndarray, y: np.ndarray, harmonics: int) -> list[np.ndarray]:
    """Eight (gain, offset) pairs, each with its least-squares scale."""
    sd = float(np.std(x)) or 1.0
    center = -float(np.mean(x))
    pairs = [(g / sd, b) for g in (1.0, -1.0, 2.0, -2.0) for b in (center / sd, 0.0)]
    return [_scaled_start(_abs_make, x, y, pair) for pair in pairs]


def _abs_make(p: np.ndarray) -> AbsObservable:
    """``p`` is (scale, gain, offset), oriented to gain > 0: F is even."""
    scale, gain, offset = (float(v) for v in p)
    if gain < 0:
        gain, offset = -gain, -offset
    return AbsObservable(scale=scale, gain=gain, offset=offset)


def _abs_evaluate(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At a negative gain too the values are those of ``_abs_make(p)``: F is even."""
    mean, erf = _folded_normal(p[1] * x + p[2])
    slope = p[0] * erf  # s F'(a)
    return p[0] * mean, np.column_stack([mean, slope * x, slope])


class Family(NamedTuple):
    """One family's fit and report facts, and how it is fitted: ``ols =
    (powers, params)`` runs the OLS kernel on the z columns (if ``fields``
    holds ``z_slopes``), then the surrogate's own columns (``powers`` None)
    or the powers 1, ..., ``powers(degree)`` of a scalar one, and
    ``params(q, intercept, coefs)`` builds the container from the stacked
    (R, d) intercept and (R, p, d) coefficients, q z rows first; ``nls =
    (starts, make, evaluate)`` runs :func:`_least_squares` from
    ``starts(x, y, harmonics)``.  Only NLS fits and :func:`naive_ols_abs` load scipy."""

    observable: type  # the parameter container
    fields: tuple[str, ...]  # its coefficient fields, in coefficient-vector order
    size: Optional[str]  # the fit-size argument, and spec property, it reads: "degree", "harmonics" or None
    n_params: Callable[[int, int, Optional[int]], int]  # (q, m, size) -> fitted coefficients but an intercept
    ols: Optional[tuple] = None
    nls: Optional[tuple] = None

    def sizes(self, spec) -> dict:
        """The fit-size keyword argument for ``spec``, none if the family reads none."""
        return {self.size: getattr(spec, self.size)} if self.size else {}


FAMILIES = {
    family.observable.family: family
    for family in (
        Family(LinearObservable, ("intercept", "z_slopes", "x_slopes"), None, lambda q, m, _: q + m,
            ols=(None, lambda q, b, c: LinearObservable(b, c[:, :q, :], c[:, q:, :]))),
        Family(PolynomialObservable, ("intercept", "z_slopes", "coefs"), "degree", lambda q, m, k: q + (k or 0),
            ols=(lambda k: k,
                 lambda q, b, c: PolynomialObservable(b[:, 0], c[:, q:, 0].copy(), c[:, :q, 0].copy()))),
        Family(QuadraticObservable, ("intercept", "slope", "curvature"), None, lambda q, m, _: 2,
            ols=(lambda _: 2, lambda q, b, c: QuadraticObservable(b[:, 0], c[:, 0, 0], c[:, 1, 0]))),
        Family(ExponentialObservable, ("scale", "rate"), None, lambda q, m, _: 2,
            nls=(_exp_starts, _exp_make, _exp_evaluate)),
        Family(TrigObservable, ("const", "cos_amps", "sin_amps", "freq"), "harmonics", lambda q, m, h: 2 * h + 2,
            nls=(_trig_starts, _trig_make, _trig_evaluate)),
        Family(AbsObservable, ("scale", "gain", "offset"), None, lambda q, m, _: 3,
            nls=(_abs_starts, _abs_make, _abs_evaluate)),
    )
}
NLS_FAMILIES = tuple(name for name, family in FAMILIES.items() if family.nls)


def nls_fit(data: Dataset, family: str, harmonics: int = 1) -> FittedModel:
    """Least squares of the observable regression ``predict_rows(params, None, x)``
    of a nonlinear family, from its deterministic starts (:func:`_least_squares`);
    ``harmonics`` sizes the trigonometric fit.  ``objective`` is the summed
    squared residuals of the returned parameters, and ``converged`` a bool."""
    if data.x.shape[1] != 1 or data.y.shape[1] != 1:
        raise DimensionError("nonlinear families are scalar in x and y")
    if family not in NLS_FAMILIES:
        raise InvalidInput(f"nls_fit does not handle family {family!r}")
    n = data.n
    if n < min_sample_size(family, harmonics=harmonics):
        raise InsufficientData("too few observations for the parameter count")

    starts, make, evaluate = FAMILIES[family].nls
    x, y = data.x[:, 0], data.y[:, 0]
    params, objective, ok = _least_squares(make, evaluate, x, y, starts(x, y, harmonics))
    return FittedModel(
        family=family,
        params=params,
        residual_moment=np.array([[objective / n]]),
        moments=_moments(data.y, data.x, data.x.T),  # the raw surrogate as the only regressor
        n=n,
        objective=objective,
        converged=ok,
    )


def min_sample_size(
    family: str, z_dim: int = 0, x_dim: int = 1, degree: Optional[int] = None, harmonics: int = 1
) -> int:
    """Smallest sample :func:`fit_family` accepts for ``family``: one more
    observation than the OLS regressors (the intercept takes one), or than
    the NLS parameters.  ``z_dim`` and ``x_dim`` count the exact and the
    surrogate covariates; ``degree`` and ``harmonics`` size the polynomial
    and trigonometric fits."""
    record = FAMILIES[family]
    return record.n_params(z_dim, x_dim, {"degree": degree, "harmonics": harmonics}.get(record.size)) + 1


def fit_family(
    data: Dataset, family: str, degree: Optional[int] = None, harmonics: int = 1
) -> FittedModel:
    """Fit ``family`` to one dataset, as the ``[0]`` slice of :func:`fit_stack`:
    :func:`nls_fit` for :data:`NLS_FAMILIES` (``harmonics`` for the
    trigonometric one), the OLS kernel for the families linear in their
    coefficients (``degree`` for the polynomial one)."""
    stack = fit_stack(_Stacked.of(data), family, degree=degree, harmonics=harmonics)
    stack.warn_ill_conditioned()
    return stack[0]


def fit_stack(data, family: str, degree: Optional[int] = None, harmonics: int = 1) -> FittedModel:
    """Fit ``family`` to each of R datasets of one size n, given as their
    stacked observed arrays ``data = (y, z, x)``, each (R, n, .) (as
    :meth:`~eivpred.models.Sampler.samples` draws them), as one stack of fits.

    The OLS families run the OLS kernel once on the stacked arrays; the NLS
    families run :func:`nls_fit` on one :class:`Dataset` view per row and
    stack its fits field by field.  Ill-conditioning warnings are left to the
    caller (:meth:`FittedModel.warn_ill_conditioned`), which knows when a fit
    is kept."""
    data = _Stacked(*data)
    if family in NLS_FAMILIES:  # a fit does not read the seed
        return _stack([nls_fit(Dataset(y, z, x, seed=0), family, harmonics=harmonics) for y, z, x in zip(*data)])
    return _ols_stack(data, family, degree)


def naive_ols_abs(data: Dataset) -> tuple[float, float]:
    """Least squares for ``y ~ scale * |x + shift|`` (the plug-in predictor
    that ignores the measurement error; kept to demonstrate its failure).

    The scale is profiled out exactly, leaving a one-dimensional piecewise
    smooth problem over the shift, solved by deterministic multi-start
    bounded minimization.  Returns ``(scale, shift)``.
    """
    if data.x.shape[1] != 1 or data.y.shape[1] != 1:
        raise DimensionError("absolute-value family is scalar in x and y")
    from scipy.optimize import minimize_scalar

    x, y = data.x[:, 0], data.y[:, 0]
    sum_y2 = float(y @ y)

    def objective(shift):
        shape = np.abs(x + shift)
        denom = float(shape @ shape)
        if denom <= 0:
            return sum_y2
        num = float(y @ shape)
        return sum_y2 - num * num / denom

    lo = -float(np.max(x)) - 3.0 * float(np.std(x))
    hi = -float(np.min(x)) + 3.0 * float(np.std(x))
    edges = np.linspace(lo, hi, 9)  # 8 deterministic segments
    best_val, best_shift = np.inf, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        res = minimize_scalar(
            objective, bounds=(a, b), method="bounded", options={"xatol": 1e-10}
        )
        if res.fun < best_val:
            best_val, best_shift = float(res.fun), float(res.x)
    shape = np.abs(x + best_shift)
    scale = float(y @ shape) / float(shape @ shape)
    return scale, best_shift
