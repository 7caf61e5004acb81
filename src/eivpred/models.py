"""Model-family specifications and i.i.d. samplers.

Six structural errors-in-variables families are supported.  In every family
the covariate is observed through an additive-error surrogate ``x = xi +
delta`` and the response carries an error term; the latent covariate and the
measurement errors are jointly Gaussian while the exactly observed covariate
``z`` (when present) may be non-Gaussian.

Families
--------
linear          y = b + C'z + B'xi + e + eps      (vector y, z, xi)
polynomial      y = c'z + b0 + sum_j b_j xi^j + e + eps
quadratic       y = b0 + b1 xi + b2 xi^2 + e       (no z, no eps)
exponential     y = scale * exp(rate * xi) + e
trigonometric   y = const + sum_k (a_k cos(k w xi) + b_k sin(k w xi)) + e
absolute_value  y = scale * |xi + shift| + e
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import ClassVar, NamedTuple, Optional, Union, get_args

import numpy as np

from .errors import DatasetError, SpecError
from .linalg import cholesky_psd, min_eigenvalue
from .rng import make_rng, make_rngs

__all__ = [
    "ZDistribution",
    "ErrorStructure",
    "LinearSpec",
    "PolynomialSpec",
    "power_basis",
    "QuadraticSpec",
    "ExponentialSpec",
    "TrigSpec",
    "AbsSpec",
    "ModelSpec",
    "HiddenTruth",
    "Dataset",
    "NewSubject",
    "Sampler",
    "validate",
    "sample",
    "new_subject",
    "to_jsonable",
    "spec_to_dict",
    "spec_from_dict",
    "save_dataset",
    "load_dataset",
]

_PSD_TOL = 1e-10


def _arr(x, ndim: int, label: str) -> np.ndarray:
    """``x`` as a float array of ``ndim`` dimensions: a vector may be given as
    a number or a nested list, and an empty field in any shape; a non-empty
    matrix field of another number of dimensions raises SpecError."""
    a = np.asarray(x, dtype=float)
    if a.ndim == ndim:
        return a
    if not a.size:
        return a.reshape((0,) * ndim)
    if ndim == 1:
        return a.reshape(-1)
    raise SpecError([f"{label} must be a {ndim}-D array, got {x!r}"])


def _set_arrays(obj, ndim: int, names: tuple[str, ...], where: str = "spec") -> None:
    """Store the named fields of the frozen dataclass ``obj`` through :func:`_arr`."""
    for name in names:
        object.__setattr__(obj, name, _arr(getattr(obj, name), ndim, f"{where} field {name!r}"))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ZDistribution:
    """Law of the exactly observed covariate ``z``.

    ``kind`` is one of ``gaussian``, ``uniform`` (componentwise) or
    ``two_point`` (symmetric two-point mixture per component).  ``mean`` and
    ``cov`` fix the first two moments; the non-Gaussian kinds require a
    diagonal covariance.
    """

    kind: str
    mean: np.ndarray
    cov: np.ndarray

    KINDS: ClassVar[tuple[str, ...]] = ("gaussian", "uniform", "two_point")

    def __post_init__(self):
        _set_arrays(self, 1, ("mean",), "spec z_dist")
        _set_arrays(self, 2, ("cov",), "spec z_dist")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def violations(self) -> list[tuple[str, bool]]:
        """``(message, blocking)`` per violated assumption; only a singular
        covariance can still be sampled."""
        if self.kind not in self.KINDS:
            return [(f"unknown z distribution kind {self.kind!r}", True)]
        q = self.dim
        if self.cov.shape != (q, q):
            return [("z covariance shape does not match z mean", True)]
        out = []
        if np.max(np.abs(self.cov - self.cov.T), initial=0.0) > 0:
            out.append(("z covariance not symmetric", True))
        if q >= 1 and min_eigenvalue(self.cov) <= 0:
            out.append(("z covariance singular (assumption: Cov(z) nonsingular)", False))
        if self.kind != "gaussian" and q >= 1:
            off = self.cov - np.diag(np.diag(self.cov))
            if np.max(np.abs(off)) > 0:
                out.append((f"{self.kind} z distribution requires diagonal covariance", True))
        return out


@dataclass(frozen=True, eq=False)
class ErrorStructure:
    """Second moments of the error terms of the linear family.

    ``sigma_e`` is the covariance of the error in the regression equation,
    ``sigma_eps`` of the response measurement error, ``sigma_delta`` of the
    covariate measurement error, and ``sigma_eps_delta`` the cross-covariance
    ``E[eps delta']`` (shape d x m).  The stacked covariance of
    ``(eps', delta')'`` must be positive semidefinite.
    """

    sigma_e: np.ndarray
    sigma_eps: np.ndarray
    sigma_delta: np.ndarray
    sigma_eps_delta: np.ndarray

    def __post_init__(self):
        names = ("sigma_e", "sigma_eps", "sigma_delta", "sigma_eps_delta")
        _set_arrays(self, 2, names, "spec errors")

    @classmethod
    def scalar(
        cls,
        sigma2_e: float = 0.0,
        sigma2_eps: float = 0.0,
        sigma2_delta: float = 0.0,
        sigma_eps_delta: float = 0.0,
    ) -> "ErrorStructure":
        return cls(
            sigma_e=[[sigma2_e]],
            sigma_eps=[[sigma2_eps]],
            sigma_delta=[[sigma2_delta]],
            sigma_eps_delta=[[sigma_eps_delta]],
        )

    def stacked_measurement_cov(self) -> np.ndarray:
        """Covariance of the stacked measurement-error vector (eps', delta')'."""
        return np.block(
            [[self.sigma_eps, self.sigma_eps_delta], [self.sigma_eps_delta.T, self.sigma_delta]]
        )

    def violations(self, d: int, m: int) -> list[str]:
        out = []
        if self.sigma_e.shape != (d, d):
            out.append("sigma_e shape mismatch")
        if self.sigma_eps.shape != (d, d):
            out.append("sigma_eps shape mismatch")
        if self.sigma_delta.shape != (m, m):
            out.append("sigma_delta shape mismatch")
        if self.sigma_eps_delta.shape != (d, m):
            out.append("sigma_eps_delta shape mismatch")
        if out:
            return out
        if min_eigenvalue(self.sigma_e) < -_PSD_TOL:
            out.append("sigma_e not PSD")
        stacked = self.stacked_measurement_cov()
        scale = max(np.max(np.abs(stacked), initial=0.0), 1.0)
        if min_eigenvalue(stacked) < -_PSD_TOL * scale:
            out.append("error covariance not PSD (stacked (eps, delta) covariance)")
        return out


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearSpec:
    """Multivariate linear family with intercept."""

    intercept: np.ndarray  # (d,)
    z_slopes: np.ndarray  # (q, d)
    latent_slopes: np.ndarray  # (m, d)
    latent_mean: np.ndarray  # (m,)
    latent_cov: np.ndarray  # (m, m)
    errors: ErrorStructure
    z_dist: Optional[ZDistribution] = None

    family: ClassVar[str] = "linear"

    def __post_init__(self):
        _set_arrays(self, 1, ("intercept", "latent_mean"))
        _set_arrays(self, 2, ("z_slopes", "latent_slopes", "latent_cov"))

    @property
    def response_dim(self) -> int:
        return self.intercept.shape[0]

    @property
    def z_dim(self) -> int:
        return self.z_slopes.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.latent_mean.shape[0]

    @property
    def x_cov(self) -> np.ndarray:
        return self.latent_cov + self.errors.sigma_delta

    def gaussian_blocks(self) -> tuple[np.ndarray, np.ndarray, ErrorStructure]:
        """Mean and covariance of the latent covariate, and the error moments."""
        return self.latent_mean, self.latent_cov, self.errors

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Regression surface evaluated at exact covariates, (..., n, d): ``z``
        (..., n, q) and ``xi`` (..., n, m) may carry leading axes, as every
        family's ``regression`` accepts."""
        out = self.intercept + xi @ self.latent_slopes
        if self.z_dim:
            out = out + z @ self.z_slopes
        return out


class _ScalarLatentSpec:
    """Shared accessors for families with a scalar latent covariate.

    Families without a response measurement error read its variance and its
    covariance with the covariate error as zero.
    """

    latent_mean: float
    latent_var: float
    sigma2_e: float
    sigma2_delta: float
    sigma2_eps = 0.0
    sigma_eps_delta = 0.0

    @property
    def latent_dim(self) -> int:
        return 1

    @property
    def response_dim(self) -> int:
        return 1

    @property
    def z_dim(self) -> int:
        return 0

    @property
    def x_var(self) -> float:
        return self.latent_var + self.sigma2_delta

    @property
    def reliability(self) -> float:
        """Share of surrogate variance carried by the true covariate."""
        return self.latent_var / self.x_var

    def gaussian_blocks(self) -> tuple[np.ndarray, np.ndarray, ErrorStructure]:
        """The linear family's Gaussian blocks, as (1,) and 1 x 1 arrays."""
        errors = ErrorStructure.scalar(
            self.sigma2_e, self.sigma2_eps, self.sigma2_delta, self.sigma_eps_delta
        )
        return np.array([self.latent_mean]), np.array([[self.latent_var]]), errors


def power_basis(x: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """The powers x, x^2, ..., x^k of ``x``, k >= 1, stacked along a new
    ``axis`` of length k of a C-contiguous array: shape (*x.shape, k) for the
    default last axis, and (..., k, n) for ``axis=-2`` on an (..., n) ``x``,
    whose powers are then contiguous columns of length n.

    Built from exact repeated products x, x*x, (x*x)*x, ..., which are basic
    IEEE operations: the bytes do not depend on numpy's CPU dispatch, as those
    of ``x[..., None] ** np.arange(1, k + 1)`` do, and the products are several
    times faster.  Each power is within k ulps of the correctly rounded one.
    The sampler, the fit and the prediction all build their powers here.
    """
    x = np.asarray(x, dtype=float)
    cols = [x]
    for _ in range(k - 1):
        cols.append(cols[-1] * x)
    return np.stack(cols, axis=axis)


@dataclass(frozen=True, eq=False)
class PolynomialSpec(_ScalarLatentSpec):
    """Polynomial family of fixed, known degree >= 2 (scalar response)."""

    intercept: float
    coefs: np.ndarray  # (k,), coefficients of latent powers 1..k
    latent_mean: float
    latent_var: float
    sigma2_e: float = 0.0
    sigma2_eps: float = 0.0
    sigma2_delta: float = 0.0
    sigma_eps_delta: float = 0.0
    z_slopes: np.ndarray = field(default_factory=lambda: np.zeros(0))  # (q,)
    z_dist: Optional[ZDistribution] = None

    family: ClassVar[str] = "polynomial"

    def __post_init__(self):
        _set_arrays(self, 1, ("coefs", "z_slopes"))

    @property
    def degree(self) -> int:
        return self.coefs.shape[0]

    @property
    def z_dim(self) -> int:
        return self.z_slopes.shape[0]

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        out = self.intercept + power_basis(xi[..., 0], self.degree) @ self.coefs
        if self.z_dim:
            out = out + z @ self.z_slopes
        return out[..., None]


@dataclass(frozen=True, eq=False)
class QuadraticSpec(_ScalarLatentSpec):
    """Quadratic family: no exact covariate and no response measurement error.

    ``reliability_floor`` is the known lower bound for the reliability ratio
    required by the bound-based confidence interval; it must lie in (0, 1/2].
    """

    intercept: float
    slope: float
    curvature: float
    latent_mean: float
    latent_var: float
    sigma2_e: float = 0.0
    sigma2_delta: float = 0.0
    reliability_floor: Optional[float] = None

    family: ClassVar[str] = "quadratic"

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        v = xi[..., 0]
        return (self.intercept + self.slope * v + self.curvature * v**2)[..., None]


@dataclass(frozen=True, eq=False)
class ExponentialSpec(_ScalarLatentSpec):
    """Exponential regression family."""

    scale: float
    rate: float
    latent_mean: float
    latent_var: float
    sigma2_e: float = 0.0
    sigma2_delta: float = 0.0

    family: ClassVar[str] = "exponential"

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return (self.scale * np.exp(self.rate * xi[..., 0]))[..., None]


@dataclass(frozen=True, eq=False)
class TrigSpec(_ScalarLatentSpec):
    """Trigonometric-polynomial regression family."""

    const: float
    cos_amps: np.ndarray  # (h,)
    sin_amps: np.ndarray  # (h,)
    freq: float
    latent_mean: float
    latent_var: float
    sigma2_e: float = 0.0
    sigma2_delta: float = 0.0

    family: ClassVar[str] = "trigonometric"

    def __post_init__(self):
        _set_arrays(self, 1, ("cos_amps", "sin_amps"))

    @property
    def harmonics(self) -> int:
        return self.cos_amps.shape[0]

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        k = np.arange(1, self.harmonics + 1)
        phase = self.freq * xi[..., 0][..., None] * k
        out = self.const + np.cos(phase) @ self.cos_amps + np.sin(phase) @ self.sin_amps
        return out[..., None]


@dataclass(frozen=True, eq=False)
class AbsSpec(_ScalarLatentSpec):
    """Absolute-value regression family (the case where the plug-in
    least-squares predictor on the latent shape fails)."""

    scale: float
    shift: float
    latent_mean: float
    latent_var: float
    sigma2_e: float = 0.0
    sigma2_delta: float = 0.0

    family: ClassVar[str] = "absolute_value"

    def regression(self, z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return (self.scale * np.abs(xi[..., 0] + self.shift))[..., None]


ModelSpec = Union[LinearSpec, PolynomialSpec, QuadraticSpec, ExponentialSpec, TrigSpec, AbsSpec]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _checks(spec: ModelSpec) -> list[tuple[str, bool]]:
    """(violation, blocks_sampling) pairs.

    Violations that make the joint law itself ill-defined block sampling;
    nonsingularity-style assumptions only matter for estimation and the
    parameter transforms, so degenerate laws can still be drawn from.
    """
    out: list[tuple[str, bool]] = []
    if isinstance(spec, LinearSpec):
        d, q, m = spec.response_dim, spec.z_dim, spec.latent_dim
        if spec.z_slopes.shape != (q, d):
            out.append(("z_slopes shape mismatch", True))
        if spec.latent_slopes.shape != (m, d):
            out.append(("latent_slopes shape mismatch", True))
        if spec.latent_cov.shape != (m, m):
            out.append(("latent_cov shape mismatch", True))
        if out:
            return out
        if min_eigenvalue(spec.latent_cov) < -_PSD_TOL:
            out.append(("latent covariance not PSD", True))
        if min_eigenvalue(spec.x_cov) <= 0:
            out.append(("surrogate covariance Cov(x) singular (assumption: nonsingular)", False))
        out += [(v, True) for v in spec.errors.violations(d, m)]
        out += _z_violations(spec, q)
        return out

    if not isinstance(spec, _ScalarLatentSpec):
        return [(f"unknown spec type {type(spec).__name__}", True)]

    if spec.latent_var < 0:
        out.append(("latent variance negative", True))
    if spec.sigma2_delta < 0:
        out.append(("sigma2_delta negative", True))
    if spec.sigma2_e < 0:
        out.append(("sigma2_e negative", True))
    if spec.x_var <= 0:
        out.append(("Var(x) must be positive", False))

    if isinstance(spec, PolynomialSpec):
        if spec.degree < 2:
            out.append(("polynomial degree must be a fixed, known k >= 2", False))
        stacked = spec.gaussian_blocks()[2].stacked_measurement_cov()
        if min_eigenvalue(stacked) < -_PSD_TOL * max(np.max(np.abs(stacked)), 1.0):
            out.append(("error covariance not PSD (stacked (eps, delta) covariance)", True))
        out += _z_violations(spec, spec.z_dim)
    if isinstance(spec, QuadraticSpec) and spec.reliability_floor is not None:
        k0 = spec.reliability_floor
        if not 0 < k0 <= 0.5:
            out.append(("reliability floor must lie in (0, 1/2]", False))
        elif spec.x_var > 0 and spec.reliability < k0 - 1e-12:
            out.append(("reliability ratio below its declared lower bound", False))
    if isinstance(spec, TrigSpec):
        if spec.sin_amps.shape != spec.cos_amps.shape:
            out.append(("cos_amps and sin_amps must have equal length", True))
        if spec.freq <= 0:
            out.append(("trigonometric frequency must be positive", True))
    if isinstance(spec, AbsSpec):
        if spec.latent_var <= 0:
            out.append(("absolute_value family requires positive latent variance", False))
        if spec.sigma2_delta <= 0:
            out.append(("absolute_value family requires positive sigma2_delta", False))
    return out


def validate(spec: ModelSpec) -> list[str]:
    """Check all family-relevant model assumptions; empty list means valid."""
    return [v for v, _ in _checks(spec)]


def _z_violations(spec, q: int) -> list[tuple[str, bool]]:
    if q == 0:
        if spec.z_dist is not None and spec.z_dist.dim != 0:
            return [("z distribution given but model has no z slopes", True)]
        return []
    if spec.z_dist is None:
        return [("z distribution required when z slopes are present", True)]
    if spec.z_dist.dim != q:
        return [("z distribution dimension does not match z slopes", True)]
    return spec.z_dist.violations()


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HiddenTruth:
    """Per-observation latent draws kept for oracle checks (each with a
    leading axis of length R in a stacked draw, :meth:`Sampler.draw`)."""

    xi: np.ndarray  # (n, m)
    delta: np.ndarray  # (n, m)
    e: np.ndarray  # (n, d)
    eps: np.ndarray  # (n, d)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed sample plus optional hidden truth and the seed that made it."""

    y: np.ndarray  # (n, d)
    z: np.ndarray  # (n, q)
    x: np.ndarray  # (n, m)
    seed: int
    hidden: Optional[HiddenTruth] = None

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class NewSubject:
    """A fresh draw together with its noiseless regression value; R subjects
    stacked (:meth:`Sampler.subjects`) carry a leading axis of length R on
    every field."""

    z0: np.ndarray  # (q,)
    x0: np.ndarray  # (m,)
    y0: np.ndarray  # (d,)
    eta0: np.ndarray  # (d,), regression surface at (z0, xi0)
    xi0: np.ndarray  # (m,), hidden latent draw (kept for oracle checks)


def _first(value):
    """The ``[0]`` slice of every field of a stacked dataclass."""
    return type(value)(**{name: array[0] for name, array in vars(value).items()})


# How a generator fills one replication's block of raw draws, by kind (those of
# ZDistribution.KINDS): standard normals, uniforms on [0, 1), or fair {0, 1} draws.
_FILLS = {
    "gaussian": lambda rng, block: rng.standard_normal(out=block),
    "uniform": lambda rng, block: rng.random(out=block),
    "two_point": lambda rng, block: np.copyto(block, rng.integers(0, 2, size=block.shape)),
}


def raw_draws(rngs, shape: tuple[int, ...], kind: str = "gaussian") -> np.ndarray:
    """A (R, *shape) block of raw draws of ``kind`` (a key of ``_FILLS``)
    whose row r is drawn from ``rngs[r]`` alone, as ``rngs[r]`` draws one
    ``shape`` block: every stacked draw fills its blocks here."""
    out, fill = np.empty((len(rngs), *shape)), _FILLS[kind]
    for rng, block in zip(rngs, out):
        fill(rng, block)
    return out


class Sampler:
    """A spec validated once, with the Cholesky factors of its fixed covariances.

    Construction runs the blocking model checks and raises :class:`SpecError`
    on a violation; the factors of the latent, stacked (eps, delta),
    equation-error and Gaussian-z covariances are computed here and reused by
    every draw.  The spec must not be mutated while a sampler built from it
    is in use.

    :meth:`draw` is the one draw path: it takes R generators and returns R
    datasets stacked as (R, n, .) arrays, whose row r equals the draw from
    ``rngs[r]`` alone to the bit.  :meth:`samples` and :meth:`subjects` key a
    stack by seeds, and :meth:`sample` and :meth:`new_subject` are their
    R = 1 slices.
    """

    def __init__(self, spec: ModelSpec):
        violations = [v for v, blocking in _checks(spec) if blocking]
        if violations:
            raise SpecError(violations)
        self.spec = spec
        self._mu, latent_cov, errors = spec.gaussian_blocks()
        self._d, self._q, self._m = spec.response_dim, spec.z_dim, spec.latent_dim
        self._z_dist = getattr(spec, "z_dist", None) if self._q else None
        self._latent_factor = cholesky_psd(latent_cov).T
        self._meas_factor = cholesky_psd(errors.stacked_measurement_cov()).T
        self._e_factor = cholesky_psd(errors.sigma_e).T
        if self._z_dist is None:
            self._z_factor = None
        elif self._z_dist.kind == "gaussian":
            self._z_factor = cholesky_psd(self._z_dist.cov).T
        elif self._z_dist.kind == "uniform":
            self._z_factor = np.sqrt(3.0 * np.diag(self._z_dist.cov))  # half-widths
        else:
            self._z_factor = np.sqrt(np.diag(self._z_dist.cov))  # two-point offsets

    def _draw_z(self, rngs, n: int) -> np.ndarray:
        z_dist, shape = self._z_dist, (n, self._q)
        if z_dist is None:
            return np.zeros((len(rngs), *shape))
        if z_dist.kind == "gaussian":
            return z_dist.mean + raw_draws(rngs, shape) @ self._z_factor
        # u in [0, 1) or {0, 1}: 2u - 1 is the uniform(-1, 1) draw to the bit, or the sign
        return z_dist.mean + (2.0 * raw_draws(rngs, shape, z_dist.kind) - 1.0) * self._z_factor

    def draw(self, rngs, n: int):
        """Draw n i.i.d. observations from each generator of ``rngs``; returns
        ``(y, z, x, hidden, eta)``, every array (R, n, .) with R = len(rngs),
        ``eta`` the regression surface at (z, xi).

        Each generator draws its raw blocks z, xi, (eps, delta), e in that
        order.  One block at a time is drawn across the generators and
        transformed, row by row as ``(n, k) @ (k, k)`` products, and the
        surface is evaluated once on the stack: row r equals the draw from
        ``rngs[r]`` alone to the bit, and no raw block outlives its transform.
        """
        if n < 1:
            raise SpecError(["sample size must be >= 1"])
        d, m = self._d, self._m
        z = self._draw_z(rngs, n)
        xi = self._mu + raw_draws(rngs, (n, m)) @ self._latent_factor
        meas = raw_draws(rngs, (n, d + m)) @ self._meas_factor
        eps, delta = meas[..., :d], meas[..., d:]
        e = raw_draws(rngs, (n, d)) @ self._e_factor
        x = xi + delta
        eta = self.spec.regression(z, xi)
        y = eta + e + eps
        return y, z, x, HiddenTruth(xi=xi, delta=delta, e=e, eps=eps), eta

    def samples(self, n: int, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The observed arrays ``(y, z, x)`` of one sample of ``n`` per seed,
        stacked as (R, n, .): row r is ``sample(n, seeds[r])``."""
        return self.draw(make_rngs(seeds), n)[:3]

    def sample(self, n: int, seed: int, *, keep_hidden: bool = True) -> Dataset:
        """Draw ``n`` i.i.d. observations; deterministic given ``seed``."""
        y, z, x, hidden, _ = self.draw([make_rng(seed)], n)
        hidden = _first(hidden) if keep_hidden else None
        return Dataset(y=y[0], z=z[0], x=x[0], seed=int(seed), hidden=hidden)

    def subjects(self, seeds) -> NewSubject:
        """One fresh subject per seed, stacked: every field (R, .), row r is
        ``new_subject(seeds[r])``."""
        y, z, x, hidden, eta = self.draw(make_rngs(seeds, 0x5EED), 1)
        return NewSubject(z0=z[:, 0], x0=x[:, 0], y0=y[:, 0], eta0=eta[:, 0], xi0=hidden.xi[:, 0])

    def new_subject(self, seed: int) -> NewSubject:
        """One fresh draw plus the noiseless regression value at its covariates."""
        return _first(self.subjects([seed]))


def sample(spec: ModelSpec, n: int, seed: int, *, keep_hidden: bool = True) -> Dataset:
    """Draw ``n`` i.i.d. observations; deterministic given ``seed``.

    Rejects specs whose joint law is ill-defined; degenerate-but-valid laws
    (point masses, singular surrogate covariance) can still be drawn from
    even though :func:`validate` reports them for estimation purposes.
    Repeated draws from one spec should build a :class:`Sampler` once.
    """
    return Sampler(spec).sample(n, seed, keep_hidden=keep_hidden)


def new_subject(spec: ModelSpec, seed: int) -> NewSubject:
    """One fresh draw plus the noiseless regression value at its covariates."""
    return Sampler(spec).new_subject(seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SPEC_CLASSES = {cls.family: cls for cls in get_args(ModelSpec)}


def to_jsonable(value):
    """JSON form of a package dataclass (``family`` first when it has one, then
    its fields in declaration order, recursively), array or numpy scalar."""
    if is_dataclass(value):
        out = {"family": value.family} if hasattr(value, "family") else {}
        for f in fields(value):
            out[f.name] = to_jsonable(getattr(value, f.name))
        return out
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


spec_to_dict = to_jsonable

_NESTED = {"z_dist": ZDistribution, "errors": ErrorStructure}


def _numeric(value) -> bool:
    """Whether ``value`` is a number or a rectangular array of numbers, not booleans."""
    try:
        return np.asarray(value).dtype.kind in "iuf"
    except ValueError:  # ragged lists
        return False


def _violations(cls, data, where: str) -> list[str]:
    """Why the JSON value ``data`` cannot build ``cls``: it is not an object,
    a key is unknown or a required one missing, or a value does not fit its
    field's annotation (a number for float, a numeric array for ndarray) or
    is not finite (``NaN`` and ``Infinity`` parse as JSON numbers)."""
    if not isinstance(data, dict):
        return [f"{where} must be an object, got {data!r}"]
    declared = {f.name: f for f in fields(cls)}
    out = [f"unknown {where} field {name!r}" for name in data if name not in declared]
    for name, f in declared.items():
        value = data.get(name, MISSING)
        if value is MISSING and f.default is MISSING and f.default_factory is MISSING:
            out.append(f"{where} lacks field {name!r}")
        elif value is MISSING or (value is None and f.type.startswith("Optional")):
            continue
        elif name in _NESTED:
            out += _violations(_NESTED[name], value, f"{where} {name}")
        elif "float" in f.type and not (_numeric(value) and np.ndim(value) == 0):
            out.append(f"{where} field {name!r} must be a number, got {value!r}")
        elif "ndarray" in f.type and not _numeric(value):
            out.append(f"{where} field {name!r} must be a numeric array, got {value!r}")
        elif ("float" in f.type or "ndarray" in f.type) and not np.isfinite(value).all():
            entry = "" if np.ndim(value) == 0 else "every entry of "
            out.append(f"{entry}{where} field {name!r} must be a finite number, got {value!r}")
    return out


def spec_from_dict(data: dict) -> ModelSpec:
    """The spec a JSON object describes, or :class:`SpecError` for an unknown family or
    what :func:`_violations` finds; values are checked, not converted."""
    family = data.get("family") if isinstance(data, dict) else None
    cls = _SPEC_CLASSES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SpecError([f"unknown model family {family!r}"])
    kwargs = {k: v for k, v in data.items() if k != "family"}
    violations = _violations(cls, kwargs, "spec")
    if violations:
        raise SpecError(violations)
    for name, nested in _NESTED.items():
        if kwargs.get(name) is not None:
            kwargs[name] = nested(**kwargs[name])
    return cls(**kwargs)


# rows formatted per write call; bounds the text held in memory while saving
_CHUNK_ROWS = 10_000


def _csv_header(d: int, q: int, m: int, hidden: bool) -> list[str]:
    cols = [f"y_{i + 1}" for i in range(d)]
    cols += [f"z_{i + 1}" for i in range(q)]
    cols += [f"x_{i + 1}" for i in range(m)]
    if hidden:
        cols += [f"hidden_xi_{i + 1}" for i in range(m)]
        cols += [f"hidden_delta_{i + 1}" for i in range(m)]
        cols += [f"hidden_e_{i + 1}" for i in range(d)]
        cols += [f"hidden_eps_{i + 1}" for i in range(d)]
    return cols


# The CSV writer's kernel prints |v| in [1e-250, 1e250] (and zero) as ``%.17g``
# does, from float64 array operations.  The 17 digits are N = round(|v| * 10**(16 - E))
# in [1e16, 1e17), for the decimal exponent E of |v|.  With 10**(16 - E) as the
# double-double hi + lo, |v| * 10**(16 - E) equals p + r to within about 1e-13, where
# p = fl(|v| * hi) and r adds Dekker's exact error of that product ("A floating-point
# technique for extending the available precision", 1971) and |v| * lo.  p is then
# an integer, so N = p + rint(r), unless r's fractional part is within 1e-9 of 1/2
# (a tie, such as 2**-25), where Python's correctly rounded formatting writes the row.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: splits a float64 into two 26-bit halves
# E over the kernel's range, one off for the estimate, plus a carry to 1e17
_E_MIN, _E_MAX = -252, 252
# Each value becomes a 32-byte field, four little-endian words, in which NUL bytes
# stand for what %g does not print: byte 0 the sign; bytes 1-5 '0.' and up to three
# '0's (E from -4 to -1); bytes 6-23 the digits, trailing zeros stripped, with the
# '.' inserted where %g puts it; bytes 24-28 'e', the exponent's sign and two or
# three digits (E below -4 or above 16); bytes 29-30 ',' or, at a row's end, CRLF.
_FIELD_WORDS = 4
_BLOCK = 4096


def _halves(a):
    """Veltkamp's split of float64 ``a`` into hi + lo, each of at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _le(text: bytes, at: int = 0) -> int:
    """The little-endian integer whose bytes ``at`` onwards are ``text``."""
    return int.from_bytes(text, "little") << 8 * at


class _TextTables(NamedTuple):
    """The writer's lookup tables, indexed by E - _E_MIN where not said otherwise."""

    hi: np.ndarray  # 10**(16 - E) correctly rounded,
    hi_h: np.ndarray  # its two halves,
    hi_l: np.ndarray
    lo: np.ndarray  # and the rest of 10**(16 - E), correctly rounded
    group_text: np.ndarray  # by 4-digit group: its ASCII word,
    group_zeros: np.ndarray  # and its count of trailing zeros
    fraction: np.ndarray  # the fraction digits %g keeps at most
    dot: np.ndarray  # the digits before the '.' (18: no '.' among the digits)
    prefix: np.ndarray  # the word of bytes 0-7, the sign left out
    suffix: np.ndarray  # the word of bytes 24-31, the separator left out
    below: np.ndarray  # by word w and count c: the digit bytes below c,
    dots: np.ndarray  # and a '.' at c (none at 18)


@cache
def _text_tables() -> _TextTables:
    """Built on first use, since every CLI run imports this module."""
    hi, lo = [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    hi = np.array(hi)
    g = np.arange(10_000, dtype=np.uint64)
    e = range(_E_MIN, _E_MAX + 1)
    low = [_le(b"\xff" * c) for c in range(19)]
    dots = [_le(b".", c) for c in range(18)] + [0]
    tables = _TextTables(
        hi,
        *_halves(hi),
        np.array(lo),
        sum((g // 10**i % 10 + 48) << np.uint64(8 * (3 - i)) for i in range(4)),
        sum((g % 10**i == 0) for i in range(1, 5)).astype(np.intp),
        np.array([17 if -4 <= x < 0 else 16 - x if 0 <= x <= 16 else 16 for x in e]),
        np.array([18 if -4 <= x < 0 else x + 1 if 0 <= x <= 16 else 1 for x in e]),
        np.array([_le(b"0." + b"0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in e], np.uint64),
        np.array([0 if -4 <= x <= 16 else _le(b"e%+03d" % x) for x in e], np.uint64),
        np.array([[c >> 64 * w & 2**64 - 1 for c in low] for w in range(3)], np.uint64),
        np.array([[c >> 64 * w & 2**64 - 1 for c in dots] for w in range(3)], np.uint64),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a, e, t: _TextTables):
    """``a * 10**(16 - e)`` as ``p + r``: ``p`` the float64 product with hi, ``r``
    Dekker's exact error of that product plus ``a * lo``."""
    hi, hi_h, hi_l, lo = (np.take(x, e - _E_MIN) for x in (t.hi, t.hi_h, t.hi_l, t.lo))
    p = a * hi
    a_h, a_l = _halves(a)
    return p, ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo


def _fields(v: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fill ``words`` (``(len(v), 4)``) with the fields of ``v`` and return where they hold
    ``v``'s ``%.17g`` text: zero and the 1e-250 <= |v| <= 1e250 that are not ties."""
    t = _text_tables()
    a = np.abs(v)
    inside = (a >= 1e-250) & (a <= 1e250)  # nan fails both
    zero = a == 0
    ok = inside | zero
    a = np.where(inside, a, 1.0)  # zero, and every value Python writes, as 1
    # floor(log10(a)) can be one off near a power of ten; the exact p + r says which way
    e = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(a, e, t)
    under = (p - 1e16) + r < 0
    off = np.flatnonzero(under | ((p - 1e17) + r >= 0))
    if off.size:
        e[off] += np.where(under[off], -1, 1)
        p[off], r[off] = _scaled(a[off], e[off], t)
    near = np.rint(r)
    ok &= np.abs(np.abs(r - near) - 0.5) > 1e-9
    n = p.astype(np.int64) + near.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    n[zero] = 0  # printed as "0": E = 0 and every digit but the first stripped
    # the 17 digits: the lead digit, then four groups of four
    upper = (n // 10**8).astype(np.uint32)
    g1, g2 = np.divmod(upper % 10**8, 10_000)
    g3, g4 = np.divmod((n % 10**8).astype(np.uint32), 10_000)
    zeros = np.take(t.group_zeros, g4)
    for g, z in ((g3, 4), (g2, 8), (g1, 12)):
        zeros += (zeros == z) * np.take(t.group_zeros, g)
    j = e - _E_MIN
    fraction = np.take(t.fraction, j)
    keep = 17 - np.minimum(zeros, fraction)
    dot = np.where(zeros < fraction, np.take(t.dot, j), 18)
    # the digits as three words, stripped, and the bytes from the '.' on shifted up
    t1, t2, t3, t4 = (np.take(t.group_text, g) for g in (g1, g2, g3, g4))
    text = [
        (upper // 10**8 + 48).astype(np.uint64) | t1 << np.uint64(8) | t2 << np.uint64(40),
        t2 >> np.uint64(24) | t3 << np.uint64(8) | t4 << np.uint64(40),
        t4 >> np.uint64(24),
    ]
    carried = np.uint64(0)
    for w in range(3):
        text[w] &= np.take(t.below[w], keep)
        head = text[w] & np.take(t.below[w], dot)
        tail = text[w] ^ head
        text[w] = head | tail << np.uint64(8) | carried | np.take(t.dots[w], dot)
        carried = tail >> np.uint64(56)
    words[:, 0] = np.signbit(v) * np.uint64(ord("-")) | np.take(t.prefix, j) | text[0] << np.uint64(48)
    words[:, 1] = text[0] >> np.uint64(16) | text[1] << np.uint64(48)
    words[:, 2] = text[1] >> np.uint64(16) | text[2] << np.uint64(48)
    words[:, 3] = np.take(t.suffix, j)
    return ok


def _csv_rows(chunk: np.ndarray) -> bytearray:
    """The CSV rows of ``chunk``, each value as ``%.17g`` writes it, with CRLF line ends.

    :func:`_fields` writes every row whose values it can prove, in blocks of
    ``_BLOCK`` values; Python's ``%`` writes the others: rows with a value that
    is not finite, lies outside the kernel's range, or is a tie (or within
    1e-9 of one) at 17 digits.
    """
    rows, cols = chunk.shape
    v = chunk.ravel()
    buf = bytearray(8 * _FIELD_WORDS * v.size)
    fields = np.frombuffer(buf, "<u8").reshape(rows, cols, _FIELD_WORDS)
    words = fields.reshape(-1, _FIELD_WORDS)
    ok = np.empty(v.size, bool)
    for start in range(0, v.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        ok[block] = _fields(v[block], words[block])
    fields[:, :-1, 3] |= np.uint64(_le(b",", 5))
    fields[:, -1, 3] |= np.uint64(_le(b"\r\n", 5))
    if not ok.all():
        row = ",".join(["%.17g"] * cols) + "\r\n"
        width = 8 * _FIELD_WORDS * cols
        pieces, start = [], 0
        for i in np.flatnonzero(~ok.reshape(rows, cols).all(axis=1)).tolist():
            pieces += [buf[start * width : i * width], (row % tuple(chunk[i].tolist())).encode()]
            start = i + 1
        buf = bytearray().join([*pieces, buf[start * width :]])
    return buf.translate(None, b"\0")


def save_dataset(data: Dataset, spec: ModelSpec, prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` and ``<prefix>.spec.json``; returns both paths.

    The CSV has an unquoted header row, then one row per observation of
    ``%.17g`` floats (which round-trip float64 exactly), with CRLF line ends,
    ``_CHUNK_ROWS`` rows per write.  A vectorized kernel writes the rows,
    byte-identical to ``%.17g``; Python's ``%`` writes those it cannot prove
    (see :func:`_csv_rows`).
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".spec.json")

    d, q, m = data.y.shape[1], data.z.shape[1], data.x.shape[1]
    blocks = [data.y, data.z, data.x]
    if data.hidden is not None:
        blocks += [data.hidden.xi, data.hidden.delta, data.hidden.e, data.hidden.eps]
    table = np.hstack(blocks, dtype=float)  # the kernel computes in float64
    with open(csv_path, "wb") as fh:
        fh.write((",".join(_csv_header(d, q, m, data.hidden is not None)) + "\r\n").encode())
        for start in range(0, len(table), _CHUNK_ROWS):
            fh.write(_csv_rows(table[start : start + _CHUNK_ROWS]))

    sidecar = {
        "schema_version": 1,
        "spec": spec_to_dict(spec),
        "seed": data.seed,
        "n": data.n,
        "has_hidden": data.hidden is not None,
    }
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path


def load_dataset(prefix) -> tuple[Dataset, ModelSpec]:
    """Read back a dataset written by :func:`save_dataset`.

    Raises :class:`DatasetError` when the sidecar is not a UTF-8 JSON object,
    lacks its ``spec``, ``seed`` or ``n``, gives a ``seed`` or ``n`` that is not
    an integer, an ``n`` below 1 or a ``has_hidden`` that is not a boolean, when
    the CSV is not UTF-8 or does not parse, when its header or row count
    (none for a header-only CSV) disagrees with what the sidecar implies, or
    when it holds a value that is not finite (``nan``, ``inf``).
    """
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".spec.json")
    try:
        with open(json_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DatasetError(f"{json_path}: not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise DatasetError(f"{json_path}: must hold a JSON object, got {type(sidecar).__name__}")
    try:
        spec_dict, seed, n = sidecar["spec"], sidecar["seed"], sidecar["n"]
    except KeyError as exc:
        raise DatasetError(f"{json_path}: missing key {exc}") from None
    for key, value in (("seed", seed), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DatasetError(f"{json_path}: {key!r} must be an integer, got {value!r}")
    if n < 1:
        raise DatasetError(f"{json_path}: 'n' must be at least 1, got {n}")
    has_hidden = sidecar.get("has_hidden", False)
    if not isinstance(has_hidden, bool):
        raise DatasetError(f"{json_path}: 'has_hidden' must be true or false, got {has_hidden!r}")
    spec = spec_from_dict(spec_dict)
    d, q, m = spec.response_dim, spec.z_dim, spec.latent_dim
    columns = _csv_header(d, q, m, has_hidden)
    with open(csv_path, encoding="utf-8") as fh:
        try:  # a ValueError: not UTF-8, or a value or row that does not parse
            header = fh.readline().rstrip("\n").split(",")
            if header != columns:
                raise DatasetError(f"{csv_path}: header {header}, but {json_path} implies {columns}")
            with warnings.catch_warnings():  # no rows: the shape check below reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float, comments=None)
        except ValueError as exc:
            raise DatasetError(f"{csv_path}: {exc}") from None
    if rows.size == 0:  # loadtxt's (0, 1)
        rows = rows.reshape(0, len(columns))
    if rows.shape != (n, len(columns)):
        raise DatasetError(
            f"{csv_path}: {rows.shape[0]} rows of {rows.shape[1]} values, "
            f"but {json_path} gives n = {n} and {len(columns)} columns"
        )
    if not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]
        raise DatasetError(
            f"{csv_path}: line {row + 2}, column {columns[col]}: {rows[row, col]} is not finite"
        )
    # column-major: each block is contiguous, so its column sums are pairwise
    rows = np.asfortranarray(rows)
    bounds = np.cumsum([0, d, q, m, m, m, d, d])
    y, z, x, xi, delta, e, eps = (rows[:, a:b] for a, b in zip(bounds[:-1], bounds[1:]))
    hidden = HiddenTruth(xi=xi, delta=delta, e=e, eps=eps) if has_hidden else None
    return Dataset(y=y, z=z, x=x, seed=seed, hidden=hidden), spec
