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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import DatasetError, SpecError
from .linalg import cholesky_psd, min_eigenvalue
from .rng import make_rng

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
    "FAMILIES",
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
        """Regression surface evaluated at exact covariates, (n, d)."""
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


def power_basis(x: np.ndarray, k: int) -> np.ndarray:
    """Columns x, x^2, ..., x^k of ``x``, shape (*x.shape, k), C-contiguous, k >= 1.

    Built from exact repeated products x, x*x, (x*x)*x, ..., which are basic
    IEEE operations: the bytes do not depend on numpy's CPU dispatch, as those
    of ``x[..., None] ** np.arange(1, k + 1)`` do, and the products are several
    times faster.  Each column is within k ulps of the correctly rounded power.
    The sampler, the fit and the prediction all build their powers here.
    """
    x = np.asarray(x, dtype=float)
    cols = [x]
    for _ in range(k - 1):
        cols.append(cols[-1] * x)
    return np.stack(cols, axis=-1)


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
        out = self.intercept + power_basis(xi[:, 0], self.degree) @ self.coefs
        if self.z_dim:
            out = out + z @ self.z_slopes
        return out[:, None]


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
        v = xi[:, 0]
        return (self.intercept + self.slope * v + self.curvature * v**2)[:, None]


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
        return (self.scale * np.exp(self.rate * xi[:, 0]))[:, None]


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
        phase = self.freq * xi[:, 0][:, None] * k
        out = self.const + np.cos(phase) @ self.cos_amps + np.sin(phase) @ self.sin_amps
        return out[:, None]


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
        return (self.scale * np.abs(xi[:, 0] + self.shift))[:, None]


ModelSpec = Union[LinearSpec, PolynomialSpec, QuadraticSpec, ExponentialSpec, TrigSpec, AbsSpec]

_SCALAR_FAMILIES = (PolynomialSpec, QuadraticSpec, ExponentialSpec, TrigSpec, AbsSpec)


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

    if not isinstance(spec, _SCALAR_FAMILIES):
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
    """Per-observation latent draws kept for oracle checks."""

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
    """A fresh draw together with its noiseless regression value."""

    z0: np.ndarray  # (q,)
    x0: np.ndarray  # (m,)
    y0: np.ndarray  # (d,)
    eta0: np.ndarray  # (d,), regression surface at (z0, xi0)
    xi0: np.ndarray  # (m,), hidden latent draw (kept for oracle checks)


class Sampler:
    """A spec validated once, with the Cholesky factors of its fixed covariances.

    Construction runs the blocking model checks and raises :class:`SpecError`
    on a violation; the factors of the latent, stacked (eps, delta),
    equation-error and Gaussian-z covariances are computed here and reused by
    every draw.  The spec must not be mutated while a sampler built from it
    is in use.
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

    def _draw_z(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z_dist, shape = self._z_dist, (n, self._q)
        if z_dist is None:
            return np.zeros(shape)
        if z_dist.kind == "gaussian":
            return z_dist.mean + rng.standard_normal(shape) @ self._z_factor
        if z_dist.kind == "uniform":
            return z_dist.mean + rng.uniform(-1.0, 1.0, size=shape) * self._z_factor
        signs = 2.0 * rng.integers(0, 2, size=shape) - 1.0
        return z_dist.mean + signs * self._z_factor

    def draw(self, rng: np.random.Generator, n: int):
        """Draw n i.i.d. observations; returns (y, z, x, hidden)."""
        d, m = self._d, self._m
        z = self._draw_z(rng, n)
        xi = self._mu + rng.standard_normal((n, m)) @ self._latent_factor
        meas = rng.standard_normal((n, d + m)) @ self._meas_factor
        eps, delta = meas[:, :d], meas[:, d:]
        e = rng.standard_normal((n, d)) @ self._e_factor
        x = xi + delta
        y = self.spec.regression(z, xi) + e + eps
        return y, z, x, HiddenTruth(xi=xi, delta=delta, e=e, eps=eps)

    def sample(self, n: int, seed: int, *, keep_hidden: bool = True) -> Dataset:
        """Draw ``n`` i.i.d. observations; deterministic given ``seed``."""
        if n < 1:
            raise SpecError(["sample size must be >= 1"])
        y, z, x, hidden = self.draw(make_rng(seed), n)
        return Dataset(y=y, z=z, x=x, seed=int(seed), hidden=hidden if keep_hidden else None)

    def new_subject(self, seed: int) -> NewSubject:
        """One fresh draw plus the noiseless regression value at its covariates."""
        y, z, x, hidden = self.draw(make_rng(seed, 0x5EED), 1)
        eta = self.spec.regression(z, hidden.xi)
        return NewSubject(z0=z[0], x0=x[0], y0=y[0], eta0=eta[0], xi0=hidden.xi[0])


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

_SPEC_CLASSES = {
    cls.family: cls
    for cls in (LinearSpec, PolynomialSpec, QuadraticSpec, ExponentialSpec, TrigSpec, AbsSpec)
}
FAMILIES = tuple(_SPEC_CLASSES)


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
    field's annotation (a number for float, a numeric array for ndarray)."""
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


def save_dataset(data: Dataset, spec: ModelSpec, prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` and ``<prefix>.spec.json``; returns both paths.

    The CSV has an unquoted header row, then one row per observation of
    ``%.17g`` floats (which round-trip float64 exactly), with CRLF line ends.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".spec.json")

    d, q, m = data.y.shape[1], data.z.shape[1], data.x.shape[1]
    blocks = [data.y, data.z, data.x]
    if data.hidden is not None:
        blocks += [data.hidden.xi, data.hidden.delta, data.hidden.e, data.hidden.eps]
    table = np.hstack(blocks)
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(d, q, m, data.hidden is not None)) + "\r\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start : start + _CHUNK_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))

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
    lacks its ``spec``, ``seed`` or ``n``, or gives a ``seed`` or ``n`` that is not
    an integer, when the CSV is not UTF-8 or does not parse, when its
    header or row count disagrees with what the sidecar's spec implies, or
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
    spec = spec_from_dict(spec_dict)
    d, q, m = spec.response_dim, spec.z_dim, spec.latent_dim
    has_hidden = bool(sidecar.get("has_hidden"))
    columns = _csv_header(d, q, m, has_hidden)
    with open(csv_path, encoding="utf-8") as fh:
        try:  # a ValueError: not UTF-8, or a value or row that does not parse
            header = fh.readline().rstrip("\n").split(",")
            if header != columns:
                raise DatasetError(f"{csv_path}: header {header}, but {json_path} implies {columns}")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float, comments=None)
        except ValueError as exc:
            raise DatasetError(f"{csv_path}: {exc}") from None
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
