"""Shared spec builders for the test suite."""

import numpy as np
import pytest

from eivpred import models


def same_bits(a, b) -> bool:
    """Whether two arrays have one shape, one dtype and the same bits."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked(datasets):
    """The observed arrays ``(y, z, x)`` of datasets of one size, stacked as
    (R, n, .) arrays, the form ``estimators.fit_stack`` takes."""
    return tuple(np.stack([getattr(d, k) for d in datasets]) for k in ("y", "z", "x"))


def make_linear_spec(
    d=1,
    q=1,
    m=1,
    intercept=None,
    z_slopes=None,
    latent_slopes=None,
    latent_mean=None,
    latent_cov=None,
    sigma_e=None,
    sigma_eps=None,
    sigma_delta=None,
    sigma_eps_delta=None,
    z_kind="gaussian",
):
    """A valid linear spec with simple defaults, overridable per test."""
    intercept = np.full(d, 1.0) if intercept is None else np.asarray(intercept, float)
    z_slopes = (
        np.full((q, d), 0.5) if z_slopes is None else np.asarray(z_slopes, float).reshape(q, d)
    )
    latent_slopes = (
        np.full((m, d), 1.0)
        if latent_slopes is None
        else np.asarray(latent_slopes, float).reshape(m, d)
    )
    latent_mean = np.full(m, 0.5) if latent_mean is None else np.asarray(latent_mean, float)
    latent_cov = np.eye(m) if latent_cov is None else np.asarray(latent_cov, float)
    errors = models.ErrorStructure(
        sigma_e=np.zeros((d, d)) if sigma_e is None else np.asarray(sigma_e, float).reshape(d, d),
        sigma_eps=0.3 * np.eye(d) if sigma_eps is None else np.asarray(sigma_eps, float).reshape(d, d),
        sigma_delta=0.5 * np.eye(m)
        if sigma_delta is None
        else np.asarray(sigma_delta, float).reshape(m, m),
        sigma_eps_delta=np.zeros((d, m))
        if sigma_eps_delta is None
        else np.asarray(sigma_eps_delta, float).reshape(d, m),
    )
    z_dist = (
        models.ZDistribution(z_kind, mean=np.zeros(q), cov=np.eye(q)) if q else None
    )
    return models.LinearSpec(
        intercept=intercept,
        z_slopes=z_slopes,
        latent_slopes=latent_slopes,
        latent_mean=latent_mean,
        latent_cov=latent_cov,
        errors=errors,
        z_dist=z_dist,
    )


def make_poly_spec(**overrides):
    base = dict(
        intercept=0.7,
        coefs=[1.0, -0.5, 0.3],
        latent_mean=0.5,
        latent_var=1.0,
        sigma2_e=0.2,
        sigma2_eps=0.3,
        sigma2_delta=0.8,
        sigma_eps_delta=0.1,
    )
    base.update(overrides)
    return models.PolynomialSpec(**base)


def make_quadratic_spec(**overrides):
    base = dict(
        intercept=0.4,
        slope=0.7,
        curvature=1.0,
        latent_mean=1.0,
        latent_var=1.0,
        sigma2_e=0.2,
        sigma2_delta=1.0,
    )
    base.update(overrides)
    return models.QuadraticSpec(**base)


def make_exponential_spec(**overrides):
    base = dict(
        scale=2.0, rate=1.0, latent_mean=1.0, latent_var=1.0, sigma2_e=0.1, sigma2_delta=1.0
    )
    base.update(overrides)
    return models.ExponentialSpec(**base)


def make_trig_spec(**overrides):
    base = dict(
        const=0.3,
        cos_amps=[1.0, 0.5],
        sin_amps=[-0.7, 0.2],
        freq=1.3,
        latent_mean=0.4,
        latent_var=1.2,
        sigma2_e=0.05,
        sigma2_delta=0.8,
    )
    base.update(overrides)
    return models.TrigSpec(**base)


def make_abs_spec(**overrides):
    base = dict(scale=1.0, shift=1.0, latent_mean=0.0, latent_var=1.0, sigma2_e=0.1, sigma2_delta=1.0)
    base.update(overrides)
    return models.AbsSpec(**base)


@pytest.fixture
def linear_spec():
    return make_linear_spec()
