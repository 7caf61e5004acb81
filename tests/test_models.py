"""Model specifications, samplers, and dataset serialization."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eivpred import models
from eivpred.errors import DatasetError, SpecError
from eivpred.transform import params_to_dict, transform

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_linear_spec,
    make_poly_spec,
    make_quadratic_spec,
    make_trig_spec,
)


class TestValidate:
    def test_valid_linear_spec(self, linear_spec):
        assert models.validate(linear_spec) == []

    def test_correlation_above_one_is_not_psd(self):
        spec = make_poly_spec(sigma2_delta=1.0, sigma2_eps=1.0, sigma_eps_delta=2.0)
        violations = models.validate(spec)
        assert any("not PSD" in v for v in violations)

    def test_singular_z_covariance(self):
        spec = make_linear_spec(q=2)
        bad = models.LinearSpec(
            intercept=spec.intercept,
            z_slopes=spec.z_slopes,
            latent_slopes=spec.latent_slopes,
            latent_mean=spec.latent_mean,
            latent_cov=spec.latent_cov,
            errors=spec.errors,
            z_dist=models.ZDistribution("gaussian", mean=[0.0, 0.0], cov=[[1.0, 1.0], [1.0, 1.0]]),
        )
        assert any("singular" in v for v in models.validate(bad))

    def test_degenerate_latent_cov_allowed(self):
        spec = make_linear_spec(latent_cov=[[0.0]])
        assert models.validate(spec) == []

    def test_polynomial_degree_below_two_flagged(self):
        spec = make_poly_spec(coefs=[1.0])
        assert any("degree" in v for v in models.validate(spec))

    def test_quadratic_reliability_floor(self):
        ok = make_quadratic_spec(reliability_floor=0.5)  # true K = 0.5
        assert models.validate(ok) == []
        bad = make_quadratic_spec(reliability_floor=0.7)
        assert any("(0, 1/2]" in v for v in models.validate(bad))
        low = make_quadratic_spec(latent_var=0.5, sigma2_delta=1.5, reliability_floor=0.5)
        assert any("below" in v for v in models.validate(low))

    def test_abs_requires_positive_variances(self):
        assert any("sigma2_delta" in v for v in models.validate(make_abs_spec(sigma2_delta=0.0)))


class TestSample:
    def test_degenerate_point_mass(self):
        spec = make_linear_spec(
            q=0,
            intercept=[1.0],
            latent_slopes=[0.0],
            latent_mean=[2.0],
            latent_cov=[[0.0]],
            sigma_eps=[[0.0]],
            sigma_delta=[[0.0]],
        )
        data = models.sample(spec, 1, seed=0)
        assert data.y[0, 0] == pytest.approx(1.0, abs=0)
        assert data.x[0, 0] == pytest.approx(2.0, abs=0)

    def test_same_seed_bitwise_identical(self, linear_spec):
        a = models.sample(linear_spec, 50, seed=123)
        b = models.sample(linear_spec, 50, seed=123)
        for name in ("y", "z", "x"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.hidden.xi, b.hidden.xi)
        assert np.array_equal(a.hidden.eps, b.hidden.eps)

    def test_invalid_spec_raises(self):
        spec = make_poly_spec(sigma_eps_delta=2.0)
        with pytest.raises(SpecError):
            models.sample(spec, 10, seed=0)

    def test_sample_moments_match_spec(self):
        spec = make_linear_spec(q=2, m=2, sigma_eps_delta=[[0.1, 0.05]], z_kind="uniform")
        n = 100_000
        data = models.sample(spec, n, seed=7)

        def within(sample_cols, target):
            centered = sample_cols - sample_cols.mean(axis=0)
            for i in range(target.shape[0]):
                for j in range(target.shape[1]):
                    prods = centered[:, i] * centered[:, j]
                    se = prods.std(ddof=1) / np.sqrt(n)
                    assert abs(prods.mean() - target[i, j]) <= 3 * se + 1e-12

        within(data.z, spec.z_dist.cov)
        within(data.x, spec.x_cov)

    def test_eps_delta_cross_covariance(self):
        spec = make_linear_spec(sigma_eps_delta=[[0.2]])
        n = 100_000
        data = models.sample(spec, n, seed=11)
        prods = data.hidden.eps[:, 0] * data.hidden.delta[:, 0]
        se = prods.std(ddof=1) / np.sqrt(n)
        assert abs(prods.mean() - 0.2) <= 4 * se

    def test_surrogate_is_latent_plus_error_exactly(self, linear_spec):
        data = models.sample(linear_spec, 1000, seed=5)
        assert np.array_equal(data.x, data.hidden.xi + data.hidden.delta)

    def test_quadratic_family_has_no_eps_and_no_z(self):
        data = models.sample(make_quadratic_spec(), 100, seed=3)
        assert data.z.shape == (100, 0)
        assert np.all(data.hidden.eps == 0.0)


class TestNewSubject:
    def test_zero_noise_response_equals_regression_value(self):
        spec = make_linear_spec(sigma_e=[[0.0]], sigma_eps=[[0.0]])
        sub = models.new_subject(spec, seed=2)
        assert np.allclose(sub.y0, sub.eta0, atol=1e-12)

    def test_eta_matches_definition(self, linear_spec):
        spec = linear_spec
        sub = models.new_subject(spec, seed=9)
        recomputed = spec.intercept + spec.z_slopes.T @ sub.z0 + spec.latent_slopes.T @ sub.xi0
        assert np.allclose(sub.eta0, recomputed, atol=1e-14)

    def test_moments_of_fresh_draws(self, linear_spec):
        spec = linear_spec
        n = 10_000
        ys = np.array([models.new_subject(spec, seed=s).y0[0] for s in range(n)])
        mean_y = (
            spec.intercept[0]
            + float(spec.z_slopes[:, 0] @ spec.z_dist.mean)
            + float(spec.latent_slopes[:, 0] @ spec.latent_mean)
        )
        var_y = (
            float(spec.z_slopes[:, 0] @ spec.z_dist.cov @ spec.z_slopes[:, 0])
            + float(spec.latent_slopes[:, 0] @ spec.latent_cov @ spec.latent_slopes[:, 0])
            + spec.errors.sigma_e[0, 0]
            + spec.errors.sigma_eps[0, 0]
        )
        se = ys.std(ddof=1) / np.sqrt(n)
        assert abs(ys.mean() - mean_y) <= 4 * se
        assert abs(ys.var(ddof=1) - var_y) <= 5 * var_y / np.sqrt(n) + 4 * np.sqrt(2 / n) * var_y


class TestSerialization:
    def test_spec_json_roundtrip_bit_exact(self, tmp_path):
        spec = make_linear_spec(
            q=2,
            m=2,
            sigma_eps_delta=[[0.123456789012345678, -0.05]],
            latent_cov=[[1.0, 0.3], [0.3, 0.9]],
        )
        text = json.dumps(models.spec_to_dict(spec))
        back = models.spec_from_dict(json.loads(text))
        assert np.array_equal(back.latent_cov, spec.latent_cov)
        assert np.array_equal(back.errors.sigma_eps_delta, spec.errors.sigma_eps_delta)
        assert json.dumps(models.spec_to_dict(back)) == text

    def test_dataset_roundtrip(self, tmp_path, linear_spec):
        data = models.sample(linear_spec, 37, seed=21)
        prefix = tmp_path / "ds"
        models.save_dataset(data, linear_spec, prefix)
        loaded, spec_back = models.load_dataset(prefix)
        assert np.array_equal(loaded.y, data.y)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.hidden.delta, data.hidden.delta)
        assert loaded.seed == data.seed
        assert models.validate(spec_back) == []

    def test_unknown_spec_fields_rejected(self):
        payload = models.spec_to_dict(make_quadratic_spec())
        payload["mystery"] = 1.0
        with pytest.raises(SpecError):
            models.spec_from_dict(payload)

    def test_scalar_family_roundtrip(self):
        for spec in (make_poly_spec(), make_quadratic_spec(), make_abs_spec()):
            back = models.spec_from_dict(json.loads(json.dumps(models.spec_to_dict(spec))))
            assert back.family == spec.family
            assert back.latent_var == spec.latent_var

    @pytest.mark.parametrize(
        "edit, message",
        [
            (dict(coefs="abc"), "spec field 'coefs' must be a numeric array, got 'abc'"),
            (dict(coefs=[1.0, [2.0, 3.0]]), "spec field 'coefs' must be a numeric array"),
            (dict(coefs=[True, False]), "spec field 'coefs' must be a numeric array"),
            (dict(latent_var="x"), "spec field 'latent_var' must be a number, got 'x'"),
            (dict(latent_var=True), "spec field 'latent_var' must be a number, got True"),
            (dict(latent_var=None), "spec field 'latent_var' must be a number, got None"),
            (dict(latent_var=[1.0]), "spec field 'latent_var' must be a number, got [1.0]"),
            (dict(z_dist=3), "spec z_dist must be an object, got 3"),
            (dict(z_dist={"kind": "gaussian", "mean": [0.0]}), "spec z_dist lacks field 'cov'"),
            (
                dict(z_dist={"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "df": 3}),
                "unknown spec z_dist field 'df'",
            ),
        ],
        ids=[
            "array-str",
            "array-ragged",
            "array-bool",
            "number-str",
            "number-bool",
            "number-null",
            "number-list",
            "z_dist-not-object",
            "z_dist-missing-key",
            "z_dist-unknown-key",
        ],
    )
    def test_malformed_values_raise_spec_error(self, edit, message):
        payload = dict(models.spec_to_dict(make_poly_spec()), **edit)
        with pytest.raises(SpecError) as info:
            models.spec_from_dict(payload)
        [violation] = info.value.violations
        assert violation.startswith(message)

    def test_malformed_errors_and_missing_field_raise_spec_error(self):
        payload = models.spec_to_dict(make_linear_spec())
        del payload["errors"]["sigma_e"]
        del payload["latent_cov"]
        payload["errors"]["sigma_eps"] = "abc"
        with pytest.raises(SpecError) as info:
            models.spec_from_dict(payload)
        assert info.value.violations == [
            "spec lacks field 'latent_cov'",
            "spec errors lacks field 'sigma_e'",
            "spec errors field 'sigma_eps' must be a numeric array, got 'abc'",
        ]

    def test_values_are_checked_not_converted(self):
        payload = dict(models.spec_to_dict(make_quadratic_spec()), intercept=0, latent_var=1)
        back = models.spec_to_dict(models.spec_from_dict(payload))
        assert json.dumps(back) == json.dumps(payload)


def _two_point_z_poly():
    z_dist = models.ZDistribution("two_point", mean=[0.0, 1.0], cov=[[1.0, 0.0], [0.0, 0.25]])
    return make_poly_spec(z_slopes=[0.4, -0.2], z_dist=z_dist)


# One spec per family and z distribution, plus a point mass (pivoted Cholesky).
PINNED_SPECS = {
    "linear_gaussian_z": lambda: make_linear_spec(
        d=2,
        q=2,
        m=2,
        latent_cov=[[1.0, 0.3], [0.3, 0.9]],
        sigma_e=[[0.2, 0.05], [0.05, 0.1]],
        sigma_eps_delta=[[0.1, 0.0], [0.05, 0.02]],
    ),
    "linear_uniform_z": lambda: make_linear_spec(q=2, sigma_eps_delta=[[0.1]], z_kind="uniform"),
    "linear_two_point_z": lambda: make_linear_spec(q=1, sigma_e=[[0.1]], z_kind="two_point"),
    "polynomial_two_point_z": _two_point_z_poly,
    "linear_point_mass": lambda: make_linear_spec(
        q=0, latent_cov=[[0.0]], sigma_eps=[[0.0]], sigma_delta=[[0.0]]
    ),
    "quadratic": make_quadratic_spec,
    "exponential": make_exponential_spec,
    "trigonometric": make_trig_spec,
    "absolute_value": make_abs_spec,
}

# SHA-256 of (sample(spec, 40, seed=2024) arrays, new_subject(spec, seed=77) arrays),
# recorded on x86-64 Linux with numpy 2.4 / OpenBLAS before the sampler was
# compiled once per spec; any change to the draw order or arithmetic shows here.
# They also depend on numpy's SIMD dispatch wherever a family calls a dispatched
# function (np.exp, np.sin, np.cos): a CPU without AVX-512, or one with those
# targets disabled, may draw other last bits.
PINNED_DIGESTS = {
    "linear_gaussian_z": (
        "076e313be810afb7765231b70ea3a4d4205c5eae759cd054b4886ca4cea60a2a",
        "16aa5498f51f1b57105671ad0af41ebdb0227f44ccd42e50c330cfd41a5bfcfb",
    ),
    "linear_uniform_z": (
        "6460d78a450bbed590b6e0baf23567e69563b97a5bd4e571fe48b7dba8030444",
        "d866255c89e83b73e1ee52f4da9a63cd69c07f0a6b6bfd75d7811c9b0c2fc4b7",
    ),
    "linear_two_point_z": (
        "a1253f37dc1926637eea723a1a020721c9d9edbc49e2070d682b6436c6cb04c1",
        "762767cc069ac3944fcc54665d5f831c95acbc8ddd35cd7d2f2e3570e97d8bf9",
    ),
    "polynomial_two_point_z": (
        "543af244175fa187e39e9579913ec368d706980608344dd5a611829efc0aa30b",
        "0e168012ecd2169e33a5fccb81ecfa1c58ccc152dc2d10e94c34b14ef7ef521c",
    ),
    "linear_point_mass": (
        "f2910a273c0c4c877cca1a1781b63d99777be2a6cdcdf04e7d4a4c96146fe7e8",
        "69134cb4983a45f8e59f2bed1b8bdbff6e02d1e26936ee65f37da58b35a00751",
    ),
    "quadratic": (
        "5b689ee81ff568eab49af18d39c388566f93879ddba6fa40415d395a59ac25f3",
        "d1b2660c85b10db289070f890a0e98b4e66abd3afc05399580da5e042ad6b466",
    ),
    "exponential": (
        "410a9518f32e4c7a7cb96732ed1afd24bc0269ccff8e2787e0fa78ed637a5f54",
        "b48de9be81cb80e07fe4bb10c4106f5cdb6c338aae8cf7de464e7fb2521ad7da",
    ),
    "trigonometric": (
        "118db6bb2f80c5bd1b937c2d9b5283204eedc56c4c653ddabf0658e210299578",
        "84b2d445e61f74eb4aa43a3b0e01a1d14f5c42ee505b7f72e2b23e8174004564",
    ),
    "absolute_value": (
        "f27b2e1b70c1752a8be6eb76072368082238133e020257556e5f76f5abf25e56",
        "755d2cfea175a4aa2b17f3c8dd1874ba6e404da4f2da8df696743d3007e315a2",
    ),
}


# SHA-256 of json.dumps(spec_to_dict(spec)) and of
# json.dumps(params_to_dict(transform(spec))), recorded on x86-64 Linux with
# numpy 2.4 / OpenBLAS before one writer served specs, parameters and regions;
# any change to the key order or the number formatting shows here.
JSON_SPECS = {
    "linear": make_linear_spec,
    "polynomial": make_poly_spec,
    "quadratic": make_quadratic_spec,
    "exponential": make_exponential_spec,
    "trigonometric": make_trig_spec,
    "absolute_value": make_abs_spec,
    "linear_gaussian_z": PINNED_SPECS["linear_gaussian_z"],
}
JSON_DIGESTS = {
    "linear": (
        "e34bbb78a9b38a2b70773848ffdc3e542e2d2c099aa1e33c99bb983dbd8953ca",
        "6db5938f3965f5a5bfcd02a7fb14ce7d74d6abf75d80387dc0ab00c8914ee8f3",
    ),
    "polynomial": (
        "a2e8bce2273c4a4f0d897c2df58bb6ea783e460f82f8d2b27f1b759e4ca32931",
        "9a9d283ac15b35d7e8d17328afd47ebf86853d9ff4bd8bdda4506548e4978732",
    ),
    "quadratic": (
        "4eda20bb28d2ada011d9284ea10852aa88b92b8c732fc1b54d55d43bf8843c19",
        "0bbf5197cbe522701595e4cfe4b561e738b97519d1ed0eeb681dfa58634180fb",
    ),
    "exponential": (
        "e918a2a1ac3d28c12f84572dab177f19bda1da52b8a729f3e4b2f80cf348f0d1",
        "005090e502cca32d41ff04b31930e5add478dc06ab43c89584070f87471b56f5",
    ),
    "trigonometric": (
        "53d371e9647f56f55f62991be7c988ed47e107a6b447e213a675e3e2ac974b97",
        "aeb53b51efebb5f701d7938d109c62087102b3d27f556d0b29db154afbb9f82e",
    ),
    "absolute_value": (
        "6b4046b69ad2736b32d11127b4f433845d94cedbc0c6d9d68754ae81a21478e4",
        "4905c735aa41cb5a9b6b92c00a2a51c2fbd51712e5c050b52f46cf56e464c6a6",
    ),
    "linear_gaussian_z": (
        "7ad19a3e5efd0b5cd3b1c19131199b245dc5a7d47de72f65c5e5d9a9168edca7",
        "3a040214ed07081583bed0f47329b9a97b528407c5634b7c52d4e826087d90d3",
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

# Prints the SHA-256 of a 1e5-row sample of the spec given as JSON in sys.argv[1].
_SAMPLE_DIGEST = """
import hashlib, json, sys
import numpy as np
from eivpred import models

data = models.sample(models.spec_from_dict(json.loads(sys.argv[1])), 100_000, seed=2024)
h = data.hidden
digest = hashlib.sha256()
for a in (data.y, data.z, data.x, h.xi, h.delta, h.e, h.eps):
    digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
print(digest.hexdigest())
"""


class TestJsonWriter:
    @pytest.mark.parametrize("name", sorted(JSON_SPECS))
    def test_spec_and_params_json_match_pinned_digests(self, name):
        spec = JSON_SPECS[name]()
        texts = (json.dumps(models.spec_to_dict(spec)), json.dumps(params_to_dict(transform(spec))))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == JSON_DIGESTS[name]


class TestSampler:
    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_draws_match_pinned_digests(self, name):
        spec = PINNED_SPECS[name]()
        data = models.sample(spec, 40, seed=2024)
        h = data.hidden
        sub = models.new_subject(spec, seed=77)
        assert (
            _digest(data.y, data.z, data.x, h.xi, h.delta, h.e, h.eps),
            _digest(sub.z0, sub.x0, sub.y0, sub.eta0, sub.xi0),
        ) == PINNED_DIGESTS[name]

    def test_compiled_sampler_matches_module_functions(self):
        spec = PINNED_SPECS["linear_gaussian_z"]()
        sampler = models.Sampler(spec)
        for seed in (1, 2):
            a, b = sampler.sample(30, seed), models.sample(spec, 30, seed)
            assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("y", "z", "x"))
            assert np.array_equal(sampler.new_subject(seed).y0, models.new_subject(spec, seed).y0)

    def test_blocking_violation_raises_at_construction(self):
        with pytest.raises(SpecError, match="not PSD"):
            models.Sampler(make_linear_spec(latent_cov=[[-1.0]]))

    def test_single_draw_path(self):
        assert not hasattr(models, "_draw")

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_polynomial_regression_is_the_power_basis(self, degree):
        spec = _two_point_z_poly()
        spec = models.PolynomialSpec(**dict(vars(spec), coefs=np.linspace(1.0, -0.4, degree)))
        r = np.random.default_rng(degree)
        z, xi = r.standard_normal((50, 2)), 3.0 * r.standard_normal((50, 1))
        expected = spec.intercept + models.power_basis(xi[:, 0], degree) @ spec.coefs
        assert np.array_equal(spec.regression(z, xi), (expected + z @ spec.z_slopes)[:, None])

    def test_polynomial_draws_do_not_depend_on_simd_dispatch(self):
        """The same digest with numpy's AVX-512 dispatch targets disabled.  At
        1e5 rows, ``x ** arange`` rounds some powers differently on those
        paths; the products must not."""
        targets = [
            t for t in _umath.__cpu_dispatch__
            if t.startswith(("AVX512", "X86_V4")) and _umath.__cpu_features__.get(t)
        ]
        if not targets:
            pytest.skip("no AVX-512 dispatch target on this machine")
        spec = json.dumps(models.spec_to_dict(_two_point_z_poly()))
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), env.get("PYTHONPATH", "")])
        digests = []
        for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}):
            done = subprocess.run(
                [sys.executable, "-c", _SAMPLE_DIGEST, spec],
                capture_output=True, text=True, env=dict(env, **extra), timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]


REPO = Path(__file__).parent.parent


def _reference_csv(header, table) -> bytes:
    """The dataset CSV as csv.writer writes it, one format() call per value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in table:
        writer.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, np.inf, -np.inf]


class TestDatasetFile:
    @pytest.mark.parametrize("prefix", ["tests/data/golden_dataset", "results/linear_demo"])
    def test_committed_dataset_rewrites_byte_for_byte(self, tmp_path, prefix):
        data, spec = models.load_dataset(REPO / prefix)
        csv_path, json_path = models.save_dataset(data, spec, tmp_path / "copy")
        assert csv_path.read_bytes() == (REPO / prefix).with_suffix(".csv").read_bytes()
        assert json_path.read_bytes() == (REPO / prefix).with_suffix(".spec.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 25),
            st.integers(1, 2),
            st.integers(0, 2),
            st.integers(1, 2),
            st.booleans(),
        ),
        chunk=st.integers(1, 8),
        data=st.data(),
    )
    def test_writer_matches_reference_and_round_trips_bits(self, shape, chunk, data):
        n, d, q, m, hidden = shape
        size = n * (3 * d + q + 3 * m)  # y, z, x and the four hidden blocks
        # half the tables hold finite values only, so that they round-trip;
        # the others can hold infinities, which are written but refused on reading
        finite = data.draw(st.booleans())
        edges = [v for v in _EDGE_FLOATS if np.isfinite(v)] if finite else _EDGE_FLOATS
        values = st.one_of(
            st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=not finite, width=64)
        )
        table = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(n, -1)
        blocks = np.split(table, np.cumsum([d, q, m, m, m, d]), axis=1)
        truth = models.HiddenTruth(*blocks[3:7]) if hidden else None
        written = models.Dataset(*blocks[:3], seed=3, hidden=truth)
        spec = make_linear_spec(d=d, q=q, m=m)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "_CHUNK_ROWS", chunk)
            csv_path, _ = models.save_dataset(written, spec, Path(tmp) / "ds")
            header = models._csv_header(d, q, m, hidden)
            assert csv_path.read_bytes() == _reference_csv(header, table[:, : len(header)])
            bad = np.argwhere(~np.isfinite(table[:, : len(header)]))
            if bad.size:
                row, col = bad[0]
                with pytest.raises(DatasetError, match=f"line {row + 2}, column {header[col]}: -?inf is"):
                    models.load_dataset(Path(tmp) / "ds")
                return
            loaded, _ = models.load_dataset(Path(tmp) / "ds")
        pairs = [(loaded.y, written.y), (loaded.z, written.z), (loaded.x, written.x)]
        if hidden:
            names = ("xi", "delta", "e", "eps")
            pairs += [(getattr(loaded.hidden, k), getattr(truth, k)) for k in names]
        else:
            assert loaded.hidden is None
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
