"""Symmetric-matrix utilities: pseudo-inverse, square root, factorization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eivpred import linalg
from eivpred.errors import InvalidMatrix, NotPSD


def random_symmetric(rng, dim, rank=None):
    """Random symmetric matrix of exact rank ``rank`` with eigenvalues
    bounded away from zero (orthonormal basis keeps the spectrum exact)."""
    rank = dim if rank is None else rank
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.1, 3.0, rank) * rng.choice([-1.0, 1.0], rank)
    return (basis * vals) @ basis.T


def assert_moore_penrose(a, p, rtol=1e-10):
    scale_a = max(np.linalg.norm(a), 1e-300)
    scale_p = max(np.linalg.norm(p), 1e-300)
    assert np.linalg.norm(a @ p @ a - a) <= rtol * scale_a
    assert np.linalg.norm(p @ a @ p - p) <= rtol * scale_p
    ap = a @ p
    pa = p @ a
    assert np.linalg.norm(ap - ap.T) <= rtol * max(np.linalg.norm(ap), 1.0)
    assert np.linalg.norm(pa - pa.T) <= rtol * max(np.linalg.norm(pa), 1.0)


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_zero(self):
        assert np.array_equal(linalg.pinv(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rank_deficient_diagonal(self):
        p = linalg.pinv(np.diag([2.0, 0.0]))
        assert np.allclose(p, np.diag([0.5, 0.0]), atol=1e-14)
        assert_moore_penrose(np.diag([2.0, 0.0]), p)

    def test_random_matrices_satisfy_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            rank = int(rng.integers(1, dim + 1))
            a = random_symmetric(rng, dim, rank)
            assert_moore_penrose(a, linalg.pinv(a))

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            a = random_symmetric(rng, dim)
            back = linalg.pinv(linalg.pinv(a))
            assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.pinv([[np.nan, 0.0], [0.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrix):
            linalg.pinv([[1.0, 2.0], [0.0, 1.0]])


class TestSymSqrt:
    def test_diagonal(self):
        assert np.allclose(linalg.sym_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_identity(self, dim):
        assert np.allclose(linalg.sym_sqrt(np.eye(dim)), np.eye(dim), atol=1e-14)

    def test_square_reconstructs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 8))
            basis = rng.standard_normal((dim, dim))
            a = basis @ basis.T
            s = linalg.sym_sqrt(a)
            assert np.linalg.norm(s @ s - a) <= 1e-10 * max(np.linalg.norm(a), 1e-300)

    def test_sqrt_of_pinv_squares_back(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            rank = int(rng.integers(1, dim + 1))
            basis = rng.standard_normal((dim, rank))
            a = basis @ basis.T
            p = linalg.pinv(a)
            s = linalg.sym_sqrt(p)
            assert np.linalg.norm(s @ s - p) <= 1e-10 * max(np.linalg.norm(p), 1e-300)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSD):
            linalg.sym_sqrt(np.diag([1.0, -1.0]))


class TestCholeskyPsd:
    def test_identity(self):
        assert np.allclose(linalg.cholesky_psd(np.eye(2)), np.eye(2), atol=1e-14)

    def test_scalar(self):
        assert np.allclose(linalg.cholesky_psd([[9.0]]), [[3.0]], atol=1e-14)

    def test_reconstruction(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        fac = linalg.cholesky_psd(a)
        assert np.linalg.norm(fac @ fac.T - a) <= 1e-12

    def test_semidefinite_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(1, 8))
            rank = int(rng.integers(0, dim + 1))
            basis = rng.standard_normal((dim, max(rank, 1))) * (rank > 0)
            a = basis @ basis.T
            fac = linalg.cholesky_psd(a)
            assert np.linalg.norm(fac @ fac.T - a) <= 1e-10 * max(np.linalg.norm(a), 1.0)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSD):
            linalg.cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pinv_property(dim, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, dim + 1))
    a = random_symmetric(rng, dim, rank)
    assert_moore_penrose(a, linalg.pinv(a))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=1, max_value=6),
    scale=st.floats(min_value=1e-8, max_value=1e8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stacked_calls_equal_the_per_matrix_calls_bit_for_bit(dim, count, scale, seed):
    """A (R, p, p) stack gives each matrix's own bytes, singular matrices
    (rank 0 up to p) included."""
    rng = np.random.default_rng(seed)
    stack = np.empty((count, dim, dim))
    for i in range(count):
        rank = int(rng.integers(0, dim + 1))
        basis = rng.standard_normal((dim, rank)) * scale
        stack[i] = basis @ basis.T
    for fn in (linalg.pinv, linalg.sym_sqrt, linalg.min_eigenvalue, linalg.as_symmetric):
        stacked = np.asarray(fn(stack))
        singles = np.array([fn(a) for a in stack])
        assert stacked.shape == singles.shape
        assert stacked.tobytes() == singles.tobytes()


def test_stacked_checks_name_the_offending_matrix():
    good = np.eye(2)
    with pytest.raises(InvalidMatrix, match="non-finite"):
        linalg.pinv(np.stack([good, np.full((2, 2), np.nan)]))
    with pytest.raises(InvalidMatrix, match="not symmetric"):
        linalg.min_eigenvalue(np.stack([good, np.array([[1.0, 2.0], [0.0, 1.0]])]))
    with pytest.raises(NotPSD, match="eigenvalue -1.000e\\+00 below tolerance"):
        linalg.sym_sqrt(np.stack([good, -good]))
    with pytest.raises(InvalidMatrix, match="square"):
        linalg.pinv(np.ones((3, 2, 3)))
