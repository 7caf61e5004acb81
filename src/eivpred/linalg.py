"""Dense symmetric-matrix utilities.

All matrices handled here are small (typically fewer than 20 rows), so exact
O(d^3) eigendecomposition methods are used throughout.  Functions accept any
array-like that is exactly symmetric and return plain ``numpy`` arrays.  All
but :func:`cholesky_psd` also take a ``(..., p, p)`` stack and treat each of
its matrices exactly as the 2-D call would, to the bit.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, NotPSD

__all__ = [
    "as_symmetric",
    "pinv",
    "sym_sqrt",
    "cholesky_psd",
    "min_eigenvalue",
]

# Rank and PSD tolerances per matrix dimension, relative to the largest
# eigenvalue (or diagonal entry); exact powers of two.
_RANK_TOL = np.finfo(float).eps
_PSD_TOL = 16 * np.finfo(float).eps


def as_symmetric(a, *, name: str = "matrix") -> np.ndarray:
    """Validate and return a square symmetric float array, or a ``(..., p, p)``
    stack of them.

    Raises InvalidMatrix on non-finite entries, non-square shape, or
    asymmetry beyond exact storage (a tiny relative tolerance, per matrix, is
    allowed so that products of symmetric matrices pass).
    """
    m = np.asarray(a, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidMatrix(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise InvalidMatrix(f"{name} must have dimension >= 1")
    if not np.isfinite(m).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    mt = m.swapaxes(-1, -2)
    scale = np.abs(m).max(axis=(-2, -1))
    if ((scale > 0) & (np.abs(m - mt).max(axis=(-2, -1)) > 1e-12 * scale)).any():
        raise InvalidMatrix(f"{name} is not symmetric")
    # store exactly symmetrically
    return 0.5 * (m + mt)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix, or of each matrix
    in a ``(..., p, p)`` stack.

    Computed by symmetric eigendecomposition; eigenvalues with
    ``|lam| <= dim * _RANK_TOL * max|lam|`` (per matrix) are treated as zero.
    """
    m = as_symmetric(a)
    w, v = np.linalg.eigh(m)
    cutoff = m.shape[-1] * _RANK_TOL * np.abs(w).max(axis=-1, keepdims=True)
    inv_w = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    out = (v * inv_w[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def sym_sqrt(a) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, with S @ S == a, or of each
    matrix in a ``(..., p, p)`` stack.

    Eigenvalues within ``dim * _PSD_TOL * max(lam, 1)`` below zero are
    clamped to 0; anything more negative, in any matrix of a stack, raises
    NotPSD.
    """
    m = as_symmetric(a)
    w, v = np.linalg.eigh(m)
    floor = -(m.shape[-1] * _PSD_TOL) * np.maximum(w.max(axis=-1), 1.0)
    low = w.min(axis=-1)
    bad = low < floor
    if bad.any():
        raise NotPSD(f"matrix has eigenvalue {low[bad].flat[0]:.3e} below tolerance")
    w = np.maximum(w, 0.0)
    out = (v * np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def cholesky_psd(a) -> np.ndarray:
    """Lower factor L with L @ L.T == a for PSD input.

    Positive definite input uses the standard Cholesky factorization.  For
    semidefinite input (singular to rounding) a diagonally pivoted
    factorization is used; the returned factor still reconstructs ``a`` but
    is lower-triangular only up to the pivoting permutation.  Indefinite
    input raises NotPSD.
    """
    m = as_symmetric(a)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    d = m.shape[0]
    tol = d * _PSD_TOL
    scale = max(np.max(np.abs(np.diag(m))), 1.0)
    if np.min(np.diag(m)) < -tol * scale:
        raise NotPSD("diagonal has a negative entry beyond tolerance")
    # outer-product Cholesky with diagonal pivoting; stops at numerical rank
    work = m.copy()
    perm = np.arange(d)
    low = np.zeros((d, d))
    for k in range(d):
        j = k + int(np.argmax(np.diag(work)[k:]))
        if j != k:
            work[[k, j], :] = work[[j, k], :]
            work[:, [k, j]] = work[:, [j, k]]
            low[[k, j], :k] = low[[j, k], :k]
            perm[[k, j]] = perm[[j, k]]
        piv = work[k, k]
        if piv <= tol * scale:
            if piv < -tol * scale:
                raise NotPSD("pivot became negative beyond tolerance")
            break
        low[k, k] = np.sqrt(piv)
        low[k + 1 :, k] = work[k + 1 :, k] / low[k, k]
        work[k + 1 :, k + 1 :] -= np.outer(low[k + 1 :, k], low[k + 1 :, k])
    out = np.zeros((d, d))
    out[perm, :] = low
    return out


def min_eigenvalue(a):
    """Smallest eigenvalue of a symmetric matrix (a float), or of each matrix
    in a ``(..., p, p)`` stack (an array of the stack's shape)."""
    m = as_symmetric(a)
    low = np.linalg.eigvalsh(m).min(axis=-1)
    return float(low) if low.ndim == 0 else low
