"""Orthonormal bases and Haar-distributed special-orthogonal rotations.

QR factorization is delegated to LAPACK's Householder routine via
``numpy.linalg.qr``; this module adds the contracts the samplers rely on:
an explicit rank check, resampling on (measure-zero) rank deficiency, and
the sign correction that turns a raw QR of a Gaussian matrix into a draw
from the Haar measure on SO(k).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError
from .rng import Rng

# Diagonal entries of R below this are treated as rank deficiency.
_RANK_TOL = 1e-12

# Gaussian matrices are almost surely full rank; a handful of retries is
# already astronomically more than needed.
_MAX_RESAMPLE = 8


def householder_qr(m: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Thin QR factorization of an (n, k) matrix with n >= k >= 1.

    Returns (q, r) with q of shape (n, k), r upper triangular (k, k).
    Raises NumericalError when any |r_ii| < 1e-12, so callers holding a
    random matrix can resample instead of silently losing a direction.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    n, k = m.shape
    if k < 1 or n < k:
        raise ShapeError(f"need n >= k >= 1, got shape ({n}, {k})")
    q, r = np.linalg.qr(m, mode="reduced")
    if np.min(np.abs(np.diag(r))) < _RANK_TOL:
        raise NumericalError("rank-deficient matrix in QR: resample the input")
    return q, r


def _gaussian_qr(n: int, k: int, rng: Rng) -> "tuple[np.ndarray, np.ndarray]":
    """QR of an (n, k) Gaussian draw, drawn again while it is rank-deficient."""
    for _ in range(_MAX_RESAMPLE):
        try:
            return householder_qr(rng.normal((n, k)))
        except NumericalError:
            continue
    raise NumericalError(f"could not draw a full-rank ({n}, {k}) Gaussian matrix")


def orthonormal_basis(n: int, k: int, rng: Rng) -> np.ndarray:
    """Random k-dimensional orthonormal basis in R^n from a Gaussian draw.

    Returns q of shape (n, k) with q.T @ q = I_k.
    """
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _gaussian_qr(n, k, rng)[0]


def haar_so(k: int, rng: Rng) -> np.ndarray:
    """Haar-distributed rotation in SO(k): u is (k, k), u.T @ u = I, det(u) = +1.

    QR of a Gaussian (k, k) matrix gives a Haar draw from O(k) once each
    column of Q is scaled by the sign of the matching diagonal entry of R.
    If the corrected matrix has determinant -1 the first column is negated,
    which restricts the draw to SO(k).  For k = 1 this always yields [[1.0]].
    """
    if k < 1:
        raise ShapeError(f"need k >= 1, got k={k}")
    q, r = _gaussian_qr(k, k, rng)
    u = q * np.sign(np.diag(r))  # a new array: column j scaled by sign(r_jj)
    if np.linalg.det(u) < 0.0:
        u[:, 0] = -u[:, 0]
    return u
