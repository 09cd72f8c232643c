"""Orthonormal bases and rotation sampling against algebraic oracles."""

import numpy as np
import pytest

from qivcnet.errors import NumericalError, ShapeError
from qivcnet.linalg import haar_so, householder_qr, orthonormal_basis
from qivcnet.rng import Rng


def test_qr_reconstructs_matrix():
    rng = Rng(0)
    a = rng.normal((360, 5))
    q, r = householder_qr(a)
    assert q.shape == (360, 5) and r.shape == (5, 5)
    assert np.max(np.abs(q @ r - a)) < 1e-9
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-10
    # R upper triangular
    assert np.max(np.abs(np.tril(r, -1))) < 1e-12


def test_qr_identity_passthrough():
    q, r = householder_qr(np.eye(3))
    assert np.max(np.abs(q @ r - np.eye(3))) < 1e-12


def test_qr_rejects_rank_deficient():
    a = np.ones((6, 3))  # rank 1
    with pytest.raises(NumericalError):
        householder_qr(a)


def test_orthonormal_basis_shapes_and_orthogonality():
    for n, k in [(16, 1), (16, 5), (360, 9), (3, 1), (5, 5)]:
        q = orthonormal_basis(n, k, Rng(2))
        assert isinstance(q, np.ndarray)
        assert q.shape == (n, k)
        assert np.max(np.abs(q.T @ q - np.eye(k))) < 1e-10


def test_orthonormal_basis_validates_dimensions():
    with pytest.raises(ShapeError):
        orthonormal_basis(4, 5, Rng(0))
    with pytest.raises(ShapeError):
        orthonormal_basis(4, 0, Rng(0))


def test_orthonormal_basis_deterministic():
    b1 = orthonormal_basis(32, 4, Rng(17))
    b2 = orthonormal_basis(32, 4, Rng(17))
    assert np.array_equal(b1, b2)


def test_so1_is_exactly_one():
    u = haar_so(1, Rng(0))
    assert u.shape == (1, 1)
    assert u[0, 0] == 1.0


def test_haar_rotations_are_special_orthogonal():
    for k in (2, 3, 5, 9):
        rng = Rng(k)
        for _ in range(200):
            u = haar_so(k, rng)
            assert abs(np.linalg.det(u) - 1.0) < 1e-10
            assert np.max(np.abs(u.T @ u - np.eye(k))) < 1e-10


def test_so2_angles_cover_the_circle():
    # a rotation by theta has u[0,0]=cos, u[1,0]=sin; angles should spread
    rng = Rng(42)
    angles = []
    for _ in range(2000):
        u = haar_so(2, rng)
        angles.append(np.arctan2(u[1, 0], u[0, 0]))
    counts, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
    expected = 2000 / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df=7, alpha=0.001 critical value
    assert chi2 < 24.32


def test_haar_deterministic_per_seed():
    u1 = haar_so(5, Rng(3))
    u2 = haar_so(5, Rng(3))
    assert np.array_equal(u1, u2)
