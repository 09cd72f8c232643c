"""Structured-noise sampler properties checked against closed-form algebra."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qivcnet.errors import ConfigError, ShapeError
from qivcnet.linalg import haar_so, orthonormal_basis
from qivcnet.qire import NoiseStats, QireConfig, noise_statistics, qire_sample
from qivcnet.rng import Rng


def _flat_sample(n, k, p, seed):
    return qire_sample((n,), QireConfig(k=k, p=p), Rng(seed))


def test_unit_norm_without_decoherence():
    for n in (16, 360):
        for k in (1, 3, 9):
            v = _flat_sample(n, k, 0.0, seed=n + k)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10


def test_orthogonal_complement_untouched():
    # reproduce the base noise and basis from the same stream, then compare
    n, k = 64, 5
    cfg = QireConfig(k=k, p=0.0)
    out = qire_sample((n,), cfg, Rng(77))
    rng = Rng(77)
    eps = rng.normal(n)
    eps /= np.linalg.norm(eps)
    q = orthonormal_basis(n, k, rng)
    comp = eps - q @ (q.T @ eps)
    comp_out = out - q @ (q.T @ out)
    assert np.max(np.abs(comp_out - comp)) < 1e-12


def test_closed_form_identity():
    n, k = 48, 4
    out = qire_sample((n,), QireConfig(k=k, p=0.0), Rng(5))
    rng = Rng(5)
    eps = rng.normal(n)
    eps /= np.linalg.norm(eps)
    q = orthonormal_basis(n, k, rng)
    u = haar_so(k, rng)
    want = eps + q @ ((u - np.eye(k)) @ (q.T @ eps))
    assert np.max(np.abs(out - want)) < 1e-12


def test_k1_rotation_is_identity():
    # SO(1) = {1}, so the sample equals the normalized base noise
    n = 32
    out = qire_sample((n,), QireConfig(k=1, p=0.0), Rng(9))
    rng = Rng(9)
    eps = rng.normal(n)
    eps /= np.linalg.norm(eps)
    assert np.max(np.abs(out - eps)) < 1e-13


def test_full_decoherence_collapses_to_constant():
    n = 25
    v = _flat_sample(n, 3, 1.0, seed=1)
    assert np.allclose(v, 1.0 / np.sqrt(n), atol=1e-15)


def test_sample_reshapes_to_kernel_shape():
    cfg = QireConfig(k=3, p=0.0)
    out = qire_sample((7, 4, 2), cfg, Rng(2))
    assert out.shape == (7, 4, 2)
    assert abs(np.linalg.norm(out.ravel()) - 1.0) < 1e-10


def test_sample_reproducible():
    cfg = QireConfig(k=4, p=0.3)
    a = qire_sample((5, 5), cfg, Rng(21))
    b = qire_sample((5, 5), cfg, Rng(21))
    assert np.array_equal(a, b)


def test_k_capped_by_dimension_or_rejected():
    with pytest.raises(ShapeError):
        qire_sample((2,), QireConfig(k=5, p=0.0), Rng(0))


def test_config_validation():
    with pytest.raises(ConfigError):
        QireConfig(k=0, p=0.0)
    with pytest.raises(ConfigError):
        QireConfig(k=2, p=-0.1)
    with pytest.raises(ConfigError):
        QireConfig(k=2, p=1.5)


def test_noise_statistics_fields_and_norm():
    cfg = QireConfig(k=3, p=0.0)
    stats = noise_statistics(cfg, (4, 4), trials=200, rng=Rng(6))
    assert isinstance(stats, NoiseStats)
    assert stats.n == 16 and stats.k == 3 and stats.trials == 200
    assert abs(stats.mean_norm - 1.0) < 1e-10
    assert stats.norm_std < 1e-10
    # zero-mean isotropic base: element mean near 0, variance near 1/N
    assert abs(stats.elem_mean) < 0.02
    assert abs(stats.elem_var - 1.0 / 16) < 0.01
    assert 0.0 < stats.subspace_energy < 1.0


def test_noise_statistics_full_space_energy_is_one():
    cfg = QireConfig(k=9, p=0.0)
    stats = noise_statistics(cfg, (3, 3), trials=50, rng=Rng(8))
    assert stats.subspace_energy == pytest.approx(1.0, abs=1e-12)


def test_noise_statistics_csv_row_matches_header():
    # the noise-stats command reads its row from the stats by these names
    assert set(NoiseStats.CSV_HEADER) <= {f.name for f in fields(NoiseStats)}


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=200),
       k=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_norm_preserved_property(n, k, seed):
    if k > n:
        return
    v = _flat_sample(n, k, 0.0, seed=seed)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=100),
       k=st.integers(min_value=1, max_value=6),
       p=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_decoherence_blends_toward_constant_property(n, k, p, seed):
    if k > n:
        return
    cfg = QireConfig(k=k, p=p)
    rng = Rng(seed)
    out = qire_sample((n,), cfg, rng)
    # every element either equals the pre-mask value (unit-norm rotated
    # noise) or the depolarized constant
    const = 1.0 / np.sqrt(n)
    pre = _flat_sample(n, k, 0.0, seed=seed)
    matches = np.isclose(out, pre, atol=1e-12) | np.isclose(out, const, atol=1e-12)
    assert matches.all()
