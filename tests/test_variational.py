"""Variational layer: init, sampling, KL closed forms, reparameterized grads."""

import math

import numpy as np
import pytest

from helpers import fd_grad, rel_err
from qivcnet import autodiff as ad
from qivcnet.autodiff import LOG_EPS, Tensor
from qivcnet.errors import ConfigError
from qivcnet.qire import QireConfig, qire_sample
from qivcnet.rng import Rng
from qivcnet.variational import (
    QiVConv,
    kl_divergence,
    sample_weights,
    softplus_inverse,
    total_loss,
)


def _layer_with(arrays, prior_var, qire=QireConfig()):
    """Layer whose (mu_w, rho_w) are the given arrays."""
    layer = QiVConv(*arrays[0].shape, qire, prior_var, Rng(0))
    for param, arr in zip(layer.parameters(), arrays):
        param.data = arr
    return layer


def _const_kernel(mu, sigma, prior_var, shape=(1, 1, 1), qire=QireConfig()):
    """Layer with every weight at (mu, sigma)."""
    return _layer_with([np.full(shape, mu), np.full(shape, softplus_inverse(sigma))],
                       prior_var, qire)


# ---------------------------------------------------------------- softplus

def test_softplus_inverse_roundtrip():
    for y in (1e-6, 0.05, 0.5, 1.0, 7.0):
        x = softplus_inverse(y)
        assert math.log1p(math.exp(x)) == pytest.approx(y, rel=1e-12)


def test_softplus_inverse_rejects_nonpositive():
    with pytest.raises(ConfigError):
        softplus_inverse(0.0)
    with pytest.raises(ConfigError):
        softplus_inverse(-1.0)


# ------------------------------------------------------------------- init

def test_init_shapes_and_sigma_start():
    prior_var = 0.04
    vk = QiVConv(7, 3, 8, QireConfig(), prior_var, Rng(0))
    # a posterior over the kernel only: the batch norm after every conv
    # would cancel a bias
    assert list(vk.named_parameters()) == ["mu_w", "rho_w"]
    assert vk.mu_w.shape == (7, 3, 8)
    assert vk.rho_w.shape == (7, 3, 8)
    sigma0 = np.logaddexp(0.0, vk.rho_w.data)
    assert np.allclose(sigma0, 0.5 * math.sqrt(prior_var), rtol=1e-12)
    limit = math.sqrt(6.0 / (7 * 3 + 8))
    assert np.all(np.abs(vk.mu_w.data) <= limit)
    # means actually spread out rather than collapsed at zero
    assert vk.mu_w.data.std() > 0.2 * limit


def test_init_deterministic():
    a = QiVConv(3, 2, 4, QireConfig(), 0.01, Rng(42))
    b = QiVConv(3, 2, 4, QireConfig(), 0.01, Rng(42))
    assert np.array_equal(a.mu_w.data, b.mu_w.data)


def test_kernel_validates():
    with pytest.raises(ConfigError):
        _const_kernel(0.0, 0.1, prior_var=0.0)
    for prior_var in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            QiVConv(2, 1, 1, QireConfig(), prior_var, Rng(0))


# --------------------------------------------------------------- sampling

def test_sampled_kernel_noise_has_unit_norm():
    # with constant sigma, (W_s - mu) / sigma recovers the raw structured
    # draw, which has unit total norm
    sigma = 0.3
    vk = _const_kernel(0.7, sigma, prior_var=0.04, shape=(5, 2, 3),
                       qire=QireConfig(k=4, p=0.0))
    w_s = sample_weights(vk, Rng(11))
    eps = (w_s.data - vk.mu_w.data) / sigma
    assert np.linalg.norm(eps) == pytest.approx(1.0, abs=1e-10)


def test_tiny_sigma_collapses_to_mean():
    vk = _const_kernel(0.25, 0.1, prior_var=0.01, shape=(3, 1, 2),
                       qire=QireConfig(k=2, p=0.0))
    vk.rho_w.data[:] = -40.0
    w_s = sample_weights(vk, Rng(3))
    assert np.max(np.abs(w_s.data - vk.mu_w.data)) < 1e-15


def test_sampling_deterministic_given_seed():
    vk = _const_kernel(0.0, 0.2, prior_var=0.04, shape=(3, 2, 2),
                       qire=QireConfig(k=3, p=0.1))
    w1 = sample_weights(vk, Rng(9))
    w2 = sample_weights(vk, Rng(9))
    assert np.array_equal(w1.data, w2.data)
    w3 = sample_weights(vk, Rng(10))
    assert not np.array_equal(w1.data, w3.data)


def test_sampling_draws_only_the_kernel_noise():
    vk = _const_kernel(0.0, 0.2, prior_var=0.04, shape=(3, 1, 2),
                       qire=QireConfig(k=2, p=0.0))
    rng = Rng(21)
    w_s = sample_weights(vk, rng)
    # replay the kernel draw by hand: it must be the whole perturbation, and
    # the stream must be left exactly where that one draw leaves it
    replay = Rng(21)
    eps = qire_sample((3, 1, 2), vk.qire, replay)
    assert np.allclose(w_s.data, np.logaddexp(0.0, vk.rho_w.data) * eps, rtol=0, atol=1e-15)
    assert np.array_equal(rng.normal((4,)), replay.normal((4,)))


# ---------------------------------------------------------------- forward

def test_infer_uses_means_and_is_deterministic():
    x = Tensor(Rng(1).normal((2, 16, 3)))
    vk = QiVConv(5, 3, 4, QireConfig(), 0.04, Rng(2))
    o1 = ad.conv1d(x, vk.kernel()).data
    o2 = ad.conv1d(x, vk.kernel()).data
    assert np.array_equal(o1, o2)
    want = ad.conv1d(x, vk.mu_w).data
    assert np.array_equal(o1, want)


def test_train_forward_differs_from_infer():
    x = Tensor(Rng(1).normal((2, 16, 3)))
    vk = QiVConv(5, 3, 4, QireConfig(k=4, p=0.05), 0.04, Rng(2))
    noisy = ad.conv1d(x, vk.kernel(Rng(7))).data
    clean = ad.conv1d(x, vk.kernel()).data
    assert not np.allclose(noisy, clean)


def test_kernel_is_the_mean_without_an_rng_and_one_draw_with_one():
    layer = QiVConv(3, 1, 2, QireConfig(k=2, p=0.05), prior_var=0.04, rng=Rng(0))
    assert layer.kernel() is layer.mu_w
    assert np.array_equal(layer.kernel(Rng(7)).data, sample_weights(layer, Rng(7)).data)


def test_parameter_count_doubles_point_estimate():
    layer = QiVConv(7, 3, 8, QireConfig(), prior_var=0.04, rng=Rng(0))
    n_params = sum(p.data.size for p in layer.parameters())
    point = 7 * 3 * 8
    assert n_params == 2 * point


# --------------------------------------------------------------------- KL

def test_kl_zero_when_posterior_equals_prior():
    prior_var = 0.04
    sp = math.sqrt(prior_var)
    vk = _const_kernel(0.0, sp, prior_var, shape=(7, 3, 8))
    total = kl_divergence(vk).data
    n_elem = 7 * 3 * 8
    assert abs(total) / n_elem < 2e-7


def test_kl_single_weight_closed_form():
    # mu = sigma = sigma_prior = 0.1: quad term 2*0.01/0.02 = 1, logs cancel,
    # minus 1/2 leaves exactly 0.5
    vk = _const_kernel(0.1, 0.1, prior_var=0.01, shape=(1, 1, 1))
    assert kl_divergence(vk).data == pytest.approx(0.5, abs=1e-9)


def test_kl_matches_direct_formula():
    rng = Rng(5)
    prior_var = 0.04
    vk = _layer_with([rng.normal((3, 2, 4)) * 0.3, rng.normal((3, 2, 4)) - 2.0], prior_var)

    def direct(mu, rho):
        sigma = np.logaddexp(0.0, rho)
        return np.sum((sigma ** 2 + mu ** 2) / (2.0 * prior_var)
                      - np.log(sigma + LOG_EPS)
                      + np.log(math.sqrt(prior_var) + LOG_EPS) - 0.5)

    want = direct(vk.mu_w.data, vk.rho_w.data)
    assert kl_divergence(vk).data == pytest.approx(want, rel=1e-12)


def test_kl_increases_with_mean_offset():
    prior_var = 0.01
    values = [kl_divergence(_const_kernel(m, 0.1, prior_var)).data
              for m in (0.0, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_kl_grad_matches_finite_differences():
    rng = Rng(8)
    arrays = [rng.normal((2, 1, 3)) * 0.3, rng.normal((2, 1, 3)) - 2.0]

    def loss_of(parts):
        vk = _layer_with(parts, prior_var=0.04)
        return vk, kl_divergence(vk)

    vk, loss = loss_of([a.copy() for a in arrays])
    ad.backward(loss)
    grads = [p.grad for p in vk.parameters()]
    f = lambda: float(loss_of([a.copy() for a in arrays])[1].data)
    for i, arr in enumerate(arrays):
        fd = fd_grad(f, arr)
        assert rel_err(grads[i], fd) < 1e-6


# ------------------------------------------------------------- total loss

def test_total_loss_scaling():
    task = Tensor(np.array(2.0), requires_grad=True)
    kl = Tensor(np.array(3.0), requires_grad=True)
    assert total_loss(task, kl, 0.0) is task
    assert total_loss(task, kl, 1e-5).data == pytest.approx(2.0 + 3e-5)
    assert total_loss(task, kl, 2.0).data == pytest.approx(8.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError):
            total_loss(task, kl, bad)


# --------------------------------------------------- end-to-end gradients

@pytest.mark.parametrize("kl_scale", [0.0, 1e-5])
def test_layer_gradients_with_frozen_noise(kl_scale):
    # rebuilding the graph with a fresh Rng(13) freezes the noise draw, so
    # central differences see the same sampled weights at every probe point
    x = Rng(4).normal((2, 12, 2))
    qire = QireConfig(k=3, p=0.1)
    base = QiVConv(3, 2, 3, qire, 0.04, Rng(6))
    arrays = [p.data.copy() for p in base.parameters()]

    def loss_of(parts):
        vk = _layer_with(parts, prior_var=0.04, qire=qire)
        out = ad.tanh(ad.conv1d(Tensor(x), vk.kernel(Rng(13))))
        task = ad.tmean(out * out)
        return vk, total_loss(task, kl_divergence(vk), kl_scale)

    vk, loss = loss_of([a.copy() for a in arrays])
    ad.backward(loss)
    grads = [p.grad for p in vk.parameters()]
    f = lambda: float(loss_of([a.copy() for a in arrays])[1].data)
    for i, arr in enumerate(arrays):
        fd = fd_grad(f, arr)
        assert rel_err(grads[i], fd) < 1e-4
