"""Variational 1-D convolution with structured weight noise.

Each layer keeps a Gaussian posterior over its kernel and bias: means mu
and pre-scales rho, with sigma = softplus(rho) > 0.  A training-mode
forward samples

    W_s = mu_w + softplus(rho_w) * eps_qire      (structured noise)
    b_s = mu_b + softplus(rho_b) * eta           (plain Gaussian noise)

where the noise tensors are constants of the graph, so gradients reach mu
and rho through the reparameterization path only.  Inference uses the
posterior means and is fully deterministic.  The KL divergence to the
zero-mean isotropic Gaussian prior regularizes the posterior; the same
stabilizer epsilon is applied to both log terms so the divergence vanishes
exactly when the posterior matches the prior.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import LOG_EPS, Tensor
from .errors import ConfigError
from .layers import Layer
from .qire import QireConfig, qire_sample
from .rng import Rng


def softplus_inverse(y: float) -> float:
    """Solve softplus(x) = y for y > 0."""
    if y <= 0.0:
        raise ConfigError(f"softplus inverse needs y > 0, got {y}")
    return math.log(math.expm1(y))


def sample_weights(layer: "QiVConv", rng: Rng) -> "tuple[Tensor, Tensor]":
    """Draw one noisy (kernel, bias) pair for a training forward pass.

    The kernel perturbation is a structured-noise draw; the bias gets plain
    Gaussian noise (the structured sampler targets the kernel only).  The
    kernel noise is consumed from ``rng`` first, then the bias noise.
    """
    eps = qire_sample(layer.mu_w.shape, layer.qire, rng)
    w_s = layer.mu_w + ad.softplus(layer.rho_w) * Tensor(eps)
    eta = rng.normal(layer.mu_b.shape)
    b_s = layer.mu_b + ad.softplus(layer.rho_b) * Tensor(eta)
    return w_s, b_s


def kl_divergence(layer: "QiVConv") -> Tensor:
    """KL from the posterior N(mu, sigma^2) to the prior N(0, prior_var), summed.

    Per element: (sigma^2 + mu^2) / (2 prior_var) - log(sigma + eps)
    + log(sqrt(prior_var) + eps) - 1/2.  The stabilizer eps = 1e-8 is added
    inside both logarithms so the two terms cancel exactly at sigma =
    sigma_prior and the divergence is zero when posterior equals prior.
    """
    log_sp = math.log(math.sqrt(layer.prior_var) + LOG_EPS)
    half_inv_var = 0.5 / layer.prior_var
    total = None
    for mu, rho in ((layer.mu_w, layer.rho_w), (layer.mu_b, layer.rho_b)):
        sigma = ad.softplus(rho)
        quad = ad.tsum(sigma * sigma + mu * mu) * half_inv_var
        logs = ad.tsum(ad.log(sigma, eps=LOG_EPS))
        part = quad - logs + (mu.data.size * (log_sp - 0.5))
        total = part if total is None else total + part
    return total


def total_loss(task_loss: Tensor, kl_sum: Tensor, kl_scale: float) -> Tensor:
    """Evidence-bound objective: task loss plus scaled KL penalty."""
    if kl_scale < 0.0:
        raise ConfigError(f"kl_scale must be >= 0, got {kl_scale}")
    if kl_scale == 0.0:
        return task_loss
    return task_loss + kl_sum * kl_scale


class QiVConv(Layer):
    """Variational 1-D convolution: a Gaussian posterior over kernel and bias.

    Means start from a fan-based uniform draw (the layer's only draw from
    ``rng`` at construction), biases at zero, and every sigma at half the
    prior scale.  A training forward convolves with weights from
    ``sample_weights``; an inference forward uses the means and draws
    nothing.
    """

    PARTS = ("mu_w", "rho_w", "mu_b", "rho_b")

    def __init__(self, width: int, c_in: int, c_out: int, qire: QireConfig,
                 prior_var: float, rng: Rng):
        if prior_var <= 0.0:
            raise ConfigError(f"prior variance must be > 0, got {prior_var}")
        self.qire = qire
        self.prior_var = prior_var
        limit = math.sqrt(6.0 / (width * c_in + c_out))
        rho0 = softplus_inverse(0.5 * math.sqrt(prior_var))
        shape = (width, c_in, c_out)
        self.mu_w = Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)
        self.rho_w = Tensor(np.full(shape, rho0), requires_grad=True)
        self.mu_b = Tensor(np.zeros(c_out), requires_grad=True)
        self.rho_b = Tensor(np.full(c_out, rho0), requires_grad=True)

    def forward(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        if not training:
            return ad.conv1d(x, self.mu_w, self.mu_b)
        if rng is None:
            raise ConfigError("training-mode forward needs an rng")
        # sample_weights and kl_divergence are looked up at call time, so a
        # profiler can rebind them in this module
        w_s, b_s = sample_weights(self, rng)
        return ad.conv1d(x, w_s, b_s)

    def kl(self) -> Tensor:
        return kl_divergence(self)
