"""Variational 1-D convolution with structured weight noise.

Each layer keeps a Gaussian posterior over its kernel only: means mu_w
and pre-scales rho_w, with sigma = softplus(rho_w) > 0.  The layer has no
bias, because every one of its outputs feeds a batch norm, whose mean
subtraction would cancel it.  A kernel drawn with an rng is

    W_s = mu_w + softplus(rho_w) * eps_qire      (structured noise)

where the noise tensor is a constant of the graph, so gradients reach mu_w
and rho_w through the reparameterization path only.  Without an rng the
kernel is the posterior means, fully deterministic.  The KL divergence
to the zero-mean isotropic Gaussian prior regularizes the posterior; the
same stabilizer epsilon is applied to both log terms so the divergence
vanishes exactly when the posterior matches the prior.
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


def sample_weights(layer: "QiVConv", rng: Rng) -> Tensor:
    """Draw one noisy kernel, perturbed by structured noise."""
    eps = qire_sample(layer.mu_w.shape, layer.qire, rng)
    return layer.mu_w + ad.softplus(layer.rho_w) * Tensor(eps)


def kl_divergence(layer: "QiVConv") -> Tensor:
    """KL from the posterior N(mu, sigma^2) to the prior N(0, prior_var), summed.

    Per element: (sigma^2 + mu^2) / (2 prior_var) - log(sigma + eps)
    + log(sqrt(prior_var) + eps) - 1/2.  The stabilizer eps = 1e-8 is added
    inside both logarithms so the two terms cancel exactly at sigma =
    sigma_prior and the divergence is zero when posterior equals prior.
    """
    log_sp = math.log(math.sqrt(layer.prior_var) + LOG_EPS)
    mu, sigma = layer.mu_w, ad.softplus(layer.rho_w)
    quad = ad.tsum(sigma * sigma + mu * mu) * (0.5 / layer.prior_var)
    logs = ad.tsum(ad.log(sigma, eps=LOG_EPS))
    return quad - logs + mu.data.size * (log_sp - 0.5)


def total_loss(task_loss: Tensor, kl_sum: Tensor, kl_scale: float) -> Tensor:
    """Evidence-bound objective: task loss plus scaled KL penalty."""
    if not 0.0 <= kl_scale < math.inf:       # NaN fails too
        raise ConfigError(f"kl_scale must be finite and >= 0, got {kl_scale}")
    if kl_scale == 0.0:
        return task_loss
    return task_loss + kl_sum * kl_scale


class QiVConv(Layer):
    """Variational 1-D convolution without bias: a Gaussian posterior over
    its kernel.

    Means start from a fan-based uniform draw (the layer's only draw from
    ``rng`` at construction), and every sigma at half the prior scale.
    ``kernel`` given an rng draws from ``sample_weights``; without one it is
    the means and draws nothing.
    """

    PARTS = ("mu_w", "rho_w")

    def __init__(self, width: int, c_in: int, c_out: int, qire: QireConfig,
                 prior_var: float, rng: Rng):
        if not 0.0 < prior_var < math.inf:
            raise ConfigError(f"prior_var must be finite and > 0, got {prior_var}")
        self.qire = qire
        self.prior_var = prior_var
        limit = math.sqrt(6.0 / (width * c_in + c_out))
        rho0 = softplus_inverse(0.5 * math.sqrt(prior_var))
        shape = (width, c_in, c_out)
        self.mu_w = Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)
        self.rho_w = Tensor(np.full(shape, rho0), requires_grad=True)

    def kernel(self, rng: "Rng | None" = None) -> Tensor:
        """The posterior mean without an rng; one QiRE draw from ``rng`` with one."""
        if rng is None:
            return self.mu_w
        # sample_weights and kl_divergence are looked up at call time, so a
        # profiler can rebind them in this module
        return sample_weights(self, rng)

    def kl(self) -> Tensor:
        return kl_divergence(self)
