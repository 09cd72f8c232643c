"""Rotated-ensemble structured noise for variational weight sampling.

A draw starts from an isotropic Gaussian vector normalized to unit length,
so the noise lives on the sphere in R^N (N = number of kernel elements).
A random k-dimensional subspace is then selected and the component of the
noise inside that subspace is rotated by a Haar draw from SO(k), while the
orthogonal complement is left untouched.  Finally, an optional decoherence
step resets each coordinate, independently with probability p, to the
uniform amplitude 1/sqrt(N).

The subspace swap is norm preserving: with basis Q and rotation U,

    eps_final = eps - Q Q^T eps + Q U Q^T eps

replaces the in-subspace coefficients c = Q^T eps by U c, and ||U c|| = ||c||.
With p = 0 the output therefore stays exactly on the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import haar_so, orthonormal_basis
from .rng import Rng


@dataclass(frozen=True)
class QireConfig:
    """Sampler settings.

    k:
        Rotated-subspace dimension; must satisfy 1 <= k <= N at sample time.
    p:
        Decoherence probability in [0, 1]; p = 0 disables the reset step.
    """

    k: int = 5
    p: float = 0.05

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"subspace dimension k must be >= 1, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"decoherence probability must be in [0, 1], got {self.p}")


@dataclass
class NoiseStats:
    """Monte-Carlo summary of the sampler, exportable as a CSV row."""

    k: int
    p: float
    n: int
    trials: int
    mean_norm: float
    norm_std: float
    elem_mean: float
    elem_var: float
    subspace_energy: float

    CSV_HEADER = ("k", "p", "n", "mean_norm", "norm_std",
                  "elem_mean", "elem_var", "subspace_energy")


def _sample_flat(n: int, config: QireConfig, rng: Rng) -> "tuple[np.ndarray, np.ndarray]":
    """One flat draw of length n; returns (noise, subspace basis q)."""
    if config.k > n:
        raise ShapeError(
            f"subspace dimension k={config.k} exceeds kernel size N={n}")
    eps0 = rng.normal(n)
    eps = eps0 / np.linalg.norm(eps0)
    q = orthonormal_basis(n, config.k, rng)
    u = haar_so(config.k, rng)
    coeff = q.T @ eps
    eps_final = eps - q @ coeff + q @ (u @ coeff)
    if config.p > 0.0:
        keep = rng.bernoulli(1.0 - config.p, n)
        eps_final = np.where(keep, eps_final, 1.0 / math.sqrt(n))
    return eps_final, q


def qire_sample(kernel_shape: "tuple[int, ...]", config: QireConfig, rng: Rng) -> np.ndarray:
    """Draw one structured-noise tensor for a kernel of the given shape."""
    kernel_shape = tuple(int(d) for d in kernel_shape)
    if len(kernel_shape) == 0 or any(d < 1 for d in kernel_shape):
        raise ShapeError(f"kernel shape must have positive dims, got {kernel_shape}")
    n = int(np.prod(kernel_shape))
    flat, _ = _sample_flat(n, config, rng)
    return flat.reshape(kernel_shape)


def noise_statistics(config: QireConfig, kernel_shape: "tuple[int, ...]",
                     trials: int, rng: Rng) -> NoiseStats:
    """Empirical norm / moment / subspace-energy summary over repeated draws.

    subspace_energy is the mean over trials of ||Q Q^T eps_final||^2 /
    ||eps_final||^2, i.e. the fraction of noise energy inside the rotated
    subspace (measured with that trial's own basis).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    kernel_shape = tuple(int(d) for d in kernel_shape)
    n = int(np.prod(kernel_shape))
    norms = np.empty(trials)
    energies = np.empty(trials)
    elem_sum = 0.0
    elem_sq_sum = 0.0
    for t in range(trials):
        flat, q = _sample_flat(n, config, rng)
        sq = float(flat @ flat)
        norms[t] = math.sqrt(sq)
        proj = q.T @ flat
        energies[t] = float(proj @ proj) / sq
        elem_sum += float(flat.sum())
        elem_sq_sum += sq
    count = trials * n
    elem_mean = elem_sum / count
    elem_var = elem_sq_sum / count - elem_mean ** 2
    return NoiseStats(
        k=config.k, p=config.p, n=n, trials=trials,
        mean_norm=float(norms.mean()), norm_std=float(norms.std()),
        elem_mean=elem_mean, elem_var=elem_var,
        subspace_energy=float(energies.mean()),
    )
