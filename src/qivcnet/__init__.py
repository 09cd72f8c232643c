"""Quantum-inspired variational convolution networks for heart-sound data.

The package provides, bottom up: a seeded reproducible rng; QR-based
orthonormal bases and Haar rotations; the rotated-ensemble structured-noise
sampler; a float64 reverse-mode autodiff engine with the ops a 1-D
convolutional/recurrent classifier needs; variational convolution layers
with a KL-regularized Gaussian posterior; the reversal-fusion-residual
network; phonocardiogram preprocessing, stratified folds, and evaluation
metrics; and a CLI tying the pieces into reproducible experiments.
"""

from .autodiff import Tensor, backward
from .errors import (ConfigError, DataError, GraphError, NumericalError,
                     QivcError, ShapeError)
from .linalg import haar_so, householder_qr, orthonormal_basis
from .metrics import MetricsReport, compute_metrics
from .network import NetworkConfig, QivcNet
from .preprocess import Recording, Segment
from .qire import QireConfig, qire_sample
from .rng import Rng
from .variational import QiVConv

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "GraphError", "MetricsReport", "NetworkConfig",
    "NumericalError", "QiVConv", "QireConfig", "QivcError", "QivcNet",
    "Recording", "Rng", "Segment", "ShapeError", "Tensor", "backward",
    "compute_metrics", "haar_so", "householder_qr", "orthonormal_basis",
    "qire_sample",
]
