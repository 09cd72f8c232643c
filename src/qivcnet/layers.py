"""Parameter-holding layers and the parameter tree they share.

Every layer declares its arrays and sub-layers once, in ``parts()``:
learnable ``Tensor`` parameters, plain ``ndarray`` buffers (batch-norm
running statistics) and child layers, in checkpoint order.  ``named_arrays``
walks that declaration into dotted names such as ``block0.bn_fuse.gamma``,
and ``parameters()`` for the optimizer, ``state_arrays()`` for
checkpointing and ``load_state()`` all derive from it.

These are the deterministic building blocks (batch norm, LSTM, dense); the
variational convolution lives in its own module, and the RFR block holds its
1x1 shortcut kernel as a bare tensor.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .rng import Rng


def glorot(rng: Rng, shape: "tuple[int, ...]", fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def named_arrays(layer: "Layer", prefix: str = ""):
    """Yield (dotted name, owning layer, attribute, value) for every tensor
    and buffer under ``layer``, in declaration order."""
    for name, part in layer.parts().items():
        if isinstance(part, Layer):
            yield from named_arrays(part, f"{prefix}{name}.")
        else:
            yield prefix + name, layer, name, part


class Layer:
    """A node of the parameter tree.

    ``PARTS`` names the attributes that hold this layer's tensors, buffers
    and sub-layers, in checkpoint order; a layer whose parts are not fixed
    attributes overrides ``parts()`` instead.
    """

    PARTS: "tuple[str, ...]" = ()

    def parts(self) -> "dict[str, Tensor | np.ndarray | Layer]":
        return {name: getattr(self, name) for name in self.PARTS}

    def named_parameters(self) -> "dict[str, Tensor]":
        return {name: value for name, _, _, value in named_arrays(self)
                if isinstance(value, Tensor)}

    def parameters(self) -> "list[Tensor]":
        return list(self.named_parameters().values())

    def state_arrays(self) -> "dict[str, np.ndarray]":
        """Parameters and buffers by dotted name (the checkpoint arrays)."""
        return {name: value.data if isinstance(value, Tensor) else value
                for name, _, _, value in named_arrays(self)}

    def load_state(self, arrays: "dict[str, np.ndarray]") -> None:
        """Rebind every array to ``arrays[name]``; the names and shapes must
        match this layer's exactly."""
        own = self.state_arrays()
        missing, unexpected = sorted(set(own) - set(arrays)), sorted(set(arrays) - set(own))
        if missing or unexpected:
            raise ConfigError(f"checkpoint lacks {len(missing)} arrays {missing[:4]} and has "
                              f"{len(unexpected)} this architecture does not use {unexpected[:4]}")
        mismatched = [key for key in own if arrays[key].shape != own[key].shape]
        if mismatched:
            raise ConfigError(
                f"checkpoint arrays do not fit this architecture: {mismatched[:4]}")
        for name, owner, attr, value in named_arrays(self):
            if isinstance(value, Tensor):
                value.data = arrays[name]
            else:
                setattr(owner, attr, arrays[name])


class BatchNorm(Layer):
    """Per-channel batch normalization with learnable scale and shift.

    The layer owns its running mean and variance (buffers of the parameter
    tree), the state a batch-norm node (``ad.batch_norm``, or ``ad.conv1d``
    with ``bn=``) reads and, in training, updates.
    """

    PARTS = ("gamma", "beta", "running_mean", "running_var")
    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor, training: bool, act: str = "identity") -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self, training, act)


class LSTM(Layer):
    """Single-layer unidirectional LSTM returning the full hidden sequence.

    The forget-gate bias starts at 1.0 so early training does not wash out
    the cell state; the remaining biases start at zero.
    """

    PARTS = ("wx", "wh", "b")

    def __init__(self, c_in: int, hidden: int, rng: Rng):
        self.wx = Tensor(glorot(rng, (c_in, 4 * hidden), c_in, 4 * hidden),
                         requires_grad=True)
        self.wh = Tensor(glorot(rng, (hidden, 4 * hidden), hidden, 4 * hidden),
                         requires_grad=True)
        b = np.zeros(4 * hidden)
        b[hidden: 2 * hidden] = 1.0  # forget-gate block of the [i,f,o,g] packing
        self.b = Tensor(b, requires_grad=True)

    def forward(self, x: "Tensor | list[Tensor]") -> Tensor:
        """x is one input or a list read as one feature axis (see ``ad.lstm``)."""
        return ad.lstm(x, self.wx, self.wh, self.b)


class Dense(Layer):
    """Affine map on the last axis."""

    PARTS = ("w", "b")

    def __init__(self, c_in: int, c_out: int, rng: Rng):
        self.w = Tensor(glorot(rng, (c_in, c_out), c_in, c_out), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b
