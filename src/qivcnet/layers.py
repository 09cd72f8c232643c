"""Parameter-holding layer wrappers around the autodiff ops.

These are the deterministic building blocks (plain convolution, batch norm,
LSTM, dense); the variational convolution lives in its own module.  Each
layer exposes ``parameters()`` for the optimizer and ``state_arrays()`` for
checkpointing (parameters plus any non-learned running statistics).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .rng import Rng


def _glorot(rng: Rng, shape: "tuple[int, ...]", fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Conv1d:
    """Deterministic 1-D convolution (used by the shortcut path)."""

    def __init__(self, width: int, c_in: int, c_out: int, rng: Rng, stride: int = 1):
        self.stride = stride
        self.w = Tensor(_glorot(rng, (width, c_in, c_out), width * c_in, c_out),
                        requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.w, self.b, stride=self.stride)

    def parameters(self) -> "list[Tensor]":
        return [self.w, self.b]

    def state_arrays(self) -> "dict[str, np.ndarray]":
        return {"w": self.w.data, "b": self.b.data}

    def load_state(self, arrays: "dict[str, np.ndarray]") -> None:
        self.w.data = arrays["w"]
        self.b.data = arrays["b"]


class BatchNorm:
    """Per-channel batch normalization with learnable scale and shift."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = BatchNormState(channels, momentum=momentum, eps=eps)

    def forward(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.state, training, relu=relu)

    def parameters(self) -> "list[Tensor]":
        return [self.gamma, self.beta]

    def state_arrays(self) -> "dict[str, np.ndarray]":
        return {"gamma": self.gamma.data, "beta": self.beta.data,
                "running_mean": self.state.running_mean,
                "running_var": self.state.running_var}

    def load_state(self, arrays: "dict[str, np.ndarray]") -> None:
        self.gamma.data = arrays["gamma"]
        self.beta.data = arrays["beta"]
        self.state.running_mean = arrays["running_mean"]
        self.state.running_var = arrays["running_var"]


class LSTM:
    """Single-layer unidirectional LSTM returning the full hidden sequence.

    The forget-gate bias starts at 1.0 so early training does not wash out
    the cell state; the remaining biases start at zero.
    """

    def __init__(self, c_in: int, hidden: int, rng: Rng):
        self.hidden = hidden
        self.wx = Tensor(_glorot(rng, (c_in, 4 * hidden), c_in, 4 * hidden),
                         requires_grad=True)
        self.wh = Tensor(_glorot(rng, (hidden, 4 * hidden), hidden, 4 * hidden),
                         requires_grad=True)
        b = np.zeros(4 * hidden)
        b[hidden: 2 * hidden] = 1.0  # forget-gate block of the [i,f,o,g] packing
        self.b = Tensor(b, requires_grad=True)

    def forward(self, x: "Tensor | list[Tensor]") -> Tensor:
        """x is one input or a list read as one feature axis (see ``ad.lstm``)."""
        return ad.lstm(x, self.wx, self.wh, self.b)

    def parameters(self) -> "list[Tensor]":
        return [self.wx, self.wh, self.b]

    def state_arrays(self) -> "dict[str, np.ndarray]":
        return {"wx": self.wx.data, "wh": self.wh.data, "b": self.b.data}

    def load_state(self, arrays: "dict[str, np.ndarray]") -> None:
        self.wx.data = arrays["wx"]
        self.wh.data = arrays["wh"]
        self.b.data = arrays["b"]


class Dense:
    """Affine map on the last axis."""

    def __init__(self, c_in: int, c_out: int, rng: Rng):
        self.w = Tensor(_glorot(rng, (c_in, c_out), c_in, c_out), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b

    def parameters(self) -> "list[Tensor]":
        return [self.w, self.b]

    def state_arrays(self) -> "dict[str, np.ndarray]":
        return {"w": self.w.data, "b": self.b.data}

    def load_state(self, arrays: "dict[str, np.ndarray]") -> None:
        self.w.data = arrays["w"]
        self.b.data = arrays["b"]
