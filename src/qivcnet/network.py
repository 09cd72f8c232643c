"""Reversal-fusion-residual blocks and the stacked classifier network.

An RFR block runs a 1x1-conv shortcut and two variational convs, one per
time direction.  A "same"-padded conv of the reversed signal, reversed back,
is a forward conv with its kernel flipped in time (exactly, at odd widths),
and a kernel or its flip spans the same space, so both kernels run forward:
joined along the output channels as one conv with one batch norm, whose
2F-channel output is the fusion LSTM's input.  A second LSTM refines the
fused features and the shortcut, read side by side as one feature axis that
is never built.  Every stage ends in batch norm and the block activation (a
ReLU runs inside the batch-norm node).  The convs carry no bias, since the
batch norm after each would subtract it.  In training a conv stage's batch
norm and ReLU run inside its conv node; with running statistics they fold
into the conv (``BatchNorm.fold``), a ReLU clamping that output in place
when no graph is built.  Each stage output is dropped once read.  An rng
samples the variational kernels; ``training`` picks batch statistics.

The network stacks RFR blocks with width-2 max pooling between them,
applies global max pooling over time, and classifies the pooled bottleneck
vector with a small dense head ending in a two-way softmax.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .layers import BatchNorm, Dense, Layer, LSTM, glorot
from .qire import QireConfig
from .rng import Rng
from .variational import QiVConv


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and regularization settings for one network."""

    blocks: "tuple[tuple[int, int], ...]" = ((16, 7), (32, 7))  # (filters, kernel width)
    classifier_width: int = 32
    qire: QireConfig = field(default_factory=QireConfig)
    prior_var: float = 0.01
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.blocks) < 1:
            raise ConfigError("network needs at least one block")
        filters = [b[0] for b in self.blocks]
        if any(f < 1 for f in filters) or any(b[1] < 1 for b in self.blocks):
            raise ConfigError(f"block sizes must be positive, got {self.blocks}")
        if sorted(filters) != filters:
            raise ConfigError(f"filter counts must be nondecreasing, got {filters}")
        if self.classifier_width < 1:
            raise ConfigError(f"classifier width must be >= 1, got {self.classifier_width}")
        if not 0.0 < self.prior_var < np.inf:     # NaN fails too
            raise ConfigError(f"prior_var must be finite and > 0, got {self.prior_var}")
        if self.activation not in ad.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


def config_to_dict(cfg: NetworkConfig) -> dict:
    """JSON-friendly architecture echo (stored in checkpoints)."""
    return asdict(cfg)


_JSON_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}  # by field type


def _check_fields(cls, d: dict, where: str) -> None:
    """``d`` is an object with exactly ``cls``'s keys, and each int, float or
    str field holds a JSON value of that kind (a bool is no number)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    names = [f.name for f in fields(cls)]
    missing = [n for n in names if n not in d]
    unexpected = sorted(set(d) - set(names))
    if missing or unexpected:
        raise ConfigError(f"{where} dictionary has missing keys {missing} "
                          f"and unexpected keys {unexpected}")
    for f in fields(cls):
        kinds = _JSON_KINDS.get(f.type)
        if kinds and (isinstance(d[f.name], bool) or not isinstance(d[f.name], kinds)):
            raise ConfigError(f"{where} {f.name} must be a JSON {f.type}, got {d[f.name]!r}")


def config_from_dict(d: dict) -> NetworkConfig:
    """Inverse of config_to_dict; every key must be present, known and of its field's type."""
    _check_fields(NetworkConfig, d, "architecture")
    _check_fields(QireConfig, d["qire"], "sampler")
    if not (isinstance(d["blocks"], (list, tuple)) and all(
            isinstance(b, (list, tuple)) and len(b) == 2 and all(type(v) is int for v in b)
            for b in d["blocks"])):
        raise ConfigError(f"architecture blocks must be [filters, width] integer pairs, "
                          f"got {d['blocks']!r}")
    return NetworkConfig(**{**d, "blocks": tuple(tuple(b) for b in d["blocks"]),
                            "qire": QireConfig(**d["qire"])})


class RfrBlock(Layer):
    """One reversal-fusion-residual block."""

    PARTS = ("fwd_conv", "bwd_conv", "shortcut", "fusion_lstm", "refine_lstm",
             "bn_conv", "bn_short", "bn_fuse", "bn_refine")

    def __init__(self, c_in: int, filters: int, width: int,
                 cfg: NetworkConfig, rng: Rng):
        self.act = ad.ACTIVATIONS[cfg.activation]
        self.fuse_relu = cfg.activation == "relu"
        self.fwd_conv = QiVConv(width, c_in, filters, cfg.qire, cfg.prior_var, rng)
        self.bwd_conv = QiVConv(width, c_in, filters, cfg.qire, cfg.prior_var, rng)
        self.shortcut = Tensor(glorot(rng, (1, c_in, filters), c_in, filters),
                               requires_grad=True)
        self.fusion_lstm = LSTM(2 * filters, filters, rng)
        self.refine_lstm = LSTM(2 * filters, filters, rng)
        self.bn_conv = BatchNorm(2 * filters)   # the fwd kernel's channels, then the bwd kernel's
        self.bn_short, self.bn_fuse, self.bn_refine = (BatchNorm(filters) for _ in range(3))

    def _norm_act(self, bn: BatchNorm, x: Tensor, training: bool) -> Tensor:
        """Batch norm then the block activation (one node for ReLU)."""
        if self.fuse_relu:
            return bn.forward(x, training, relu=True)
        return self.act(bn.forward(x, training))

    def _conv_stage(self, bn: BatchNorm, x: Tensor, w: Tensor, training: bool) -> Tensor:
        """Bias-free conv, batch norm and activation; with batch statistics the
        conv node runs the batch norm, with running statistics it folds in."""
        if training:
            out = ad.conv1d(x, w, bn=bn, relu=self.fuse_relu)
            return out if self.fuse_relu else self.act(out)
        out = ad.conv1d(x, *bn.fold(w))
        if out.requires_grad or not self.fuse_relu:
            return self.act(out)
        return Tensor(np.maximum(out.data, 0.0, out=out.data))   # no graph: clamp in place

    def forward(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        s = self._conv_stage(self.bn_short, x, self.shortcut, training)
        w = ad.concat([self.fwd_conv.kernel(rng), self.bwd_conv.kernel(rng)])   # (width, c_in, 2F)
        h = self.fusion_lstm.forward(self._conv_stage(self.bn_conv, x, w, training))
        h = self.refine_lstm.forward([self._norm_act(self.bn_fuse, h, training), s])
        del s
        return self._norm_act(self.bn_refine, h, training)

    def kl(self) -> Tensor:
        return self.fwd_conv.kl() + self.bwd_conv.kl()


class QivcNet(Layer):
    """Stacked RFR blocks with a pooled dense softmax head."""

    def __init__(self, cfg: NetworkConfig, rng: "Rng | None" = None):
        if rng is None:
            rng = Rng(cfg.seed)
        self.cfg = cfg
        self.act = ad.ACTIVATIONS[cfg.activation]
        self.blocks: "list[RfrBlock]" = []
        c_in = 1
        for filters, width in cfg.blocks:
            self.blocks.append(RfrBlock(c_in, filters, width, cfg, rng))
            c_in = filters
        self.bottleneck_width = c_in
        self.hidden = Dense(c_in, cfg.classifier_width, rng)
        self.head = Dense(cfg.classifier_width, 2, rng)

    def features(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        """Bottleneck vector: block stack, pooling, global max pool -> (B, C)."""
        for i, block in enumerate(self.blocks):
            x = block.forward(x, training, rng)
            if i + 1 < len(self.blocks):
                x = ad.max_pool(x)
        return ad.global_max_pool(x)

    def forward(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        """Class probabilities (B, 2).  ``(True, rng)`` is a training step;
        ``(False, None)`` scores, as every command does; ``(True, None)`` runs
        the mean kernels on batch statistics; ``(False, rng)`` scores one
        posterior sample on running statistics, each sampled kernel folded."""
        z = self.features(x, training, rng)
        h = self.act(self.hidden.forward(z))
        return ad.softmax(self.head.forward(h))

    def kl(self) -> Tensor:
        return sum((block.kl() for block in self.blocks[1:]), self.blocks[0].kl())

    def parts(self) -> "dict[str, Layer]":
        blocks = {f"block{i}": block for i, block in enumerate(self.blocks)}
        return {**blocks, "hidden": self.hidden, "head": self.head}


def segments_to_batch(segments) -> np.ndarray:
    """Stack segment values into a (batch, time, 1) float64 array."""
    return np.stack([s.values for s in segments], dtype=np.float64)[:, :, None]


def _infer(forward, segments, batch: int) -> np.ndarray:
    """``forward`` over the segments in batches, without a graph, joined on axis 0."""
    with ad.no_grad():
        outs = [forward(Tensor(segments_to_batch(segments[i: i + batch])), training=False).data
                for i in range(0, len(segments), batch)]
    return np.concatenate(outs, axis=0)


def infer_probs(net: QivcNet, segments, batch: int = 64) -> np.ndarray:
    """Deterministic class probabilities (n, 2) for a list of segments."""
    return _infer(net.forward, segments, batch)


def export_latent(net: QivcNet, segments, batch: int = 64) -> "list[tuple[str, str, float, float, float]]":
    """Rows of (segment id, label, first three bottleneck coordinates)."""
    if net.bottleneck_width < 3:
        raise ConfigError("bottleneck has fewer than 3 coordinates")
    z = _infer(net.features, segments, batch)
    return [(f"{seg.recording_id}:{seg.window_index}", seg.label, *map(float, vec[:3]))
            for seg, vec in zip(segments, z)]
