"""Reversal-fusion-residual blocks and the stacked classifier network.

An RFR block runs three parallel views of its input: a 1x1-conv shortcut,
a variational conv on the signal, and a variational conv on the
time-reversed signal (un-reversed afterwards so features stay aligned).
The two conv paths are fused by an LSTM that takes both as its input, then
the fused features and the shortcut are refined by a second LSTM.  Each LSTM
reads its two inputs side by side as one feature axis without building it.
Every stage is followed by batch normalization and the block activation;
a ReLU activation runs inside the batch-norm node.

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
from .layers import BatchNorm, Conv1d, Dense, Layer, LSTM
from .qire import QireConfig
from .rng import Rng
from .variational import QiVConv


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and regularization settings for one network."""

    blocks: "tuple[tuple[int, int], ...]" = ((16, 7), (32, 7))  # (filters, kernel width)
    pool_between: bool = True
    classifier_width: int = 32
    kl_scale: float = 1e-5
    qire: QireConfig = field(default_factory=QireConfig)
    prior_var: float = 0.01
    activation: str = "relu"
    bn_momentum: float = 0.1
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
        if self.prior_var <= 0.0:
            raise ConfigError(f"prior variance must be > 0, got {self.prior_var}")
        if self.kl_scale < 0.0:
            raise ConfigError(f"kl_scale must be >= 0, got {self.kl_scale}")
        if self.activation not in ad.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ConfigError(f"bn_momentum must be in (0, 1], got {self.bn_momentum}")


def config_to_dict(cfg: NetworkConfig) -> dict:
    """JSON-friendly architecture echo (stored in checkpoints)."""
    return asdict(cfg)


def _check_keys(cls, d: dict, where: str) -> None:
    names = [f.name for f in fields(cls)]
    missing = [n for n in names if n not in d]
    unexpected = sorted(set(d) - set(names))
    if missing or unexpected:
        raise ConfigError(f"{where} dictionary has missing keys {missing} "
                          f"and unexpected keys {unexpected}")


def config_from_dict(d: dict) -> NetworkConfig:
    """Inverse of config_to_dict; every key must be present and known."""
    _check_keys(NetworkConfig, d, "architecture")
    _check_keys(QireConfig, d["qire"], "sampler")
    return NetworkConfig(**{**d, "blocks": tuple(tuple(b) for b in d["blocks"]),
                            "qire": QireConfig(**d["qire"])})


class RfrBlock(Layer):
    """One reversal-fusion-residual block."""

    PARTS = ("fwd_conv", "bwd_conv", "shortcut", "fusion_lstm", "refine_lstm",
             "bn_fwd", "bn_bwd", "bn_short", "bn_fuse", "bn_refine")

    def __init__(self, c_in: int, filters: int, width: int,
                 cfg: NetworkConfig, rng: Rng):
        self.filters = filters
        self.act = ad.ACTIVATIONS[cfg.activation]
        self.fuse_relu = cfg.activation == "relu"
        # conv paths apply their activation after batch norm
        self.fwd_conv = QiVConv(width, c_in, filters, cfg.qire, cfg.prior_var, rng)
        self.bwd_conv = QiVConv(width, c_in, filters, cfg.qire, cfg.prior_var, rng)
        self.shortcut = Conv1d(1, c_in, filters, rng)
        self.fusion_lstm = LSTM(2 * filters, filters, rng)
        self.refine_lstm = LSTM(2 * filters, filters, rng)
        mk_bn = lambda: BatchNorm(filters, momentum=cfg.bn_momentum)
        self.bn_fwd = mk_bn()
        self.bn_bwd = mk_bn()
        self.bn_short = mk_bn()
        self.bn_fuse = mk_bn()
        self.bn_refine = mk_bn()

    def _norm_act(self, bn: BatchNorm, x: Tensor, training: bool) -> Tensor:
        """Batch norm then the block activation (one node for ReLU)."""
        if self.fuse_relu:
            return bn.forward(x, training, relu=True)
        return self.act(bn.forward(x, training))

    def _folded_conv(self, bn: BatchNorm, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Inference-mode conv, batch norm and activation as one conv: the
        kernel is w*s and the bias (b - mean)*s + beta, s = gamma / sqrt(var + eps)."""
        s = bn.gamma * Tensor(1.0 / np.sqrt(bn.running_var + bn.eps))
        return self.act(ad.conv1d(x, w * s, (b - Tensor(bn.running_mean)) * s + bn.beta))

    def path_features(self, x: Tensor, training: bool,
                      rng: "Rng | None") -> "tuple[Tensor, Tensor, Tensor]":
        """The three pre-fusion feature maps: (shortcut, forward, backward)."""
        rx = ad.reverse_time(x)
        if training:
            s = self._norm_act(self.bn_short, self.shortcut.forward(x), training)
            f = self._norm_act(self.bn_fwd, self.fwd_conv.forward(x, training, rng), training)
            br = self._norm_act(self.bn_bwd, self.bwd_conv.forward(rx, training, rng), training)
        else:
            s = self._folded_conv(self.bn_short, x, self.shortcut.w, self.shortcut.b)
            f = self._folded_conv(self.bn_fwd, x, self.fwd_conv.mu_w, self.fwd_conv.mu_b)
            br = self._folded_conv(self.bn_bwd, rx, self.bwd_conv.mu_w, self.bwd_conv.mu_b)
        return s, f, ad.reverse_time(br)

    def forward(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        s, f, b = self.path_features(x, training, rng)
        fused = self._norm_act(self.bn_fuse, self.fusion_lstm.forward([f, b]), training)
        return self._norm_act(self.bn_refine, self.refine_lstm.forward([fused, s]), training)

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
            if self.cfg.pool_between and i + 1 < len(self.blocks):
                x = ad.max_pool(x)
        return ad.global_max_pool(x)

    def forward(self, x: Tensor, training: bool, rng: "Rng | None" = None) -> Tensor:
        z = self.features(x, training, rng)
        h = self.act(self.hidden.forward(z))
        return ad.softmax(self.head.forward(h))

    def kl(self) -> Tensor:
        total = self.blocks[0].kl()
        for block in self.blocks[1:]:
            total = total + block.kl()
        return total

    def parts(self) -> "dict[str, Layer]":
        parts: "dict[str, Layer]" = {f"block{i}": block for i, block in enumerate(self.blocks)}
        parts["hidden"] = self.hidden
        parts["head"] = self.head
        return parts


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
