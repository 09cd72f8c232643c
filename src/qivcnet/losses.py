"""Task losses and their dynamic weighting.

The task objective combines categorical cross-entropy with a soft Dice
loss.  Dice is evaluated over every entry of the one-hot target and
prediction matrices (both class columns flattened together):

    dice = 1 - 2 * sum(y * p) / (sum(y) + sum(p))

For one-hot targets and probability rows this reduces to one minus the
mean predicted probability of the true class, and it is exactly zero for a
perfect prediction.

Dynamic weighting, always on in training, keeps an exponential moving
average (decay 0.9, updated once per epoch) of each component and assigns
each a weight proportional to its own average, renormalized so the two
weights always sum to 2 (equal weighting is the fixed point when both
components are equal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LOG_EPS, Tensor
from .errors import NumericalError, ShapeError


def one_hot(labels: np.ndarray, classes: int = 2) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ShapeError(f"labels out of range for {classes} classes")
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def categorical_cross_entropy(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean negative log-likelihood: -(1/N) sum y * log(p + eps)."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    picked = ad.tsum(Tensor(target) * ad.log(pred, eps=LOG_EPS))
    return picked * (-1.0 / pred.shape[0])


def dice_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Soft Dice over all flattened one-hot terms (see module docstring)."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    overlap = ad.tsum(Tensor(target) * pred)
    denom = float(target.sum())
    total = ad.tsum(pred) + denom
    return 1.0 - (overlap * 2.0) / total


@dataclass
class LossWeights:
    """EMA-driven weights for the two loss components; they always sum to 2."""

    w_cce: float = 1.0
    w_dice: float = 1.0
    ema_cce: "float | None" = None
    ema_dice: "float | None" = None

    DECAY = 0.9

    def update(self, cce_value: float, dice_value: float) -> None:
        """Fold fresh component values into the EMAs and renormalize weights."""
        if not (np.isfinite(cce_value) and np.isfinite(dice_value)):
            raise NumericalError("non-finite loss component in weight update")
        if self.ema_cce is None:
            self.ema_cce = float(cce_value)
            self.ema_dice = float(dice_value)
        else:
            self.ema_cce = self.DECAY * self.ema_cce + (1.0 - self.DECAY) * cce_value
            self.ema_dice = self.DECAY * self.ema_dice + (1.0 - self.DECAY) * dice_value
        total = self.ema_cce + self.ema_dice
        if total <= 0.0:
            self.w_cce = 1.0
            self.w_dice = 1.0
        else:
            self.w_cce = 2.0 * self.ema_cce / total
            self.w_dice = 2.0 * self.ema_dice / total


def composite_loss(pred: Tensor, target: np.ndarray,
                   lw: LossWeights) -> "tuple[Tensor, float, float]":
    """Weighted CCE + Dice; returns (loss, cce value, dice value).

    ``lw`` is only read: the trainer refreshes the weights once per epoch
    from the epoch means, so every batch in an epoch sees the same weights.
    """
    target = np.asarray(target, dtype=np.float64)
    rows = pred.data.sum(axis=-1)
    if np.any(pred.data < -1e-9) or np.any(np.abs(rows - 1.0) > 1e-6):
        raise NumericalError("predictions are not probability rows")
    cce = categorical_cross_entropy(pred, target)
    dice = dice_loss(pred, target)
    loss = cce * lw.w_cce + dice * lw.w_dice
    return loss, cce.item(), dice.item()
