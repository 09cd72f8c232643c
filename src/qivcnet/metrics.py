"""Classification metrics: confusion counts, ROC AUC, calibration.

The abnormal class (label 1) is the positive class throughout.  AUC is the
trapezoidal area under the ROC traced over all distinct score thresholds,
which handles ties by grouping and equals the rank-statistic definition.
Calibration uses ten equal-width bins over the predicted-class confidence
(the probability assigned to whichever class was predicted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus derived metrics for one evaluation."""

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    auc: float
    ece: float

    CSV_HEADER = ("tp", "fp", "tn", "fn", "accuracy", "sensitivity",
                  "specificity", "f1", "auc", "ece")


@dataclass(frozen=True)
class ReliabilityBins:
    """Fixed equal-width confidence bins over [0, 1]."""

    edges: np.ndarray          # (bins + 1,)
    counts: np.ndarray         # (bins,) ints
    mean_confidence: np.ndarray  # (bins,), 0 for empty bins
    accuracy: np.ndarray       # (bins,), 0 for empty bins


def _validate(labels, preds, scores) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    labels = np.asarray(labels, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.size == 0:
        raise ShapeError("empty metrics input")
    if not labels.shape == preds.shape == scores.shape:
        raise ShapeError(
            f"length mismatch: labels {labels.shape}, preds {preds.shape}, scores {scores.shape}")
    if np.any((scores < 0.0) | (scores > 1.0)):
        raise ShapeError("scores must lie in [0, 1]")
    if np.any((labels < 0) | (labels > 1)) or np.any((preds < 0) | (preds > 1)):
        raise ShapeError("labels and predictions must be binary (0/1)")
    return labels, preds, scores


def confusion_counts(labels: np.ndarray, preds: np.ndarray) -> "tuple[int, int, int, int]":
    tp = int(np.sum((labels == 1) & (preds == 1)))
    fp = int(np.sum((labels == 0) & (preds == 1)))
    tn = int(np.sum((labels == 0) & (preds == 0)))
    fn = int(np.sum((labels == 1) & (preds == 0)))
    return tp, fp, tn, fn


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Trapezoidal area under the ROC curve; 0.5 when a class is absent.

    Returning the chance value for a single-class input keeps SNR sweep
    rows well-defined; the condition is degenerate rather than an error.
    """
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        return 0.5
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    # threshold group boundaries: last index of each run of equal scores
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.concatenate([boundary, [labels.size - 1]])
    cum_tp = np.cumsum(sorted_labels)[ends]
    cum_fp = (ends + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / pos])
    fpr = np.concatenate([[0.0], cum_fp / neg])
    return float(_trapezoid(tpr, fpr))


def reliability_bins(labels: np.ndarray, preds: np.ndarray, scores: np.ndarray,
                     bins: int = 10) -> ReliabilityBins:
    """Bin predictions by predicted-class confidence.

    Confidence is ``score`` for positive predictions and ``1 - score``
    otherwise; a bin's accuracy is the fraction of correct predictions in it.
    Bins are left-closed with the last bin also right-closed.
    """
    labels, preds, scores = _validate(labels, preds, scores)
    conf = np.where(preds == 1, scores, 1.0 - scores)
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip((conf * bins).astype(np.int64), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    correct = (preds == labels).astype(np.float64)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    correct_sum = np.bincount(idx, weights=correct, minlength=bins)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), 0.0)
        acc = np.where(counts > 0, correct_sum / np.maximum(counts, 1), 0.0)
    return ReliabilityBins(edges=edges, counts=counts,
                           mean_confidence=mean_conf, accuracy=acc)


def expected_calibration_error(bins: ReliabilityBins) -> float:
    total = int(bins.counts.sum())
    if total == 0:
        return 0.0
    weights = bins.counts / total
    return float(np.sum(weights * np.abs(bins.accuracy - bins.mean_confidence)))


def compute_metrics(labels, preds, scores) -> MetricsReport:
    """Full metrics report; all ratios are 0 when their denominator is 0."""
    labels, preds, scores = _validate(labels, preds, scores)
    tp, fp, tn, fn = confusion_counts(labels, preds)
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    auc = roc_auc(labels, scores)
    ece = expected_calibration_error(reliability_bins(labels, preds, scores))
    return MetricsReport(tp=tp, fp=fp, tn=tn, fn=fn, accuracy=accuracy,
                         sensitivity=sensitivity, specificity=specificity,
                         f1=f1, auc=auc, ece=ece)
