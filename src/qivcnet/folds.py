"""Stratified k-fold construction over segments.

Default stratification is at segment level: within each class, indices are
shuffled by the seed and dealt round-robin, so per-fold class counts are
within one of the exact proportional share.  A grouped mode assigns whole
recordings to folds instead, preventing windows of one recording from
appearing on both sides of a split; grouped balance is approximate because
recordings contribute different segment counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .preprocess import LABEL_TO_INT, Segment
from .rng import Rng


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint, covering index lists, one per fold."""

    folds: "list[np.ndarray]"

    @property
    def k(self) -> int:
        return len(self.folds)

    def train_indices(self, fold: int) -> np.ndarray:
        others = [f for i, f in enumerate(self.folds) if i != fold]
        return np.sort(np.concatenate(others))

    def test_indices(self, fold: int) -> np.ndarray:
        return self.folds[fold]


def segment_labels(segments: "list[Segment]") -> np.ndarray:
    return np.array([LABEL_TO_INT[s.label] for s in segments], dtype=np.int64)


def stratified_kfold(segments: "list[Segment]", k: int = 5, seed: int = 0,
                     group_by_recording: bool = False) -> FoldSplit:
    """Deterministic stratified split of segments into k folds."""
    if k < 2:
        raise DataError(f"need k >= 2 folds, got {k}")
    labels = segment_labels(segments)
    classes = np.unique(labels)
    for c in classes:
        if int(np.sum(labels == c)) < k:
            raise DataError(f"class {c} has fewer than {k} segments")
    rng = Rng(seed)
    buckets: "list[list[int]]" = [[] for _ in range(k)]
    if group_by_recording:
        _deal_groups(segments, labels, buckets, rng)
    else:
        for c in classes:
            idx = np.nonzero(labels == c)[0]
            idx = idx[rng.permutation(len(idx))]
            for j, i in enumerate(idx):
                buckets[j % k].append(int(i))
    folds = [np.sort(np.array(b, dtype=np.int64)) for b in buckets]
    if any(len(f) == 0 for f in folds):
        raise DataError("a fold received no segments; fewer groups than folds")
    return FoldSplit(folds=folds)


def _deal_groups(segments, labels, buckets, rng: Rng) -> None:
    """Round-robin whole recordings, largest class first within each class."""
    by_rec: "dict[str, list[int]]" = {}
    rec_label: "dict[str, int]" = {}
    for i, seg in enumerate(segments):
        by_rec.setdefault(seg.recording_id, []).append(i)
        rec_label[seg.recording_id] = labels[i]
    k = len(buckets)
    for c in sorted(set(rec_label.values())):
        recs = sorted(r for r, lab in rec_label.items() if lab == c)
        order = rng.permutation(len(recs))
        for j, r in enumerate(order):
            buckets[j % k].extend(by_rec[recs[r]])
