"""Stratified k-fold construction over segments.

Folds are dealt in groups of segments: by default each segment is its own
group, and a grouped mode keeps each recording's segments together, so no
recording appears on both sides of a split.  Within each class the groups
are shuffled by the seed and dealt round-robin.  Segment-level folds hold
per-class counts within one of the exact proportional share; grouped
balance is approximate because recordings contribute different segment
counts.
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
    keys = [s.recording_id for s in segments] if group_by_recording else range(len(segments))
    buckets = _deal_groups(keys, labels, k, Rng(seed))
    folds = [np.sort(np.array(b, dtype=np.int64)) for b in buckets]
    if any(len(f) == 0 for f in folds):
        raise DataError("a fold received no segments; fewer groups than folds")
    return FoldSplit(folds=folds)


def _deal_groups(keys, labels: np.ndarray, k: int, rng: Rng) -> "list[list[int]]":
    """Segment indices of k folds: the groups of segments that share a key
    are shuffled within each class (a group takes its last segment's class)
    and dealt round-robin, class by class in label order."""
    members: "dict[object, list[int]]" = {}
    group_label: "dict[object, int]" = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
        group_label[key] = labels[i]
    buckets: "list[list[int]]" = [[] for _ in range(k)]
    for c in sorted(set(group_label.values())):
        groups = sorted(g for g, lab in group_label.items() if lab == c)
        for j, r in enumerate(rng.permutation(len(groups))):
            buckets[j % k].extend(members[groups[r]])
    return buckets
