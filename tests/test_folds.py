"""Stratified fold construction: balance, disjointness, grouping."""

import numpy as np
import pytest

from qivcnet.errors import DataError
from qivcnet.folds import FoldSplit, segment_labels, stratified_kfold
from qivcnet.preprocess import Segment
from qivcnet.rng import Rng


def _segments(n_normal, n_abnormal, per_recording=1):
    segs = []
    i = 0
    for label, count in (("normal", n_normal), ("abnormal", n_abnormal)):
        for _ in range(count):
            rid = f"rec{i // per_recording}"
            segs.append(Segment(values=np.zeros(4), label=label,
                                recording_id=rid, window_index=i % per_recording))
            i += 1
    return segs


def test_segment_labels_mapping():
    segs = _segments(2, 3)
    assert segment_labels(segs).tolist() == [0, 0, 1, 1, 1]


def test_exact_balance_when_divisible():
    segs = _segments(80, 20)
    split = stratified_kfold(segs, k=5, seed=0)
    assert split.k == 5
    labels = segment_labels(segs)
    for fold in split.folds:
        assert np.bincount(labels[fold], minlength=2).tolist() == [16, 4]


def test_folds_disjoint_and_covering():
    segs = _segments(33, 21)
    split = stratified_kfold(segs, k=4, seed=3)
    all_idx = np.concatenate(split.folds)
    assert len(all_idx) == 54
    assert len(np.unique(all_idx)) == 54
    assert set(all_idx.tolist()) == set(range(54))


def test_fold_sizes_within_one_per_class():
    segs = _segments(33, 21)
    split = stratified_kfold(segs, k=4, seed=3)
    labels = segment_labels(segs)
    for c, total in ((0, 33), (1, 21)):
        per_fold = [int(np.sum(labels[f] == c)) for f in split.folds]
        assert max(per_fold) - min(per_fold) <= 1
        assert sum(per_fold) == total


def test_train_test_partition():
    segs = _segments(20, 15)
    split = stratified_kfold(segs, k=5, seed=1)
    for fold in range(5):
        tr = split.train_indices(fold)
        te = split.test_indices(fold)
        assert len(np.intersect1d(tr, te)) == 0
        assert len(tr) + len(te) == 35
        assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(35))


def test_deterministic_given_seed():
    segs = _segments(40, 25)
    a = stratified_kfold(segs, k=5, seed=7)
    b = stratified_kfold(segs, k=5, seed=7)
    c = stratified_kfold(segs, k=5, seed=8)
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a.folds, c.folds))


def test_class_smaller_than_k_rejected():
    segs = _segments(10, 3)
    with pytest.raises(DataError):
        stratified_kfold(segs, k=5, seed=0)


def test_k_below_two_rejected():
    with pytest.raises(DataError):
        stratified_kfold(_segments(5, 5), k=1, seed=0)


def test_grouped_mode_keeps_recordings_whole():
    # 12 recordings x 4 windows each
    segs = _segments(24, 24, per_recording=4)
    split = stratified_kfold(segs, k=3, seed=2, group_by_recording=True)
    for fold in range(3):
        test_recs = {segs[i].recording_id for i in split.test_indices(fold)}
        train_recs = {segs[i].recording_id for i in split.train_indices(fold)}
        assert test_recs.isdisjoint(train_recs)
    all_idx = np.concatenate(split.folds)
    assert len(np.unique(all_idx)) == 48


def test_grouped_mode_errors_when_too_few_recordings():
    # 2 recordings cannot fill 3 folds
    segs = _segments(8, 0, per_recording=4)
    with pytest.raises(DataError):
        stratified_kfold(segs, k=3, seed=0, group_by_recording=True)


def _mixed_segments():
    """Labels that alternate unevenly, recordings of one to three windows,
    and ids that sort differently as text ("rec10" < "rec2") and as numbers."""
    segs = []
    for r, (windows, label) in enumerate(zip([2, 1, 3, 1, 2, 2, 1, 3, 1, 2, 1, 1],
                                             "NANNAANANANN")):
        for w in range(windows):
            segs.append(Segment(values=np.zeros(4), label="abnormal" if label == "A" else "normal",
                                recording_id=f"rec{r}", window_index=w))
    return segs


@pytest.mark.parametrize("grouped,want", [
    (False, [[3, 5, 6, 7, 10, 11, 12, 16], [4, 8, 14, 15, 17, 18], [0, 1, 2, 9, 13, 19]]),
    (True, [[0, 1, 9, 10, 11, 16, 17, 19], [7, 8, 12, 13, 14, 15, 18], [2, 3, 4, 5, 6]]),
])
def test_folds_of_both_modes_are_pinned(grouped, want):
    # both modes deal groups of segments (one segment each, or one
    # recording each) through one loop; the folds are pinned, so a change
    # in either mode's dealing order moves every split and fails here
    split = stratified_kfold(_mixed_segments(), k=3, seed=5, group_by_recording=grouped)
    assert [f.tolist() for f in split.folds] == want
