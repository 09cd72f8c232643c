"""Metrics against brute-force oracles: confusion counts, AUC pair statistic,
calibration bins."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import philox
from qivcnet.errors import ShapeError
from qivcnet.metrics import (
    MetricsReport,
    compute_metrics,
    confusion_counts,
    expected_calibration_error,
    reliability_bins,
    roc_auc,
)


def _brute_counts(labels, preds):
    tp = fp = tn = fn = 0
    for y, p in zip(labels, preds):
        if y == 1 and p == 1:
            tp += 1
        elif y == 0 and p == 1:
            fp += 1
        elif y == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def _pair_auc(labels, scores):
    """Rank-statistic AUC: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    if not pos or not neg:
        return 0.5
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# ----------------------------------------------------------- worked example

def test_worked_example_counts_and_ratios():
    labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    preds = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
    scores = np.where(preds == 1, 0.9, 0.1)
    rep = compute_metrics(labels, preds, scores)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 5, 1)
    assert rep.accuracy == pytest.approx(0.8)
    assert rep.sensitivity == pytest.approx(0.75)
    assert rep.specificity == pytest.approx(5.0 / 6.0)
    assert rep.f1 == pytest.approx(0.75)


def test_counts_match_brute_force_on_random_inputs():
    rng = philox(11)
    for _ in range(200):
        n = int(rng.integers(1, 40, ()))
        labels = rng.integers(0, 2, (n,))
        preds = rng.integers(0, 2, (n,))
        assert confusion_counts(labels, preds) == _brute_counts(labels, preds)


def test_full_report_matches_brute_force():
    rng = philox(12)
    for _ in range(50):
        n = int(rng.integers(2, 30, ()))
        labels = rng.integers(0, 2, (n,))
        preds = rng.integers(0, 2, (n,))
        scores = rng.uniform(0.0, 1.0, (n,))
        rep = compute_metrics(labels, preds, scores)
        tp, fp, tn, fn = _brute_counts(labels, preds)
        assert rep.accuracy == pytest.approx((tp + tn) / n)
        if tp + fn:
            assert rep.sensitivity == pytest.approx(tp / (tp + fn))
        if tn + fp:
            assert rep.specificity == pytest.approx(tn / (tn + fp))
        if 2 * tp + fp + fn:
            assert rep.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
        assert rep.auc == pytest.approx(_pair_auc(labels, scores), abs=1e-12)


def test_zero_denominators_give_zero_ratios():
    rep = compute_metrics([0, 0], [0, 0], [0.1, 0.2])
    assert rep.sensitivity == 0.0
    assert rep.f1 == 0.0
    rep = compute_metrics([1, 1], [1, 1], [0.9, 0.8])
    assert rep.specificity == 0.0


# -------------------------------------------------------------------- auc

def test_auc_perfect_separation():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)
    assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.1, 0.2]) == pytest.approx(0.0)


def test_auc_all_scores_tied_is_half():
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)


def test_auc_handles_tied_groups():
    labels = [1, 0, 1, 0, 1, 0]
    scores = [0.9, 0.9, 0.6, 0.6, 0.3, 0.1]
    assert roc_auc(labels, scores) == pytest.approx(_pair_auc(labels, scores))


def test_auc_matches_pair_statistic_randomized():
    rng = philox(13)
    for _ in range(100):
        n = int(rng.integers(2, 25, ()))
        labels = rng.integers(0, 2, (n,))
        # coarse grid forces frequent ties
        scores = rng.integers(0, 5, (n,)).astype(float) / 4.0
        assert roc_auc(labels, scores) == pytest.approx(
            _pair_auc(labels, scores), abs=1e-12)


def test_auc_single_class_is_chance():
    assert roc_auc([1, 1, 1], [0.2, 0.5, 0.9]) == 0.5
    assert roc_auc([0, 0], [0.2, 0.5]) == 0.5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2.0, 0.5, 10.0]))
def test_auc_invariant_under_monotone_score_transform(seed, power):
    rng = philox(seed)
    labels = rng.integers(0, 2, (15,))
    scores = rng.uniform(0.0, 1.0, (15,))
    assert roc_auc(labels, scores ** power) == pytest.approx(
        roc_auc(labels, scores), abs=1e-12)


# -------------------------------------------------------------- calibration

def test_reliability_bins_hand_example():
    labels = np.array([1, 1, 0, 0])
    preds = np.array([1, 1, 1, 0])
    scores = np.array([0.95, 0.85, 0.65, 0.35])
    # confidences: 0.95, 0.85, 0.65, 0.65 -> bins 9, 8, 6, 6
    rb = reliability_bins(labels, preds, scores)
    assert rb.counts.tolist() == [0, 0, 0, 0, 0, 0, 2, 0, 1, 1]
    assert rb.mean_confidence[6] == pytest.approx(0.65)
    assert rb.accuracy[6] == pytest.approx(0.5)  # one of the two is correct
    assert rb.accuracy[8] == 1.0 and rb.accuracy[9] == 1.0


def test_reliability_empty_bins_are_zero():
    rb = reliability_bins([1], [1], [0.95])
    assert rb.counts.sum() == 1
    assert np.all(rb.mean_confidence[:9] == 0.0)
    assert np.all(rb.accuracy[:9] == 0.0)


def test_confidence_one_lands_in_last_bin():
    rb = reliability_bins([1], [1], [1.0])
    assert rb.counts[9] == 1


def test_ece_zero_for_perfectly_calibrated_construction():
    # bin at confidence 0.75: make accuracy exactly 0.75 (3 of 4 correct)
    labels = np.array([1, 1, 1, 0])
    preds = np.array([1, 1, 1, 1])
    scores = np.array([0.75, 0.75, 0.75, 0.75])
    ece = expected_calibration_error(reliability_bins(labels, preds, scores))
    assert ece == pytest.approx(0.0, abs=1e-12)


def test_ece_hand_value():
    # single occupied bin, confidence 0.95, accuracy 0.5 -> ece = 0.45
    labels = np.array([1, 0])
    preds = np.array([1, 1])
    scores = np.array([0.95, 0.95])
    ece = expected_calibration_error(reliability_bins(labels, preds, scores))
    assert ece == pytest.approx(0.45)


def test_ece_weighted_average():
    rng = philox(14)
    n = 100
    labels = rng.integers(0, 2, (n,))
    scores = rng.uniform(0.0, 1.0, (n,))
    preds = (scores > 0.5).astype(np.int64)
    rb = reliability_bins(labels, preds, scores)
    want = sum(rb.counts[i] / n * abs(rb.accuracy[i] - rb.mean_confidence[i])
               for i in range(10))
    assert expected_calibration_error(rb) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------- validation

def test_validation_errors():
    with pytest.raises(ShapeError):
        compute_metrics([], [], [])
    with pytest.raises(ShapeError):
        compute_metrics([1, 0], [1], [0.5, 0.5])
    with pytest.raises(ShapeError):
        compute_metrics([1, 0], [1, 0], [0.5, 1.5])
    with pytest.raises(ShapeError):
        compute_metrics([0, 1, 1], [0, 1, 0], [float("nan"), 0.7, 0.2])
    with pytest.raises(ShapeError):
        compute_metrics([1, 2], [1, 0], [0.5, 0.5])


def test_csv_row_matches_header():
    # report rows are dataclasses.astuple(report), in CSV_HEADER order
    assert MetricsReport.CSV_HEADER == tuple(f.name for f in fields(MetricsReport))
