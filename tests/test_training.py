"""Optimizer math, validation splits, and the per-fold training loop."""

import dataclasses
import math

import numpy as np
import pytest

from qivcnet import training, variational
from qivcnet.autodiff import Tensor
from qivcnet.checkpoint import load_checkpoint
from qivcnet.errors import ConfigError, DataError, NumericalError
from qivcnet.folds import segment_labels, stratified_kfold
from qivcnet.metrics import compute_metrics
from qivcnet.config import RunConfig
from qivcnet.network import QivcNet, config_from_dict
from qivcnet.preprocess import Segment
from qivcnet.rng import Rng
from qivcnet.training import (
    METRICS_CSV_HEADER,
    TRAIN_LOG_HEADER,
    Adam,
    FoldResult,
    TrainState,
    evaluate_segments,
    metrics_rows,
    stratified_val_split,
    train,
    train_fold,
)

# RunConfig settings of a two-block micro network
MICRO = {"blocks": "2x3,3x3", "classifier_width": 3, "k": 2, "p": 0.05}


def _separable_segments(n=32, length=64):
    """Low-frequency tone vs high-frequency tone, both peak-normalized."""
    rng = Rng(55)
    t = np.arange(length) / length
    segs = []
    for i in range(n):
        label = "abnormal" if i % 2 else "normal"
        freq = 12.0 if label == "abnormal" else 2.0
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        v = np.sin(2.0 * np.pi * freq * t + phase) + 0.05 * rng.normal((length,))
        v = v - v.mean()
        v = v / np.max(np.abs(v))
        segs.append(Segment(values=v, label=label,
                            recording_id=f"r{i}", window_index=0))
    return segs


# -------------------------------------------------------------------- adam

def test_adam_single_step_hand_math():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    g = np.array([0.5, -1.5])
    p.grad = g.copy()
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    lr_t = 0.01 * math.sqrt(1.0 - 0.999) / (1.0 - 0.9)
    want = np.array([1.0, -2.0]) - lr_t * m / (np.sqrt(v) + 1e-8)
    assert np.allclose(p.data, want, rtol=0, atol=1e-15)


def test_adam_two_steps_accumulate_moments():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    data = 0.5
    m = v = 0.0
    for t, g in enumerate([0.3, -0.2], start=1):
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        lr_t = 0.1 * math.sqrt(1.0 - 0.999 ** t) / (1.0 - 0.9 ** t)
        data -= lr_t * m / (math.sqrt(v) + 1e-8)
        assert p.data[0] == pytest.approx(data, abs=1e-15)


def test_adam_skips_missing_grads_and_frozen_params():
    p = Tensor(np.array([1.0]), requires_grad=True)
    frozen = Tensor(np.array([2.0]))
    opt = Adam([p, frozen], lr=0.5)
    opt.step()  # no grads anywhere: nothing moves
    assert p.data[0] == 1.0
    assert frozen.data[0] == 2.0
    assert len(opt.params) == 1


def test_adam_zero_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([3.0])
    opt = Adam([p])
    opt.zero_grad()
    assert p.grad is None


# ------------------------------------------------------------------- hyper

def test_hyper_validation():
    for kwargs in ({"lr": 0.0}, {"batch": 1}, {"epochs": 0}, {"epochs": 501},
                   {"patience": -1}):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)
    with pytest.raises(TypeError):       # a constant, not a setting
        RunConfig(val_fraction=0.2)


# -------------------------------------------------------------- val split

def test_val_split_stratified_and_disjoint():
    segs = _separable_segments(40)
    labels = segment_labels(segs)
    idx = np.arange(40)
    train_idx, val_idx = stratified_val_split(labels, idx, 0.2, Rng(3))
    assert len(np.intersect1d(train_idx, val_idx)) == 0
    assert len(train_idx) + len(val_idx) == 40
    # 20% of each 20-segment class
    assert np.sum(labels[val_idx] == 0) == 4
    assert np.sum(labels[val_idx] == 1) == 4


def test_val_split_keeps_at_least_one_each_side():
    labels = np.array([0, 0, 1, 1])
    train_idx, val_idx = stratified_val_split(labels, np.arange(4), 0.9, Rng(0))
    for c in (0, 1):
        assert np.sum(labels[train_idx] == c) >= 1
        assert np.sum(labels[val_idx] == c) >= 1


def test_val_split_deterministic():
    labels = segment_labels(_separable_segments(30))
    a = stratified_val_split(labels, np.arange(30), 0.1, Rng(7))
    b = stratified_val_split(labels, np.arange(30), 0.1, Rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_val_split_rejects_tiny_class():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(DataError):
        stratified_val_split(labels, np.arange(4), 0.1, Rng(0))


# -------------------------------------------------------------- train fold

def test_train_fold_learns_separable_data(tmp_path):
    segs = _separable_segments(48)
    split = stratified_kfold(segs, k=4, seed=0)
    cfg = RunConfig(lr=5e-3, batch=8, epochs=12, patience=20, **MICRO)
    res = train_fold(segs, 0, split.train_indices(0), split.test_indices(0),
                     cfg, Rng(1), tmp_path / "fold0")
    assert (tmp_path / "fold0" / "checkpoint.bin").is_file()
    assert (tmp_path / "fold0" / "train_log.csv").is_file()
    losses = [row[1] for row in res.log_rows]
    assert losses[-1] < losses[0]
    assert res.report.accuracy >= 0.9
    assert res.state.best_epoch >= 1
    log_text = (tmp_path / "fold0" / "train_log.csv").read_text().splitlines()
    assert log_text[0] == ",".join(TRAIN_LOG_HEADER)
    assert len(log_text) == 1 + len(res.log_rows)


def test_train_fold_checkpoint_reproduces_reported_metrics(tmp_path):
    segs = _separable_segments(32)
    split = stratified_kfold(segs, k=4, seed=1)
    cfg = RunConfig(lr=2e-3, batch=8, epochs=2, patience=5, **MICRO)
    res = train_fold(segs, 0, split.train_indices(0), split.test_indices(0),
                     cfg, Rng(2), tmp_path / "f")
    arrays, meta = load_checkpoint(tmp_path / "f" / "checkpoint.bin")
    assert meta["fold_index"] == 0
    assert meta["best_epoch"] == res.state.best_epoch
    assert sorted(meta["train_indices"] + meta["val_indices"]) == \
        sorted(int(i) for i in split.train_indices(0))
    net = QivcNet(config_from_dict(meta["network"]))
    net.load_state(arrays)
    labels = segment_labels(segs)
    test_idx = np.array(meta["test_indices"])
    report = evaluate_segments(net, [segs[i] for i in test_idx], labels[test_idx])
    assert report == res.report


def test_tie_refreshes_checkpoint_but_burns_patience(tmp_path):
    # a vanishing learning rate freezes the network, so validation F1 is
    # identical every epoch: first epoch improves, every later one ties
    segs = _separable_segments(32)
    split = stratified_kfold(segs, k=4, seed=2)
    cfg = RunConfig(lr=1e-12, batch=8, epochs=10, patience=1, **MICRO)
    res = train_fold(segs, 0, split.train_indices(0), split.test_indices(0),
                     cfg, Rng(3), tmp_path / "f")
    assert res.state.stopped_early
    # epoch 1 improves (bad=0), epochs 2-3 tie (bad=1,2); 2 > patience stops
    assert res.state.epoch == 3
    assert res.state.bad_epochs == 2
    # the tie still refreshed the checkpoint, so best_epoch is the last one
    assert res.state.best_epoch == 3
    f1s = [row[7] for row in res.log_rows]
    assert f1s[0] == f1s[1] == f1s[2] == res.state.best_val_f1


def test_train_fold_rejects_single_class_split(tmp_path):
    segs = _separable_segments(20)
    labels = segment_labels(segs)
    train_idx = np.nonzero(labels == 0)[0]
    test_idx = np.nonzero(labels == 1)[0]
    with pytest.raises(DataError):
        train_fold(segs, 0, train_idx, test_idx,
                   RunConfig(epochs=1, **MICRO), Rng(0), tmp_path / "f")


def test_train_fold_names_the_parameter_with_a_non_finite_gradient(tmp_path, monkeypatch):
    nets = []

    class RecordedNet(QivcNet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    real_backward = training.ad.backward

    def backward_with_nan(loss):
        real_backward(loss)
        target = nets[-1].state_arrays()["block1.fusion_lstm.wh"]
        param = next(p for p in nets[-1].parameters() if p.data is target)
        param.grad = param.grad.copy()
        param.grad.flat[3] = np.nan

    monkeypatch.setattr(training, "QivcNet", RecordedNet)
    monkeypatch.setattr(training.ad, "backward", backward_with_nan)
    segs = _separable_segments(20)
    split = stratified_kfold(segs, k=4, seed=0)
    with pytest.raises(NumericalError, match=r"epoch 1: non-finite gradient for "
                                             r"block1\.fusion_lstm\.wh"):
        train_fold(segs, 0, split.train_indices(0), split.test_indices(0),
                   RunConfig(epochs=1, batch=8, **MICRO), Rng(0), tmp_path / "f")


def test_training_samples_on_every_step_and_scoring_never_does(tmp_path, monkeypatch):
    # the rng alone turns kernel sampling on: each step draws both kernels of
    # every block once, and scoring the validation and test sets draws none
    draws, steps, scoring_draws = [], [], []
    real_sample, real_step, real_eval = (variational.sample_weights, Adam.step,
                                         training.evaluate_segments)

    def scored(*args):
        before = len(draws)
        report = real_eval(*args)
        scoring_draws.append(len(draws) - before)
        return report

    monkeypatch.setattr(variational, "sample_weights",
                        lambda layer, rng: draws.append(layer) or real_sample(layer, rng))
    monkeypatch.setattr(Adam, "step", lambda opt: steps.append(opt) or real_step(opt))
    monkeypatch.setattr(training, "evaluate_segments", scored)
    segs = _separable_segments(20)
    split = stratified_kfold(segs, k=4, seed=0)
    cfg = RunConfig(epochs=1, batch=8, **MICRO)
    train_fold(segs, 0, split.train_indices(0), split.test_indices(0), cfg, Rng(0),
               tmp_path / "f")
    n_blocks = len(cfg.network_config().blocks)
    assert len(steps) == 2 and len(draws) == 2 * n_blocks * len(steps)
    assert scoring_draws == [0, 0]     # validation after the epoch, then the test fold


# ------------------------------------------------------------ orchestration

def test_train_runs_requested_folds(tmp_path):
    segs = _separable_segments(24)
    split = stratified_kfold(segs, k=3, seed=0)
    cfg = RunConfig(lr=2e-3, batch=8, epochs=1, patience=2, seed=5, **MICRO)
    results = train(segs, split, cfg, tmp_path)
    assert [r.fold for r in results] == [0, 1, 2]
    for i in range(3):
        assert (tmp_path / f"fold{i}" / "checkpoint.bin").is_file()


def test_single_fold_matches_full_run(tmp_path):
    segs = _separable_segments(24)
    split = stratified_kfold(segs, k=3, seed=0)
    cfg = RunConfig(lr=2e-3, batch=8, epochs=1, patience=2, seed=5, **MICRO)
    train(segs, split, cfg, tmp_path / "all")
    only = train(segs, split, dataclasses.replace(cfg, fold_index=1), tmp_path / "one")
    assert [r.fold for r in only] == [1]
    full_bytes = (tmp_path / "all" / "fold1" / "checkpoint.bin").read_bytes()
    solo_bytes = (tmp_path / "one" / "fold1" / "checkpoint.bin").read_bytes()
    assert full_bytes == solo_bytes


def test_train_rejects_bad_fold_index(tmp_path):
    segs = _separable_segments(24)
    split = stratified_kfold(segs, k=3, seed=0)
    with pytest.raises(ConfigError):
        train(segs, split, RunConfig(epochs=1, fold_index=3, **MICRO), tmp_path)


# ----------------------------------------------------------------- metrics

def _fake_result(fold, acc_pair):
    labels, preds = acc_pair
    report = compute_metrics(labels, preds, np.where(np.array(preds) == 1, 0.9, 0.1))
    return FoldResult(fold=fold, state=TrainState(best_val_f1=0.5 + 0.1 * fold,
                                                  best_epoch=3 + fold),
                      report=report, log_rows=[])


def test_metrics_rows_single_fold_has_no_mean():
    rows = metrics_rows([_fake_result(0, ([1, 0, 1, 0], [1, 0, 1, 0]))])
    assert len(rows) == 1
    assert rows[0][0] == 0


def test_metrics_rows_mean_row():
    r0 = _fake_result(0, ([1, 0, 1, 0], [1, 0, 1, 0]))  # accuracy 1.0
    r1 = _fake_result(1, ([1, 0, 1, 0], [1, 0, 0, 1]))  # accuracy 0.5
    rows = metrics_rows([r0, r1])
    assert len(rows) == 3
    mean = rows[2]
    assert mean[0] == "mean"
    acc_col = 1 + METRICS_CSV_HEADER.index("accuracy") - 1
    assert float(mean[METRICS_CSV_HEADER.index("accuracy")]) == pytest.approx(0.75)
    assert float(mean[METRICS_CSV_HEADER.index("best_val_f1")]) == pytest.approx(0.55)
    assert float(mean[METRICS_CSV_HEADER.index("best_epoch")]) == pytest.approx(3.5)
