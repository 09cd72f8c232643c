"""Cross-validated training loop with early stopping and checkpointing.

Per fold: a fresh network is built from a forked seed, a stratified slice
of the training fold becomes the validation split, and adaptive-moment
gradient descent minimizes the weighted CCE+Dice task loss plus the scaled
KL penalty.  After each epoch the validation F1 decides whether to write a
checkpoint (strict improvement) or burn patience; when patience is
exhausted the best checkpoint is restored and the held-out test fold is
scored.

Randomness is partitioned so results do not depend on execution order:
the master seed forks once per fold (in fold order), and each fold forks
separate streams for parameter init, batch shuffling, and weight noise.
Folds may therefore run in parallel processes without changing any output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .dataio import write_csv
from .errors import ConfigError, DataError, NumericalError
from .folds import FoldSplit, segment_labels
from .losses import LossWeights, composite_loss, one_hot
from .metrics import MetricsReport, compute_metrics
from .network import QivcNet, config_to_dict, infer_probs, segments_to_batch
from .rng import Rng
from .variational import total_loss

TRAIN_LOG_HEADER = ("epoch", "train_loss", "cce", "dice", "w_cce", "w_dice",
                    "kl", "val_f1", "val_acc")


@dataclass
class TrainState:
    """Mutable per-fold training progress."""

    epoch: int = 0
    best_val_f1: float = -1.0
    best_epoch: int = -1
    bad_epochs: int = 0
    stopped_early: bool = False
    checkpoint_path: str = ""


@dataclass
class FoldResult:
    fold: int
    state: TrainState
    report: MetricsReport
    log_rows: "list[tuple]" = field(default_factory=list)


class Adam:
    """Adaptive moment estimation with bias correction."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: "list[Tensor]", lr: float = 1e-3):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        lr_t = self.lr * math.sqrt(1.0 - self.BETA2 ** self.t) / (1.0 - self.BETA1 ** self.t)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.data -= lr_t * m / (np.sqrt(v) + self.EPS)


def stratified_val_split(labels: np.ndarray, indices: np.ndarray, fraction: float,
                         rng: Rng) -> "tuple[np.ndarray, np.ndarray]":
    """Split fold-train indices into (train, validation), stratified by class."""
    indices = np.asarray(indices, dtype=np.int64)
    train: "list[int]" = []
    val: "list[int]" = []
    for c in np.unique(labels[indices]):
        pool = indices[labels[indices] == c]
        if len(pool) < 2:
            raise DataError(f"class {c} has too few segments to split off validation")
        pool = pool[rng.permutation(len(pool))]
        n_val = max(1, int(round(fraction * len(pool))))
        if len(pool) - n_val < 1:
            n_val = len(pool) - 1
        val.extend(pool[:n_val].tolist())
        train.extend(pool[n_val:].tolist())
    return np.sort(np.array(train, dtype=np.int64)), np.sort(np.array(val, dtype=np.int64))


def evaluate_segments(net: QivcNet, segments, labels: np.ndarray) -> MetricsReport:
    """Deterministic inference metrics over a list of segments."""
    probs = infer_probs(net, segments)
    preds = probs.argmax(axis=1)
    return compute_metrics(labels, preds, probs[:, 1])


def _check_gradients(net: QivcNet, where: str) -> None:
    """Raise NumericalError naming the first parameter with a non-finite gradient."""
    for name, p in net.named_parameters().items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericalError(f"{where}: non-finite gradient for {name}")


def train_fold(segments, fold_index: int, train_idx: np.ndarray, test_idx: np.ndarray,
               cfg: RunConfig, fold_rng: Rng, fold_dir: "str | Path") -> FoldResult:
    """Train one fold end to end; writes checkpoint.bin and train_log.csv."""
    fold_dir = Path(fold_dir)
    fold_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = fold_dir / "checkpoint.bin"
    labels = segment_labels(segments)
    if len(np.unique(labels[train_idx])) < 2 or len(np.unique(labels[test_idx])) < 2:
        raise DataError(f"fold {fold_index}: a split is missing one of the classes")

    rng_init = fold_rng.fork()
    rng_data = fold_rng.fork()
    rng_noise = fold_rng.fork()
    inner_train, val_idx = stratified_val_split(labels, train_idx, cfg.val_fraction, rng_data)

    net_cfg = cfg.network_config()
    net = QivcNet(net_cfg, rng_init)
    opt = Adam(net.parameters(), lr=cfg.lr)
    lw = LossWeights(decay=cfg.ema_decay)
    state = TrainState(checkpoint_path=str(ckpt_path))
    val_segments = [segments[i] for i in val_idx]
    val_labels = labels[val_idx]
    x_train = segments_to_batch([segments[i] for i in inner_train])
    y_train = labels[inner_train]

    meta_common = {
        "fold_index": fold_index,
        "n_segments": len(segments),
        "train_indices": [int(i) for i in inner_train],
        "val_indices": [int(i) for i in val_idx],
        "test_indices": [int(i) for i in test_idx],
        "network": config_to_dict(net_cfg),
    }
    log_rows: "list[tuple]" = []
    n = len(inner_train)

    for epoch in range(1, cfg.epochs + 1):
        state.epoch = epoch
        perm = rng_data.permutation(n)
        sums = {"loss": 0.0, "cce": 0.0, "dice": 0.0, "kl": 0.0}
        seen = 0
        for start in range(0, n, cfg.batch):
            take = perm[start: start + cfg.batch]
            if len(take) < 2:
                continue  # a singleton batch has no usable batch statistics
            xb = Tensor(x_train[take])
            yb = one_hot(y_train[take])
            probs = net.forward(xb, training=True, rng=rng_noise)
            loss, cce_v, dice_v = composite_loss(probs, yb, lw)
            kl = net.kl()
            objective = total_loss(loss, kl, cfg.kl_scale)
            value = objective.item()
            if not np.isfinite(value):
                raise NumericalError(
                    f"fold {fold_index} epoch {epoch}: non-finite training loss")
            opt.zero_grad()
            ad.backward(objective)
            _check_gradients(net, f"fold {fold_index} epoch {epoch}")
            opt.step()
            size = len(take)
            sums["loss"] += value * size
            sums["cce"] += cce_v * size
            sums["dice"] += dice_v * size
            sums["kl"] += kl.item() * size
            seen += size
        w_cce, w_dice = lw.w_cce, lw.w_dice
        if cfg.dynamic_weights and seen:
            lw.update(sums["cce"] / seen, sums["dice"] / seen)
        val_report = evaluate_segments(net, val_segments, val_labels)
        log_rows.append((epoch, sums["loss"] / seen, sums["cce"] / seen,
                         sums["dice"] / seen, w_cce, w_dice, sums["kl"] / seen,
                         val_report.f1, val_report.accuracy))
        improved = val_report.f1 > state.best_val_f1
        if val_report.f1 >= state.best_val_f1:
            # ties refresh the checkpoint: among equally best epochs the most
            # recent is kept (longer-trained weights are better calibrated),
            # but only a strict improvement resets the patience counter
            state.best_val_f1 = val_report.f1
            state.best_epoch = epoch
            save_checkpoint(ckpt_path, net.state_arrays(),
                            {**meta_common, "best_val_f1": val_report.f1,
                             "best_epoch": epoch})
        state.bad_epochs = 0 if improved else state.bad_epochs + 1
        if state.bad_epochs > cfg.patience:
            state.stopped_early = True
            break

    if state.best_epoch < 0:
        raise NumericalError(f"fold {fold_index}: no epoch produced a usable checkpoint")
    arrays, _ = load_checkpoint(ckpt_path)
    net.load_state(arrays)
    report = evaluate_segments(net, [segments[i] for i in test_idx], labels[test_idx])
    write_csv(fold_dir / "train_log.csv", TRAIN_LOG_HEADER, log_rows)
    return FoldResult(fold=fold_index, state=state, report=report, log_rows=log_rows)


def _fold_job(args) -> FoldResult:
    return train_fold(*args)


def fold_indices(split: FoldSplit, fold_index: int) -> "list[int]":
    """The folds a run trains: all of them when ``fold_index`` is -1."""
    if fold_index < 0:
        return list(range(split.k))
    if fold_index >= split.k:
        raise ConfigError(f"fold index {fold_index} out of range for {split.k} folds")
    return [fold_index]


def train(segments, split: FoldSplit, cfg: RunConfig,
          outdir: "str | Path") -> "list[FoldResult]":
    """Train all folds (or ``cfg.fold_index``), sequentially or in ``cfg.jobs``
    parallel processes.

    Per-fold rngs are forked from the master seed before any work starts,
    so the artifacts are identical regardless of ``jobs`` or ``fold_index``.
    """
    outdir = Path(outdir)
    master = Rng(cfg.seed)
    fold_rngs = [master.fork() for _ in range(split.k)]
    tasks = [(segments, i, split.train_indices(i), split.test_indices(i),
              cfg, fold_rngs[i], outdir / f"fold{i}")
             for i in fold_indices(split, cfg.fold_index)]
    if cfg.jobs > 1 and len(tasks) > 1:
        # workers that are spawned rather than forked get numpy's error state here
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks)),
                                 initializer=partial(np.seterr, **np.geterr())) as pool:
            return list(pool.map(_fold_job, tasks))
    return [_fold_job(t) for t in tasks]


METRICS_CSV_HEADER = ("fold",) + MetricsReport.CSV_HEADER + ("best_val_f1", "best_epoch")


def metrics_rows(results: "list[FoldResult]") -> "list[tuple]":
    """Per-fold metric rows plus a mean row when more than one fold ran."""
    rows = [(r.fold, *astuple(r.report), r.state.best_val_f1, r.state.best_epoch)
            for r in results]
    if len(results) > 1:
        columns = zip(*(row[1:] for row in rows))
        rows.append(("mean", *(np.mean(column) for column in columns)))
    return rows
