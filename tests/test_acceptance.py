"""Acceptance suite: nine end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line per
criterion.  The desk-scale training check (criterion 7) takes a few minutes on
one CPU core; everything else finishes in seconds.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from helpers import fd_grad, philox, rel_err
from qivcnet import autodiff as ad
from qivcnet.autodiff import Tensor
from qivcnet.checkpoint import load_checkpoint
from qivcnet.cli import main
from qivcnet.config import RunConfig
from qivcnet.folds import segment_labels, stratified_kfold
from qivcnet.linalg import haar_so, orthonormal_basis
from qivcnet.losses import LossWeights, composite_loss, one_hot
from qivcnet.metrics import compute_metrics
from qivcnet.network import NetworkConfig, QivcNet, config_from_dict
from qivcnet.preprocess import Recording, bandpass, inject_noise_snr
from qivcnet.qire import QireConfig, qire_sample
from qivcnet.rng import Rng
from qivcnet.synthetic import make_dataset, write_wav_dataset
from qivcnet.training import evaluate_segments, train_fold
from qivcnet.variational import QiVConv, kl_divergence, softplus_inverse, total_loss


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ------------------------------------------------------------ 1: geometry

def test_criterion_1_structured_noise_geometry():
    """Unit norm, untouched complement, and the closed-form subspace swap."""
    t0 = time.time()
    worst_norm = worst_comp = worst_closed = 0.0
    for k in range(1, 10):
        cfg = QireConfig(k=k, p=0.0)
        for n in (16, 360, 1024):
            for trial in range(1000):
                seed = 1_000_000 * k + 1000 * n + trial
                got = qire_sample((n,), cfg, Rng(seed))
                # replay the rng stream to recover the draw's eps, Q and U
                replay = Rng(seed)
                eps0 = replay.normal(n)
                eps = eps0 / np.linalg.norm(eps0)
                q = orthonormal_basis(n, k, replay)
                u = haar_so(k, replay)
                worst_norm = max(worst_norm, abs(np.linalg.norm(got) - 1.0))
                comp_got = got - q @ (q.T @ got)
                comp_want = eps - q @ (q.T @ eps)
                worst_comp = max(worst_comp, float(np.max(np.abs(comp_got - comp_want))))
                closed = eps + q @ ((u - np.eye(k)) @ (q.T @ eps))
                worst_closed = max(worst_closed, float(np.max(np.abs(got - closed))))
    runtime = time.time() - t0
    ok = (worst_norm < 1e-10 and worst_comp < 1e-12 and worst_closed < 1e-12
          and runtime < 60.0)
    _verdict("criterion 1 (noise geometry)", ok,
             f"norm err {worst_norm:.2e}, complement err {worst_comp:.2e}, "
             f"closed form err {worst_closed:.2e}, {runtime:.1f}s")


# ------------------------------------------------------------ 2: rotations

def test_criterion_2_rotation_sampler_statistics():
    """Every draw is a proper rotation; 2x2 angles are uniform."""
    worst_det = worst_orth = 0.0
    for k in (2, 5, 9):
        rng = Rng(200 + k)
        eye = np.eye(k)
        for _ in range(100_000):
            u = haar_so(k, rng)
            worst_det = max(worst_det, abs(np.linalg.det(u) - 1.0))
            worst_orth = max(worst_orth, float(np.max(np.abs(u.T @ u - eye))))
    angle_rng = Rng(2024)
    draws = [haar_so(2, angle_rng) for _ in range(10_000)]
    angles = np.array([math.atan2(u[1, 0], u[0, 0]) for u in draws])
    counts, _ = np.histogram(angles, bins=16, range=(-math.pi, math.pi))
    expected = len(angles) / 16.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    ok = worst_det < 1e-10 and worst_orth < 1e-10 and chi2 < 39.25
    _verdict("criterion 2 (rotation sampler)", ok,
             f"det err {worst_det:.2e}, orthogonality err {worst_orth:.2e}, "
             f"angle chi2 {chi2:.2f} < 39.25")


# ------------------------------------------------------------ 3: gradients

def _grad_gap(grad: np.ndarray, fd: np.ndarray) -> float:
    # central differences bottom out around 1e-11 absolute (roundoff in the
    # loss), so gradients below 1e-6 are held to that absolute floor rather
    # than a relative one; a conv bias mean whose shift the following batch
    # norm removes exactly is the extreme case (both routes give ~0)
    return rel_err(grad, fd, floor=1e-6)


def test_criterion_3_gradients_match_finite_differences():
    t0 = time.time()
    worst = 0.0
    acts = ("tanh", "sigmoid", "identity")  # smooth, so central differences apply
    for i in range(100):
        shape_rng = philox(3000 + i)
        width = int(shape_rng.integers(1, 6))
        c_in = int(shape_rng.integers(1, 4))
        c_out = int(shape_rng.integers(1, 4))
        t_len = width + int(shape_rng.integers(1, 6))
        batch = int(shape_rng.integers(1, 3))
        n = width * c_in * c_out
        act = ad.ACTIVATIONS[acts[i % 3]]
        layer = QiVConv(width, c_in, c_out, QireConfig(k=min(3, n), p=0.05), 0.01,
                        Rng(600 + i))
        x = Rng(500 + i).normal((batch, t_len, c_in))

        for lam in (0.0, 1e-5):
            def loss_value():
                out = act(ad.conv1d(Tensor(x), layer.kernel(Rng(700 + i))))
                return total_loss(ad.tmean(out * out), kl_divergence(layer), lam)

            for param in layer.parameters():
                param.grad = None  # backward accumulates across the lam runs
            loss = loss_value()
            ad.backward(loss)
            f = lambda: float(loss_value().data)
            for param in layer.parameters():
                worst = max(worst, _grad_gap(param.grad, fd_grad(f, param.data)))

    net_cfg = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3,
                            qire=QireConfig(k=2, p=0.05), activation="tanh",
                            seed=0)
    x = Rng(42).normal((2, 16, 1))
    y = one_hot(np.array([0, 1]))
    for lam in (0.0, 1e-5):
        net = QivcNet(net_cfg)

        def net_loss():
            probs = net.forward(Tensor(x), training=True, rng=Rng(97))
            task, _, _ = composite_loss(probs, y, LossWeights())
            return total_loss(task, net.kl(), lam)

        loss = net_loss()
        ad.backward(loss)
        tensors = {id(p.data): p for p in net.parameters()}
        f = lambda: float(net_loss().data)
        for name, arr in net.state_arrays().items():
            param = tensors.get(id(arr))
            if param is None or param.grad is None:
                continue  # batch-norm running stats are state, not parameters
            worst = max(worst, _grad_gap(param.grad, fd_grad(f, arr)))

    runtime = time.time() - t0
    ok = worst < 1e-4 and runtime < 300.0
    _verdict("criterion 3 (gradient check)", ok,
             f"worst rel err {worst:.2e} over 100 layers + 2-block net, "
             f"{runtime:.0f}s")


# ------------------------------------------------------------ 4: KL values

def test_criterion_4_kl_closed_form_values():
    shape = (3, 2, 4)
    rho_prior = softplus_inverse(0.1)

    def layer_at(mu: float, shape) -> QiVConv:
        # weight means at mu, every sigma at the prior's 0.1
        layer = QiVConv(*shape, QireConfig(k=1), 0.01, Rng(0))
        layer.mu_w.data = np.full(shape, mu)
        layer.rho_w.data = np.full(shape, rho_prior)
        return layer

    n_elem = np.prod(shape)
    per_elem = float(kl_divergence(layer_at(0.0, shape)).data) / n_elem
    half = float(kl_divergence(layer_at(0.1, (1, 1, 1))).data)
    ok = abs(per_elem) < 2e-7 and abs(half - 0.5) < 1e-9
    _verdict("criterion 4 (KL closed forms)", ok,
             f"at-prior per element {per_elem:.2e}, "
             f"mu=sigma=prior gives {half!r}")


# ------------------------------------------------------------ 5: filtering

def _analytic_two_pass_db(freq: float, fs: float = 4000.0) -> float:
    """Two-pass gain of the 4th-order 25-400 Hz band-pass, in dB."""
    w = 2.0 * fs * math.tan(math.pi * freq / fs)
    w1 = 2.0 * fs * math.tan(math.pi * 25.0 / fs)
    w2 = 2.0 * fs * math.tan(math.pi * 400.0 / fs)
    mag = 1.0 / math.sqrt(1.0 + ((w * w - w1 * w2) / (w * (w2 - w1))) ** 8)
    return 2.0 * 20.0 * math.log10(mag)


def _measured_two_pass_db(freq: float, fs: float = 4000.0) -> float:
    t = np.arange(int(4.0 * fs)) / fs
    x = np.sin(2.0 * math.pi * freq * t)
    y = bandpass(Recording(samples=x, sample_rate=fs, id="probe",
                           label="normal")).samples
    mid = slice(len(x) // 4, 3 * len(x) // 4)
    return 20.0 * math.log10(float(np.sqrt(np.mean(y[mid] ** 2))
                                   / np.sqrt(np.mean(x[mid] ** 2))))


def test_criterion_5_band_pass_filter():
    gains = {f: _measured_two_pass_db(f) for f in (10.0, 100.0, 1000.0)}
    oracle_gap = max(abs(gains[f] - _analytic_two_pass_db(f)) for f in gains)
    # symmetric pulse: a cosine burst under an even Gaussian envelope, peak 1
    n = 4001
    center = n // 2
    idx = np.arange(n) - center
    pulse = np.exp(-0.5 * (idx / 300.0) ** 2) * np.cos(2.0 * math.pi * 100.0 * idx / 4000.0)
    out = bandpass(Recording(samples=pulse, sample_rate=4000.0, id="pulse",
                             label="normal")).samples
    asym = float(np.max(np.abs(out - out[::-1])))
    ok = (abs(gains[100.0]) <= 1.0 and gains[10.0] <= -40.0
          and gains[1000.0] <= -40.0 and oracle_gap < 0.05 and asym < 1e-6)
    _verdict("criterion 5 (band-pass filter)", ok,
             f"gain(100Hz)={gains[100.0]:+.3f}dB, gain(10Hz)={gains[10.0]:.1f}dB, "
             f"gain(1kHz)={gains[1000.0]:.1f}dB, oracle gap {oracle_gap:.3f}dB, "
             f"asymmetry {asym:.2e}")


# ------------------------------------------------------------ 6: metrics

def test_criterion_6_metrics_match_brute_force():
    rng = philox(66)
    worst_ratio = 0.0
    counts_ok = True
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, n)
        preds = rng.integers(0, 2, n)
        scores = rng.uniform(0.0, 1.0, n)
        rep = compute_metrics(labels, preds, scores)
        tp = int(np.sum((labels == 1) & (preds == 1)))
        fp = int(np.sum((labels == 0) & (preds == 1)))
        tn = int(np.sum((labels == 0) & (preds == 0)))
        fn = int(np.sum((labels == 1) & (preds == 0)))
        counts_ok = counts_ok and (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
        want = ((tp + tn) / n,
                tp / (tp + fn) if tp + fn else 0.0,
                tn / (tn + fp) if tn + fp else 0.0,
                2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        got = (rep.accuracy, rep.sensitivity, rep.specificity, rep.f1)
        worst_ratio = max(worst_ratio, max(abs(g - w) for g, w in zip(got, want)))
    labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    preds = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
    rep = compute_metrics(labels, preds, preds.astype(np.float64))
    example = (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 5, 1) \
        and rep.accuracy == 0.8 and rep.sensitivity == 0.75 \
        and abs(rep.specificity - 5.0 / 6.0) < 1e-12 and rep.f1 == 0.75
    ok = counts_ok and worst_ratio < 1e-12 and example
    _verdict("criterion 6 (metrics oracle)", ok,
             f"counts exact on 1000 vectors, worst ratio gap {worst_ratio:.2e}, "
             f"worked example {'ok' if example else 'WRONG'}")


# ---------------------------------------------------- 7 + 8: desk training

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """One fold of the default net on the 500-segment synthetic set."""
    t0 = time.time()
    segments = make_dataset(500, Rng(0).fork())
    split = stratified_kfold(segments, k=5, seed=0)
    cfg = RunConfig(lr=1e-3, batch=64, epochs=50, patience=6, k=5, p=0.05, seed=0)
    fold_dir = tmp_path_factory.mktemp("desk") / "fold0"
    result = train_fold(segments, 0, split.train_indices(0),
                        split.test_indices(0), cfg, Rng(1), fold_dir)
    return {"segments": segments, "result": result,
            "runtime": time.time() - t0}


@pytest.mark.slow
def test_criterion_7_desk_scale_learning(desk_run):
    rep = desk_run["result"].report
    epochs = desk_run["result"].state.epoch
    runtime = desk_run["runtime"]
    ok = (rep.accuracy >= 0.95 and epochs <= 50 and runtime < 300.0
          and rep.ece <= 0.10)
    _verdict("criterion 7 (desk-scale learning)", ok,
             f"test acc {rep.accuracy:.3f} after {epochs} epochs in "
             f"{runtime:.0f}s, ece {rep.ece:.4f}")


@pytest.mark.slow
def test_criterion_8_robustness_trend(desk_run):
    segments = desk_run["segments"]
    arrays, meta = load_checkpoint(desk_run["result"].state.checkpoint_path)
    net = QivcNet(config_from_dict(meta["network"]))
    net.load_state(arrays)
    test_idx = np.array(meta["test_indices"], dtype=np.int64)
    labels = segment_labels(segments)[test_idx]
    master = Rng(99)
    accs, aucs = [], []
    for snr in (25.0, 10.0, 5.0):
        noise_rng = master.fork()
        noisy = [inject_noise_snr(segments[i], snr, noise_rng) for i in test_idx]
        rep = evaluate_segments(net, noisy, labels)
        accs.append(rep.accuracy)
        aucs.append(rep.auc)
    ok = (accs[0] >= accs[1] >= accs[2]
          and aucs[1] <= aucs[0] + 0.02 and aucs[2] <= aucs[1] + 0.02)
    _verdict("criterion 8 (robustness trend)", ok,
             f"acc 25/10/5 dB = {accs[0]:.3f}/{accs[1]:.3f}/{accs[2]:.3f}, "
             f"auc = {aucs[0]:.3f}/{aucs[1]:.3f}/{aucs[2]:.3f}")


# ------------------------------------------------------ 9: reproducibility

def _cli(argv) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = main([str(a) for a in argv])
    assert rc == 0, buf.getvalue()


@pytest.mark.slow
def test_criterion_9_runs_are_byte_identical(tmp_path):
    manifest = write_wav_dataset(tmp_path / "data", 12, Rng(3), seconds=4.0)
    cache = tmp_path / "segments.qivc"
    _cli(["preprocess", "--manifest", manifest, "--cache", cache,
          "--outdir", tmp_path / "prep"])
    for name in ("a", "b"):
        _cli(["train", "--cache", cache, "--outdir", tmp_path / name,
              "--blocks", "2x3,3x3", "--classifier-width", "3",
              "--epochs", "2", "--patience", "2", "--batch", "8",
              "--folds", "3", "--seed", "9", "--k", "2", "--lr", "0.003"])
        _cli(["eval", "--cache", cache,
              "--checkpoint", tmp_path / name / "fold0" / "checkpoint.bin",
              "--outdir", tmp_path / f"eval_{name}"])
    compared = ["metrics.csv"]
    compared += [f"fold{i}/train_log.csv" for i in range(3)]
    compared += [f"fold{i}/checkpoint.bin" for i in range(3)]
    same = all((tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
               for rel in compared)
    same = same and ((tmp_path / "eval_a" / "eval_metrics.csv").read_bytes()
                     == (tmp_path / "eval_b" / "eval_metrics.csv").read_bytes())
    _verdict("criterion 9 (reproducibility)", same,
             f"{len(compared) + 1} artifacts byte-identical across two runs")
