"""Block and network behavior: probability outputs, reversal alignment,
determinism, checkpoint fidelity, end-to-end gradients."""

import hashlib

import numpy as np
import pytest

from helpers import fd_grad, graph_bytes, rel_err
from qivcnet import autodiff as ad
from qivcnet.autodiff import Tensor
from qivcnet.checkpoint import load_checkpoint, save_checkpoint
from qivcnet.dataio import load_segment_cache, save_segment_cache
from qivcnet.errors import ConfigError
from qivcnet.layers import named_arrays
from qivcnet.losses import LossWeights, composite_loss, one_hot
from qivcnet.network import (
    NetworkConfig,
    QivcNet,
    RfrBlock,
    config_from_dict,
    config_to_dict,
    export_latent,
    infer_probs,
    segments_to_batch,
)
from qivcnet.preprocess import SEGMENT_LENGTH, Segment
from qivcnet.qire import QireConfig
from qivcnet.rng import Rng
from qivcnet.variational import total_loss

MICRO = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3,
                      qire=QireConfig(k=2, p=0.05), seed=0)


def _segments(n, length=64):
    rng = Rng(100)
    segs = []
    for i in range(n):
        v = rng.normal((length,))
        v = v - v.mean()
        v = v / np.max(np.abs(v))
        segs.append(Segment(values=v, label="abnormal" if i % 2 else "normal",
                            recording_id=f"r{i}", window_index=0))
    return segs


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(blocks=())
    with pytest.raises(ConfigError):
        NetworkConfig(blocks=((32, 7), (16, 7)))  # filters must not shrink
    with pytest.raises(ConfigError):
        NetworkConfig(blocks=((0, 7),))
    with pytest.raises(ConfigError):
        NetworkConfig(blocks=((4, 0),))
    with pytest.raises(ConfigError):
        NetworkConfig(classifier_width=0)
    with pytest.raises(ConfigError):
        NetworkConfig(prior_var=0.0)
    with pytest.raises(ConfigError):
        NetworkConfig(kl_scale=-1.0)
    with pytest.raises(ConfigError):
        NetworkConfig(activation="swish")


def test_config_dict_round_trip():
    cfg = NetworkConfig(blocks=((4, 3), (6, 5)), classifier_width=8,
                        qire=QireConfig(k=3, p=0.1, rescale_sqrt_n=True),
                        prior_var=0.02, kl_scale=1e-4, bn_momentum=0.2, seed=9)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_from_dict_missing_key():
    d = config_to_dict(MICRO)
    del d["prior_var"]
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_config_from_dict_rejects_unexpected_keys():
    d = config_to_dict(MICRO)
    d["dropout"] = 0.5
    with pytest.raises(ConfigError, match="unexpected keys \\['dropout'\\]"):
        config_from_dict(d)
    d = config_to_dict(MICRO)
    d["qire"]["temperature"] = 1.0
    with pytest.raises(ConfigError, match="unexpected keys \\['temperature'\\]"):
        config_from_dict(d)


# ----------------------------------------------------------------- outputs

def test_output_rows_are_probabilities():
    net = QivcNet(MICRO)
    x = Tensor(Rng(1).normal((5, 32, 1)))
    probs = net.forward(x, training=False).data
    assert probs.shape == (5, 2)
    assert np.all(probs > 0.0)
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12


def test_training_forward_is_probabilistic_but_seeded():
    net = QivcNet(MICRO)
    x = Tensor(Rng(1).normal((3, 32, 1)))
    a = net.forward(x, training=True, rng=Rng(5)).data
    b = net.forward(x, training=True, rng=Rng(5)).data
    c = net.forward(x, training=True, rng=Rng(6)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_inference_deterministic_and_seed_reproducible():
    x = Tensor(Rng(1).normal((4, 32, 1)))
    p1 = QivcNet(MICRO).forward(x, training=False).data
    p2 = QivcNet(MICRO).forward(x, training=False).data
    assert np.array_equal(p1, p2)


def test_infer_probs_batch_size_invariant():
    net = QivcNet(MICRO)
    segs = _segments(7)
    a = infer_probs(net, segs, batch=7)
    b = infer_probs(net, segs, batch=3)
    assert a.shape == (7, 2)
    assert np.max(np.abs(a - b)) < 1e-12


def test_inference_keeps_no_backward_closures(monkeypatch):
    net = QivcNet(MICRO)
    with ad.no_grad():
        probs = net.forward(Tensor(Rng(1).normal((2, 32, 1))), training=False)
    assert probs._backward is None and probs._parents == ()
    closures = []
    make = ad._make

    def counting_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        closures.append(out._backward is not None)
        return out

    monkeypatch.setattr(ad, "_make", counting_make)
    segs = _segments(5)
    infer_probs(net, segs, batch=2)
    export_latent(net, segs, batch=2)
    assert closures and not any(closures)


def test_segments_to_batch_shape():
    segs = _segments(3, length=50)
    assert segments_to_batch(segs).shape == (3, 50, 1)


def test_segments_to_batch_widens_cached_rows_exactly(tmp_path):
    save_segment_cache(tmp_path / "c.qivc", _segments(3, length=SEGMENT_LENGTH))
    cached = load_segment_cache(tmp_path / "c.qivc")
    batch = segments_to_batch(cached)
    want = np.stack([s.values.astype(np.float64) for s in cached])[:, :, None]
    assert batch.dtype == np.float64
    assert batch.tobytes() == want.tobytes()


# ---------------------------------------------------------------- reversal

def test_backward_path_mirrors_forward_path_when_tied():
    cfg = NetworkConfig(blocks=((4, 7),), classifier_width=4, seed=2)
    blk = QivcNet(cfg).blocks[0]
    for src, dst in zip(blk.fwd_conv.parameters(), blk.bwd_conv.parameters()):
        dst.data = src.data.copy()
    x = Tensor(Rng(5).normal((2, 16, 1)))
    rx = Tensor(np.ascontiguousarray(x.data[:, ::-1, :]))
    _, f1, b1 = blk.path_features(x, training=False, rng=None)
    _, f2, b2 = blk.path_features(rx, training=False, rng=None)
    # with identical kernels, the backward path is exactly the forward path
    # run on the reversed signal, flipped back
    assert np.array_equal(b1.data, f2.data[:, ::-1, :])
    assert np.array_equal(b2.data, f1.data[:, ::-1, :])


def test_inference_folds_batch_norm_into_the_conv_paths(monkeypatch):
    # every statistic and affine term is moved off its fresh value (mean 0,
    # var 1, gamma 1, beta 0, bias 0), any of which would hide a wrong fold
    net = QivcNet(MICRO)
    rng = np.random.default_rng(86)
    for name, _, _, value in named_arrays(net):
        arr = value.data if isinstance(value, Tensor) else value
        if name.rsplit(".", 1)[1] in ("running_mean", "beta", "mu_b", "b"):
            arr[...] = rng.normal(size=arr.shape) * 0.5
        elif name.rsplit(".", 1)[1] in ("running_var", "gamma"):
            arr[...] = rng.uniform(0.3, 2.0, size=arr.shape)
    x = Tensor(Rng(9).normal((3, 32, 1)))
    wgt = Tensor(rng.normal(size=(3, 2)))
    runs = []
    for folded in (True, False):
        if not folded:    # reference: inference batch norm on each conv output
            monkeypatch.setattr(RfrBlock, "_folded_conv", lambda blk, bn, x, w, b:
                                blk._norm_act(bn, ad.conv1d(x, w, b), False))
        probs = net.forward(x, training=False)
        ad.backward(ad.tsum(probs * wgt))
        grads = {k: p.grad for k, p in net.named_parameters().items() if p.grad is not None}
        runs.append({"probs": probs.data, **grads})
        for p in net.parameters():
            p.grad = None
    folded, reference = runs
    assert folded.keys() == reference.keys() and "block0.bn_fwd.gamma" in folded
    for key, want in reference.items():
        assert np.max(np.abs(folded[key] - want)) <= 1e-12 * np.max(np.abs(want)), key


def test_paths_agree_on_constant_signal_with_tied_width_one_kernels():
    cfg = NetworkConfig(blocks=((3, 1),), classifier_width=4, seed=4)
    blk = QivcNet(cfg).blocks[0]
    for src, dst in zip(blk.fwd_conv.parameters(), blk.bwd_conv.parameters()):
        dst.data = src.data.copy()
    x = Tensor(np.full((2, 10, 1), 0.37))
    _, f, b = blk.path_features(x, training=False, rng=None)
    assert np.array_equal(f.data, b.data)


def test_untied_paths_differ():
    blk = QivcNet(MICRO).blocks[0]
    x = Tensor(Rng(5).normal((2, 16, 1)))
    _, f, b = blk.path_features(x, training=False, rng=None)
    assert not np.allclose(f.data, b.data)


# ---------------------------------------------------- train/infer agreement

def test_train_equals_infer_when_noise_vanishes():
    cfg = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3,
                        bn_momentum=1.0, seed=1)
    net = QivcNet(cfg)
    for blk in net.blocks:
        for conv in (blk.fwd_conv, blk.bwd_conv):
            conv.rho_w.data[:] = -40.0
            conv.rho_b.data[:] = -40.0
    x = Tensor(Rng(2).normal((6, 24, 1)))
    train_out = net.forward(x, training=True, rng=Rng(3)).data
    infer_out = net.forward(x, training=False).data
    # momentum 1.0 makes the running stats equal this batch's stats, and
    # sigma = softplus(-40) leaves no visible weight noise
    assert np.max(np.abs(train_out - infer_out)) < 1e-6


# -------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bitwise(tmp_path):
    net = QivcNet(MICRO)
    x = Tensor(Rng(7).normal((4, 32, 1)))
    net.forward(x, training=True, rng=Rng(8))  # move the bn running stats
    want = net.forward(x, training=False).data
    save_checkpoint(tmp_path / "ck.bin", net.state_arrays(),
                    {"network": config_to_dict(MICRO)})
    arrays, meta = load_checkpoint(tmp_path / "ck.bin")
    restored = QivcNet(config_from_dict(meta["network"]))
    restored.load_state(arrays)
    got = restored.forward(x, training=False).data
    assert np.array_equal(got, want)


def test_load_state_rejects_missing_arrays():
    small = QivcNet(NetworkConfig(blocks=((2, 3),), classifier_width=3, seed=0))
    big = QivcNet(MICRO)
    with pytest.raises(ConfigError):
        big.load_state(small.state_arrays())


def test_load_state_rejects_unexpected_arrays():
    small = QivcNet(NetworkConfig(blocks=((2, 3),), classifier_width=3, seed=0))
    big = QivcNet(MICRO)
    # 76 arrays offered, 40 used
    with pytest.raises(ConfigError, match=r"has 36 arrays .* \['block1\."):
        small.load_state(big.state_arrays())


def test_load_state_rejects_shape_mismatch():
    wide = QivcNet(NetworkConfig(blocks=((3, 3), (4, 3)), classifier_width=3, seed=0))
    net = QivcNet(MICRO)
    with pytest.raises(ConfigError):
        net.load_state(wide.state_arrays())


def test_untrained_default_checkpoint_bytes_are_pinned(tmp_path):
    # The checkpoint names, their order, shapes and values, and the rng draw
    # order at init, all show up in these bytes.
    cfg = NetworkConfig(seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, QivcNet(cfg).state_arrays(),
                    {"network": config_to_dict(cfg), "fold": 0})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "4bbb036ea05a7f47328df8333f0bd440e3505303d05c3efcaa3e9e3e096cae46"


def test_named_parameters_follow_checkpoint_names():
    net = QivcNet(MICRO)
    named = net.named_parameters()
    arrays = net.state_arrays()
    assert list(named.values()) == net.parameters()
    assert [k for k in arrays if k in named] == list(named)
    assert all(arrays[k] is p.data for k, p in named.items())
    # only the batch-norm running statistics are state without a gradient
    assert {k.rsplit(".", 1)[1] for k in set(arrays) - set(named)} == {
        "running_mean", "running_var"}


# ------------------------------------------------------------------ latent

def test_export_latent_rows():
    net = QivcNet(MICRO)
    segs = _segments(5)
    rows = export_latent(net, segs, batch=2)
    assert len(rows) == 5
    seg_id, label, z0, z1, z2 = rows[0]
    assert seg_id == "r0:0"
    assert label == "normal"
    assert all(isinstance(v, float) and np.isfinite(v) for v in (z0, z1, z2))
    # rows follow the segment order
    assert [r[0] for r in rows] == [f"r{i}:0" for i in range(5)]


def test_export_latent_needs_three_coordinates():
    net = QivcNet(NetworkConfig(blocks=((2, 3),), classifier_width=3, seed=0))
    with pytest.raises(ConfigError):
        export_latent(net, _segments(2))


# ------------------------------------------------------------------- sizes

def test_parameter_inventory_micro_block():
    cfg = NetworkConfig(blocks=((2, 3),), classifier_width=3, seed=0)
    net = QivcNet(cfg)
    # per block: two variational convs 2*(3*1*2 + 2), shortcut 1*1*2 + 2,
    # two lstms (4*8 + 2*8 + 8), five batch norms 2*2 each
    block = 2 * (2 * (6 + 2)) + (2 + 2) + 2 * (32 + 16 + 8) + 5 * 4
    dense = (2 * 3 + 3) + (3 * 2 + 2)
    total = sum(p.data.size for p in net.parameters())
    assert total == block + dense


def test_shapes_through_pooling():
    net = QivcNet(MICRO)
    x = Tensor(Rng(1).normal((2, 40, 1)))
    z = net.features(x, training=False)
    assert z.shape == (2, 3)
    nopool = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3,
                           pool_between=False, seed=0)
    z2 = QivcNet(nopool).features(x, training=False)
    assert z2.shape == (2, 3)


# ------------------------------------------------------------- graph memory

def test_training_graph_holds_only_what_backward_needs():
    # Pinned at the default network's training objective.  Each op keeps only
    # what its backward cannot cheaply rebuild, so a change that starts to
    # save a centred input, an im2col matrix, a joined LSTM input or a second
    # copy of the hidden states again fails here.
    cfg = NetworkConfig()
    net = QivcNet(cfg)
    x = Tensor(Rng(22).normal((4, 64, 1)))
    probs = net.forward(x, training=True, rng=Rng(23))
    task, _, _ = composite_loss(probs, one_hot(np.array([0, 1, 0, 1])), LossWeights())
    objective = total_loss(task, net.kl(), cfg.kl_scale)
    assert graph_bytes(objective) == 2_328_360


# ---------------------------------------------------------------- gradients

def test_network_gradients_match_finite_differences():
    cfg = MICRO
    net = QivcNet(cfg)
    x = Rng(20).normal((2, 12, 1))
    y = one_hot(np.array([0, 1]))

    def loss_value():
        probs = net.forward(Tensor(x), training=True, rng=Rng(17))
        task, _, _ = composite_loss(probs, y, LossWeights())
        return total_loss(task, net.kl(), cfg.kl_scale)

    loss = loss_value()
    ad.backward(loss)
    by_name = net.state_arrays()
    picks = ["block0.fwd_conv.mu_w", "block0.fwd_conv.rho_w", "block0.bwd_conv.rho_b",
             "block0.shortcut.w", "block0.fusion_lstm.wx", "block1.refine_lstm.wh",
             "block1.bn_fuse.gamma", "hidden.w", "head.b"]
    tensors = {id(p.data): p for p in net.parameters()}
    f = lambda: float(loss_value().data)
    for name in picks:
        arr = by_name[name]
        grad = tensors[id(arr)].grad
        assert grad is not None, name
        fd = fd_grad(f, arr)
        assert rel_err(grad, fd) < 1e-4, name
    # a conv bias mean shifts every timestep equally, and the following batch
    # norm subtracts it right back out: its data-path gradient vanishes (the
    # zero-mean init also kills its KL term)
    mu_b_grad = tensors[id(by_name["block0.bwd_conv.mu_b"])].grad
    assert np.max(np.abs(mu_b_grad)) < 1e-12


def test_relu_network_gradients_match_finite_differences(monkeypatch):
    # the default activation is relu, fused into batch norm inside the
    # blocks; the check holds only where no pre-activation sits near the kink
    smallest = []
    batch_norm, relu = ad.batch_norm, ad.relu

    def watched_batch_norm(x, gamma, beta, state, training, relu=False):
        if relu:
            probe = ad.BatchNormState(x.shape[-1])
            probe.running_mean, probe.running_var = state.running_mean, state.running_var
            pre = batch_norm(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                             probe, training)
            smallest.append(float(np.min(np.abs(pre.data))))
        return batch_norm(x, gamma, beta, state, training, relu=relu)

    def watched_relu(a):
        smallest.append(float(np.min(np.abs(a.data))))
        return relu(a)

    monkeypatch.setattr(ad, "batch_norm", watched_batch_norm)
    monkeypatch.setitem(ad.ACTIVATIONS, "relu", watched_relu)
    cfg = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3,
                        qire=QireConfig(k=2, p=0.05), seed=3)
    assert cfg.activation == "relu"
    net = QivcNet(cfg)
    x = Rng(21).normal((2, 12, 1))
    y = one_hot(np.array([0, 1]))

    def loss_value():
        probs = net.forward(Tensor(x), training=True, rng=Rng(18))
        task, _, _ = composite_loss(probs, y, LossWeights())
        return total_loss(task, net.kl(), cfg.kl_scale)

    loss = loss_value()
    assert len(smallest) == 11 and min(smallest) > 1e-3
    ad.backward(loss)
    tensors = {id(p.data): p for p in net.parameters()}
    f = lambda: float(loss_value().data)
    for name, arr in net.state_arrays().items():
        param = tensors.get(id(arr))
        if param is None:
            continue  # batch-norm running stats are state, not parameters
        assert rel_err(param.grad, fd_grad(f, arr), floor=1e-6) < 1e-4, name
