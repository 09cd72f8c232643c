"""Block and network behavior: probability outputs, reversal alignment,
determinism, checkpoint fidelity, end-to-end gradients."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import fd_grad, graph_bytes, rel_err
from qivcnet import autodiff as ad
from qivcnet import variational
from qivcnet.autodiff import Tensor
from qivcnet.checkpoint import load_checkpoint, save_checkpoint
from qivcnet.config import RunConfig
from qivcnet.dataio import load_segment_cache, save_segment_cache
from qivcnet.errors import ConfigError
from qivcnet.layers import BatchNorm, named_arrays
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

KL_SCALE = RunConfig().kl_scale
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
        NetworkConfig(activation="swish")


def test_config_dict_round_trip():
    cfg = NetworkConfig(blocks=((4, 3), (6, 5)), classifier_width=8,
                        qire=QireConfig(k=3, p=0.1),
                        prior_var=0.02, activation="tanh", seed=9)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_from_dict_takes_an_int_for_a_float_field():
    d = {**config_to_dict(MICRO), "prior_var": 1}
    assert config_from_dict(d) == NetworkConfig(**{**vars(MICRO), "prior_var": 1})


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
    # eval and robustness score several splits in one call, so their CSV
    # bytes rest on this holding bit for bit (batch 3 ends in a batch of 1)
    assert np.array_equal(a, b)


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


def test_inference_pass_peak_memory_is_bounded():
    # the default net on 16 segments of 1024 samples: (B, T, F) = (16, 1024, 16)
    # float64 is 2.1 MB.  Streaming each block over 128-step chunks peaks at
    # about 4.1 of these; whole-sequence stages that were dropped once read
    # peaked at 5.0, and keeping every stage output to the end of the block,
    # a separate ReLU output and a whole window matrix at 7.2.
    net = QivcNet(NetworkConfig())
    segs = _segments(16, length=1024)
    infer_probs(net, segs, batch=16)                  # warm-up
    tracemalloc.start()
    try:
        infer_probs(net, segs, batch=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * 1024 * 16 * 8, peak


@pytest.mark.parametrize("length, bound_mb", [(2000, 50), (8000, 160)])
def test_infer_probs_peak_memory_per_batch(length, bound_mb):
    # one 64-segment batch through the default net, in traced numpy memory:
    # streamed blocks peak at 42 and 135 MB, whole-sequence blocks at 78 and 302
    net = QivcNet(NetworkConfig())
    segs = _segments(64, length=length)
    infer_probs(net, segs[:2])                       # warm-up
    tracemalloc.start()
    try:
        infer_probs(net, segs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak


def _randomized_net(activation: str) -> QivcNet:
    """A small net whose batch norms hold random running statistics and
    affine parameters, so no stage is near identity."""
    net = QivcNet(NetworkConfig(blocks=((4, 5), (6, 3)), classifier_width=4,
                                activation=activation, seed=3))
    rng = np.random.default_rng(9)
    for _, owner, attr, value in named_arrays(net):
        if isinstance(owner, BatchNorm):
            arr = rng.uniform(0.3, 2.0, value.shape) if attr in ("gamma", "running_var") \
                else rng.normal(size=value.shape)
            if isinstance(value, Tensor):
                value.data = arr
            else:
                setattr(owner, attr, arr)
    return net


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("B", [1, 7])
@pytest.mark.parametrize("T", [7, 37, 128, 129, 300, 513, 2000])
def test_streamed_inference_is_the_recorded_graph_bit_for_bit(activation, B, T):
    # under no_grad each block runs over 128-step chunks (T = 513 leaves a
    # 1-step tail, merged into the chunk before; T = 7 and 37 are one chunk);
    # with a graph recorded it runs the whole sequence at once
    net = _randomized_net(activation)
    x = Tensor(np.random.default_rng(T + B).normal(size=(B, T, 1)))
    calls = [lambda: net.forward(x, False), lambda: net.forward(x, False, Rng(4)),
             lambda: net.features(x, False)]
    recorded = [call().data for call in calls]
    with ad.no_grad():
        streamed = [call().data for call in calls]
    for got, want in zip(streamed, recorded):
        assert np.array_equal(got, want)


def test_streamed_blocks_run_fixed_chunks_and_merge_a_short_tail(monkeypatch):
    # 513 steps through a width-5 kernel: chunks of 128, 128, 128 and 129;
    # then 256 pooled steps: 128 and 128
    steps = []
    lstm = ad.lstm

    def watched(x, *rest, **kwargs):
        steps.append((x[0] if isinstance(x, list) else x).shape[1])
        return lstm(x, *rest, **kwargs)
    monkeypatch.setattr(ad, "lstm", watched)
    net = _randomized_net("relu")
    with ad.no_grad():
        net.forward(Tensor(np.ones((2, 513, 1))), False)
    assert steps[::2] == steps[1::2] == [128, 128, 128, 129, 128, 128]


def test_relu_inference_clamps_block_stages_in_place(monkeypatch):
    # every block stage clamps its output in place inside its conv or
    # batch-norm node, so the only ReLU node left is the dense head's, on a
    # (B, width) input
    ranks = []
    relu = ad.relu

    def watched_relu(a):
        ranks.append(a.ndim)
        return relu(a)

    monkeypatch.setitem(ad.ACTIVATIONS, "relu", watched_relu)
    net = QivcNet(MICRO)
    assert net.cfg.activation == "relu"
    infer_probs(net, _segments(3), batch=3)
    assert ranks == [2]


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

def _conv_stage(bn: BatchNorm, x: Tensor, w: Tensor, training: bool) -> Tensor:
    """A block's conv stage: conv, batch norm and ReLU in one conv node."""
    return ad.conv1d(x, w, bn=bn, training=training, act="relu")


def _variational_stage(blk: RfrBlock, x: Tensor, training: bool) -> np.ndarray:
    """The block's merged variational conv stage on the posterior means."""
    w = ad.concat([blk.fwd_conv.kernel(), blk.bwd_conv.kernel()])
    return _conv_stage(blk.bn_conv, x, w, training).data


def _moved_off_fresh(bn: BatchNorm, rng) -> None:
    """Running statistics and affine terms away from mean 0, var 1, gamma 1,
    beta 0, any of which would hide a half that meets the wrong channels."""
    bn.running_mean[:] = rng.normal(size=bn.running_mean.shape) * 0.5
    bn.running_var[:] = rng.uniform(0.3, 2.0, size=bn.running_var.shape)
    bn.gamma.data[:] = rng.uniform(0.3, 2.0, size=bn.gamma.shape)
    bn.beta.data[:] = rng.normal(size=bn.beta.shape) * 0.5


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("width", [1, 3, 7])
def test_bwd_half_is_the_reversed_path_with_a_flipped_kernel(width, training):
    # A "same"-padded conv of the reversed signal, reversed back, is the
    # forward conv with its kernel flipped in time (odd widths); batch norm
    # and the activation act per channel and element, so they commute with
    # the reversal.
    F = 3
    blk = QivcNet(NetworkConfig(blocks=((F, width),), classifier_width=4, seed=6)).blocks[0]
    _moved_off_fresh(blk.bn_conv, np.random.default_rng(width))
    ref_bn = BatchNorm(F)     # the bwd channels' half of the merged batch norm
    ref_bn.load_state({k: v[F:].copy() for k, v in blk.bn_conv.state_arrays().items()})
    x = Tensor(Rng(5).normal((2, 16, 1)))
    got = _variational_stage(blk, x, training)[..., F:]
    flipped = Tensor(blk.bwd_conv.mu_w.data[::-1].copy())
    want = ad.reverse_time(_conv_stage(ref_bn, ad.reverse_time(x), flipped, training)).data
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("training", [True, False])
def test_tied_kernels_give_equal_halves_on_any_signal(training):
    cfg = NetworkConfig(blocks=((4, 7),), classifier_width=4, seed=2)
    blk = QivcNet(cfg).blocks[0]
    blk.bwd_conv.mu_w.data = blk.fwd_conv.mu_w.data.copy()
    fb = _variational_stage(blk, Tensor(Rng(5).normal((2, 16, 1))), training)
    assert np.array_equal(fb[..., :4], fb[..., 4:])


def test_untied_halves_differ():
    blk = QivcNet(MICRO).blocks[0]
    fb = _variational_stage(blk, Tensor(Rng(5).normal((2, 16, 1))), training=False)
    assert not np.allclose(fb[..., :2], fb[..., 2:])


@pytest.mark.parametrize("training", [True, False])
def test_block_runs_both_variational_kernels_as_one_stage(monkeypatch, training):
    # one conv and one batch norm for both variational kernels, whose output
    # is the fusion LSTM's single input; nothing is reversed in time.  Each
    # stage's ReLU runs inside its conv or batch-norm node, and each conv
    # stage's batch norm inside the conv node, in training and at inference.
    seen = []

    def spy(name, summary):
        op = getattr(ad, name)

        def watched(*args, **kwargs):
            seen.append((name, summary(*args, **kwargs)))
            return op(*args, **kwargs)
        monkeypatch.setattr(ad, name, watched)

    spy("conv1d", lambda x, w, *, bn=None, training=True, act="identity": (
        w.shape, bn.gamma.shape[0], training, act))
    spy("batch_norm", lambda x, gamma, beta, state, training, act="identity": (
        x.shape[-1], act))
    spy("lstm", lambda x, *rest: len(x) if isinstance(x, list) else 1)
    spy("reverse_time", lambda a: a.shape)
    blk = QivcNet(NetworkConfig(blocks=((4, 5),), classifier_width=4, seed=2)).blocks[0]
    blk.forward(Tensor(Rng(5).normal((2, 16, 1))), training, rng=Rng(3))
    stages = [("conv1d", ((1, 1, 4), 4, training, "relu")),
              ("conv1d", ((5, 1, 8), 8, training, "relu"))]
    assert seen == [*stages, ("lstm", 1), ("batch_norm", (4, "relu")), ("lstm", 2),
                    ("batch_norm", (4, "relu"))]


def _unfused_conv_stages(monkeypatch) -> None:
    """From now on every conv stage runs as two nodes: the conv, then its
    batch norm and activation."""
    conv1d = ad.conv1d
    monkeypatch.setattr(ad, "conv1d", lambda x, w, *, bn, training, act:
                        bn.forward(conv1d(x, w), training, act))


def test_inference_conv_stages_normalize_by_running_statistics(monkeypatch):
    # every statistic and affine term is moved off its fresh value (mean 0,
    # var 1, gamma 1, beta 0), any of which would hide a wrong normalization
    net = QivcNet(MICRO)
    rng = np.random.default_rng(86)
    for name, _, _, value in named_arrays(net):
        arr = value.data if isinstance(value, Tensor) else value
        if name.rsplit(".", 1)[1] in ("running_mean", "beta", "b"):
            arr[...] = rng.normal(size=arr.shape) * 0.5
        elif name.rsplit(".", 1)[1] in ("running_var", "gamma"):
            arr[...] = rng.uniform(0.3, 2.0, size=arr.shape)
    x = Tensor(Rng(9).normal((3, 32, 1)))
    wgt = Tensor(rng.normal(size=(3, 2)))
    runs = []
    for fused in (True, False):
        if not fused:     # reference: inference batch norm on each conv output
            _unfused_conv_stages(monkeypatch)
        probs = net.forward(x, training=False)
        ad.backward(ad.tsum(probs * wgt))
        grads = {k: p.grad for k, p in net.named_parameters().items() if p.grad is not None}
        runs.append({"probs": probs.data, **grads})
        for p in net.parameters():
            p.grad = None
    fused, reference = runs
    assert fused.keys() == reference.keys() and "block0.bn_conv.gamma" in fused
    for key, want in reference.items():
        assert np.array_equal(fused[key], want), key


# ---------------------------------------------------- train/infer agreement

def test_train_equals_infer_when_noise_vanishes():
    cfg = NetworkConfig(blocks=((2, 3), (3, 3)), classifier_width=3, seed=1)
    net = QivcNet(cfg)
    for blk in net.blocks:
        for conv in (blk.fwd_conv, blk.bwd_conv):
            conv.rho_w.data[:] = -40.0
        for bn in (blk.bn_conv, blk.bn_short, blk.bn_fuse, blk.bn_refine):
            bn.momentum = 1.0
    x = Tensor(Rng(2).normal((6, 24, 1)))
    train_out = net.forward(x, training=True, rng=Rng(3)).data
    infer_out = net.forward(x, training=False).data
    # momentum 1.0 makes the running stats equal this batch's stats, and
    # sigma = softplus(-40) leaves no visible weight noise
    assert np.max(np.abs(train_out - infer_out)) < 1e-6


def _counting_draws(monkeypatch) -> list:
    """Record every kernel draw the network makes from now on."""
    draws, real = [], variational.sample_weights
    monkeypatch.setattr(variational, "sample_weights",
                        lambda layer, rng: draws.append(layer) or real(layer, rng))
    return draws


def test_mean_kernels_on_batch_statistics_match_the_next_inference_forward(monkeypatch):
    # (training=True, no rng): nothing is sampled, and with momentum 1.0 the
    # running statistics become this batch's, so the inference forward that
    # follows reproduces the output bit for bit
    net = QivcNet(MICRO)
    for blk in net.blocks:
        for bn in (blk.bn_conv, blk.bn_short, blk.bn_fuse, blk.bn_refine):
            bn.momentum = 1.0
    draws = _counting_draws(monkeypatch)
    x = Tensor(Rng(2).normal((6, 24, 1)))
    batch_stats = net.forward(x, training=True).data
    running = net.forward(x, training=False).data
    assert draws == []
    assert np.array_equal(batch_stats, running)


def test_posterior_sample_is_scored_on_running_statistics(monkeypatch):
    # (training=False, rng): both kernels of every block are drawn once, the
    # running statistics stay put, and each sampled kernel's conv output is
    # normalized by them exactly as a separate batch-norm node would
    net = QivcNet(MICRO)
    for i, blk in enumerate(net.blocks):
        for bn in (blk.bn_conv, blk.bn_short, blk.bn_fuse, blk.bn_refine):
            _moved_off_fresh(bn, np.random.default_rng(i))
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    x = Tensor(Rng(9).normal((3, 32, 1)))
    means = net.forward(x, training=False).data
    draws = _counting_draws(monkeypatch)
    sample = net.forward(x, training=False, rng=Rng(4)).data
    assert len(draws) == 2 * len(net.blocks)
    assert not np.allclose(sample, means)
    assert all(np.array_equal(v, before[k]) for k, v in net.state_arrays().items())
    _unfused_conv_stages(monkeypatch)
    assert np.array_equal(sample, net.forward(x, training=False, rng=Rng(4)).data)


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
    # 58 arrays offered, 31 used
    with pytest.raises(ConfigError, match=r"lacks 0 arrays .* has 27 .* \['block1\."):
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
    assert digest == "4a72d075eacdd95f79f1aeb0b177b5e89847e9b5b4bea9fa9a93f4479ff25842"


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
    # per block: two bias-free variational convs 2*(2*3*1*2), shortcut 1*1*2,
    # two lstms (4*8 + 2*8 + 8), a 4-channel and three 2-channel batch norms
    block = 2 * (2 * 6) + 2 + 2 * (32 + 16 + 8) + 2 * 4 + 3 * (2 * 2)
    dense = (2 * 3 + 3) + (3 * 2 + 2)
    total = sum(p.data.size for p in net.parameters())
    assert total == block + dense


def test_shapes_through_pooling():
    net = QivcNet(MICRO)
    x = Tensor(Rng(1).normal((2, 40, 1)))
    z = net.features(x, training=False)
    assert z.shape == (2, 3)


# ------------------------------------------------------------- graph memory

def _default_objective(net: "QivcNet | None" = None) -> "tuple[QivcNet, Tensor]":
    """The default network (or ``net``) and its training objective on four segments."""
    net = net or QivcNet(NetworkConfig())
    x = Tensor(Rng(22).normal((4, 64, 1)))
    probs = net.forward(x, training=True, rng=Rng(23))
    task, _, _ = composite_loss(probs, one_hot(np.array([0, 1, 0, 1])), LossWeights())
    return net, total_loss(task, net.kl(), KL_SCALE)


def test_training_graph_holds_only_what_backward_needs():
    # Pinned at the default network's training objective.  Each op keeps only
    # what its backward cannot cheaply rebuild, so a change that starts to
    # save a centred input, an im2col matrix, a conv-stage conv output, the
    # LSTM cells, a joined LSTM input or a second copy of the hidden states
    # again fails here.
    assert graph_bytes(_default_objective()[1]) == 2_058_184


def test_backward_frees_each_node_once_applied(monkeypatch):
    # The walk drops each node once its closure has run, so when the graph's
    # first op (block 0's shortcut stage) runs its backward, little of the
    # graph the forward pass built is still alive.
    first, live = [], []
    make = ad._make

    def watched_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        if not first and out._backward is not None:
            first.append(out)
        return out

    monkeypatch.setattr(ad, "_make", watched_make)
    net = QivcNet(NetworkConfig())
    _default_objective(net)        # imports what the first step loads on demand
    tracemalloc.start()
    try:
        first.clear()
        _, objective = _default_objective(net)
        held = graph_bytes(objective)
        node = first.pop()
        inner = node._backward

        def probe(g):
            live.append(tracemalloc.get_traced_memory()[0])
            inner(g)
        node._backward = probe
        del node
        ad.backward(objective)
    finally:
        tracemalloc.stop()
    assert len(live) == 1 and live[0] < held / 2, (live, held)


# ---------------------------------------------------------------- gradients

def test_shipped_network_has_no_dead_parameter():
    # A parameter whose gradient is rounding noise (a conv bias that a batch
    # norm cancels, say) is one Adam would scale up into lr-sized steps.
    net, objective = _default_objective()
    ad.backward(objective)
    largest = {name: float(np.max(np.abs(p.grad))) for name, p in net.named_parameters().items()}
    assert {name: g for name, g in largest.items() if not g > 1e-8} == {}


def test_network_gradients_match_finite_differences():
    cfg = MICRO
    net = QivcNet(cfg)
    x = Rng(20).normal((2, 12, 1))
    y = one_hot(np.array([0, 1]))

    def loss_value():
        probs = net.forward(Tensor(x), training=True, rng=Rng(17))
        task, _, _ = composite_loss(probs, y, LossWeights())
        return total_loss(task, net.kl(), KL_SCALE)

    loss = loss_value()
    ad.backward(loss)
    by_name = net.state_arrays()
    picks = ["block0.fwd_conv.mu_w", "block0.fwd_conv.rho_w", "block1.bwd_conv.rho_w",
             "block0.shortcut", "block0.fusion_lstm.wx", "block1.refine_lstm.wh",
             "block1.bn_fuse.gamma", "hidden.w", "head.b"]
    tensors = {id(p.data): p for p in net.parameters()}
    f = lambda: float(loss_value().data)
    for name in picks:
        arr = by_name[name]
        grad = tensors[id(arr)].grad
        assert grad is not None, name
        fd = fd_grad(f, arr)
        assert rel_err(grad, fd) < 1e-4, name


def test_relu_network_gradients_match_finite_differences(monkeypatch):
    # the default activation is relu, fused into batch norm inside the
    # blocks (into the conv node too, in the conv stages); the check holds
    # only where no pre-activation sits near the kink
    smallest = []
    conv1d, batch_norm, relu = ad.conv1d, ad.batch_norm, ad.relu

    def pre_activation(x, gamma, beta, state, training):
        probe = BatchNorm(x.shape[-1])
        probe.running_mean, probe.running_var = state.running_mean, state.running_var
        pre = batch_norm(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data), probe, training)
        smallest.append(float(np.min(np.abs(pre.data))))

    def watched_conv1d(x, w, *, bn=None, training=True, act="identity"):
        if act == "relu":
            pre_activation(conv1d(Tensor(x.data), Tensor(w.data)), bn.gamma, bn.beta, bn,
                           training)
        return conv1d(x, w, bn=bn, training=training, act=act)

    def watched_batch_norm(x, gamma, beta, state, training, act="identity"):
        if act == "relu":
            pre_activation(x, gamma, beta, state, training)
        return batch_norm(x, gamma, beta, state, training, act)

    def watched_relu(a):
        smallest.append(float(np.min(np.abs(a.data))))
        return relu(a)

    monkeypatch.setattr(ad, "conv1d", watched_conv1d)
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
        return total_loss(task, net.kl(), KL_SCALE)

    loss = loss_value()
    assert len(smallest) == 9 and min(smallest) > 1e-3
    ad.backward(loss)
    tensors = {id(p.data): p for p in net.parameters()}
    f = lambda: float(loss_value().data)
    for name, arr in net.state_arrays().items():
        param = tensors.get(id(arr))
        if param is None:
            continue  # batch-norm running stats are state, not parameters
        assert rel_err(param.grad, fd_grad(f, arr), floor=1e-6) < 1e-4, name
