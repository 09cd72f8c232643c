"""Gradient engine: every op against central differences and value oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from helpers import fd_grad, gradcheck, graph_bytes, rel_err
from qivcnet import autodiff as ad
from qivcnet.autodiff import Tensor
from qivcnet.errors import GraphError, ShapeError
from qivcnet.layers import BatchNorm

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------- elementwise

def test_add_mul_sub_div_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4)) + 3.0  # keep divisor away from zero
    gradcheck(lambda ts: ad.tsum(ts[0] * ts[1] + ts[0] - ts[0] / ts[1]), [a, b])


def test_broadcast_grads_sum_over_missing_axes():
    a = RNG.normal(size=(2, 5, 3))
    b = RNG.normal(size=(3,))
    gradcheck(lambda ts: ad.tsum(ts[0] * ts[1] + ts[1]), [a, b])


def test_scalar_broadcast():
    a = RNG.normal(size=(4, 2))
    s = np.array(1.7)
    gradcheck(lambda ts: ad.tsum(ts[0] * ts[1]), [a, s])


def test_activation_grads():
    x = RNG.normal(size=(3, 5)) * 2.0
    x[np.abs(x) < 0.2] += 0.5  # keep relu kink away from fd evaluation points
    gradcheck(lambda ts: ad.tsum(ad.relu(ts[0])), [x.copy()])
    gradcheck(lambda ts: ad.tsum(ad.tanh(ts[0])), [x.copy()])
    gradcheck(lambda ts: ad.tsum(ad.sigmoid(ts[0])), [x.copy()])
    gradcheck(lambda ts: ad.tsum(ad.exp(ts[0] * 0.3)), [x.copy()])
    gradcheck(lambda ts: ad.tsum(ad.softplus(ts[0])), [x.copy()])


def test_sigmoid_matches_expit_in_both_tails():
    # sigmoid's forward and softplus's backward both compute 1 / (1 + e^-x);
    # the tails matter because KL gradients flow through small softplus slopes
    x = np.concatenate([np.linspace(-700.0, 700.0, 2801),
                        np.random.default_rng(7).normal(size=500) * 10.0])
    want = expit(x)
    xt = Tensor(x.copy(), requires_grad=True)
    ad.backward(ad.tsum(ad.softplus(xt)))
    for got in (ad.sigmoid(Tensor(x)).data, xt.grad):
        assert np.max(np.abs(got - want) / want) <= 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = Tensor(np.array([-800.0, 800.0]), requires_grad=True)
        ad.backward(ad.tsum(ad.softplus(edge)))
        assert ad.sigmoid(Tensor(edge.data)).data.tolist() == [0.0, 1.0]
        assert edge.grad.tolist() == [0.0, 1.0]


def test_relu_grads_of_a_sum_do_not_alias():
    # add hands one gradient array to both parents; neither relu may mask it
    # in place for the other
    x1 = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
    x2 = Tensor(np.array([-1.0, 1.0, 3.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.relu(x1) + ad.relu(x2)))
    assert x1.grad.tolist() == [1.0, 0.0, 1.0]
    assert x2.grad.tolist() == [0.0, 1.0, 1.0]


def test_log_grad_and_eps_guard():
    x = np.abs(RNG.normal(size=(4, 3))) + 0.5
    gradcheck(lambda ts: ad.tsum(ad.log(ts[0])), [x])
    v = ad.log(Tensor(np.zeros(3)), eps=1e-8)
    assert np.allclose(v.data, np.log(1e-8))


def test_softplus_at_zero_is_ln_two():
    v = ad.softplus(Tensor(np.zeros(1)))
    assert v.data[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_softplus_stable_for_large_inputs():
    v = ad.softplus(Tensor(np.array([800.0, -800.0])))
    assert v.data[0] == pytest.approx(800.0)
    assert v.data[1] == pytest.approx(0.0, abs=1e-15)


def test_identity_passthrough():
    x = RNG.normal(size=(2, 3))
    y = ad.identity(Tensor(x, requires_grad=True))
    assert np.array_equal(y.data, x)
    gradcheck(lambda ts: ad.tsum(ad.identity(ts[0]) * ts[0]), [x])


# --------------------------------------------------------------- reductions

def test_tsum_tmean_grads():
    x = RNG.normal(size=(3, 4))
    gradcheck(lambda ts: ad.tsum(ts[0] * ts[0]), [x])
    gradcheck(lambda ts: ad.tmean(ts[0] * ts[0]), [x])


def test_fanout_accumulates():
    w = Tensor(np.array(3.0), requires_grad=True)
    y = w + w
    ad.backward(y)
    assert float(w.grad) == 2.0


def test_constant_gets_no_grad():
    c = Tensor(np.ones(3))
    v = Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.tsum(c * v))
    assert c.grad is None
    assert np.allclose(v.grad, 1.0)


# ------------------------------------------------------------- shape/layout

def test_reshape_concat_take_reverse_grads():
    a = RNG.normal(size=(2, 4, 2))
    b = RNG.normal(size=(2, 4, 3))

    def build(ts):
        c = ad.concat([ts[0], ts[1]], axis=-1)
        r = ad.reverse_time(c)
        col = ad.take_channel(r, 2)
        return ad.tsum(ad.reshape(col, (8,)) * ad.reshape(col, (8,)))

    gradcheck(build, [a, b])


def test_reverse_time_is_involution():
    x = Tensor(RNG.normal(size=(2, 5, 3)))
    assert np.array_equal(ad.reverse_time(ad.reverse_time(x)).data, x.data)


def test_concat_values():
    a = Tensor(np.ones((1, 2, 2)))
    b = Tensor(np.zeros((1, 2, 1)))
    c = ad.concat([a, b], axis=-1)
    assert c.shape == (1, 2, 3)
    assert np.array_equal(c.data[0, :, 2], np.zeros(2))


def test_matmul_grads_and_shape_guard():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3, 5))
    gradcheck(lambda ts: ad.tsum(ad.matmul(ts[0], ts[1])), [a, b])
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


# -------------------------------------------------------------- convolution

def _ref_conv(x, w, b):
    B, T, Cin = x.shape
    K, _, Cout = w.shape
    pl = K // 2
    out = np.zeros((B, T, Cout))
    for bi in range(B):
        for t in range(T):
            for k in range(K):
                src = t + k - pl
                if 0 <= src < T:
                    out[bi, t] += x[bi, src] @ w[k]
    return out if b is None else out + b


@pytest.mark.parametrize("width,c_in", [(1, 1), (3, 1), (7, 1), (3, 2), (5, 3), (4, 1)])
def test_conv1d_matches_brute_force(width, c_in):
    x = RNG.normal(size=(3, 11, c_in))
    w = RNG.normal(size=(width, c_in, 5))
    b = RNG.normal(size=5)
    got = ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
    want = _ref_conv(x, w, b)
    assert got.shape == (3, 11, 5)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("width,c_in", [(1, 1), (7, 1), (1, 3), (7, 3)])
def test_conv1d_forward_chunks_give_the_one_chunk_bits(monkeypatch, width, c_in):
    x = Tensor(RNG.normal(size=(7, 13, c_in)))
    w = Tensor(RNG.normal(size=(width, c_in, 4)))
    b = Tensor(RNG.normal(size=4))
    whole = ad.conv1d(x, w, b).data                  # the default chunk holds all 7 rows
    # chunks of 3, 3 and a partial 1 sequences
    monkeypatch.setattr(ad, "_CONV_CHUNK", 3 * 13 * width * c_in + 1)
    chunked = ad.conv1d(x, w, b).data
    assert np.array_equal(chunked, whole)
    assert np.max(np.abs(chunked - _ref_conv(x.data, w.data, b.data))) < 1e-12


@pytest.mark.parametrize("width", [1, 3, 5, 7])
def test_conv1d_same_padding_preserves_length(width):
    x = Tensor(RNG.normal(size=(1, 20, 1)))
    w = Tensor(RNG.normal(size=(width, 1, 1)))
    assert ad.conv1d(x, w).shape == (1, 20, 1)


def test_conv1d_known_examples():
    # K=1 kernel of 2.0 doubles the signal
    x = np.arange(6.0).reshape(1, 6, 1)
    w = np.full((1, 1, 1), 2.0)
    assert np.array_equal(ad.conv1d(Tensor(x), Tensor(w)).data, 2.0 * x)
    # zero kernel plus bias 7 gives constant 7
    wz = np.zeros((3, 1, 1))
    b7 = np.array([7.0])
    out = ad.conv1d(Tensor(x), Tensor(wz), Tensor(b7)).data
    assert np.allclose(out, 7.0)
    # width-2 moving pair sums of [1,2] with kernel [1,1]: pad left 1
    x2 = np.array([1.0, 2.0]).reshape(1, 2, 1)
    w2 = np.ones((2, 1, 1))
    out2 = ad.conv1d(Tensor(x2), Tensor(w2)).data.ravel()
    assert np.array_equal(out2, np.array([1.0, 3.0]))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_conv1d_grads(width):
    # 1 is the shortcut's width; an even width pads one step more on the left than the right
    x = RNG.normal(size=(2, 8, 3))
    w = RNG.normal(size=(width, 3, 4))
    b = RNG.normal(size=4)
    gradcheck(lambda ts: ad.tsum(ad.tanh(ad.conv1d(ts[0], ts[1], ts[2]))), [x, w, b])


def test_conv1d_shape_errors():
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 1, 1))))
    with pytest.raises(ShapeError):      # a bias in front of a batch norm is never learned
        ad.conv1d(Tensor(np.ones((2, 4, 1))), Tensor(np.ones((3, 1, 1))), Tensor(np.ones(1)),
                  bn=BatchNorm(1))
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.ones((2, 4, 2))), Tensor(np.ones((3, 3, 1))))
    with pytest.raises(ShapeError):
        ad.conv1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones((3, 1, 1))))


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "tanh"])
@pytest.mark.parametrize("width", [1, 5, 7])
def test_conv_with_batch_norm_is_conv_then_batch_norm_bit_for_bit(monkeypatch, relu, width):
    # The training conv stage is one node that normalizes its conv output in
    # place and recomputes it in backward; it must give the bits of the two
    # nodes it replaces (output, running statistics and every gradient) and
    # keep exactly the conv output less.  A small chunk makes forward and
    # the backward recompute run one sequence per GEMM.
    monkeypatch.setattr(ad, "_CONV_CHUNK", 40 * width * 2)
    rng = np.random.default_rng(87)
    x, w = rng.normal(size=(3, 40, 2)), rng.normal(size=(width, 2, 4))
    wgt = rng.normal(size=(3, 40, 4))
    gamma, beta = rng.uniform(0.5, 2.0, 4), rng.normal(size=4)
    runs, held = [], []
    for fused in (True, False):
        bn = BatchNorm(4)
        bn.gamma.data, bn.beta.data = gamma.copy(), beta.copy()
        bn.running_mean, bn.running_var = np.full(4, 0.3), np.full(4, 2.0)
        xt, wt = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        if fused:
            out = ad.conv1d(xt, wt, bn=bn, relu=relu)
        else:
            conv = ad.conv1d(xt, wt)
            out = ad.batch_norm(conv, bn.gamma, bn.beta, bn, True, relu=relu)
        held.append(graph_bytes(out))
        out = out if relu else ad.tanh(out)
        ad.backward(ad.tsum(out * Tensor(wgt)))
        runs.append([out.data, bn.running_mean, bn.running_var,
                     xt.grad, wt.grad, bn.gamma.grad, bn.beta.grad])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)
    assert held[0] == held[1] - conv.data.nbytes


# ------------------------------------------------------------------ pooling

def test_max_pool_values_and_grads():
    x = np.array([[[1.0], [5.0], [3.0], [2.0], [9.0]]])  # T=5, width 2 drops tail
    out = ad.max_pool(Tensor(x))
    assert out.data.ravel().tolist() == [5.0, 3.0]
    xr = RNG.normal(size=(2, 6, 3))
    xr += np.linspace(0, 1, 6)[None, :, None]  # break ties
    gradcheck(lambda ts: ad.tsum(ad.max_pool(ts[0]) * ad.max_pool(ts[0])), [xr])


def test_global_max_pool_example_and_grads():
    x = np.array([[[1.0, 5.0], [3.0, 2.0]]])
    out = ad.global_max_pool(Tensor(x))
    assert out.data.ravel().tolist() == [3.0, 5.0]
    xr = RNG.normal(size=(3, 7, 2))
    gradcheck(lambda ts: ad.tsum(ad.global_max_pool(ts[0] * ts[0])), [xr])


def _max_pool_oracle(x, g):
    """Width-2 max pool by argmax: first maximum wins, a NaN beats any number."""
    B, T, C = x.shape
    xr = x[:, : T // 2 * 2].reshape(B, T // 2, 2, C)
    idx = xr.argmax(axis=2)[:, :, None]
    dx = np.zeros_like(x)
    np.put_along_axis(dx[:, : T // 2 * 2].reshape(xr.shape), idx, g[:, :, None], axis=2)
    return np.take_along_axis(xr, idx, axis=2)[:, :, 0], dx


@pytest.mark.parametrize("tail", [0, 1])
def test_max_pool_matches_argmax_oracle_bit_for_bit(tail):
    # every ordered pair of special values fills one window: ties, -0.0
    # beside 0.0, NaN in either slot and +-inf, then a trailing odd step
    special = [0.0, -0.0, 1.5, -1.5, np.nan, np.inf, -np.inf]
    pairs = np.array([(a, b) for a in special for b in special]).ravel()
    x = np.stack([pairs, pairs[::-1], RNG.normal(size=pairs.size)], axis=-1)[None]
    x = np.concatenate([x, RNG.normal(size=(1, tail, 3))], axis=1)
    x = np.concatenate([x, -x], axis=0)
    t = Tensor(x, requires_grad=True)
    out = ad.max_pool(t)
    g = RNG.normal(size=out.shape)
    out._backward(g)
    want_out, want_dx = _max_pool_oracle(x, g)
    assert out.data.tobytes() == want_out.tobytes()
    assert t.grad.tobytes() == want_dx.tobytes()


def test_max_pool_routes_grad_to_argmax_only():
    x = Tensor(np.array([[[1.0], [4.0], [2.0], [3.0]]]), requires_grad=True)
    ad.backward(ad.tsum(ad.max_pool(x)))
    assert x.grad.ravel().tolist() == [0.0, 1.0, 0.0, 1.0]


# ------------------------------------------------------------------ softmax

def test_softmax_uniform_and_shift_invariance():
    s = ad.softmax(Tensor(np.zeros((1, 2))))
    assert np.allclose(s.data, 0.5)
    x = RNG.normal(size=(3, 4))
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 100.0)).data
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.allclose(a.sum(axis=-1), 1.0)


def test_softmax_grads():
    x = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(3, 4))
    gradcheck(lambda ts: ad.tsum(ad.softmax(ts[0]) * Tensor(w)), [x])


# --------------------------------------------------------------- batch norm

def test_batch_norm_train_normalizes():
    x = RNG.normal(size=(4, 50, 3)) * 5.0 + 2.0
    st = BatchNorm(3)
    out = ad.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), st, training=True)
    assert np.max(np.abs(out.data.mean(axis=(0, 1)))) < 1e-12
    assert np.max(np.abs(out.data.std(axis=(0, 1)) - 1.0)) < 1e-3


def test_batch_norm_running_stats_update():
    x = RNG.normal(size=(2, 20, 2)) + 4.0
    st = BatchNorm(2)
    st.momentum = 1.0
    ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), st, training=True)
    assert np.allclose(st.running_mean, x.mean(axis=(0, 1)))
    assert np.allclose(st.running_var, x.var(axis=(0, 1)))


def test_batch_norm_inference_deterministic_and_repeatable():
    x = RNG.normal(size=(3, 10, 2))
    st = BatchNorm(2)
    g, b = Tensor(np.full(2, 1.5)), Tensor(np.full(2, -0.3))
    ad.batch_norm(Tensor(x), g, b, st, training=True)
    o1 = ad.batch_norm(Tensor(x), g, b, st, training=False).data
    o2 = ad.batch_norm(Tensor(x), g, b, st, training=False).data
    assert np.array_equal(o1, o2)


def test_batch_norm_grads_train_and_eval():
    x = RNG.normal(size=(3, 7, 2))
    gamma = RNG.normal(size=2) + 1.5
    beta = RNG.normal(size=2)

    def train_build(ts):
        st = BatchNorm(2)
        return ad.tsum(ad.sigmoid(ad.batch_norm(ts[0], ts[1], ts[2], st, training=True)))

    def eval_build(ts):
        st = BatchNorm(2)
        st.running_mean = np.array([0.4, -0.2])
        st.running_var = np.array([1.3, 0.7])
        return ad.tsum(ad.sigmoid(ad.batch_norm(ts[0], ts[1], ts[2], st, training=False)))

    gradcheck(train_build, [x, gamma, beta])
    gradcheck(eval_build, [x, gamma, beta])


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_relu_grads(training):
    rng = np.random.default_rng(77)
    x = rng.normal(size=(3, 7, 2))
    gamma = np.array([1.4, -0.9])
    beta = np.array([0.3, -0.2])

    def state():
        st = BatchNorm(2)
        if not training:
            st.running_mean = np.array([0.4, -0.2])
            st.running_var = np.array([1.3, 0.7])
        else:  # inference with the batch's own statistics equals training
            st.running_mean = x.mean(axis=(0, 1))
            st.running_var = x.var(axis=(0, 1))
        return st

    pre = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state(),
                        training=False).data
    assert np.min(np.abs(pre)) > 1e-3   # no kink within reach of the fd step
    assert 0 < np.count_nonzero(pre > 0) < pre.size

    def build(ts):
        st = BatchNorm(2) if training else state()
        out = ad.batch_norm(ts[0], ts[1], ts[2], st, training=training, relu=True)
        return ad.tsum(ad.sigmoid(out))

    fused = ad.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state(),
                          training=training, relu=True).data
    assert np.allclose(fused, np.maximum(pre, 0.0), rtol=0.0, atol=1e-12)
    gradcheck(build, [x.copy(), gamma.copy(), beta.copy()])


def test_batch_norm_validates():
    with pytest.raises(ShapeError):
        ad.batch_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(3)),
                      Tensor(np.zeros(3)), BatchNorm(3), training=True)


# --------------------------------------------------------------------- lstm

def _ref_lstm(x, wx, wh, b):
    B, T, _ = x.shape
    H = wh.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.zeros((B, T, H))
    for t in range(T):
        z = x[:, t, :] @ wx + h @ wh + b
        i = expit(z[:, :H])
        f = expit(z[:, H: 2 * H])
        o = expit(z[:, 2 * H: 3 * H])
        g = np.tanh(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t, :] = h
    return out


def test_lstm_matches_reference():
    x = RNG.normal(size=(3, 6, 2))
    wx = RNG.normal(size=(2, 16))
    wh = RNG.normal(size=(4, 16))
    b = RNG.normal(size=16)
    got = ad.lstm(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b)).data
    assert np.max(np.abs(got - _ref_lstm(x, wx, wh, b))) < 1e-14


def test_lstm_grads():
    x = RNG.normal(size=(2, 5, 3))
    wx = RNG.normal(size=(3, 8))
    wh = RNG.normal(size=(2, 8))
    b = RNG.normal(size=8)
    wgt = RNG.normal(size=(2, 5, 2))
    gradcheck(lambda ts: ad.tsum(ad.lstm(ts[0], ts[1], ts[2], ts[3]) * Tensor(wgt)),
              [x, wx, wh, b])


def test_lstm_grads_across_backward_chunks():
    # longer than one backward chunk, so state crosses chunk boundaries
    rng = np.random.default_rng(78)
    T = 2 * ad._LSTM_CHUNK + 3
    x = rng.normal(size=(2, T, 2))
    wx = rng.normal(size=(2, 8)) * 0.5
    wh = rng.normal(size=(2, 8)) * 0.5
    b = rng.normal(size=8)
    wgt = rng.normal(size=(2, T, 2))
    gradcheck(lambda ts: ad.tsum(ad.lstm(ts[0], ts[1], ts[2], ts[3]) * Tensor(wgt)),
              [x, wx, wh, b])


@pytest.mark.parametrize("T", [ad._LSTM_CHUNK - 1, ad._LSTM_CHUNK, ad._LSTM_CHUNK + 1,
                               2 * ad._LSTM_CHUNK + 3])
def test_lstm_grads_around_chunk_lengths(T):
    # backward recomputes each chunk's cells from the cell state kept before
    # it; the chunks count down from T, so T decides where those states sit
    rng = np.random.default_rng(88)
    x = rng.normal(size=(2, T, 2))
    wx, wh = rng.normal(size=(2, 12)) * 0.5, rng.normal(size=(3, 12)) * 0.5
    b, wgt = rng.normal(size=12), rng.normal(size=(2, T, 3))
    gradcheck(lambda ts: ad.tsum(ad.lstm(ts[0], ts[1], ts[2], ts[3]) * Tensor(wgt)),
              [x, wx, wh, b])


@pytest.mark.parametrize("T", [ad._LSTM_CHUNK, 2 * ad._LSTM_CHUNK + 3, 1000])
def test_training_lstm_keeps_gates_output_and_one_cell_state_per_chunk(T):
    B, I, H = 2, 3, 4
    rng = np.random.default_rng(89)
    ts = [Tensor(rng.normal(size=s), requires_grad=True)
          for s in ((B, T, I), (I, 4 * H), (H, 4 * H), (4 * H,))]
    out = ad.lstm(*ts)
    chunks = -(-T // ad._LSTM_CHUNK)
    assert graph_bytes(out) - sum(t.data.nbytes for t in ts) == 8 * (
        T * B * 4 * H + B * T * H + chunks * B * H)


def test_lstm_grads_single_step():
    x = RNG.normal(size=(3, 1, 2))
    wx = RNG.normal(size=(2, 12))
    wh = RNG.normal(size=(3, 12))
    b = RNG.normal(size=12)
    gradcheck(lambda ts: ad.tsum(ad.lstm(ts[0], ts[1], ts[2], ts[3])), [x, wx, wh, b])


def test_lstm_shape_errors():
    with pytest.raises(ShapeError):
        ad.lstm(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 8))),
                Tensor(np.ones((2, 8))), Tensor(np.ones(8)))
    with pytest.raises(ShapeError):
        ad.lstm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 8))),
                Tensor(np.ones((2, 8))), Tensor(np.ones(8)))


@pytest.mark.filterwarnings("error")
def test_lstm_saturated_gates_are_exact_and_warn_nothing():
    # pre-activations near +-800 are far past exp's overflow point
    rng = np.random.default_rng(84)
    x = np.sign(rng.normal(size=(3, 2 * ad._LSTM_CHUNK + 3, 2)))
    wx = np.sign(rng.normal(size=(2, 12))) * 400.0
    wh = rng.normal(size=(3, 12)) * 0.5
    b = rng.normal(size=12)
    ts = [Tensor(a, requires_grad=True) for a in (x, wx, wh, b)]
    out = ad.lstm(*ts)
    assert np.max(np.abs(out.data)) > 0.5
    assert np.max(np.abs(out.data - _ref_lstm(x, wx, wh, b))) < 1e-14
    ad.backward(ad.tsum(out * Tensor(rng.normal(size=out.shape))))
    assert all(np.all(np.isfinite(t.grad)) for t in ts)


def test_lstm_keeps_no_gate_history_under_no_grad():
    B, T, H = 8, 512, 16
    rng = np.random.default_rng(85)
    parts = [Tensor(rng.normal(size=(B, T, 16))) for _ in range(2)]
    ws = [Tensor(rng.normal(size=s) * 0.3, requires_grad=True)
          for s in ((32, 4 * H), (H, 4 * H), (4 * H,))]
    with ad.no_grad():
        ad.lstm(parts, *ws)                          # warm-up
        tracemalloc.start()
        try:
            out = ad.lstm(parts, *ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (B, T, H) and out.data.flags.c_contiguous
    assert peak < T * B * 4 * H * 8, peak         # one (T, B, 4H) float64 gate array


def _lstm_parts(rng, widths, B=2, T=2 * ad._LSTM_CHUNK + 3, H=3):
    parts = [rng.normal(size=(B, T, w)) for w in widths]
    wx = rng.normal(size=(sum(widths), 4 * H)) * 0.5
    wh = rng.normal(size=(H, 4 * H)) * 0.5
    b = rng.normal(size=4 * H)
    return parts, wx, wh, b


def test_lstm_list_input_grads():
    rng = np.random.default_rng(80)
    parts, wx, wh, b = _lstm_parts(rng, (2, 3), T=ad._LSTM_CHUNK + 2, H=2)
    wgt = rng.normal(size=(2, ad._LSTM_CHUNK + 2, 2))
    gradcheck(lambda ts: ad.tsum(ad.lstm(ts[:2], *ts[2:]) * Tensor(wgt)),
              parts + [wx, wh, b])


def test_lstm_list_input_matches_concatenated_input():
    rng = np.random.default_rng(81)
    parts, wx, wh, b = _lstm_parts(rng, (2, 3))
    parts[1] = parts[1][:, ::-1, :]       # a time-reversed view, as the network passes
    g = rng.normal(size=(2, parts[0].shape[1], 3))
    runs = []
    for joined in (False, True):
        xs = [Tensor(p, requires_grad=True) for p in parts]
        ws = [Tensor(a, requires_grad=True) for a in (wx, wh, b)]
        x = ad.concat(xs, axis=-1) if joined else xs
        out = ad.lstm(x, *ws)
        ad.backward(ad.tsum(out * Tensor(g)))
        runs.append([out.data] + [t.grad for t in xs + ws])
    for got, want in zip(*runs):
        assert np.max(np.abs(got - want)) < 1e-12
    wx_grad = runs[0][3]
    assert np.max(np.abs(wx_grad[:2] - runs[1][3][:2])) < 1e-12   # row block of part 0
    assert np.max(np.abs(wx_grad[2:] - runs[1][3][2:])) < 1e-12   # row block of part 1


def test_lstm_list_input_shape_errors():
    w = [Tensor(np.ones((5, 8))), Tensor(np.ones((2, 8))), Tensor(np.ones(8))]
    with pytest.raises(ShapeError):      # batch differs
        ad.lstm([Tensor(np.ones((2, 4, 2))), Tensor(np.ones((3, 4, 3)))], *w)
    with pytest.raises(ShapeError):      # time differs
        ad.lstm([Tensor(np.ones((2, 4, 2))), Tensor(np.ones((2, 5, 3)))], *w)
    with pytest.raises(ShapeError):      # features do not add up to wx's rows
        ad.lstm([Tensor(np.ones((2, 4, 2))), Tensor(np.ones((2, 4, 2)))], *w)


# ------------------------------------------------------ saved for backward

def _captured_input_cases():
    """(name, parent arrays, op on parent tensors, batch-norm state or None)."""
    rng = np.random.default_rng(82)
    a = lambda *shape: rng.normal(size=shape)
    cases = []
    for training in (True, False):
        st = BatchNorm(3)
        st.running_mean, st.running_var = a(3), np.abs(a(3)) + 0.5
        cases.append((f"batch_norm training={training}", [a(2, 5, 3), a(3), a(3)],
                      lambda ts, st=st, tr=training: ad.batch_norm(*ts, st, tr, relu=True),
                      st))
    cases += [
        ("conv1d", [a(2, 7, 2), a(3, 2, 3), a(3)], lambda ts: ad.conv1d(*ts), None),
        ("conv1d batch_norm", [a(2, 7, 2), a(3, 2, 3)],
         lambda ts: ad.conv1d(*ts, bn=BatchNorm(3), relu=True), None),
        ("lstm", [a(2, 5, 3), a(3, 8), a(2, 8), a(8)], lambda ts: ad.lstm(*ts), None),
        ("lstm list", [a(2, 5, 1), a(2, 5, 2), a(3, 8), a(2, 8), a(8)],
         lambda ts: ad.lstm(ts[:2], *ts[2:]), None),
        ("reverse_time", [a(2, 5, 3)], lambda ts: ad.reverse_time(ts[0]), None),
        ("max_pool", [a(2, 6, 3)], lambda ts: ad.max_pool(ts[0]), None),
    ]
    return cases


@pytest.mark.parametrize("case", _captured_input_cases(), ids=lambda c: c[0])
def test_ops_work_on_read_only_inputs(case):
    _, arrays, op, _ = case
    ts = [Tensor(arr.copy(), requires_grad=True) for arr in arrays]
    for t in ts:
        t.data.flags.writeable = False
    out = op(ts)
    out._backward(np.ones(out.shape))
    assert all(t.grad is not None and np.all(np.isfinite(t.grad)) for t in ts)


@pytest.mark.parametrize("case", _captured_input_cases(), ids=lambda c: c[0])
def test_backward_uses_the_inputs_seen_at_forward_time(case):
    # load_state rebinds .data between steps; a closure must not read it late
    _, arrays, op, st = case
    g = np.random.default_rng(83).normal(size=op([Tensor(a) for a in arrays]).shape)
    grads = []
    for rebind in (False, True):
        if st is not None:
            st.running_mean, st.running_var = arrays[1].copy(), np.abs(arrays[2]) + 0.5
        ts = [Tensor(arr.copy(), requires_grad=True) for arr in arrays]
        out = op(ts)
        if rebind:
            for t in ts:
                t.data = t.data * 3.0 + 1.0
            if st is not None:
                st.running_mean, st.running_var = st.running_mean + 1.0, st.running_var * 2.0
        out._backward(g)
        grads.append([t.grad for t in ts])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------- backward

def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        ad.backward(Tensor(np.ones(2), requires_grad=True))


def test_backward_twice_raises():
    t = Tensor(np.ones(3), requires_grad=True)
    loss = ad.tsum(t * t)
    ad.backward(loss)
    with pytest.raises(GraphError):
        ad.backward(loss)


def test_backward_never_writes_into_the_incoming_gradient():
    rng = np.random.default_rng(79)
    p = lambda *shape: Tensor(rng.normal(size=shape), requires_grad=True)
    pos = Tensor(np.abs(rng.normal(size=(2, 3))) + 0.5, requires_grad=True)
    st = BatchNorm(3)
    outs = [
        ad.add(p(2, 3), p(3)), ad.sub(p(2, 3), p(3)), ad.mul(p(2, 3), p(3)),
        ad.div(p(2, 3), pos), ad.neg(p(2, 3)), ad.relu(p(2, 3)), ad.tanh(p(2, 3)),
        ad.sigmoid(p(2, 3)), ad.exp(p(2, 3)), ad.log(pos), ad.softplus(p(2, 3)),
        ad.tsum(p(2, 3)), ad.tmean(p(2, 3)), ad.reshape(p(2, 3), (3, 2)),
        ad.concat([p(2, 1), p(2, 2)]), ad.take_channel(p(2, 3), 1),
        ad.reverse_time(p(2, 4, 3)), ad.matmul(p(2, 3), p(3, 2)),
        ad.conv1d(p(2, 6, 2), p(3, 2, 3), p(3)), ad.max_pool(p(2, 6, 3)),
        ad.global_max_pool(p(2, 6, 3)), ad.softmax(p(2, 3)),
        ad.lstm(p(2, 5, 2), p(2, 12), p(3, 12), p(12)),
        ad.lstm([p(2, 5, 1), p(2, 5, 1)], p(2, 12), p(3, 12), p(12)),
    ]
    for training in (True, False):
        for relu in (True, False):
            outs.append(ad.batch_norm(p(2, 4, 3), p(3), p(3), st, training, relu=relu))
    for relu in (True, False):
        outs.append(ad.conv1d(p(2, 6, 2), p(3, 2, 3), bn=st, relu=relu))
    for out in outs:
        g = rng.normal(size=out.shape)
        g.flags.writeable = False              # an in-place write raises
        out._backward(g)


def test_no_grad_records_no_graph():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    with ad.no_grad():
        y = ad.relu(ad.matmul(x, w))
    assert y._backward is None and y._parents == () and not y.requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("leave the scope by an exception")
    z = ad.matmul(x, w)     # recording is back on after either exit
    assert z._backward is not None and z.requires_grad


def test_interior_grads_freed_after_backward():
    t = Tensor(np.ones(4), requires_grad=True)
    mid = t * 2.0
    loss = ad.tsum(mid)
    ad.backward(loss)
    assert t.grad is not None
    assert mid.grad is None  # interior buffers released for memory


def test_mixed_graph_end_to_end():
    a = RNG.normal(size=(3, 6, 2))
    b = RNG.normal(size=(3, 6, 2))
    m = RNG.normal(size=(4, 4))

    def build(ts):
        cat = ad.concat([ts[0], ts[1]], axis=-1)
        pooled = ad.max_pool(cat)
        rev = ad.reverse_time(pooled)
        feat = ad.global_max_pool(rev)
        logits = ad.matmul(feat, ts[2])
        probs = ad.softmax(logits)
        pos = ad.take_channel(probs, 1)
        return ad.tmean(ad.log(pos)) + ad.tsum(probs * probs)

    gradcheck(build, [a, b, m])
