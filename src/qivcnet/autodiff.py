"""Reverse-mode automatic differentiation on float64 numpy arrays.

Every operation builds a node that records its parent tensors and a closure
mapping the node's output gradient to parent gradients.  ``backward`` walks
the graph from a scalar loss in reverse topological order exactly once,
accumulating gradients additively so fan-out (a tensor consumed by several
ops) just works.

Conventions used throughout the package:

 - signals are laid out (batch, time, channels);
 - convolution kernels are (width, in_channels, out_channels);
 - elementwise binaries follow numpy broadcasting (trailing axes), and
   gradients are summed back over the broadcast axes;
 - a graph supports a single backward pass: closures and saved buffers are
   released as soon as they have been applied, to keep peak memory low;
 - an activation (relu, tanh, sigmoid, identity) is one entry of a table
   that holds its in-place forward and its derivative from its own output;
   ``conv1d`` (after its batch norm) and ``batch_norm`` run it inside
   their node (``act=``), and the standalone ops are built from the same
   entry.

Saved for backward.  The graph held after forward sets the peak memory of a
training step, so each op keeps only what its backward cannot cheaply
rebuild:

 - batch_norm keeps its output, from which an activation in its node takes
   its derivative, and the centring mean (the batch mean in training, the
   running mean it used in inference); the centred input is recomputed
   from the input, which its producer holds anyway;
 - conv1d keeps no im2col matrix, no padded input and, with a batch norm
   in its node, no conv output: backward recomputes it, and works per tap
   on a fresh padding;
 - lstm keeps gates [i, f, o, tanh(g)] and the cell state before each
   backward chunk (none under ``no_grad``), from which backward recomputes
   the chunk's cells; its output is the one copy of the hidden states, and
   a list input is read part by part, never joined; it carries a ``state``
   across calls only when it keeps none of these;
 - reverse_time returns a view;
 - max_pool keeps a bool mask of the windows whose maximum is their
   second step.

Closures capture the arrays they read at forward time and never read a
tensor's ``.data`` later, because ``load_state`` rebinds ``.data``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import GraphError, NumericalError, ShapeError

# Shared log stabilizer for cross-entropy and KL terms.
LOG_EPS = 1e-8


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: "tuple[Tensor, ...]" = ()
        self._backward = None

    # -- conveniences -------------------------------------------------
    @property
    def shape(self) -> "tuple[int, ...]":
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = True


@contextmanager
def no_grad():
    """Scope in which ops record no graph: their results keep no parents,
    no backward closure and none of the buffers a closure would save."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    return _grad_enabled        # whether ops record a graph: False inside no_grad


def _make(data: np.ndarray, parents: "tuple[Tensor, ...]", backward_fn) -> Tensor:
    """Wrap an op result; the closure is kept only when a parent needs grads
    and no ``no_grad`` scope is active."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: "tuple[int, ...]") -> np.ndarray:
    """Sum a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    Visits each node once in reverse topological order.  Closures and
    intermediate gradients are dropped after use, so calling backward a
    second time on the same graph raises GraphError.
    """
    if loss.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any tensor requiring gradients")
    if loss._backward is None and loss._parents == ():
        raise GraphError("backward was already run on this graph")

    # Iterative post-order topological sort over grad-requiring nodes.
    order: "list[Tensor]" = []
    seen: "set[int]" = set()
    stack: "list[tuple[Tensor, bool]]" = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones(())
    while order:            # popped, so each applied node can be freed
        node = order.pop()
        fn = node._backward
        if fn is not None and node.grad is not None:
            fn(node.grad)
        if node._parents:
            # interior node: free closure, saved buffers and its gradient
            node._backward = None
            node._parents = ()
            node.grad = None


# ---------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.data, b.data
    data = va * vb

    def back(g):
        _accumulate(a, _unbroadcast(g * vb, a.shape))
        _accumulate(b, _unbroadcast(g * va, b.shape))

    return _make(data, (a, b), back)


def div(a: Tensor, b: Tensor) -> Tensor:
    va, vb = a.data, b.data
    data = va / vb

    def back(g):
        _accumulate(a, _unbroadcast(g / vb, a.shape))
        _accumulate(b, _unbroadcast(-g * va / (vb * vb), b.shape))

    return _make(data, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), back)


def _sigmoid(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """1 / (1 + e^-x) to within a few ulps in both tails, with no overflow."""
    out = np.negative(x, out=out)
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


# Each activation by name: a forward ``f(x, out)`` that writes into ``out``
# (a new array when None, in place when ``out`` is x) and ``d(g, y)``, the
# gradient g carried back through it, read from its own output y.  Identity
# has neither.  The standalone ops below and the activation that runs inside
# a conv or batch-norm node (``act=``) both read this table.
_ACTS = {
    "relu": (lambda x, out: np.maximum(x, 0.0, out=out), lambda g, y: g * (y > 0.0)),
    "tanh": (lambda x, out: np.tanh(x, out=out), lambda g, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid, lambda g, y: g * y * (1.0 - y)),
    "identity": (None, None),
}


def _activation(name: str):
    f, d = _ACTS[name]

    def op(a: Tensor) -> Tensor:
        data = f(a.data, None)

        def back(g):
            _accumulate(a, d(g, data))

        return _make(data, (a,), back)

    op.__name__ = op.__qualname__ = name
    return op


relu, tanh, sigmoid = (_activation(name) for name in ("relu", "tanh", "sigmoid"))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def back(g):
        _accumulate(a, g * data)

    return _make(data, (a,), back)


def log(a: Tensor, eps: float = 0.0) -> Tensor:
    """Natural log of (a + eps); eps >= 0 stabilizes near-zero inputs."""
    if eps < 0.0:
        raise ShapeError(f"log stabilizer must be >= 0, got {eps}")
    shifted = a.data + eps
    if np.any(shifted <= 0.0):
        raise NumericalError("log of non-positive value")

    def back(g):
        _accumulate(a, g / shifted)

    return _make(np.log(shifted), (a,), back)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably for large |x|."""
    va = a.data
    data = np.logaddexp(0.0, va)

    def back(g):
        _accumulate(a, g * _sigmoid(va))

    return _make(data, (a,), back)


def identity(a: Tensor) -> Tensor:
    return a


ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "identity": identity,
}


# ---------------------------------------------------------------------
# reductions, shaping, indexing
# ---------------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """Sum of all elements (scalar)."""
    shape = a.shape

    def back(g):
        _accumulate(a, np.broadcast_to(g, shape).copy())

    return _make(a.data.sum(), (a,), back)


def tmean(a: Tensor) -> Tensor:
    """Mean of all elements (scalar)."""
    count = a.data.size
    shape = a.shape

    def back(g):
        _accumulate(a, np.broadcast_to(g / count, shape).copy())

    return _make(a.data.mean(), (a,), back)


def reshape(a: Tensor, shape: "tuple[int, ...]") -> Tensor:
    old = a.shape

    def back(g):
        _accumulate(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), back)


def concat(parts: "list[Tensor]", axis: int = -1) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accumulate(p, piece)

    return _make(data, tuple(parts), back)


def take_channel(a: Tensor, index: int) -> Tensor:
    """Select one entry of the last axis (drops that axis)."""
    if not -a.shape[-1] <= index < a.shape[-1]:
        raise ShapeError(f"channel {index} out of range for last axis {a.shape[-1]}")
    shape = a.shape

    def back(g):
        full = np.zeros(shape)
        full[..., index] = g
        _accumulate(a, full)

    return _make(a.data[..., index].copy(), (a,), back)


def reverse_time(a: Tensor) -> Tensor:
    """Flip the time axis of a (batch, time, channels) tensor."""
    if a.ndim != 3:
        raise ShapeError(f"reverse_time expects rank 3, got shape {a.shape}")

    def back(g):
        _accumulate(a, g[:, ::-1, :])

    return _make(a.data[:, ::-1, :], (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with b a matrix; a may carry leading batch axes."""
    if b.ndim != 2 or a.ndim < 2:
        raise ShapeError(f"matmul needs a.ndim >= 2 and b.ndim == 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    va, vb = a.data, b.data
    data = va @ vb

    def back(g):
        if a.requires_grad:
            _accumulate(a, g @ vb.T)
        if b.requires_grad:
            lead = tuple(range(va.ndim - 1))
            _accumulate(b, np.tensordot(va, g, axes=(lead, lead)))

    return _make(data, (a, b), back)


# ---------------------------------------------------------------------
# structured ops: convolution, pooling, softmax, batch norm, LSTM
# ---------------------------------------------------------------------

_CONV_CHUNK = 1 << 18   # window elements per conv1d forward chunk; its im2col rows stay in cache
_LSTM_CHUNK = 16   # steps per LSTM forward and backward chunk; its gate rows stay in cache


def conv1d(x: Tensor, w: Tensor, *, bn=None, training: bool = True,
           act: str = "identity") -> Tensor:
    """1-D convolution with zero "same" padding, then, with ``bn``, batch norm
    and the activation ``act``.

    x is (batch, time, c_in), w is (width, c_in, c_out).  The left pad is
    width // 2, so the output keeps the input length.  With ``bn`` (a
    ``layers.BatchNorm``) the node also runs ``batch_norm(..., training,
    act)`` in place on its output, and backward recomputes the conv output;
    an activation without ``bn`` is a ShapeError.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d input must be rank 3, got shape {x.shape}")
    if w.ndim != 3:
        raise ShapeError(f"conv1d kernel must be rank 3, got shape {w.shape}")
    B, T, Cin = x.shape
    K, KCin, Cout = w.shape
    if KCin != Cin:
        raise ShapeError(f"kernel in_channels={KCin} does not match input channels={Cin}")
    if bn is None and act != "identity":
        raise ShapeError(f"conv1d runs activation {act!r} only after a batch norm")
    if K > T:
        raise ShapeError(f"kernel width {K} exceeds signal length {T}")

    xd, wd = x.data, w.data

    def conv(shift: "np.ndarray | None") -> np.ndarray:
        # im2col a few sequences at a time: each chunk's window matrix feeds
        # one GEMM into its slice of the output; backward works per kernel tap
        xp = np.zeros((B, T + K - 1, Cin))     # zero "same" padding; np.pad is ~30x slower
        xp[:, K // 2: K // 2 + T] = xd
        taps = np.arange(T)[:, None] + np.arange(K)          # padded positions read
        out = np.empty((B, T, Cout))
        seqs = max(1, _CONV_CHUNK // (T * K * Cin))
        for i in range(0, B, seqs):
            np.matmul(xp[i: i + seqs].take(taps, axis=1).reshape(-1, K * Cin),
                      wd.reshape(K * Cin, Cout), out=out[i: i + seqs].reshape(-1, Cout))
        if shift is not None:
            out += shift
        return out

    out = conv(None)
    if bn is not None:
        out, mean, norm_back = _batch_norm(out, out, bn.gamma, bn.beta, bn, training, act)

    def back(g):
        if bn is not None:
            g = norm_back(g, conv(-mean))      # the centred conv output: x + (-m) == x - m
        if x.requires_grad:
            g2 = g.reshape(B * T, Cout)
            dxp = np.zeros((B, T + K - 1, Cin))
            for k in range(K):
                dxp[:, k: k + T, :] += (g2 @ wd[k].T).reshape(B, T, Cin)
            _accumulate(x, dxp[:, K // 2: K // 2 + T, :])
        if w.requires_grad:
            # one GEMM per sequence and tap, summed over the batch
            xp = np.zeros((B, T + K - 1, Cin))
            xp[:, K // 2: K // 2 + T] = xd
            _accumulate(w, np.stack([
                np.matmul(xp[:, k: k + T, :].transpose(0, 2, 1), g).sum(axis=0)
                for k in range(K)]))

    return _make(out, (x, w) if bn is None else (x, w, bn.gamma, bn.beta), back)


def max_pool(x: Tensor) -> Tensor:
    """Max pooling over non-overlapping pairs of time steps; an odd last step
    is dropped.  As with argmax, a tie goes to the first step and a NaN beats
    any number."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool input must be rank 3, got shape {x.shape}")
    B, T, C = x.shape
    if T < 2:
        raise ShapeError(f"signal length {T} shorter than pool width 2")
    even, odd = x.data[:, 0: T - 1: 2], x.data[:, 1::2]
    right = (odd > even) | (np.isnan(odd) & ~np.isnan(even))
    out = np.where(right, odd, even)

    def back(g):
        dx = np.zeros((B, T, C))
        np.copyto(dx[:, 0: T - 1: 2], g, where=~right)
        np.copyto(dx[:, 1::2], g, where=right)
        _accumulate(x, dx)

    return _make(out, (x,), back)


def global_max_pool(x: Tensor) -> Tensor:
    """Maximum over the time axis: (batch, time, channels) -> (batch, channels)."""
    if x.ndim != 3:
        raise ShapeError(f"global_max_pool input must be rank 3, got shape {x.shape}")
    B, T, C = x.shape
    idx = x.data.argmax(axis=1)
    out = np.take_along_axis(x.data, idx[:, None, :], axis=1)[:, 0, :]

    def back(g):
        dx = np.zeros((B, T, C))
        np.put_along_axis(dx, idx[:, None, :], g[:, None, :], axis=1)
        _accumulate(x, dx)

    return _make(out, (x,), back)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with the max-shift trick."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, data * (g - inner))

    return _make(data, (x,), back)


def _batch_norm(xd: np.ndarray, out: "np.ndarray | None", gamma: Tensor, beta: Tensor,
                state, training: bool, act: str):
    """Batch norm of xd, then the activation ``act``, into ``out`` (new when
    None); returns it, the centring mean and ``back(g, xc)``, which takes a
    fresh centred input, overwrites it, accumulates gamma's and beta's
    gradients and returns xd's."""
    n = xd.shape[0] * xd.shape[1]
    # einsum reductions run about 3x faster than ndarray.sum over (0, 1)
    mean = np.einsum("btc->c", xd) / n if training else state.running_mean
    data = np.subtract(xd, mean, out=out)       # centred input, normalized in place below
    var = np.einsum("btc,btc->c", data, data) / n if training else state.running_var
    if training:
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mean
        state.running_var = (1.0 - m) * state.running_var + m * var
    inv = 1.0 / np.sqrt(var + state.eps)
    scale = gamma.data * inv
    data *= scale
    data += beta.data
    f, d = _ACTS[act]
    if f is not None:
        f(data, data)

    def back(g, xc):
        if d is not None:
            g = d(g, data)                      # a fresh array, scaled into dx in place
        gb = np.einsum("btc->c", g)
        gx = np.einsum("btc,btc->c", g, xc) * inv    # d loss / d gamma
        _accumulate(gamma, gx)
        _accumulate(beta, gb)
        dx = np.multiply(g, scale, out=None if d is None else g)
        if training:
            dx -= gb * (scale / n)
            xc *= gx * (scale * inv / n)
            dx -= xc
        return dx

    return data, mean, back


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               state, training: bool, act: str = "identity") -> Tensor:
    """Per-channel batch normalization over the (batch, time) axes.

    ``state`` (a ``layers.BatchNorm``) holds ``running_mean``, ``running_var``,
    ``momentum`` and ``eps``.  Training mode normalizes by the batch mean and
    biased variance and rebinds both running statistics, moved toward them by
    ``momentum``; inference mode normalizes by the running statistics.  The
    activation ``act`` runs in place in the same node, so no separate
    activation node, output or mask is kept.
    """
    if x.ndim != 3:
        raise ShapeError(f"batch_norm input must be rank 3, got shape {x.shape}")
    C = x.shape[-1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"gamma/beta must have shape ({C},), got {gamma.shape}/{beta.shape}")
    xd = x.data
    data, mean, norm_back = _batch_norm(xd, None, gamma, beta, state, training, act)

    def back(g):
        _accumulate(x, norm_back(g, xd - mean))   # recomputed: x is kept anyway

    return _make(data, (x, gamma, beta), back)


def _lstm_factors(z: np.ndarray, c0: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Turn a chunk of LSTM gate values into derivative factors, in place.

    z holds the gate values [i, f, o, g] of a chunk of steps and c0 the cell
    state before it, from which the chunk's cells c are recomputed with the
    forward's own ops (i*g + f*c == f*c + i*g).  On return z holds the
    factors that map dc (or dh, for the output gate) to the gate
    pre-activation gradients:

        input  g * i(1-i)          forget  c_prev * f(1-f)
        output tanh(c) * o(1-o)    cell    i * (1-g^2)

    and the result is (o * (1-tanh(c)^2), f): the first carries dh into dc,
    the second carries dc back one step.
    """
    H = z.shape[-1] // 4
    i, f, o, g = (z[:, :, k * H: (k + 1) * H].copy() for k in range(4))
    c = np.concatenate((c0[None], i * g))
    for t in range(len(z)):
        c[t + 1] += f[t] * c[t]
    tanh_c = np.tanh(c[1:])
    z[:, :, :H] = i * (1.0 - i) * g
    z[:, :, H: 2 * H] = (1.0 - f) * f * c[:-1]
    z[:, :, 2 * H: 3 * H] = (1.0 - o) * (tanh_c * o)
    z[:, :, 3 * H:] = (1.0 - g * g) * i
    return (1.0 - tanh_c * tanh_c) * o, f


def lstm(x: "Tensor | list[Tensor]", wx: Tensor, wh: Tensor, b: Tensor, state=None) -> Tensor:
    """Unidirectional LSTM over (batch, time, features); returns all hidden states.

    x is one (batch, time, features) tensor or a list of them that agree in
    batch and time; a list acts as their concatenation along features, which
    is never built: part k meets its own row block of wx.  wx is
    (features, 4*hidden), wh is (hidden, 4*hidden), b is (4*hidden,).
    Gates are packed [input, forget, output, cell] and the initial hidden and
    cell states are zero, or the (B, hidden) pair in the list ``state`` (zero
    when it is empty), which then receives the final pair: calls chained on
    one state give the bits of one call over the joined sequence.  A state on
    a call that keeps a backward closure is a GraphError.  All four gates
    come from one e^z over the (B, 4H) row: the weight and bias columns are
    negated and the cell gate's doubled (exact in binary floating point), so
    1 / (1 + e^z) is sigma of the input, forget and output gates and
    2 / (1 + e^z) - 1 = 2 sigma(2g) - 1 = tanh(g); past exp's overflow a gate
    is exactly 0, 1 or -1.  Gates, and the cell state at each backward chunk
    boundary, are stored only when the result keeps a backward closure:
    under ``no_grad`` none are kept.
    Backward is hand-rolled full-sequence BPTT, walked in chunks of steps;
    each chunk's share of the weight and input gradients is a few GEMMs
    outside the step loop.
    """
    parts = list(x) if isinstance(x, (list, tuple)) else [x]
    if not parts or any(p.ndim != 3 for p in parts):
        raise ShapeError(f"lstm inputs must be rank 3, got shapes {[p.shape for p in parts]}")
    B, T = parts[0].shape[:2]
    if any(p.shape[:2] != (B, T) for p in parts):
        raise ShapeError(f"lstm inputs differ in batch or time: {[p.shape for p in parts]}")
    I = sum(p.shape[2] for p in parts)
    H = wh.shape[0]
    if wx.shape != (I, 4 * H) or wh.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ShapeError(
            f"lstm weights inconsistent: x {[p.shape for p in parts]}, wx {wx.shape}, "
            f"wh {wh.shape}, b {b.shape}")
    xs = [p.data for p in parts]
    ends = np.cumsum([xk.shape[2] for xk in xs])
    rows = [slice(end - xk.shape[2], end) for xk, end in zip(xs, ends)]
    wxd, whd = wx.data, wh.data

    # The bias rides in the input projection, made a chunk of steps at a time
    # in time-major order, so the step loop works on contiguous (B, 4H) rows
    # and broadcasts no vector.  Without a backward closure, one chunk's
    # gate and cell buffers are reused.
    sign = np.repeat([-1.0, -2.0], [3 * H, H])
    wxs, whs, bias = wxd * sign, whd * sign, b.data * sign
    keep = _grad_enabled and any(p.requires_grad for p in (*parts, wx, wh, b))
    if keep and state is not None:
        raise GraphError("lstm carries a state only when it records no graph")
    gates = np.empty((T if keep else _LSTM_CHUNK, B, 4 * H))
    cells = np.empty((_LSTM_CHUNK, B, H))
    # the cell state before each backward chunk (these count down from T)
    edges = np.zeros((-(-T // _LSTM_CHUNK), B, H)) if keep else None
    hiddens = np.empty((_LSTM_CHUNK, B, H))
    out = np.empty((B, T, H))
    num = np.tile(np.repeat([1.0, 2.0], [3 * H, H]), (B, 1))   # full rows: no broadcast
    h, c = state or (np.zeros((B, H)),) * 2      # read only, never written in place
    with np.errstate(over="ignore", under="ignore"):   # e^z = inf gives a gate of exactly 0
        for start in range(0, T, _LSTM_CHUNK):
            n = min(_LSTM_CHUNK, T - start)
            zc, cc = (gates[start: start + n] if keep else gates[:n]), cells[:n]
            np.matmul(xs[0][:, start: start + n].transpose(1, 0, 2), wxs[rows[0]], out=zc)
            for xk, rk in zip(xs[1:], rows[1:]):
                zc += xk[:, start: start + n].transpose(1, 0, 2) @ wxs[rk]
            zc += bias
            for k in range(n):
                z = zc[k]
                z += h @ whs
                np.exp(z, out=z)
                z += 1.0
                np.divide(num, z, out=z)
                g = z[:, 3 * H:]
                g -= 1.0                        # the row now holds [i, f, o, tanh(g)]
                c = np.multiply(z[:, H: 2 * H], c, out=cc[k])
                c += z[:, :H] * g
                h = np.tanh(c, out=hiddens[k])
                h *= z[:, 2 * H: 3 * H]
            out[:, start: start + n] = hiddens[:n].transpose(1, 0, 2)
            if keep and start + _LSTM_CHUNK < T:
                edges[start // _LSTM_CHUNK + 1] = cc[(T - 1) % _LSTM_CHUNK]   # ends a bwd chunk
    if state is not None:
        state[:] = h, c

    def back(g):
        dcf = np.zeros((B, H))                 # dc_next * f_next, carried back
        dhr = np.zeros((B, H))
        wht = np.ascontiguousarray(whd.T)
        wxt = np.ascontiguousarray(wxd.T)
        dwx = np.zeros((I, 4 * H))
        dwh = np.zeros((H, 4 * H))
        db = np.zeros(4 * H)
        dx = np.empty((T, B, I)) if any(p.requires_grad for p in parts) else None
        # Walk back over chunks of a few steps: the derivative factors of a
        # chunk are made in a handful of vectorized passes while its gate
        # rows are still in cache, then the step loop scales them in place
        # into the gate pre-activation gradients, and the chunk's share of
        # every weight and input gradient is taken before it leaves the cache.
        for stop in range(T, 0, -_LSTM_CHUNK):
            start = max(0, stop - _LSTM_CHUNK)
            n = stop - start
            part = gates[start: stop]          # gate values become gradients
            dh_dc, f = _lstm_factors(part, edges[-(-start // _LSTM_CHUNK)])
            dz_if = part.reshape(n, B, 4, H)[:, :, :2]
            dz_o = part[:, :, 2 * H: 3 * H]
            dz_g = part[:, :, 3 * H:]
            gc = g[:, start: stop]
            for t in range(n - 1, -1, -1):
                dh = gc[:, t] + dhr
                dc = dh * dh_dc[t] + dcf
                dcf = dc * f[t]
                dz_if[t] *= dc[:, None, :]
                dz_o[t] *= dh
                dz_g[t] *= dc
                dhr = part[t] @ wht
            dz = part.reshape(n * B, 4 * H)
            db += np.ones(n * B) @ dz            # a GEMV beats dz.sum(axis=0)
            if wx.requires_grad:
                for xk, rk in zip(xs, rows):
                    x_t = np.ascontiguousarray(xk[:, start: stop].transpose(1, 0, 2))
                    dwx[rk] += x_t.reshape(n * B, -1).T @ dz
            lo = max(start, 1)                   # h_prev is zero at t = 0
            if wh.requires_grad and lo < stop:
                h_t = np.ascontiguousarray(out[:, lo - 1: stop - 1].transpose(1, 0, 2))
                dwh += h_t.reshape(-1, H).T @ gates[lo: stop].reshape(-1, 4 * H)
            if dx is not None:
                np.dot(dz, wxt, out=dx[start: stop].reshape(n * B, I))
        _accumulate(wx, dwx)
        _accumulate(wh, dwh)
        _accumulate(b, db)
        for p, rk in zip(parts, rows):
            if p.requires_grad:
                _accumulate(p, dx[:, :, rk].transpose(1, 0, 2))

    return _make(out, (*parts, wx, wh, b), back)
