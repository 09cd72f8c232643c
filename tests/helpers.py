"""Shared test utilities: finite-difference gradients and comparisons."""

from __future__ import annotations

import numpy as np


def philox(seed: int) -> np.random.Generator:
    """A numpy Generator on the same Philox stream as ``qivcnet.rng.Rng(seed)``,
    for tests that draw integers."""
    return np.random.Generator(np.random.Philox(seed))


def fd_grad(f, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. arr, mutated in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        fp = f()
        arr[idx] = orig - step
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
    return g


def rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-8) -> float:
    """Max-norm relative error with an absolute floor for tiny references."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.max(np.abs(want))) if want.size else 0.0, floor)
    return float(np.max(np.abs(got - want))) / denom if got.size else 0.0


def gradcheck(build, arrays, tol: float = 1e-6, step: float = 1e-5):
    """Compare reverse-mode gradients of build(tensors) against central differences.

    build receives a list of Tensors wrapping the given arrays (shared memory)
    and must return a scalar Tensor.  Returns the worst relative error seen.
    """
    from qivcnet import autodiff as ad
    from qivcnet.autodiff import Tensor

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    ad.backward(loss)
    worst = 0.0
    for i, t in enumerate(tensors):
        want = fd_grad(lambda: build([Tensor(a) for a in arrays]).item(),
                       arrays[i], step=step)
        err = rel_err(t.grad, want)
        worst = max(worst, err)
        assert err < tol, f"arg {i}: gradient mismatch, rel err {err:.3e}"
    return worst


def graph_bytes(loss) -> int:
    """Bytes held by the graph below ``loss``: the distinct base arrays of
    every node's data and of the ndarrays its backward closure captured
    (directly, inside a list or tuple, or in the closure of a function it
    captured).  Views count once, by their base."""
    bases: "dict[int, np.ndarray]" = {}

    def add(arr) -> None:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        bases[id(arr)] = arr

    seen: "set[int]" = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        add(node.data)
        closures = [node._backward]     # a loop, not a recursive closure: no reference cycle
        while closures:
            for cell in getattr(closures.pop(), "__closure__", None) or ():
                try:
                    value = cell.cell_contents
                except ValueError:      # a name the function never got to bind
                    continue
                for item in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(item, np.ndarray):
                        add(item)
                    elif callable(item) and not isinstance(item, type):
                        closures.append(item)
        stack.extend(node._parents)
    return sum(arr.nbytes for arr in bases.values())
