"""Loss components against hand-computed values; weight dynamics invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_grad, rel_err
from qivcnet import autodiff as ad
from qivcnet.autodiff import Tensor
from qivcnet.errors import NumericalError, ShapeError
from qivcnet.losses import (
    LossWeights,
    categorical_cross_entropy,
    composite_loss,
    dice_loss,
    one_hot,
)
from qivcnet.rng import Rng


def _probs(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------- one-hot

def test_one_hot_basic():
    out = one_hot(np.array([0, 1, 1, 0]))
    assert np.array_equal(out, [[1, 0], [0, 1], [0, 1], [1, 0]])


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ShapeError):
        one_hot(np.array([0, 2]))
    with pytest.raises(ShapeError):
        one_hot(np.array([-1]))


# -------------------------------------------------------------------- cce

def test_cce_perfect_prediction_near_zero():
    y = one_hot(np.array([0, 1, 0]))
    loss = categorical_cross_entropy(Tensor(y.copy()), y)
    assert abs(loss.data) < 1e-7  # the log stabilizer leaves ~1e-8 residue


def test_cce_uniform_is_log_two():
    y = one_hot(np.array([0, 1, 0, 1]))
    p = np.full((4, 2), 0.5)
    loss = categorical_cross_entropy(Tensor(p), y)
    assert loss.data == pytest.approx(np.log(2.0), rel=1e-7)


def test_cce_hand_value():
    y = one_hot(np.array([0, 1]))
    p = np.array([[0.9, 0.1], [0.3, 0.7]])
    want = -(np.log(0.9) + np.log(0.7)) / 2.0
    loss = categorical_cross_entropy(Tensor(p), y)
    assert loss.data == pytest.approx(want, rel=1e-7)


def test_cce_shape_mismatch():
    with pytest.raises(ShapeError):
        categorical_cross_entropy(Tensor(np.ones((2, 2))), np.ones((3, 2)))


def test_cce_grad():
    y = one_hot(np.array([0, 1, 1]))
    logits = Rng(3).normal((3, 2))

    def loss_of():
        return float(categorical_cross_entropy(
            Tensor(_probs(logits)), y).data)

    p = Tensor(_probs(logits.copy()), requires_grad=True)
    # check the gradient wrt the probabilities directly
    probs = p.data.copy()
    loss = categorical_cross_entropy(p, y)
    ad.backward(loss)
    fd = fd_grad(lambda: float(categorical_cross_entropy(Tensor(probs), y).data), probs)
    assert rel_err(p.grad, fd) < 1e-6


# ------------------------------------------------------------------- dice

def test_dice_perfect_prediction_is_zero():
    y = one_hot(np.array([0, 1, 1, 0, 1]))
    assert dice_loss(Tensor(y.copy()), y).data == pytest.approx(0.0, abs=1e-12)


def test_dice_worked_example():
    # two rows: true class probability 0.8 then 0.6; overlap 1.4 of denom
    # (2 + 2) gives 1 - 2*1.4/4 = 0.3
    y = one_hot(np.array([0, 1]))
    p = np.array([[0.8, 0.2], [0.4, 0.6]])
    assert dice_loss(Tensor(p), y).data == pytest.approx(0.3, abs=1e-12)


def test_dice_is_one_minus_mean_true_class_probability():
    rng = Rng(4)
    labels = (rng.uniform(0.0, 1.0, (20,)) > 0.5).astype(np.int64)
    y = one_hot(labels)
    p = _probs(rng.normal((20, 2)))
    want = 1.0 - p[np.arange(20), labels].mean()
    assert dice_loss(Tensor(p), y).data == pytest.approx(want, rel=1e-12)


def test_dice_grad():
    y = one_hot(np.array([0, 1, 0]))
    p = _probs(Rng(6).normal((3, 2)))
    t = Tensor(p.copy(), requires_grad=True)
    loss = dice_loss(t, y)
    ad.backward(loss)
    fd = fd_grad(lambda: float(dice_loss(Tensor(p), y).data), p)
    assert rel_err(t.grad, fd) < 1e-6


# ---------------------------------------------------------------- weights

def test_weights_start_equal():
    lw = LossWeights()
    assert lw.w_cce == 1.0 and lw.w_dice == 1.0


def test_weights_first_update_seeds_ema():
    lw = LossWeights()
    lw.update(0.6, 0.2)
    assert lw.ema_cce == pytest.approx(0.6)
    assert lw.ema_dice == pytest.approx(0.2)
    assert lw.w_cce == pytest.approx(2.0 * 0.6 / 0.8)
    assert lw.w_dice == pytest.approx(2.0 * 0.2 / 0.8)


def test_weights_ema_hand_math():
    lw = LossWeights()
    lw.update(1.0, 0.5)
    lw.update(0.4, 0.3)
    # ema = 0.9 * prev + 0.1 * new
    assert lw.ema_cce == pytest.approx(0.9 * 1.0 + 0.1 * 0.4)
    assert lw.ema_dice == pytest.approx(0.9 * 0.5 + 0.1 * 0.3)
    total = lw.ema_cce + lw.ema_dice
    assert lw.w_cce == pytest.approx(2.0 * lw.ema_cce / total)


def test_weights_equal_components_are_fixed_point():
    lw = LossWeights()
    for _ in range(5):
        lw.update(0.37, 0.37)
        assert lw.w_cce == pytest.approx(1.0)
        assert lw.w_dice == pytest.approx(1.0)


def test_weights_zero_total_falls_back_to_equal():
    lw = LossWeights()
    lw.update(0.0, 0.0)
    assert lw.w_cce == 1.0 and lw.w_dice == 1.0


def test_weights_reject_non_finite():
    lw = LossWeights()
    with pytest.raises(NumericalError):
        lw.update(float("nan"), 0.1)
    with pytest.raises(NumericalError):
        lw.update(0.1, float("inf"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
                min_size=1, max_size=8))
def test_weights_always_sum_to_two_and_stay_nonnegative(history):
    lw = LossWeights()
    for cce_v, dice_v in history:
        lw.update(cce_v, dice_v)
        assert lw.w_cce + lw.w_dice == pytest.approx(2.0, abs=1e-12)
        assert lw.w_cce >= 0.0 and lw.w_dice >= 0.0


# -------------------------------------------------------------- composite

def test_composite_uses_weights_in_effect_before_update():
    y = one_hot(np.array([0, 1]))
    p = np.array([[0.8, 0.2], [0.4, 0.6]])
    lw = LossWeights(w_cce=1.5, w_dice=0.5)
    loss, cce_v, dice_v = composite_loss(Tensor(p), y, lw)
    assert loss.data == pytest.approx(1.5 * cce_v + 0.5 * dice_v, rel=1e-12)
    assert lw.ema_cce is None           # the weights are only read


def test_composite_rejects_non_probability_rows():
    y = one_hot(np.array([0, 1]))
    lw = LossWeights()
    with pytest.raises(NumericalError):
        composite_loss(Tensor(np.array([[0.9, 0.3], [0.5, 0.5]])), y, lw)
    with pytest.raises(NumericalError):
        composite_loss(Tensor(np.array([[1.2, -0.2], [0.5, 0.5]])), y, lw)


def test_composite_grad_flows_through_both_components():
    y = one_hot(np.array([0, 1, 0, 1]))
    p = _probs(Rng(9).normal((4, 2)))
    lw = LossWeights(w_cce=1.2, w_dice=0.8)
    t = Tensor(p.copy(), requires_grad=True)
    loss, _, _ = composite_loss(t, y, lw)
    ad.backward(loss)
    # probe the unvalidated components: composite's row check rejects the
    # finite-difference perturbation itself
    fd = fd_grad(lambda: float(
        1.2 * categorical_cross_entropy(Tensor(p), y).data
        + 0.8 * dice_loss(Tensor(p), y).data), p)
    assert rel_err(t.grad, fd) < 1e-6
