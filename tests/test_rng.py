"""Seeded stream behaviour: determinism, forking, draw validation."""

import numpy as np
import pytest

from qivcnet.errors import ConfigError
from qivcnet.rng import Rng


def test_same_seed_same_draws():
    a = Rng(123).normal(50)
    b = Rng(123).normal(50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).normal(50), Rng(2).normal(50))


def test_fork_streams_are_independent_and_deterministic():
    r1 = Rng(7)
    c1 = r1.fork()
    c2 = r1.fork()
    r2 = Rng(7)
    d1 = r2.fork()
    d2 = r2.fork()
    assert np.array_equal(c1.normal(20), d1.normal(20))
    assert np.array_equal(c2.normal(20), d2.normal(20))
    assert not np.array_equal(c1.normal(20), c2.normal(20))


def test_fork_depends_on_call_order_not_usage():
    # drawing from the parent between forks must not change child streams
    r1 = Rng(9)
    r1.normal(100)
    c1 = r1.fork()
    r2 = Rng(9)
    c2 = r2.fork()
    assert np.array_equal(c1.normal(10), c2.normal(10))


def test_bernoulli_validates_probability():
    with pytest.raises(ConfigError):
        Rng(0).bernoulli(1.5, 4)
    with pytest.raises(ConfigError):
        Rng(0).bernoulli(-0.1, 4)


def test_bernoulli_extremes():
    assert Rng(0).bernoulli(1.0, 100).all()
    assert not Rng(0).bernoulli(0.0, 100).any()


def test_bernoulli_rate():
    draws = Rng(3).bernoulli(0.3, 20000)
    assert draws.dtype == np.bool_
    assert abs(draws.mean() - 0.3) < 0.02


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        Rng(-1)


def test_permutation_is_a_permutation():
    p = Rng(5).permutation(100)
    assert np.array_equal(np.sort(p), np.arange(100))


def test_uniform_bounds():
    u = Rng(11).uniform(2.0, 3.0, 1000)
    assert u.min() >= 2.0 and u.max() < 3.0

