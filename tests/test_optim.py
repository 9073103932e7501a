"""AdamW update rule against an independent recurrence oracle."""

import numpy as np
import pytest

from railswin.errors import ShapeMismatch
from railswin.optim import AdamState, adamw_step
from railswin.tensor import Tensor


def oracle_adamw(p, grads, lr, b1, b2, eps, wd):
    """Scalar reference recurrence, decay applied before the moment update."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        p = p - lr * wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        p = p - lr * mh / (np.sqrt(vh) + eps)
    return p


def test_zero_grad_zero_decay_is_identity():
    p = Tensor([1.5, -2.0], requires_grad=True)
    state = AdamState.init([p])
    adamw_step([p], [np.zeros(2)], state, lr=0.1)
    assert p.data.tolist() == [1.5, -2.0]


def test_first_step_matches_recurrence_oracle():
    p = Tensor([1.0], requires_grad=True)
    state = AdamState.init([p])
    adamw_step([p], [np.ones(1)], state, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
    expected = oracle_adamw(1.0, [1.0], 0.1, 0.9, 0.999, 1e-8, 0.0)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_multi_step_matches_recurrence_oracle():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=10)
    p = Tensor([0.7], requires_grad=True)
    state = AdamState.init([p])
    for g in grads:
        adamw_step([p], [np.array([g])], state, lr=0.05, betas=(0.9, 0.999),
                   eps=1e-8, weight_decay=0.01)
    expected = oracle_adamw(0.7, grads, 0.05, 0.9, 0.999, 1e-8, 0.01)
    assert p.data[0] == pytest.approx(expected, rel=1e-12)


def test_decay_only_shrinks_geometrically():
    p = Tensor([2.0], requires_grad=True)
    state = AdamState.init([p])
    for _ in range(3):
        adamw_step([p], [np.zeros(1)], state, lr=0.1, weight_decay=0.05)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05) ** 3, abs=1e-15)


def test_none_grad_skips_moments_but_decays():
    p = Tensor([1.0], requires_grad=True)
    state = AdamState.init([p])
    adamw_step([p], [None], state, lr=0.1, weight_decay=0.05)
    assert p.data[0] == pytest.approx(1.0 * (1 - 0.1 * 0.05))
    assert state.m[0][0] == 0.0


def test_shape_mismatch():
    p = Tensor([1.0, 2.0], requires_grad=True)
    state = AdamState.init([p])
    with pytest.raises(ShapeMismatch):
        adamw_step([p], [np.zeros(3)], state, lr=0.1)
