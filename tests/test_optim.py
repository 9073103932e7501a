"""AdamW update rule against an independent recurrence oracle."""

import numpy as np
import pytest

from _oracles import oracle_adamw_step
from railswin.errors import ShapeMismatch
from railswin.optim import CHUNK, AdamState, adamw_update
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


def step(params, grads, state, scratch, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One AdamW step over ``params`` as ``train`` takes it: the counter
    advances once, then each tensor updates through the shared scratch pair."""
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        adamw_update(p, g, m, v, state.t, lr, betas, eps, weight_decay, scratch)


def scratch_pair():
    return np.empty(CHUNK), np.empty(CHUNK)


def test_init_moments_are_c_contiguous_zeros_and_first_step_matches_oracle():
    """The moments are fresh C-contiguous zeros, also for a transposed parameter."""
    r = np.random.default_rng(4)
    shapes = [(), (5,), (3, 4), (2 * CHUNK + 3,), (6, 5)]
    init = [r.normal(size=s) for s in shapes]

    def tensors():
        ts = [Tensor(a.copy(), requires_grad=True) for a in init]
        ts[4].data = init[4].T.copy().T  # a transposed view
        return ts

    mine, ref = tensors(), tensors()
    state = AdamState.init(mine)
    for p, m, v in zip(mine, state.m, state.v):
        for moment in (m, v):
            assert moment.shape == p.data.shape and moment.flags.c_contiguous
            assert moment.dtype == np.float64 and not moment.any()
    assert state.t == 0
    ref_state = AdamState(m=[np.zeros(a.shape) for a in init],
                          v=[np.zeros(a.shape) for a in init])
    grads = [r.normal(size=s) for s in shapes]
    step(mine, grads, state, scratch_pair(), lr=3e-3, weight_decay=0.05)
    oracle_adamw_step(ref, grads, ref_state, lr=3e-3, weight_decay=0.05)
    for a, b, ma, mb, va, vb in zip(mine, ref, state.m, ref_state.m, state.v, ref_state.v):
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(ma, mb) and np.array_equal(va, vb)


def test_zero_grad_zero_decay_is_identity():
    p = Tensor([1.5, -2.0], requires_grad=True)
    m, v = np.zeros(2), np.zeros(2)
    adamw_update(p, np.zeros(2), m, v, 1, 0.1, (0.9, 0.999), 1e-8, 0.0, scratch_pair())
    assert p.data.tolist() == [1.5, -2.0]


def test_first_step_matches_recurrence_oracle():
    p = Tensor([1.0], requires_grad=True)
    m, v = np.zeros(1), np.zeros(1)
    adamw_update(p, np.ones(1), m, v, 1, 0.1, (0.9, 0.999), 1e-8, 0.0, scratch_pair())
    expected = oracle_adamw(1.0, [1.0], 0.1, 0.9, 0.999, 1e-8, 0.0)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_multi_step_matches_recurrence_oracle():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=10)
    p = Tensor([0.7], requires_grad=True)
    m, v, scratch = np.zeros(1), np.zeros(1), scratch_pair()
    for t, g in enumerate(grads, 1):
        adamw_update(p, np.array([g]), m, v, t, 0.05, (0.9, 0.999), 1e-8, 0.01, scratch)
    expected = oracle_adamw(0.7, grads, 0.05, 0.9, 0.999, 1e-8, 0.01)
    assert p.data[0] == pytest.approx(expected, rel=1e-12)


def test_decay_only_shrinks_geometrically():
    p = Tensor([2.0], requires_grad=True)
    m, v, scratch = np.zeros(1), np.zeros(1), scratch_pair()
    for t in range(1, 4):
        adamw_update(p, np.zeros(1), m, v, t, 0.1, (0.9, 0.999), 1e-8, 0.05, scratch)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05) ** 3, abs=1e-15)


def test_none_grad_skips_moments_but_decays():
    p = Tensor([1.0], requires_grad=True)
    m, v = np.zeros(1), np.zeros(1)
    adamw_update(p, None, m, v, 1, 0.1, (0.9, 0.999), 1e-8, 0.05, scratch_pair())
    assert p.data[0] == pytest.approx(1.0 * (1 - 0.1 * 0.05))
    assert m[0] == 0.0 and v[0] == 0.0


def test_shape_mismatch():
    p = Tensor([1.0, 2.0], requires_grad=True)
    m, v = np.zeros(2), np.zeros(2)
    with pytest.raises(ShapeMismatch, match="^adamw_update: "):
        adamw_update(p, np.zeros(3), m, v, 1, 0.1, (0.9, 0.999), 1e-8, 0.0, scratch_pair())


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_in_place_update_is_bit_identical_to_expression_form(weight_decay):
    """Five steps over 0-d to 4-d tensors, one of them without a gradient, equal with ==.

    One tensor spans two full blocks and a partial third; one parameter's
    ``.data`` is a transposed view, which has no flat view to update.
    """
    r = np.random.default_rng(3)
    shapes = [(), (7,), (3, 5), (2, 3, 4), (2, 2, 3, 3), (4,), (2 * CHUNK + 3,), (6, 5)]
    init = [r.normal(size=s) for s in shapes]

    def tensors():
        ts = [Tensor(a.copy(), requires_grad=True) for a in init]
        ts[7].data = init[7].T.copy().T  # a transposed view
        return ts

    mine, ref = tensors(), tensors()
    view = mine[7].data
    assert not view.flags.c_contiguous and view.base is not None
    s_mine, s_ref = AdamState.init(mine), AdamState.init(ref)
    scratch = scratch_pair()
    for i in range(5):
        grads = [r.normal(size=s) * 10.0 ** r.integers(-6, 3) for s in shapes]
        grads[5] = None if i % 2 == 0 else grads[5]
        grads[3] = grads[3].transpose(2, 0, 1).copy().transpose(1, 2, 0)  # non-contiguous
        step(mine, grads, s_mine, scratch, lr=3e-3, betas=(0.9, 0.999), eps=1e-8,
             weight_decay=weight_decay)
        oracle_adamw_step(ref, grads, s_ref, lr=3e-3, betas=(0.9, 0.999), eps=1e-8,
                          weight_decay=weight_decay)
        assert s_mine.t == s_ref.t == i + 1
        for a, b, ma, mb, va, vb in zip(mine, ref, s_mine.m, s_ref.m, s_mine.v, s_ref.v):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(ma, mb) and np.array_equal(va, vb)
    for a, b in zip(mine, init):
        assert not np.array_equal(a.data, b)  # the steps did move every parameter
    assert mine[7].data is view  # updated in place
