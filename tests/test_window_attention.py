"""Shifted-window attention as three tape nodes, held to the composed ops.

The windowing, attention-core and un-windowing nodes must give forward
values and gradients ``==`` to the single-op chain they replaced
(``_oracles.oracle_*``), not merely close to it.
"""

import numpy as np
import pytest

from _oracles import (
    oracle_swin_block_forward,
    oracle_window_msa,
    oracle_window_partition,
    oracle_window_reverse,
)
from railswin import swin as S
from railswin import tensor as T
from railswin.cbam import ChannelAttentionParams, SpatialAttentionParams
from railswin.errors import IndivisibleInput, ShapeMismatch
from railswin.swin import (
    CbamPlacement,
    SwinBackbone,
    _init_block,
    build_shift_mask,
    nano_config,
    relative_position_index,
    swin_block_forward,
    tiny_config,
    window_msa,
    window_partition,
    window_reverse,
)
from railswin.synth import SyntheticSpec
from railswin.tensor import Tensor, grad_check
from railswin.train import TrainConfig, train


def rng(seed=0):
    return np.random.default_rng(seed)


def perturb(named, seed):
    """Move every parameter off its init (zero projections would hide gradients)."""
    r = rng(seed)
    for _, p in named:
        p.data = p.data + r.normal(0.0, 0.05, p.shape)


def weighted_sum(outputs, seed):
    r = rng(seed)
    loss = None
    for out in outputs:
        term = T.tsum(out * Tensor(r.normal(size=out.shape)))
        loss = term if loss is None else loss + term
    return loss


def grads_of(named):
    return [(name, None if p.grad is None else p.grad.copy()) for name, p in named]


def assert_same_grads(got, expected):
    assert [n for n, _ in got] == [n for n, _ in expected]
    for (name, g), (_, e) in zip(got, expected):
        assert (g is None) == (e is None), name
        if g is not None:
            assert g.shape == e.shape and np.array_equal(g, e), name


def run_block(fn, x_data, params, shift):
    x = Tensor(x_data, requires_grad=True)
    out = fn(x, params, shift)
    T.backward(weighted_sum([out], 7))
    return out.data, x.grad.copy(), grads_of(T.named_parameters(params))


def assert_block_matches_oracle(x_data, params, shift):
    got = run_block(swin_block_forward, x_data, params, shift)
    expected = run_block(oracle_swin_block_forward, x_data, params, shift)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert_same_grads(got[2], expected[2])


class TestBackboneBitIdentity:
    @pytest.mark.parametrize("cfg, batch", [(nano_config(p, seed=3), 3) for p in CbamPlacement]
                             + [(tiny_config(seed=3), 1)],
                             ids=[p.value for p in CbamPlacement] + ["tiny-none"])
    def test_features_and_every_gradient(self, monkeypatch, cfg, batch):
        image = rng(1).normal(size=(batch, 1) + cfg.input_size)

        def run():
            model = SwinBackbone(cfg)
            perturb(model.named_parameters(), 2)
            x = Tensor(image, requires_grad=True)
            feats = model.forward(x)
            T.backward(weighted_sum(feats, 3))
            return [f.data for f in feats], x.grad.copy(), grads_of(model.named_parameters())

        feats, x_grad, grads = run()
        monkeypatch.setattr(S, "swin_block_forward", oracle_swin_block_forward)
        o_feats, o_x_grad, o_grads = run()
        assert all(np.array_equal(a, b) for a, b in zip(feats, o_feats))
        assert np.array_equal(x_grad, o_x_grad)
        assert_same_grads(grads, o_grads)
        assert all(g is not None for name, g in grads if "bias_table" in name or "qkv" in name)


class TestBlockBitIdentity:
    @pytest.mark.parametrize("shift", [0, 1])
    def test_unbatched_grid(self, shift):
        p = _init_block(8, 2, 2, 2.0, rng(0))
        perturb(T.named_parameters(p), 1)
        assert_block_matches_oracle(rng(2).normal(size=(4, 4, 8)), p, shift)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_batched_rectangular_grid(self, shift):
        p = _init_block(8, 2, 2, 2.0, rng(3))
        perturb(T.named_parameters(p), 4)
        assert_block_matches_oracle(rng(5).normal(size=(3, 4, 6, 8)), p, shift)

    def test_window_1(self):
        p = _init_block(6, 3, 1, 2.0, rng(6))
        perturb(T.named_parameters(p), 7)
        assert_block_matches_oracle(rng(8).normal(size=(2, 3, 3, 6)), p, 0)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_padded_1x1_grid(self, shift):
        p = _init_block(8, 4, 2, 2.0, rng(9))
        perturb(T.named_parameters(p), 10)
        assert_block_matches_oracle(rng(11).normal(size=(4, 1, 1, 8)), p, shift)

    def test_shifted_window_3_with_gate(self):
        # shift 1 of window 3 on a 6x6 grid; the spatial gate hands the
        # windowing node a transposed, non-contiguous grid
        r = rng(12)
        p = _init_block(4, 2, 3, 2.0, r, cbam=SpatialAttentionParams.init(r))
        perturb(T.named_parameters(p), 13)
        assert_block_matches_oracle(r.normal(size=(2, 6, 6, 4)), p, 1)

    def test_channel_gate(self):
        r = rng(14)
        p = _init_block(8, 2, 2, 2.0, r, cbam=ChannelAttentionParams.init(8, 4, r))
        perturb(T.named_parameters(p), 15)
        assert_block_matches_oracle(r.normal(size=(2, 4, 4, 8)), p, 0)


class TestNodeBitIdentity:
    def test_window_msa_four_heads_with_mask(self):
        p = _init_block(8, 4, 2, 2.0, rng(0))
        p.bias_table = None
        perturb(T.named_parameters(p), 1)
        x_data = rng(2).normal(size=(2, 4, 4, 8))
        mask = build_shift_mask(4, 4, 2, 1)

        def run(fn):
            x = Tensor(x_data, requires_grad=True)
            out = fn(x, p, mask=mask)
            T.backward(weighted_sum([out], 3))
            return out.data, x.grad.copy(), grads_of(T.named_parameters(p))

        got, expected = run(window_msa), run(oracle_window_msa)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert_same_grads(got[2], expected[2])

    @pytest.mark.parametrize("shape, window, shift", [((4, 6, 3), 2, 1), ((2, 6, 6, 3), 3, 1),
                                                      ((5, 5, 2), 1, 0), ((2, 2, 4, 4, 3), 2, 0)])
    def test_partition_and_reverse_match_roll_chain(self, shape, window, shift):
        data = rng(4).normal(size=shape)
        H, W = shape[-3:-1]
        n = len(shape) - 3

        def run(partition, reverse):
            x = Tensor(data, requires_grad=True)
            wins = partition(x)
            back = reverse(wins * Tensor(rng(5).normal(size=wins.shape)))
            T.backward(weighted_sum([back], 6))
            return wins.data, back.data, x.grad.copy()

        got = run(lambda x: window_partition(x, window, shift),
                  lambda w: window_reverse(w, H, W, shift))
        expected = run(
            lambda x: oracle_window_partition(T.roll(x, (-shift, -shift), (n, n + 1)), window),
            lambda w: T.roll(oracle_window_reverse(w, H, W), (shift, shift), (n, n + 1)))
        for a, b in zip(got, expected):
            assert a.shape == b.shape and np.array_equal(a, b)


class TestNodeGradCheck:
    def test_window_partition(self):
        w = rng(0).normal(size=(2, 9, 3))
        assert grad_check(lambda x: T.tsum(window_partition(x, 3, 1) * Tensor(w)),
                          Tensor(rng(1).normal(size=(6, 3, 3)))) < 1e-8

    def test_window_reverse(self):
        w = rng(2).normal(size=(4, 4, 2))
        assert grad_check(lambda x: T.tsum(window_reverse(x, 4, 4, 1) * Tensor(w)),
                          Tensor(rng(3).normal(size=(4, 4, 2)))) < 1e-8

    def _core(self, qkv, table):
        mask = build_shift_mask(4, 4, 2, 1)
        out = S._attention_core(qkv, 2, table, relative_position_index(2), mask)
        return T.tsum(out * Tensor(rng(4).normal(size=out.shape)))

    def test_attention_core_qkv(self):
        table = Tensor(rng(5).normal(size=(9, 2)))
        qkv = Tensor(rng(6).normal(size=(2, 4, 4, 12)))
        assert grad_check(lambda x: self._core(x, table), qkv) < 1e-6

    def test_attention_core_bias_table(self):
        qkv = Tensor(rng(7).normal(size=(4, 4, 12)))
        assert grad_check(lambda t: self._core(qkv, t), Tensor(rng(8).normal(size=(9, 2)))) < 1e-6


def test_attention_core_keeps_no_scaled_query():
    """A recorded attention core holds its output and the attention weights,
    not a scaled copy of the queries: backward recomputes ``q * scale``."""
    from test_tensor import retained_bytes

    windows, tokens, heads, dim = 16, 49, 3, 96
    qkv = Tensor(rng(9).normal(size=(windows, tokens, 3 * dim)), requires_grad=True)
    table = Tensor(rng(10).normal(size=(13 * 13, heads)), requires_grad=True)
    out, held = retained_bytes(
        lambda: S._attention_core(qkv, heads, table, relative_position_index(7)))
    assert out._backward is not None
    attn = windows * heads * tokens * tokens * 8
    query = windows * tokens * dim * 8
    assert attn + out.data.nbytes <= held < attn + out.data.nbytes + query // 2


class TestChecksStillRaise:
    def _params(self, window=2, heads=1, dim=4):
        return _init_block(dim, heads, window, 2.0, rng(0))

    @pytest.mark.parametrize("call, error", [
        (lambda: window_partition(Tensor(np.ones((4, 2))), 2), ShapeMismatch),
        (lambda: window_partition(Tensor(np.ones((5, 4, 2))), 2, 1), IndivisibleInput),
        (lambda: window_reverse(Tensor(np.ones((4, 2))), 2, 2), ShapeMismatch),
        (lambda: window_reverse(Tensor(np.ones((4, 4, 2))), 8, 8), ShapeMismatch),
        (lambda: window_reverse(Tensor(np.ones((2, 2, 2))), 2, 2), ShapeMismatch),
        (lambda: window_reverse(Tensor(np.ones((3, 4, 2))), 3, 4), ShapeMismatch),
    ], ids=["partition-rank", "partition-indivisible", "reverse-rank", "reverse-count",
            "reverse-not-square", "reverse-indivisible"])
    def test_windowing(self, call, error):
        with pytest.raises(error):
            call()

    def test_heads(self):
        with pytest.raises(ShapeMismatch):
            window_msa(Tensor(np.ones((1, 4, 4))), self._params(heads=3))

    def test_bias_table_shape(self):
        p = self._params()
        p.bias_table = Tensor(np.zeros((4, 1)))
        with pytest.raises(ShapeMismatch):
            window_msa(Tensor(np.ones((1, 4, 4))), p)

    def test_tokens_per_window(self):
        with pytest.raises(ShapeMismatch):
            window_msa(Tensor(np.ones((1, 9, 4))), self._params())

    @pytest.mark.parametrize("mask_shape", [(1, 3, 3), (3, 4, 4), (4, 4)])
    def test_mask_shape(self, mask_shape):
        with pytest.raises(ShapeMismatch):
            window_msa(Tensor(np.ones((2, 4, 4))), self._params(), mask=np.zeros(mask_shape))


class TestShiftMaskCache:
    def test_read_only_and_not_copied(self):
        a = build_shift_mask(4, 4, 2, 1)
        b = build_shift_mask(4, 4, 2, 1)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0, 0] = 0.0


def nodes_per_iteration(monkeypatch, placement, task):
    make, calls = T._make, [0]

    def counting(*args):
        calls[0] += 1
        return make(*args)

    monkeypatch.setattr(T, "_make", counting)
    spec = SyntheticSpec(num_images=16, image_size=(32, 32), seed=0)
    train(TrainConfig(swin=nano_config(placement, seed=0), batch_size=16, seed=0,
                      synthetic=spec, task=task, max_iterations=1, epochs=1))
    return calls[0]


class TestTapeSize:
    def test_nano_none_iteration(self, monkeypatch):
        assert nodes_per_iteration(monkeypatch, CbamPlacement.NONE, "classification") == 128

    def test_nano_block_localization_iteration(self, monkeypatch):
        assert nodes_per_iteration(monkeypatch, CbamPlacement.BLOCK, "localization") == 175
