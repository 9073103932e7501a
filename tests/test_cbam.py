"""Channel/spatial attention contracts, oracles, and gradient flow."""

import numpy as np
import pytest

from railswin import cbam
from railswin import tensor as T
from railswin.cbam import (
    CbamParams,
    ChannelAttentionParams,
    SpatialAttentionParams,
    channel_attention_map,
    effective_reduction,
    refine,
    spatial_attention_map,
)
from railswin.errors import ShapeMismatch
from railswin.tensor import Tensor, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_cam(c, r):
    return ChannelAttentionParams(w0=Tensor(np.zeros((c // r, c))),
                                  w1=Tensor(np.zeros((c, c // r))), reduction=r)


def zero_sam():
    return SpatialAttentionParams(kernel=Tensor(np.zeros((1, 2, 7, 7))))


def oracle_channel_map(f, w0, w1):
    """Step-by-step: pool, shared two-layer MLP on both paths, sum, sigmoid."""
    c = f.shape[0]
    avg = f.reshape(c, -1).mean(axis=1)
    mx = f.reshape(c, -1).max(axis=1)

    def mlp(v):
        hidden = np.maximum(w0 @ v, 0.0)
        return w1 @ hidden

    logits = mlp(avg) + mlp(mx)
    return (1.0 / (1.0 + np.exp(-logits))).reshape(c, 1, 1)


def oracle_spatial_map(f, kernel):
    """pool over channels twice, stack, 7x7 convolve with zero pad, sigmoid."""
    avg = f.mean(axis=0)
    mx = f.max(axis=0)
    stacked = np.stack([avg, mx])
    H, W = avg.shape
    padded = np.pad(stacked, ((0, 0), (3, 3), (3, 3)))
    out = np.zeros((H, W))
    for r in range(H):
        for c in range(W):
            out[r, c] = np.sum(padded[:, r:r + 7, c:c + 7] * kernel[0])
    return (1.0 / (1.0 + np.exp(-out))).reshape(1, H, W)


class TestChannelAttention:
    def test_zero_params_give_half(self):
        f = Tensor(rng(0).normal(size=(4, 3, 3)))
        m = channel_attention_map(f, zero_cam(4, 2))
        assert m.shape == (4, 1, 1)
        assert np.all(m.data == 0.5)

    def test_constant_channels_collapse_pooling(self):
        p = ChannelAttentionParams.init(4, 2, rng(1))
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        f = Tensor(np.broadcast_to(vals[:, None, None], (4, 3, 3)).copy())
        m = channel_attention_map(f, p)
        # avg == max, so the logit is 2 * MLP(v)
        hidden = np.maximum(p.w0.data @ vals, 0.0)
        expected = 1.0 / (1.0 + np.exp(-2.0 * (p.w1.data @ hidden)))
        assert np.allclose(m.data.reshape(-1), expected, atol=1e-12)

    def test_matches_compositional_oracle(self):
        p = ChannelAttentionParams.init(4, 2, rng(2))
        f = rng(3).normal(size=(4, 3, 3))
        m = channel_attention_map(Tensor(f), p)
        assert np.allclose(m.data, oracle_channel_map(f, p.w0.data, p.w1.data), atol=1e-12)

    def test_shapes_and_range_sweep(self):
        for c in range(1, 9):
            p = ChannelAttentionParams.init(c, 4, rng(c))
            for h in (1, 5, 8):
                for w in (1, 4, 8):
                    m = channel_attention_map(Tensor(rng(h * w).normal(size=(c, h, w))), p)
                    assert m.shape == (c, 1, 1)
                    assert np.all((m.data > 0) & (m.data < 1))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            channel_attention_map(Tensor(np.ones((3, 2, 2))), zero_cam(4, 2))


class TestSpatialAttention:
    def test_zero_kernel_gives_half(self):
        f = Tensor(rng(0).normal(size=(4, 5, 6)))
        m = spatial_attention_map(f, zero_sam())
        assert m.shape == (1, 5, 6)
        assert np.all(m.data == 0.5)

    def test_shape_contract_sweep(self):
        p = SpatialAttentionParams.init(rng(1))
        for c in (1, 3, 8):
            for h in (1, 4, 8):
                for w in (2, 8):
                    m = spatial_attention_map(Tensor(rng(c + h + w).normal(size=(c, h, w))), p)
                    assert m.shape == (1, h, w)
                    assert np.all((m.data > 0) & (m.data < 1))

    def test_matches_compositional_oracle(self):
        p = SpatialAttentionParams.init(rng(2))
        f = rng(3).normal(size=(3, 8, 8))
        m = spatial_attention_map(Tensor(f), p)
        assert np.allclose(m.data, oracle_spatial_map(f, p.kernel.data), atol=1e-12)


class TestRefine:
    def test_half_maps_halve_features(self):
        f = Tensor(rng(0).normal(size=(4, 3, 3)))
        m = channel_attention_map(f, zero_cam(4, 4))
        out = refine(f, m)
        assert np.allclose(out.data, f.data / 2.0, atol=1e-15)

    def test_saturated_maps_approach_identity(self):
        f = Tensor(rng(1).normal(size=(4, 3, 3)))
        big = 1e4
        w0 = np.vstack([np.full((1, 4), big), np.full((1, 4), -big)])
        w1 = np.full((4, 2), big)
        p = ChannelAttentionParams(w0=Tensor(w0), w1=Tensor(w1), reduction=2)
        m = channel_attention_map(f, p)
        out = refine(f, m)
        assert np.max(np.abs(out.data - f.data)) < 1e-3

    def test_both_gates_match_scalar_loop(self):
        r = rng(2)
        f = r.normal(size=(3, 4, 4))
        m_c = r.uniform(0.1, 0.9, size=(3, 1, 1))
        m_s = r.uniform(0.1, 0.9, size=(1, 4, 4))
        out = refine(refine(Tensor(f), Tensor(m_c)), Tensor(m_s))
        expected = np.empty_like(f)
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    expected[c, i, j] = f[c, i, j] * m_c[c, 0, 0] * m_s[0, i, j]
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_output_shape_equals_input(self):
        f = Tensor(rng(3).normal(size=(2, 5, 7)))
        m = spatial_attention_map(f, SpatialAttentionParams.init(rng(4)))
        assert refine(f, m).shape == (2, 5, 7)

    def test_gate_kind_comes_from_its_shape(self):
        f = Tensor(rng(8).normal(size=(3, 4, 5)))
        for bad in [(3, 4, 1),  # neither [C, 1, 1] nor [1, H, W]
                    (2, 1, 1), (4, 1, 1),  # channel gate, wrong C
                    (1, 4, 4), (1, 5, 5), (1, 5, 4)]:  # spatial gate, wrong H x W
            with pytest.raises(ShapeMismatch):
                refine(f, Tensor(np.full(bad, 0.5)))
        fb = rng(9).normal(size=(2, 3, 4, 5))
        m_c = rng(10).uniform(size=(2, 3, 1, 1))
        m_s = rng(11).uniform(size=(2, 1, 4, 5))
        assert np.array_equal(refine(Tensor(fb), Tensor(m_c)).data, fb * m_c)
        assert np.array_equal(refine(Tensor(fb), Tensor(m_s)).data, fb * m_s)

    def test_counter_counts_refine_calls(self, refine_calls):
        f = Tensor(rng(5).normal(size=(4, 3, 3)))
        cam = ChannelAttentionParams.init(4, 2, rng(6))
        sam = SpatialAttentionParams.init(rng(7))
        cbam.gate(f, CbamParams(cam=cam, sam=sam))
        assert len(refine_calls) == 1
        m = channel_attention_map(f, cam)
        cbam.refine(f, m)  # the fixture wraps the module attribute, not this file's name
        assert len(refine_calls) == 2


def composed_gate(f, params):
    """What ``gate`` replaces: the explicit map-then-refine composition per kind."""
    if isinstance(params, CbamParams):
        refined = f * channel_attention_map(f, params.cam)
        return refine(refined, spatial_attention_map(refined, params.sam))
    if isinstance(params, ChannelAttentionParams):
        return refine(f, channel_attention_map(f, params))
    return refine(f, spatial_attention_map(f, params))


GATE_PARAMS = {
    "cbam": lambda r: CbamParams.init(6, 2, r),
    "channel": lambda r: ChannelAttentionParams.init(6, 2, r),
    "spatial": lambda r: SpatialAttentionParams.init(r),
}


class TestGate:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("kind", list(GATE_PARAMS))
    def test_matches_composition_values_and_gradients(self, kind, lead):
        params = GATE_PARAMS[kind](rng(20))
        f = Tensor(rng(21).normal(size=lead + (6, 5, 4)), requires_grad=True)
        probe = Tensor(rng(22).normal(size=lead + (6, 5, 4)))
        leaves = [f] + [t for _, t in T.named_parameters(params)]
        assert len(leaves) == {"cbam": 4, "channel": 3, "spatial": 2}[kind]

        def run(fn):
            out = fn(f, params)
            T.backward(T.tsum(out * probe))
            return out.data, [t.grad.copy() for t in leaves]

        out, grads = run(cbam.gate)
        want_out, want_grads = run(composed_gate)
        assert np.array_equal(out, want_out)
        for g, want in zip(grads, want_grads):
            assert np.array_equal(g, want)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("kind", list(GATE_PARAMS))
    def test_one_refine_call_per_gate(self, refine_calls, kind, lead):
        params = GATE_PARAMS[kind](rng(23))
        f = Tensor(rng(24).normal(size=lead + (6, 3, 3)))
        for n in (1, 2, 3):
            cbam.gate(f, params)
            assert len(refine_calls) == n


class TestGradients:
    def test_full_pipeline_channel(self):
        p = ChannelAttentionParams.init(4, 2, rng(0))
        f = Tensor(rng(1).normal(size=(4, 3, 3)))

        def fn(t):
            m = channel_attention_map(t, p)
            return T.tsum(refine(t, m))

        assert grad_check(fn, f, eps=1e-5) < 1e-4

    def test_full_pipeline_spatial(self):
        p = SpatialAttentionParams.init(rng(2))
        f = Tensor(rng(3).normal(size=(4, 5, 5)))

        def fn(t):
            m = spatial_attention_map(t, p)
            return T.tsum(refine(t, m))

        assert grad_check(fn, f, eps=1e-5) < 1e-4

    def test_weight_sharing_both_paths_carry_gradient(self):
        """Untie the shared MLP into per-path copies: each copy sees gradient,
        and the tied weight's gradient is their sum (chain rule for sharing)."""
        p = ChannelAttentionParams.init(4, 2, rng(4))
        f = Tensor(rng(5).normal(size=(4, 3, 3)))

        w0_avg = Tensor(p.w0.data.copy(), requires_grad=True)
        w0_max = Tensor(p.w0.data.copy(), requires_grad=True)

        def mlp(pooled, w0):
            vec = T.reshape(pooled, (4,))
            return T.linear(T.relu(T.linear(vec, w0)), p.w1)

        out = T.sigmoid(mlp(T.pool_spatial(f, "avg"), w0_avg)
                        + mlp(T.pool_spatial(f, "max"), w0_max))
        T.backward(T.tsum(out))
        avg_grad, max_grad = w0_avg.grad.copy(), w0_max.grad.copy()
        assert np.linalg.norm(avg_grad) > 1e-8
        assert np.linalg.norm(max_grad) > 1e-8

        def shared(t):
            m = channel_attention_map(f, ChannelAttentionParams(w0=t, w1=p.w1, reduction=2))
            return T.tsum(m)

        w0 = Tensor(p.w0.data.copy(), requires_grad=True)
        T.backward(shared(w0))
        assert np.allclose(w0.grad, avg_grad + max_grad, atol=1e-12)

    def test_permutation_equivariance_identity_mlp(self):
        """With r=1 and identity MLP weights, permuting channels permutes the map."""
        c = 5
        p = ChannelAttentionParams(w0=Tensor(np.eye(c)), w1=Tensor(np.eye(c)), reduction=1)
        f = rng(6).normal(size=(c, 4, 4))
        perm = rng(7).permutation(c)
        m = channel_attention_map(Tensor(f), p).data.reshape(-1)
        m_perm = channel_attention_map(Tensor(f[perm]), p).data.reshape(-1)
        assert np.allclose(m_perm, m[perm], atol=1e-14)

    def test_permutation_equivariance_permuted_weights(self):
        c, r = 6, 2
        p = ChannelAttentionParams.init(c, r, rng(8))
        f = rng(9).normal(size=(c, 3, 3))
        perm = rng(10).permutation(c)
        permuted = ChannelAttentionParams(w0=Tensor(p.w0.data[:, perm]),
                                          w1=Tensor(p.w1.data[perm, :]), reduction=r)
        m = channel_attention_map(Tensor(f), p).data.reshape(-1)
        m_perm = channel_attention_map(Tensor(f[perm]), permuted).data.reshape(-1)
        assert np.allclose(m_perm, m[perm], atol=1e-14)


def test_effective_reduction():
    assert effective_reduction(16, 4) == 4
    assert effective_reduction(3, 4) == 3
    assert effective_reduction(1, 16) == 1
    assert effective_reduction(48, 16) == 16
    assert effective_reduction(6, 4) == 3
