"""Backbone mechanics: windowing, masks, attention, blocks, full forward."""

import json

import numpy as np
import pytest

from railswin import tensor as T
from railswin.cbam import ChannelAttentionParams, SpatialAttentionParams, refine
from railswin.config import from_dict, to_dict
from railswin.errors import IndivisibleInput, InvalidParam, ParseError, ShapeMismatch
from railswin.swin import (
    CbamPlacement,
    SwinBackbone,
    SwinConfig,
    build_shift_mask,
    backbone_forward,
    init_backbone_params,
    map_to_grid,
    nano_config,
    patch_merging,
    patch_partition_embed,
    swin_block_forward,
    tiny_config,
    window_msa,
    window_partition,
    window_reverse,
)
from railswin.swin import BlockParams, PatchMergeParams, _grid_to_map, _init_block
from railswin.tensor import Tensor, grad_check, no_grad


def rng(seed=0):
    return np.random.default_rng(seed)


def micro_config(placement=CbamPlacement.NONE, seed=5):
    """Under 5k parameters; every stage exercised on a 32x32 input."""
    return SwinConfig(embed_dim=2, depths=(1, 1, 1, 1), num_heads=(1, 1, 1, 1),
                      window_size=2, mlp_ratio=1.0, placement=placement,
                      cbam_reduction=2, patch_size=4, input_size=(32, 32), seed=seed)


def block_pair(x, p1, p2, window=2):
    """A plain-window block, then a shifted-window block."""
    x = swin_block_forward(x, p1, shift=0)
    return swin_block_forward(x, p2, shift=window // 2)


def zero_block(dim, heads, window, mlp_ratio=2.0):
    """All branch weights zero: the block must act as the identity."""
    hidden = int(dim * mlp_ratio)
    z = lambda *s: Tensor(np.zeros(s))
    return BlockParams(dim=dim, num_heads=heads, window=window,
                       norm1_g=Tensor(np.ones(dim)), norm1_b=z(dim),
                       qkv_w=z(3 * dim, dim), qkv_b=z(3 * dim),
                       proj_w=z(dim, dim), proj_b=z(dim),
                       bias_table=z((2 * window - 1) ** 2, heads),
                       norm2_g=Tensor(np.ones(dim)), norm2_b=z(dim),
                       mlp_w1=z(hidden, dim), mlp_b1=z(hidden),
                       mlp_w2=z(dim, hidden), mlp_b2=z(dim))


class TestWindowing:
    def test_single_window_preserves_order(self):
        x = Tensor(rng(0).normal(size=(3, 3, 2)))
        w = window_partition(x, 3)
        assert w.shape == (1, 9, 2)
        assert np.array_equal(w.data[0], x.data.reshape(9, 2))

    def test_window_zero_holds_topleft_tokens(self):
        # 4x4 grid of tokens whose single feature encodes (row, col)
        grid = np.arange(16, dtype=float).reshape(4, 4, 1)
        w = window_partition(Tensor(grid), 2)
        # index oracle: window 0 = rows {0,1} x cols {0,1}, row-major
        assert w.data[0, :, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
        assert w.data[1, :, 0].tolist() == [2.0, 3.0, 6.0, 7.0]
        assert w.data[2, :, 0].tolist() == [8.0, 9.0, 12.0, 13.0]

    @pytest.mark.parametrize("h", [2, 4, 6, 8])
    @pytest.mark.parametrize("w", [2, 4, 6, 8])
    def test_roundtrip_bit_identical(self, h, w):
        x = Tensor(rng(h * 10 + w).normal(size=(h, w, 3)))
        out = window_reverse(window_partition(x, 2), h, w)
        assert np.array_equal(out.data, x.data)

    def test_roundtrip_window_4(self):
        x = Tensor(rng(1).normal(size=(8, 8, 3)))
        assert np.array_equal(window_reverse(window_partition(x, 4), 8, 8).data, x.data)

    def test_indivisible_rejected(self):
        with pytest.raises(IndivisibleInput):
            window_partition(Tensor(np.ones((5, 4, 2))), 2)

    def test_reverse_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            window_reverse(Tensor(np.ones((4, 4, 2))), 8, 8)

    def test_batched_roundtrip(self):
        x = Tensor(rng(2).normal(size=(3, 4, 4, 5)))
        out = window_reverse(window_partition(x, 2), 4, 4)
        assert np.array_equal(out.data, x.data)


def region_band(v, extent, window, shift):
    """Oracle region band: [0, shift), [shift, extent-window+shift), rest."""
    if v < shift:
        return 0
    if v < extent - window + shift:
        return 1
    return 2


def oracle_mask(H, W, window, shift):
    """Assign pre-shift region ids, then compare pairwise inside each
    post-shift window (scalar loops, no slicing tricks)."""
    nw_h, nw_w = H // window, W // window
    Tsz = window * window
    mask = np.zeros((nw_h * nw_w, Tsz, Tsz))
    region = {}
    owner = {}  # (window_index, slot) -> original token
    for r in range(H):
        for c in range(W):
            region[(r, c)] = region_band(r, H, window, shift) * 3 + region_band(c, W, window, shift)
            sr, sc = (r - shift) % H, (c - shift) % W
            widx = (sr // window) * nw_w + (sc // window)
            slot = (sr % window) * window + (sc % window)
            owner[(widx, slot)] = (r, c)
    for widx in range(nw_h * nw_w):
        for i in range(Tsz):
            for j in range(Tsz):
                if region[owner[(widx, i)]] != region[owner[(widx, j)]]:
                    mask[widx, i, j] = -1e9
    return mask


class TestShiftMask:
    def test_zero_shift_all_zero(self):
        m = build_shift_mask(4, 4, 2, 0)
        assert m.shape == (4, 4, 4)
        assert np.all(m == 0.0)

    def test_matches_region_id_oracle_4x4(self):
        m = build_shift_mask(4, 4, 2, 1)
        assert np.array_equal(m, oracle_mask(4, 4, 2, 1))

    @pytest.mark.parametrize("hw", [(2, 2), (4, 4), (4, 8), (6, 6), (8, 8), (8, 4)])
    def test_matches_oracle_and_symmetric(self, hw):
        h, w = hw
        m = build_shift_mask(h, w, 2, 1)
        assert np.array_equal(m, oracle_mask(h, w, 2, 1))
        assert np.array_equal(m, m.transpose(0, 2, 1))

    def test_window4(self):
        m = build_shift_mask(8, 8, 4, 2)
        assert np.array_equal(m, oracle_mask(8, 8, 4, 2))

    def test_invalid_shift(self):
        with pytest.raises(InvalidParam):
            build_shift_mask(4, 4, 2, 2)


class TestWindowMsa:
    def test_identical_tokens_give_identical_outputs(self):
        p = _init_block(4, 2, 2, 2.0, rng(0))
        p.bias_table = None
        token = rng(1).normal(size=4)
        x = Tensor(np.tile(token, (1, 4, 1)))
        out = window_msa(x, p)
        assert np.allclose(out.data[0] - out.data[0][0], 0.0, atol=1e-12)

    def test_two_token_closed_form(self):
        """One head, hand-set projections, T=2: match the by-hand softmax mix."""
        D = 2
        wq = np.array([[1.0, 0.0], [0.0, 1.0]])
        wk = np.array([[0.5, -1.0], [2.0, 0.0]])
        wv = np.array([[1.0, 1.0], [-1.0, 2.0]])
        p = BlockParams(dim=D, num_heads=1, window=1,
                        norm1_g=Tensor(np.ones(D)), norm1_b=Tensor(np.zeros(D)),
                        qkv_w=Tensor(np.vstack([wq, wk, wv])), qkv_b=Tensor(np.zeros(3 * D)),
                        proj_w=Tensor(np.eye(D)), proj_b=Tensor(np.zeros(D)),
                        bias_table=None,
                        norm2_g=Tensor(np.ones(D)), norm2_b=Tensor(np.zeros(D)),
                        mlp_w1=Tensor(np.zeros((D, D))), mlp_b1=Tensor(np.zeros(D)),
                        mlp_w2=Tensor(np.zeros((D, D))), mlp_b2=Tensor(np.zeros(D)))
        x = np.array([[0.3, -0.7], [1.2, 0.4]])
        out = window_msa(Tensor(x[None]), p).data[0]

        q, k, v = x @ wq.T, x @ wk.T, x @ wv.T
        scores = q @ k.T / np.sqrt(D)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(out, a @ v, atol=1e-12)

    def test_masked_pair_excluded(self):
        """Value vectors are one-hot, so outputs read attention weights off."""
        Tn = 4
        wv = np.eye(Tn)  # picks token identity as value... via input below
        p = BlockParams(dim=Tn, num_heads=1, window=2,
                        norm1_g=Tensor(np.ones(Tn)), norm1_b=Tensor(np.zeros(Tn)),
                        qkv_w=Tensor(np.vstack([np.eye(Tn), np.eye(Tn), wv])),
                        qkv_b=Tensor(np.zeros(3 * Tn)),
                        proj_w=Tensor(np.eye(Tn)), proj_b=Tensor(np.zeros(Tn)),
                        bias_table=None,
                        norm2_g=Tensor(np.ones(Tn)), norm2_b=Tensor(np.zeros(Tn)),
                        mlp_w1=Tensor(np.zeros((Tn, Tn))), mlp_b1=Tensor(np.zeros(Tn)),
                        mlp_w2=Tensor(np.zeros((Tn, Tn))), mlp_b2=Tensor(np.zeros(Tn)))
        x = Tensor(np.eye(Tn)[None])  # token i = basis vector e_i, so out[i][j] = a_ij
        mask = np.zeros((1, Tn, Tn))
        mask[0, 0, 3] = mask[0, 3, 0] = -1e9
        out = window_msa(x, p, mask=mask).data[0]
        assert out[0, 3] < 1e-30
        assert out[3, 0] < 1e-30
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_head_divisibility(self):
        p = _init_block(4, 3, 2, 2.0, rng(2))
        with pytest.raises(ShapeMismatch):
            window_msa(Tensor(np.ones((1, 4, 4))), p)


class TestBlocks:
    def test_zero_branches_identity(self):
        x = Tensor(rng(0).normal(size=(4, 4, 8)))
        out = block_pair(x, zero_block(8, 1, 2), zero_block(8, 1, 2))
        assert np.array_equal(out.data, x.data)

    def test_saturated_cbam_matches_plain(self):
        r = rng(1)
        p1 = _init_block(8, 2, 2, 2.0, r)
        p2 = _init_block(8, 2, 2, 2.0, r)
        x = Tensor(r.normal(size=(4, 4, 8)))
        plain = block_pair(x, p1, p2)
        big = 1e4
        p1.cbam = ChannelAttentionParams(
            w0=Tensor(np.vstack([np.full((1, 8), big), np.full((1, 8), -big)])),
            w1=Tensor(np.full((8, 2), big)), reduction=4)
        p2.cbam = SpatialAttentionParams(kernel=Tensor(np.full((1, 2, 7, 7), big)))
        gated = block_pair(x, p1, p2)
        assert np.max(np.abs(gated.data - plain.data)) < 1e-3

    def test_pair_matches_compositional_oracle(self):
        """Assemble the documented step order from already-verified ops."""
        r = rng(2)
        cam = ChannelAttentionParams.init(8, 4, r)
        sam = SpatialAttentionParams.init(r)
        p1 = _init_block(8, 2, 2, 2.0, r, cbam=cam)
        p2 = _init_block(8, 2, 2, 2.0, r, cbam=sam)
        x = Tensor(r.normal(size=(4, 4, 8)))
        out = block_pair(x, p1, p2)

        from railswin.cbam import channel_attention_map, spatial_attention_map

        def mlp(t, p):
            return T.linear(T.gelu(T.linear(t, p.mlp_w1, p.mlp_b1)), p.mlp_w2, p.mlp_b2)

        def block(t, p, shift):
            shortcut = t
            grid = T.layer_norm(t, p.norm1_g, p.norm1_b)
            chw = T.transpose(grid, (2, 0, 1))
            gate_map = channel_attention_map if shift == 0 else spatial_attention_map
            chw = refine(chw, gate_map(chw, p.cbam))
            grid = T.transpose(chw, (1, 2, 0))
            mask = None
            if shift:
                grid = T.roll(grid, (-shift, -shift), (0, 1))
                mask = build_shift_mask(4, 4, 2, shift)
            wins = window_partition(grid, 2)
            wins = window_msa(wins, p, mask=mask)
            grid = window_reverse(wins, 4, 4)
            if shift:
                grid = T.roll(grid, (shift, shift), (0, 1))
            t = grid + shortcut
            return t + mlp(T.layer_norm(t, p.norm2_g, p.norm2_b), p)

        expected = block(block(x, p1, 0), p2, 1)
        assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_grid_shape_mismatch(self):
        p = _init_block(8, 1, 2, 2.0, rng(3))
        for shape in [(4, 4, 7), (16, 8)]:  # last axis not params.dim; flat tokens
            with pytest.raises(ShapeMismatch):
                swin_block_forward(Tensor(np.ones(shape)), p, shift=0)


class TestShiftedAttentionOracle:
    def test_swmsa_equals_bruteforce_masked_attention(self):
        """4x4 grid, window 2, shift 1: the roll/partition/mask path must agree
        with direct per-token attention over same-window, same-region peers."""
        H = W = 4
        win, shift, D, heads = 2, 1, 8, 2
        r = rng(4)
        p = _init_block(D, heads, win, 2.0, r)
        p.bias_table = None
        x = r.normal(size=(H * W, D))

        grid = T.reshape(Tensor(x), (H, W, D))
        rolled = T.roll(grid, (-shift, -shift), (0, 1))
        mask = build_shift_mask(H, W, win, shift)
        wins = window_partition(rolled, win)
        att = window_msa(wins, p, mask=mask)
        back = T.roll(window_reverse(att, H, W), (shift, shift), (0, 1))
        ours = T.reshape(back, (H * W, D)).data

        # brute force on the unshifted grid
        qkv = x @ p.qkv_w.data.T + p.qkv_b.data
        q, k, v = qkv[:, :D], qkv[:, D:2 * D], qkv[:, 2 * D:]
        hd = D // heads

        def token_index(rr, cc):
            return rr * W + cc

        def swindow(rr, cc):
            return ((rr - shift) % H // win, (cc - shift) % W // win)

        def region(rr, cc):
            return (region_band(rr, H, win, shift), region_band(cc, W, win, shift))

        expected = np.zeros_like(x)
        for rr in range(H):
            for cc in range(W):
                i = token_index(rr, cc)
                allowed = [token_index(r2, c2) for r2 in range(H) for c2 in range(W)
                           if swindow(r2, c2) == swindow(rr, cc)
                           and region(r2, c2) == region(rr, cc)]
                for h in range(heads):
                    sl = slice(h * hd, (h + 1) * hd)
                    scores = np.array([q[i, sl] @ k[j, sl] / np.sqrt(hd) for j in allowed])
                    a = np.exp(scores - scores.max())
                    a /= a.sum()
                    expected[i, sl] = sum(w * v[j, sl] for w, j in zip(a, allowed))
        expected = expected @ p.proj_w.data.T + p.proj_b.data
        assert np.max(np.abs(ours - expected)) < 1e-10


class TestLayout:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
    def test_map_to_grid_inverts_grid_to_map(self, lead):
        grid = Tensor(rng(30).normal(size=lead + (3, 5, 4)), requires_grad=True)
        f = _grid_to_map(grid)
        assert np.array_equal(f.data, np.moveaxis(grid.data, -1, -3))
        back = map_to_grid(f)
        assert np.array_equal(back.data, grid.data)
        assert np.array_equal(_grid_to_map(back).data, f.data)
        probe = rng(31).normal(size=grid.shape)
        T.backward(T.tsum(back * Tensor(probe)))
        assert np.array_equal(grid.grad, probe)


class TestPatchOps:
    def test_partition_embed_hand_oracle(self):
        cfg = micro_config()
        img = rng(0).normal(size=(1, 4, 4))
        proj = rng(1).normal(size=(2, 16))
        bias = rng(2).normal(size=2)
        params = init_backbone_params(cfg, in_channels=1)
        params.embed_w = Tensor(proj)
        params.embed_b = Tensor(bias)
        grid = patch_partition_embed(Tensor(img), cfg, params)
        # oracle: single 4x4 patch flattened channel-first, then projected
        flat = img.reshape(-1)
        assert grid.shape == (1, 1, 2)
        assert np.allclose(grid.data[0, 0], proj @ flat + bias, atol=1e-12)

    def test_token_count(self):
        cfg = micro_config()
        params = init_backbone_params(cfg, in_channels=1)
        grid = patch_partition_embed(Tensor(rng(3).normal(size=(1, 8, 8))), cfg, params)
        assert grid.shape == (2, 2, 2)

    def test_zero_image_gives_bias(self):
        cfg = micro_config()
        params = init_backbone_params(cfg, in_channels=1)
        grid = patch_partition_embed(Tensor(np.zeros((1, 8, 8))), cfg, params)
        assert np.allclose(grid.data, np.tile(params.embed_b.data, (2, 2, 1)), atol=1e-15)

    def test_indivisible_image_rejected(self):
        cfg = micro_config()
        params = init_backbone_params(cfg, in_channels=1)
        with pytest.raises(IndivisibleInput):
            patch_partition_embed(Tensor(np.zeros((1, 10, 8))), cfg, params)

    def test_merging_shape_contract(self):
        p = PatchMergeParams(norm_g=Tensor(np.ones(8)), norm_b=Tensor(np.zeros(8)),
                             w=Tensor(rng(4).normal(size=(4, 8))))
        out = patch_merging(Tensor(rng(5).normal(size=(2, 2, 2))), p)
        assert out.shape == (1, 1, 4)

    def test_merging_hand_oracle(self):
        D = 2
        x = rng(6).normal(size=(2, 2, D))
        w = rng(7).normal(size=(2 * D, 4 * D))
        p = PatchMergeParams(norm_g=Tensor(np.ones(4 * D)), norm_b=Tensor(np.zeros(4 * D)),
                             w=Tensor(w))
        out = patch_merging(Tensor(x), p)
        # oracle: neighborhood concat row-major (0,0),(0,1),(1,0),(1,1), LN, project
        cat = np.concatenate([x[0, 0], x[0, 1], x[1, 0], x[1, 1]])
        mu, var = cat.mean(), cat.var()
        norm = (cat - mu) / np.sqrt(var + 1e-5)
        assert np.allclose(out.data[0, 0], w @ norm, atol=1e-12)

    def test_merging_odd_grid_rejected(self):
        p = PatchMergeParams(norm_g=Tensor(np.ones(8)), norm_b=Tensor(np.zeros(8)),
                             w=Tensor(np.zeros((4, 8))))
        with pytest.raises(IndivisibleInput):
            patch_merging(Tensor(np.ones((5, 4, 2))), p)


class TestBackbone:
    def test_nano_shapes(self):
        cfg = nano_config()
        model = SwinBackbone(cfg, in_channels=1)
        with no_grad():
            feats = model.forward(Tensor(rng(0).normal(size=(1, 32, 32))))
        assert [f.shape for f in feats] == [(16, 8, 8), (32, 4, 4), (64, 2, 2), (128, 1, 1)]

    def test_shapes_constant_across_placements(self):
        img = Tensor(rng(1).normal(size=(1, 32, 32)))
        for placement in CbamPlacement:
            model = SwinBackbone(nano_config(placement=placement), in_channels=1)
            with no_grad():
                feats = model.forward(img)
            assert [f.shape for f in feats] == [(16, 8, 8), (32, 4, 4), (64, 2, 2), (128, 1, 1)]

    def test_batched_forward_matches_single(self):
        model = SwinBackbone(nano_config(), in_channels=1)
        imgs = rng(2).normal(size=(3, 1, 32, 32))
        with no_grad():
            batched = model.forward(Tensor(imgs))
            singles = [model.forward(Tensor(imgs[i])) for i in range(3)]
        for s in range(4):
            for i in range(3):
                assert np.allclose(batched[s].data[i], singles[i][s].data, atol=1e-12)

    def test_determinism(self):
        def run():
            model = SwinBackbone(nano_config(seed=3), in_channels=1)
            with no_grad():
                return model.forward(Tensor(rng(4).normal(size=(1, 32, 32))))[3].data.copy()

        assert np.array_equal(run(), run())

    def test_invocation_counts(self, refine_calls):
        expected = {CbamPlacement.NONE: 0, CbamPlacement.MODEL: 1,
                    CbamPlacement.STAGE: 4, CbamPlacement.BLOCK: 8}
        img = Tensor(rng(5).normal(size=(1, 32, 32)))
        for placement, want in expected.items():
            model = SwinBackbone(nano_config(placement=placement), in_channels=1)
            refine_calls.clear()
            with no_grad():
                model.forward(img)
            assert len(refine_calls) == want

    @pytest.mark.parametrize("placement", [CbamPlacement.NONE, CbamPlacement.BLOCK])
    def test_stage_limit_returns_the_first_maps(self, placement):
        model = SwinBackbone(nano_config(placement=placement), in_channels=1)
        img = Tensor(rng(9).normal(size=(2, 1, 32, 32)))
        full = model.forward(img)
        assert len(full) == 4
        for k in range(1, 5):
            feats = model.forward(img, k)
            assert len(feats) == k
            for f, g in zip(feats, full):
                assert f.shape == g.shape and np.array_equal(f.data, g.data)

    def test_micro_param_budget_and_end_to_end_grad(self):
        cfg = micro_config(placement=CbamPlacement.BLOCK)
        params = init_backbone_params(cfg, in_channels=1)
        assert sum(t.size for _, t in T.named_parameters(params)) <= 5000
        img = Tensor(rng(6).normal(size=(1, 32, 32)))

        def fwd(t):
            feats = backbone_forward(t, cfg, params)
            return sum((T.tsum(f) for f in feats[1:]), T.tsum(feats[0]))

        assert grad_check(fwd, img, eps=1e-5, max_coords=48) < 1e-3
        for name, tensor in T.named_parameters(params)[::7]:
            assert grad_check(lambda _: fwd(img), tensor, eps=1e-4, max_coords=12) < 1e-3, name

    def test_rgb_input(self):
        model = SwinBackbone(nano_config(placement=CbamPlacement.MODEL), in_channels=3)
        with no_grad():
            feats = model.forward(Tensor(rng(7).normal(size=(3, 32, 32))))
        assert feats[0].shape == (16, 8, 8)

    def test_block_gates_at_window_1(self, refine_calls):
        # window 1 never shifts, so each block's gate kind comes from its parameters
        cfg = SwinConfig(embed_dim=8, depths=(2, 2, 2, 2), num_heads=(1, 1, 1, 1),
                         window_size=1, mlp_ratio=1.0, placement=CbamPlacement.BLOCK,
                         cbam_reduction=2, patch_size=4, input_size=(32, 32), seed=0)
        model = SwinBackbone(cfg, in_channels=1)
        with no_grad():
            feats = model.forward(Tensor(rng(8).normal(size=(1, 32, 32))))
        assert len(refine_calls) == 8
        assert feats[3].shape == (64, 1, 1)


class TestConfig:
    def test_roundtrip(self):
        cfg = nano_config(placement=CbamPlacement.BLOCK, seed=9)
        doc = to_dict(cfg)
        assert from_dict(SwinConfig, doc) == cfg

    def test_json_text_roundtrip(self):
        cfg = tiny_config()
        doc = json.loads(json.dumps(to_dict(cfg)))
        assert from_dict(SwinConfig, doc) == cfg

    def test_unknown_key_rejected(self):
        doc = to_dict(nano_config())
        doc["dropout"] = 0.1
        with pytest.raises(ParseError):
            from_dict(SwinConfig, doc)

    def test_missing_key_rejected(self):
        doc = to_dict(nano_config())
        del doc["window_size"]
        with pytest.raises(ParseError):
            from_dict(SwinConfig, doc)

    def test_head_divisibility_validated(self):
        with pytest.raises(InvalidParam):
            SwinConfig(embed_dim=6, depths=(2, 2, 2, 2), num_heads=(4, 4, 4, 4),
                       window_size=2, mlp_ratio=2.0, placement=CbamPlacement.NONE,
                       cbam_reduction=4, patch_size=4, input_size=(32, 32), seed=0)

    def test_depth_arity_validated(self):
        with pytest.raises(InvalidParam):
            SwinConfig(embed_dim=8, depths=(2, 2), num_heads=(1, 1),
                       window_size=2, mlp_ratio=2.0, placement=CbamPlacement.NONE,
                       cbam_reduction=4, patch_size=4, input_size=(32, 32), seed=0)
