"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The training gate (criterion 9) dominates the
runtime at roughly five minutes on a laptop CPU.
"""

import time

import numpy as np
import pytest

from railswin import tensor as T
from railswin.cbam import (
    ChannelAttentionParams,
    SpatialAttentionParams,
    channel_attention_map,
    refine,
    spatial_attention_map,
)
from railswin.data.augment import augment
from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage, Dataset
from railswin.data.enhance import contrast_stretch, hist_equalize
from railswin.data.planner import plan_and_execute_augmentation, split_train_val
from railswin.data.stats import category_stats, classify_small
from railswin.metrics import evaluate, iou
from railswin.swin import (
    CbamPlacement,
    SwinBackbone,
    SwinConfig,
    build_shift_mask,
    nano_config,
    tiny_config,
    window_msa,
    window_partition,
    window_reverse,
)
from railswin.swin import PatchMergeParams, _init_block, patch_merging
from railswin.synth import SyntheticSpec, generate_synthetic
from railswin.tensor import Tensor, grad_check, no_grad
from railswin.train import TrainConfig, bench, head_forward, load_checkpoint, train
from railswin.train import _image_tensor


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}", flush=True)


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every differentiable op, the CBAM block, and a nano block pair pass
    finite-difference checks at rel err < 1e-4 (f64, eps 1e-5), in < 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = 1e-5
    worst = {}

    x = Tensor(rng.normal(size=(3, 4)))
    m = Tensor(rng.normal(size=(4, 2)))
    worst["matmul"] = max(
        grad_check(lambda t: T.tsum(T.matmul(t, m)), x, eps=eps),
        grad_check(lambda t: T.tsum(T.matmul(x, t)), m, eps=eps))

    img = Tensor(rng.normal(size=(2, 5, 5)))
    kern = Tensor(rng.normal(size=(3, 2, 3, 3)))
    worst["conv2d"] = max(
        grad_check(lambda t: T.tsum(T.conv2d(t, kern, 1, 1)), img, eps=eps),
        grad_check(lambda t: T.tsum(T.conv2d(img, t, 1, 1)), kern, eps=eps))

    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3,)))
    worst["linear"] = max(
        grad_check(lambda t: T.tsum(T.linear(t, w, b)), x, eps=eps),
        grad_check(lambda t: T.tsum(T.linear(x, t, b)), w, eps=eps))

    probe = Tensor(rng.normal(size=(3, 4)))
    worst["softmax"] = grad_check(lambda t: T.tsum(T.softmax(t, -1) * probe), x, eps=eps)
    worst["sigmoid"] = grad_check(lambda t: T.tsum(T.sigmoid(t)), x, eps=eps)
    worst["gelu"] = grad_check(lambda t: T.tsum(T.gelu(t)), x, eps=eps)
    g = Tensor(np.ones(4))
    beta = Tensor(np.zeros(4))
    worst["layer_norm"] = grad_check(lambda t: T.tsum(T.layer_norm(t, g, beta) * probe),
                                     x, eps=eps)
    ps = Tensor(rng.normal(size=(2, 1, 1)))
    pc = Tensor(rng.normal(size=(1, 5, 5)))
    worst["pool_spatial"] = max(
        grad_check(lambda t: T.tsum(T.pool_spatial(t, mode) * ps), img, eps=eps)
        for mode in ("avg", "max"))
    worst["pool_channel"] = max(
        grad_check(lambda t: T.tsum(T.pool_channel(t, mode) * pc), img, eps=eps)
        for mode in ("avg", "max"))

    # composed CBAM block: channel then spatial gating of a feature map
    cam = ChannelAttentionParams.init(4, 2, rng)
    sam = SpatialAttentionParams.init(rng)
    feat = Tensor(rng.normal(size=(4, 5, 5)))

    def cbam_block(t):
        m_c = channel_attention_map(t, cam)
        refined = refine(t, m_c)
        m_s = spatial_attention_map(refined, sam)
        return T.tsum(refine(refined, m_s))

    worst["cbam_block"] = grad_check(cbam_block, feat, eps=eps)

    # nano block pair with channel + spatial gates (D=8, 4x4 grid, window 2)
    from railswin.swin import swin_block_forward

    window = 2
    p1 = _init_block(8, 2, window, 2.0, rng, cbam=ChannelAttentionParams.init(8, 4, rng))
    p2 = _init_block(8, 2, window, 2.0, rng, cbam=SpatialAttentionParams.init(rng))
    grid = Tensor(rng.normal(size=(4, 4, 8)))
    pair_probe = Tensor(rng.normal(size=(4, 4, 8)))

    def block_pair(t):
        t = swin_block_forward(t, p1, shift=0)
        return swin_block_forward(t, p2, shift=window // 2)

    worst["swin_block_pair"] = grad_check(
        lambda t: T.tsum(block_pair(t) * pair_probe), grid, eps=eps)

    elapsed = time.perf_counter() - start
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: rel err {err:.3e}"
    assert elapsed < 120.0
    report(1, f"gradient suite, worst rel err "
              f"{max(worst.values()):.2e} over {len(worst)} checks in {elapsed:.1f}s")


def test_criterion_2_cbam_shape_range():
    """All C, H, W in 1..8: map shapes and open-interval range; zero params
    give exactly 0.5."""
    rng = np.random.default_rng(7)
    sam = SpatialAttentionParams.init(rng)
    for c in range(1, 9):
        cam = ChannelAttentionParams.init(c, 4, rng)
        zero_cam = ChannelAttentionParams(
            w0=Tensor(np.zeros_like(cam.w0.data)),
            w1=Tensor(np.zeros_like(cam.w1.data)), reduction=cam.reduction)
        for h in range(1, 9):
            for w in range(1, 9):
                f = Tensor(rng.normal(size=(c, h, w)))
                m_c = channel_attention_map(f, cam)
                m_s = spatial_attention_map(f, sam)
                assert m_c.shape == (c, 1, 1)
                assert m_s.shape == (1, h, w)
                assert np.all((m_c.data > 0) & (m_c.data < 1))
                assert np.all((m_s.data > 0) & (m_s.data < 1))
                assert np.all(channel_attention_map(f, zero_cam).data == 0.5)
    zero_sam = SpatialAttentionParams(kernel=Tensor(np.zeros((1, 2, 7, 7))))
    f = Tensor(rng.normal(size=(3, 5, 5)))
    assert np.all(spatial_attention_map(f, zero_sam).data == 0.5)
    report(2, "channel/spatial map shapes and (0,1) range over C,H,W in 1..8; "
              "zero-parameter maps are exactly 0.5")


def _band(v, extent, window, shift):
    if v < shift:
        return 0
    if v < extent - window + shift:
        return 1
    return 2


def test_criterion_3_shifted_window_oracle():
    """SW-MSA via roll+mask equals brute-force region-restricted attention."""
    H = W = 4
    win, shift, D, heads = 2, 1, 8, 2
    rng = np.random.default_rng(31)
    p = _init_block(D, heads, win, 2.0, rng)
    p.bias_table = None
    x = rng.normal(size=(H * W, D))

    grid = T.reshape(Tensor(x), (H, W, D))
    rolled = T.roll(grid, (-shift, -shift), (0, 1))
    wins = window_partition(rolled, win)
    att = window_msa(wins, p, mask=build_shift_mask(H, W, win, shift))
    back = T.roll(window_reverse(att, H, W), (shift, shift), (0, 1))
    ours = T.reshape(back, (H * W, D)).data

    qkv = x @ p.qkv_w.data.T + p.qkv_b.data
    q, k, v = qkv[:, :D], qkv[:, D:2 * D], qkv[:, 2 * D:]
    hd = D // heads
    expected = np.zeros_like(x)
    for r in range(H):
        for c in range(W):
            i = r * W + c
            same = [(r2 * W + c2) for r2 in range(H) for c2 in range(W)
                    if ((r2 - shift) % H // win, (c2 - shift) % W // win)
                    == ((r - shift) % H // win, (c - shift) % W // win)
                    and (_band(r2, H, win, shift), _band(c2, W, win, shift))
                    == (_band(r, H, win, shift), _band(c, W, win, shift))]
            for h in range(heads):
                sl = slice(h * hd, (h + 1) * hd)
                scores = np.array([q[i, sl] @ k[j, sl] / np.sqrt(hd) for j in same])
                a = np.exp(scores - scores.max())
                a /= a.sum()
                expected[i, sl] = sum(wgt * v[j, sl] for wgt, j in zip(a, same))
    expected = expected @ p.proj_w.data.T + p.proj_b.data
    diff = np.max(np.abs(ours - expected))
    assert diff < 1e-10
    report(3, f"shifted-window attention equals brute-force masked attention, "
              f"max abs diff {diff:.2e}")


def test_criterion_4_windowing_and_shape_trace():
    """Partition/reverse roundtrip; merging shape law; full-config trace."""
    rng = np.random.default_rng(4)
    for h in (2, 4, 6, 8):
        for w in (2, 4, 6, 8):
            x = Tensor(rng.normal(size=(h, w, 3)))
            assert np.array_equal(window_reverse(window_partition(x, 2), h, w).data, x.data)

    for h, w, d in ((4, 6, 5), (8, 8, 3), (2, 2, 7)):
        p = PatchMergeParams(norm_g=Tensor(np.ones(4 * d)), norm_b=Tensor(np.zeros(4 * d)),
                             w=Tensor(rng.normal(size=(2 * d, 4 * d))))
        out = patch_merging(Tensor(rng.normal(size=(h, w, d))), p)
        assert out.shape == (h // 2, w // 2, 2 * d)

    cfg = tiny_config()
    assert cfg.depths == (2, 2, 6, 2)
    model = SwinBackbone(cfg, in_channels=3)
    with no_grad():
        feats = model.forward(Tensor(rng.normal(size=(3, 224, 224))))
    shapes = [f.shape for f in feats]
    assert shapes == [(96, 56, 56), (192, 28, 28), (384, 14, 14), (768, 7, 7)]
    report(4, f"windowing roundtrips bit-exact; 224 input trace {shapes}")


def test_criterion_5_invocation_counts(refine_calls):
    """Counts {0, 1, 4, 12} for depths [2,2,6,2], against a runtime count of refine calls."""
    expected = {CbamPlacement.NONE: 0, CbamPlacement.MODEL: 1,
                CbamPlacement.STAGE: 4, CbamPlacement.BLOCK: 12}
    rng = np.random.default_rng(5)
    img = Tensor(rng.normal(size=(1, 32, 32)))
    counts = {}
    for placement, want in expected.items():
        # depths [2,2,6,2] with a desk-size width so the forward is instant
        cfg = SwinConfig(embed_dim=8, depths=(2, 2, 6, 2), num_heads=(1, 2, 4, 8),
                         window_size=2, mlp_ratio=2.0, placement=placement,
                         cbam_reduction=4, patch_size=4, input_size=(32, 32), seed=0)
        model = SwinBackbone(cfg, in_channels=1)
        refine_calls.clear()
        with no_grad():
            model.forward(img)
        counts[placement.value] = len(refine_calls)
        assert counts[placement.value] == want
    report(5, f"attention applications per pass {counts}")


def test_criterion_6_metrics_oracle():
    """evaluate() equals exhaustive brute force on small fixtures; exact 1/7
    IoU; threshold monotonicity of mAP on 100 random fixtures."""
    from _oracles import oracle_evaluate, random_fixture

    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == 1 / 7

    rng = np.random.default_rng(6)
    for _ in range(50):
        dets, data = random_fixture(rng, max_gt=3, max_dets=5)
        rep = evaluate(dets, data)
        lo, hi, mar = oracle_evaluate(dets, data, (0.5, 0.75), 100)
        assert rep.map50 == pytest.approx(lo, abs=1e-12)
        assert rep.map75 == pytest.approx(hi, abs=1e-12)
        assert rep.mar100 == pytest.approx(mar, abs=1e-12)

    for _ in range(100):
        dets, data = random_fixture(rng)
        rep = evaluate(dets, data)
        assert rep.map50 >= rep.map75 - 1e-12
    report(6, "evaluate matches the brute-force oracle on 50 fixtures; "
              "iou((0,0,2,2),(1,1,2,2)) == 1/7; map50 >= map75 on 100 fixtures")


def test_criterion_7_statistics_oracle():
    """Mean-size statistics equal the naive loop oracle; small-rule labels."""
    from _oracles import oracle_stats

    rng = np.random.default_rng(70)
    imgs = []
    for i in range(15):
        w, h = int(rng.integers(40, 300)), int(rng.integers(40, 300))
        instances = [(BBox(0, 0, float(rng.uniform(1, w / 2)), float(rng.uniform(1, h / 2))),
                      int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 6)))]
        imgs.append(AnnotatedImage(id=i, width=w, height=h, instances=instances))
    data = Dataset(images=imgs, categories={1: "a", 2: "b", 3: "c"})
    for s in category_stats(data):
        area, ratio, mw, mh, n = oracle_stats(data, s.category_id)
        assert s.mean_area_px == area
        assert s.mean_size_ratio == ratio
        assert s.mean_w == mw and s.mean_h == mh and s.instance_count == n

    assert classify_small(0.013) == "small"
    assert classify_small(0.099) == "regular"
    report(7, "size statistics equal the loop oracle to full precision; "
              "0.013 -> small, 0.099 -> regular")


def test_criterion_8_preprocessing_properties():
    """Flip involution, monotone intensity maps, planner determinism, split."""
    rng = np.random.default_rng(8)
    img = AnnotatedImage(id=1, width=60, height=40, channels=1,
                         pixels=rng.integers(0, 256, (40, 60)).astype(np.uint8),
                         instances=[(BBox(5, 5, 12, 9), 1), (BBox(30, 20, 15, 10), 2)])
    twice = augment(augment(img, ("hflip",)), ("hflip",))
    assert np.array_equal(twice.pixels, img.pixels)
    assert twice.instances == img.instances

    sample = rng.integers(0, 256, (48, 48)).astype(np.uint8)
    for fn in (hist_equalize, lambda x: contrast_stretch(x, 2, 98)):
        out = fn(sample)
        lut = {}
        for v, o in zip(sample.reshape(-1), out.reshape(-1)):
            lut.setdefault(int(v), int(o))
        keys = sorted(lut)
        assert all(lut[a] <= lut[b] for a, b in zip(keys, keys[1:]))

    data = generate_synthetic(SyntheticSpec(num_images=14, seed=2))
    targets = {1: data.image_count(1) + 6}
    p1, out1 = plan_and_execute_augmentation(data, targets, seed=4)
    p2, out2 = plan_and_execute_augmentation(data, targets, seed=4)
    assert p1.to_json() == p2.to_json()
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(out1.images, out2.images))

    train_ds, val_ds = split_train_val(data, 0.8, seed=1)
    t_ids = {im.id for im in train_ds.images}
    v_ids = {im.id for im in val_ds.images}
    assert t_ids | v_ids == {im.id for im in data.images} and not (t_ids & v_ids)
    report(8, "hflip involution exact; HE/CET maps monotone; planner "
              "deterministic; split partitions the id set")


def test_criterion_9_training_gate():
    """Nano config, 4 placements x 5 seeds, 200 iterations: final 50-iter
    moving average < 0.5x the iteration-50 value on >= 4 of 5 seeds,
    total under 15 minutes."""
    start = time.perf_counter()
    outcomes = {}
    for placement in (CbamPlacement.NONE, CbamPlacement.MODEL,
                      CbamPlacement.STAGE, CbamPlacement.BLOCK):
        ratios = []
        for seed in range(5):
            cfg = TrainConfig(swin=nano_config(placement=placement, seed=seed),
                              seed=seed, max_iterations=200,
                              synthetic=SyntheticSpec(num_images=200, seed=seed))
            result = train(cfg)
            assert len(result.losses) == 200
            ma_at_50 = float(np.mean(result.losses[:50]))
            ma_final = float(np.mean(result.losses[150:200]))
            ratios.append(ma_final / ma_at_50)
        passing = sum(1 for r in ratios if r < 0.5)
        outcomes[placement.value] = (passing, [round(r, 3) for r in ratios])
        assert passing >= 4, f"{placement.value}: ratios {ratios}"
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report(9, f"loss halving gate per placement {outcomes} in {elapsed:.0f}s")


def test_criterion_10_overhead_direction():
    """Block-level insertion costs more per iteration than none, below 2x.

    The placements' ``bench`` calls alternate in one process and each
    side's measured iterations are pooled, so a change of host speed hits
    both sides.  Contention only adds time to an iteration, so each side
    is read by its lower quartile, which a few slowed iterations do not move.
    """
    pooled = {CbamPlacement.NONE: [], CbamPlacement.BLOCK: []}
    for _ in range(8):
        for placement, seconds in pooled.items():
            cfg = TrainConfig(swin=nano_config(placement=placement, seed=0), seed=0,
                              synthetic=SyntheticSpec(num_images=64, seed=0))
            seconds += bench(cfg, 15).retained()
    assert all(len(seconds) == 80 for seconds in pooled.values())
    q1 = {placement.value: float(np.percentile(seconds, 25))
          for placement, seconds in pooled.items()}
    ratio = q1["block"] / q1["none"]
    assert ratio > 1.0
    assert ratio < 2.0
    report(10, f"lower-quartile iteration time none {q1['none'] * 1000:.1f}ms, "
               f"block {q1['block'] * 1000:.1f}ms, ratio {ratio:.2f} (measured)")


def test_criterion_11_determinism(tmp_path):
    """Bit-identical loss curves across runs; checkpoint roundtrip forward."""
    cfg = TrainConfig(swin=nano_config(seed=0), seed=0, max_iterations=25,
                      synthetic=SyntheticSpec(num_images=48, seed=0))
    r1 = train(cfg, out_dir=tmp_path / "a")
    r2 = train(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "loss_curve.csv").read_bytes()
    b = (tmp_path / "b" / "loss_curve.csv").read_bytes()
    assert a == b

    x = _image_tensor([r1.data.images[0]])
    with no_grad():
        want = head_forward(r1.backbone.forward(x), r1.head).data.copy()
    _, backbone, head, _, _ = load_checkpoint(str(tmp_path / "a" / "checkpoint.npz"))
    with no_grad():
        got = head_forward(backbone.forward(x), head).data
    assert np.array_equal(want, got)
    report(11, "loss_curve.csv bit-identical across runs; checkpoint "
               "roundtrip preserves the forward pass bit-exactly")
