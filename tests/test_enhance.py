"""Intensity enhancement: CDF oracles, monotonicity, parameter validation."""

import os
import subprocess
import sys

import numpy as np
import pytest
from _oracles import oracle_contrast_stretch

import railswin
from railswin.data.coco import AnnotatedImage
from railswin.data.enhance import _equalize_lut, _percentiles, adaptive_equalize, contrast_stretch, enhance, hist_equalize, msrcp
from railswin.errors import InvalidParam


def lut_of(fn, sample_img):
    """Recover the intensity map a pointwise enhancement applied."""
    out = fn(sample_img)
    lut = {}
    for v, o in zip(sample_img.reshape(-1), out.reshape(-1)):
        lut.setdefault(int(v), int(o))
    return lut


class TestHistEqualize:
    def test_constant_image_stays_constant(self):
        out = hist_equalize(np.full((10, 10), 77, np.uint8))
        assert len(np.unique(out)) == 1

    def test_two_level_cdf_formula(self):
        img = np.zeros((10, 10), np.uint8)
        img[:, 5:] = 100
        out = hist_equalize(img)
        levels = sorted(np.unique(out).tolist())
        # CDF oracle: level 0 covers half the pixels -> 255 * 0.5 = 127.5
        assert abs(levels[0] - 127.5) <= 0.5
        assert levels[1] == 255

    def test_map_monotone(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (40, 40)).astype(np.uint8)
        lut = lut_of(hist_equalize, img)
        keys = sorted(lut)
        assert all(lut[a] <= lut[b] for a, b in zip(keys, keys[1:]))

    def test_color_applies_per_channel(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        out = hist_equalize(img)
        for c in range(3):
            assert np.array_equal(out[..., c], hist_equalize(img[..., c]))

    def test_rejects_non_uint8(self):
        with pytest.raises(InvalidParam):
            hist_equalize(np.zeros((4, 4), np.float32))

    @pytest.mark.parametrize("shape", [(128, 128), (33, 47), (1, 1), (12, 10, 3), (1, 1, 3)])
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_matches_indexing_the_table(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        img = (rng.integers(0, 256, shape) if kind == "random" else np.full(shape, 201))
        img = img.astype(np.uint8)
        out = hist_equalize(img)
        channels = [img] if img.ndim == 2 else [img[..., c] for c in range(img.shape[2])]
        want = [_equalize_lut(np.bincount(ch.reshape(-1), minlength=256), ch.size)[ch]
                for ch in channels]
        want = want[0] if img.ndim == 2 else np.stack(want, axis=2)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert np.array_equal(out, want)


class TestContrastStretch:
    def test_full_span_after_stretch(self):
        rng = np.random.default_rng(2)
        img = rng.integers(30, 220, (32, 32)).astype(np.uint8)
        out = contrast_stretch(img, 2, 98)
        assert out.min() == 0
        assert out.max() == 255

    def test_linear_map_arithmetic(self):
        img = np.repeat(np.arange(0, 256, dtype=np.uint8), 4).reshape(32, 32)
        lo, hi = np.percentile(img, [10, 90])
        out = contrast_stretch(img, 10, 90)
        sample = img[7, 7]
        expected = np.clip(np.rint((float(sample) - lo) * 255.0 / (hi - lo)), 0, 255)
        assert out[7, 7] == expected

    def test_map_monotone(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (40, 40)).astype(np.uint8)
        lut = lut_of(lambda x: contrast_stretch(x, 2, 98), img)
        keys = sorted(lut)
        assert all(lut[a] <= lut[b] for a, b in zip(keys, keys[1:]))

    def test_degenerate_image_unchanged(self):
        img = np.full((10, 10), 42, np.uint8)
        assert np.array_equal(contrast_stretch(img), img)

    def test_percentile_validation(self):
        img = np.zeros((4, 4), np.uint8)
        with pytest.raises(InvalidParam):
            contrast_stretch(img, 90, 10)
        with pytest.raises(InvalidParam):
            contrast_stretch(img, -1, 98)


def stretch_images(rng):
    """Random, two-level, constant, 1x1, odd-sized and colour images, several of each."""
    for shape in [(32, 32), (128, 128), (7, 5), (1, 1), (1, 9), (33, 47), (12, 10, 3), (1, 1, 3)]:
        for _ in range(6):
            yield rng.integers(0, 256, shape).astype(np.uint8)
            lo, hi = sorted(rng.integers(0, 256, 2))
            yield rng.integers(lo, hi + 1, shape).astype(np.uint8)  # a narrow band
            yield rng.choice(rng.integers(0, 256, 2), shape).astype(np.uint8)  # two levels
            skew = rng.integers(0, 256, shape) ** 2 // 255  # most pixels dark
            yield skew.astype(np.uint8)
        yield np.full(shape, rng.integers(0, 256), np.uint8)
        yield np.zeros(shape, np.uint8)
        yield np.full(shape, 255, np.uint8)


class TestStretchFromHistogram:
    """The histogram-read percentiles give the bytes of ``np.percentile``'s."""

    @pytest.mark.parametrize("percentiles", [(2, 98), (0, 100), (10, 90), (2.0, 98.0),
                                             (0, 0.5), (99.5, 100), (33.3, 66.7)])
    def test_matches_oracle(self, percentiles):
        rng = np.random.default_rng(int(sum(percentiles) * 10))
        for img in stretch_images(rng):
            got = contrast_stretch(img, *percentiles)
            want = oracle_contrast_stretch(img, *percentiles)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (img.shape, percentiles)

    def test_random_percentiles_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 40, 2)) + ((3,) if rng.random() < 0.3 else ())
            img = rng.integers(0, 256, shape).astype(np.uint8)
            p_low, p_high = sorted(rng.uniform(0.0, 100.0, 2))
            assert np.array_equal(contrast_stretch(img, p_low, p_high),
                                  oracle_contrast_stretch(img, p_low, p_high))

    def test_percentiles_equal_numpys(self):
        """The two levels themselves, to the last bit, where the stretch would hide a rounding slip."""
        rng = np.random.default_rng(13)
        for _ in range(400):
            n = int(rng.integers(1, 300)) if rng.random() < 0.8 else int(rng.integers(300, 20000))
            img = rng.integers(0, int(rng.integers(1, 257)), n).astype(np.uint8)
            q = sorted(rng.uniform(0.0, 100.0, 2)) if rng.random() < 0.8 else [2.0, 98.0]
            hist = np.bincount(img, minlength=256)
            got = _percentiles(hist, np.true_divide(q, 100))
            want = np.percentile(img, q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, q)

    def test_colour_channels_pool_into_one_map(self):
        rng = np.random.default_rng(12)
        img = np.stack([rng.integers(0, 60, (9, 9)), rng.integers(60, 200, (9, 9)),
                        rng.integers(200, 256, (9, 9))], axis=2).astype(np.uint8)
        out = contrast_stretch(img)
        lut = lut_of(contrast_stretch, img)
        assert all(out.reshape(-1)[k] == lut[int(v)] for k, v in enumerate(img.reshape(-1)))
        assert not np.array_equal(out[..., 0], contrast_stretch(img[..., 0]))

    def test_result_is_fresh(self):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        for p in ((2, 98), (0, 100)):
            out = contrast_stretch(img, *p)
            assert not np.shares_memory(out, img)
        flat = np.full((4, 4), 9, np.uint8)
        assert not np.shares_memory(contrast_stretch(flat), flat)


@pytest.mark.parametrize("fn", [hist_equalize, adaptive_equalize, contrast_stretch, msrcp],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(0, 0), (4, 0), (0, 5), (0, 5, 3)])
def test_empty_image_rejected(fn, shape):
    with pytest.raises(InvalidParam, match="non-empty"):
        fn(np.zeros(shape, np.uint8))


def test_import_leaves_scipy_unloaded():
    """scipy loads on the first msrcp call, not with the package."""
    code = "import sys, railswin, railswin.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(railswin.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestAdaptiveEqualize:
    def test_output_shape_and_dtype(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (33, 47)).astype(np.uint8)  # uneven tiling
        out = adaptive_equalize(img, tiles=(8, 8), clip_limit=2.0)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_single_tile_close_to_clipped_global(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        out = adaptive_equalize(img, tiles=(1, 1), clip_limit=1e9)
        ref = hist_equalize(img)
        assert np.max(np.abs(out.astype(int) - ref.astype(int))) <= 1

    def test_improves_local_contrast(self):
        # two flat halves at nearby gray levels; global HE leaves each half
        # flat, tiled equalization must spread values within tiles
        img = np.full((32, 32), 100, np.uint8)
        img[:, 16:] = 110
        rng = np.random.default_rng(6)
        img = np.clip(img.astype(int) + rng.integers(-3, 4, img.shape), 0, 255).astype(np.uint8)
        out = adaptive_equalize(img, tiles=(4, 4), clip_limit=4.0)
        assert out[:, :16].std() > img[:, :16].std()

    def test_grid_validation(self):
        with pytest.raises(InvalidParam):
            adaptive_equalize(np.zeros((8, 8), np.uint8), tiles=(0, 4))


class TestMsrcp:
    def test_gray_shape_and_range(self):
        rng = np.random.default_rng(7)
        img = rng.integers(10, 240, (32, 32)).astype(np.uint8)
        out = msrcp(img, scales=(3.0, 10.0))
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_color_preserves_chromaticity(self):
        rng = np.random.default_rng(8)
        base = rng.integers(20, 200, (16, 16)).astype(np.float64)
        img = np.stack([base * 0.9, base * 0.6, base * 0.3], axis=2)
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        out = msrcp(img, scales=(5.0,)).astype(np.float64)
        # channel ratios survive the intensity rescale where defined
        mask = out[..., 0] > 20
        r1 = out[..., 1][mask] / out[..., 0][mask]
        r0 = img[..., 1][mask].astype(float) / img[..., 0][mask]
        assert np.median(np.abs(r1 - r0)) < 0.1

    def test_empty_scales_rejected(self):
        with pytest.raises(InvalidParam):
            msrcp(np.zeros((4, 4), np.uint8), scales=())

    def test_constant_image_passthrough(self):
        img = np.full((8, 8), 90, np.uint8)
        assert np.array_equal(msrcp(img), img)


class TestDispatcher:
    def test_unknown_method(self):
        with pytest.raises(InvalidParam):
            enhance(np.zeros((4, 4), np.uint8), "clahe2")

    def test_annotated_image_keeps_boxes(self):
        from railswin.data.boxes import BBox
        rng = np.random.default_rng(9)
        img = AnnotatedImage(id=1, width=8, height=8, channels=1,
                             pixels=rng.integers(0, 256, (8, 8)).astype(np.uint8),
                             instances=[(BBox(1, 1, 3, 3), 2)])
        out = enhance(img, "he")
        assert out.instances == img.instances
        assert out.pixels.shape == img.pixels.shape

    def test_missing_pixels(self):
        img = AnnotatedImage(id=1, width=8, height=8)
        with pytest.raises(InvalidParam):
            enhance(img, "he")
