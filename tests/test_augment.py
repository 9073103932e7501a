"""Geometric transforms: exactness, box corner mapping, parameter ranges."""

import importlib

import numpy as np
import pytest
from _oracles import oracle_bilinear_sample

from railswin.data.augment import apply_transforms, augment, validate_transform
from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage
from railswin.errors import InvalidParam

# the package re-exports the function ``augment``, which shadows the module name
A = importlib.import_module("railswin.data.augment")


def image(w=100, h=80, boxes=((BBox(10, 10, 20, 10), 1),), seed=0):
    rng = np.random.default_rng(seed)
    return AnnotatedImage(id=1, width=w, height=h, channels=1,
                          pixels=rng.integers(0, 255, (h, w)).astype(np.uint8),
                          instances=list(boxes))


class TestFlips:
    def test_hflip_box_arithmetic(self):
        out = augment(image(), ("hflip",))
        assert out.instances[0][0] == BBox(70, 10, 20, 10)

    def test_hflip_involution_exact(self):
        img = image()
        out = augment(augment(img, ("hflip",)), ("hflip",))
        assert np.array_equal(out.pixels, img.pixels)
        assert out.instances == img.instances

    def test_vflip_involution_exact(self):
        img = image()
        out = augment(augment(img, ("vflip",)), ("vflip",))
        assert np.array_equal(out.pixels, img.pixels)
        assert out.instances == img.instances

    def test_vflip_box(self):
        out = augment(image(), ("vflip",))
        assert out.instances[0][0] == BBox(10, 60, 20, 10)


class TestRotation:
    @pytest.mark.parametrize("deg", [90, 180, 270, -90])
    def test_quarter_turns_map_corners_exactly(self, deg):
        img = image(w=64, h=64, boxes=((BBox(8, 16, 10, 6), 2),))
        out = augment(img, ("rotate", deg))
        # rotation-matrix oracle about the center (32, 32)
        rad = np.deg2rad(deg)
        c, s = round(np.cos(rad)), round(np.sin(rad))
        pts = []
        for x, y in img.instances[0][0].corners():
            dx, dy = x - 32, y - 32
            pts.append((32 + c * dx - s * dy, 32 + s * dx + c * dy))
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        expected = BBox(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))
        assert out.instances[0][0] == expected
        assert out.instances[0][1] == 2

    def test_quarter_turn_pixels_exact(self):
        img = image(w=32, h=32)
        out = augment(img, ("rotate", 90))
        assert np.array_equal(out.pixels, np.rot90(img.pixels, k=-1))

    def test_small_angle_keeps_boxes_inside(self):
        img = image(boxes=((BBox(40, 30, 20, 20), 1),))
        out = augment(img, ("rotate", 15))
        box = out.instances[0][0]
        assert 0 <= box.x and box.x2 <= 100 and 0 <= box.y and box.y2 <= 80

    def test_angle_range(self):
        with pytest.raises(InvalidParam):
            augment(image(), ("rotate", 30))
        augment(image(), ("rotate", -15))  # boundary ok
        augment(image(), ("rotate", 180))  # exact multiple ok


class TestOtherTransforms:
    def test_scale_box_about_center(self):
        img = image(boxes=((BBox(40, 30, 20, 20), 1),))
        out = augment(img, ("scale", 0.5))
        # center (50, 40): corner (40, 30) -> (45, 35); extents halve
        assert out.instances[0][0] == BBox(45, 35, 10, 10)

    def test_translate_box(self):
        out = augment(image(), ("translate", 5, -3))
        assert out.instances[0][0] == BBox(15, 7, 20, 10)

    def test_shear_maps_corners(self):
        img = image(boxes=((BBox(40, 30, 20, 20), 1),))
        out = augment(img, ("shear", 0.1))
        # x' = x + 0.1 * (y - 40): top edge y=30 -> shift -1; bottom y=50 -> +1
        assert out.instances[0][0] == BBox(39, 30, 22, 20)

    def test_tiny_boxes_dropped(self):
        img = image(boxes=((BBox(0, 0, 3, 1), 1), (BBox(30, 30, 20, 20), 2)))
        out = augment(img, ("scale", 0.5))
        assert [cat for _, cat in out.instances] == [2]

    def test_parameter_ranges(self):
        for bad in (("scale", 0.4), ("scale", 1.6), ("shear", 0.3),
                    ("translate", 21, 0), ("translate", 0, 17), ("warp",)):
            with pytest.raises(InvalidParam):
                validate_transform(bad, 100, 80)
        for ok in (("scale", 0.5), ("scale", 1.5), ("shear", -0.2),
                   ("translate", 20, 16), ("hflip",)):
            validate_transform(ok, 100, 80)

    def test_boxes_without_pixels(self):
        img = AnnotatedImage(id=1, width=100, height=80,
                             instances=[(BBox(10, 10, 20, 10), 1)])
        out = augment(img, ("hflip",))
        assert out.pixels is None
        assert out.instances[0][0] == BBox(70, 10, 20, 10)

    def test_chain_application(self):
        img = image()
        out = apply_transforms(img, [("hflip",), ("hflip",)])
        assert np.array_equal(out.pixels, img.pixels)


class TestBoxSafety:
    def test_all_boxes_stay_inside_after_random_chains(self):
        rng = np.random.default_rng(3)
        img = image(boxes=tuple((BBox(float(rng.integers(0, 60)), float(rng.integers(0, 50)),
                                      float(rng.integers(5, 30)), float(rng.integers(5, 25))), 1)
                                for _ in range(6)))
        specs = [("rotate", 12.0), ("shear", -0.15), ("scale", 1.4),
                 ("translate", -11.0, 9.0), ("vflip",)]
        for spec in specs:
            out = augment(img, spec)
            for box, cat in out.instances:
                assert box.x >= 0 and box.y >= 0
                assert box.x2 <= img.width and box.y2 <= img.height
                assert box.area >= 4.0
                assert cat == 1


def random_inverse(rng, kind, W, H):
    """One inverse map of the given kind; "wild" reaches far out of bounds."""
    if kind == "wild":
        lin = rng.uniform(-3.0, 3.0, (2, 2))
        return np.array([[lin[0, 0], lin[0, 1], rng.uniform(-300.0, 300.0)],
                         [lin[1, 0], lin[1, 1], rng.uniform(-300.0, 300.0)],
                         [0.0, 0.0, 1.0]])
    spec = {"rotate": ("rotate", float(rng.uniform(-15.0, 15.0))),
            "quarter": ("rotate", 90 * int(rng.integers(-4, 5))),
            "scale": ("scale", float(rng.uniform(0.5, 1.5))),
            "shear": ("shear", float(rng.uniform(-0.2, 0.2))),
            "translate": ("translate", float(rng.uniform(-0.2, 0.2) * W),
                          float(rng.uniform(-0.2, 0.2) * H))}[kind]
    return A._affine_inverse(A._affine_matrix(spec, W, H))


MAP_KINDS = ("rotate", "quarter", "scale", "shear", "translate", "wild")
SHAPES = [(1, 1), (1, 1, 3), (7, 5), (7, 5, 3), (2, 9), (2, 9, 3), (96, 128), (96, 128, 3)]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestResampler:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        H, W = shape[:2]
        for kind in MAP_KINDS:
            for _ in range(4 if H * W > 100 else 12):
                pixels = rng.integers(0, 256, shape).astype(np.uint8)
                inv = random_inverse(rng, kind, W, H)
                assert_same_bytes(A._bilinear_sample(pixels, inv),
                                  oracle_bilinear_sample(pixels, inv))

    @pytest.mark.parametrize("shape", [(12, 10), (12, 10, 3)])
    def test_result_is_fresh_and_stays_put(self, shape):
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, shape).astype(np.uint8)
        first = A._bilinear_sample(pixels, random_inverse(rng, "rotate", 10, 12))
        kept = first.copy()
        second = A._bilinear_sample(pixels, random_inverse(rng, "wild", 10, 12))
        assert np.array_equal(first, kept)  # the second call wrote elsewhere
        assert not np.shares_memory(first, second)
        scratch = A._local.scratch
        for out in (first, second):
            assert not np.shares_memory(out, pixels)
            for buf in (scratch.padded, scratch.taps, scratch.acc, *scratch.f, *scratch.i):
                assert not np.shares_memory(out, buf)

    @pytest.mark.parametrize("shape", [(128, 128), (96, 128), (2, 9), (1, 1), (96, 128, 3), (2, 9, 3)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_per_axis_coordinates_match_oracle(self, shape):
        """Maps whose rows read one axis (scale, translate, shear's y row, quarter
        turns) or none (a row with both coefficients 0, signed zeros included)."""
        rng = np.random.default_rng(sum(shape) + 1)
        H, W = shape[:2]
        pixels = rng.integers(0, 256, shape).astype(np.uint8)
        maps = [random_inverse(rng, kind, W, H)
                for kind in ("scale", "translate", "shear", "quarter") for _ in range(3)]
        for zero in (0.0, -0.0):
            for row in (0, 1):
                inv = random_inverse(rng, "wild", W, H)
                inv[row, :2] = zero
                maps.append(inv)
            maps.append(np.array([[zero, zero, 3.25], [zero, -zero, -1.5], [0.0, 0.0, 1.0]]))
        for inv in maps:
            assert_same_bytes(A._bilinear_sample(pixels, inv), oracle_bilinear_sample(pixels, inv))

    @pytest.mark.parametrize("shape", [(24, 20), (24, 20, 3)])
    def test_separable_and_full_maps_share_a_scratch(self, shape):
        """A one-axis map right after a two-axis map on the same scratch, and the reverse."""
        rng = np.random.default_rng(21)
        H, W = shape[:2]
        kinds = ["rotate", "scale", "wild", "translate", "shear", "quarter", "rotate",
                 "translate", "scale", "wild"]
        for kind in kinds * 2:
            pixels = rng.integers(0, 256, shape).astype(np.uint8)
            inv = random_inverse(rng, kind, W, H)
            assert_same_bytes(A._bilinear_sample(pixels, inv), oracle_bilinear_sample(pixels, inv))
            assert A._local.scratch.shape == shape

    def test_alternating_sizes_keep_one_scratch(self):
        rng = np.random.default_rng(8)
        for shape in [(20, 16), (9, 13, 3), (20, 16)]:
            pixels = rng.integers(0, 256, shape).astype(np.uint8)
            inv = random_inverse(rng, "shear", shape[1], shape[0])
            assert_same_bytes(A._bilinear_sample(pixels, inv),
                              oracle_bilinear_sample(pixels, inv))
            assert list(vars(A._local)) == ["scratch"]
            assert A._local.scratch.shape == shape
