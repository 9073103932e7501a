"""COCO ingestion, size statistics, and the small-instance rule."""

import json
import os

import numpy as np
import pytest

from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage, Dataset, dataset_to_coco, load_coco, parse_coco, save_dataset
from railswin.data.imageio import read_pnm, write_pnm
from railswin.data.stats import (
    COCO_MEDIUM_AREA_PX,
    COCO_MEDIUM_RATIO,
    COCO_SMALL_AREA_PX,
    COCO_SMALL_RATIO,
    category_stats,
    classify_small,
    stats_to_csv,
)
from railswin.errors import DanglingReference, InvalidParam, ParseError


def minimal_doc():
    return {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 7, "bbox": [10, 10, 20, 10]}],
        "categories": [{"id": 7, "name": "squat"}],
    }


class TestBBox:
    def test_negative_extent_rejected(self):
        with pytest.raises(InvalidParam):
            BBox(0, 0, -1, 2)

    @pytest.mark.parametrize("coords", [(float("nan"), 0, 1, 1), (0, float("inf"), 1, 1),
                                        (0, 0, float("inf"), 1), (0, 0, 1, float("nan"))])
    def test_non_finite_rejected(self, coords):
        with pytest.raises(InvalidParam, match="finite"):
            BBox(*coords)

    def test_clamp(self):
        assert BBox(-5, -5, 20, 20).clamped(10, 10) == BBox(0, 0, 10, 10)
        assert BBox(8, 8, 4, 4).clamped(10, 10) == BBox(8, 8, 2, 2)

    def test_hull(self):
        assert BBox.hull([(1, 2), (5, 0), (3, 4)]) == BBox(1, 0, 4, 4)


class TestCocoLoading:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(minimal_doc()))
        data = load_coco(path)
        assert len(data.images) == 1
        assert data.images[0].instances == [(BBox(10, 10, 20, 10), 7)]
        assert data.categories == {7: "squat"}

    def test_dangling_image_reference(self):
        doc = minimal_doc()
        doc["annotations"][0]["image_id"] = 99
        with pytest.raises(DanglingReference):
            parse_coco(doc)

    def test_dangling_category_reference(self):
        doc = minimal_doc()
        doc["annotations"][0]["category_id"] = 99
        with pytest.raises(DanglingReference):
            parse_coco(doc)

    def test_counts_match_hand_tally(self):
        doc = {
            "images": [{"id": i, "width": 50, "height": 40} for i in (1, 2, 3)],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]},
                {"id": 2, "image_id": 1, "category_id": 2, "bbox": [1, 1, 5, 5]},
                {"id": 3, "image_id": 2, "category_id": 1, "bbox": [2, 2, 5, 5]},
                {"id": 4, "image_id": 3, "category_id": 2, "bbox": [3, 3, 5, 5]},
                {"id": 5, "image_id": 3, "category_id": 2, "bbox": [4, 4, 5, 5]},
            ],
            "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
        }
        data = parse_coco(doc)
        assert data.instance_count() == 5
        assert data.instance_count(1) == 2
        assert data.instance_count(2) == 3
        assert data.image_count(2) == 2

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_coco({"images": []})
        with pytest.raises(ParseError):
            parse_coco([1, 2, 3])

    @pytest.mark.parametrize("section,key,value,entry", [
        ("annotations", "bbox", [float("nan"), 10, 20, 10], "annotation"),
        ("annotations", "bbox", [10, 10, float("inf"), 10], "annotation"),
        ("annotations", "image_id", float("inf"), "annotation"),
        ("images", "width", float("inf"), "image"),
        ("categories", "id", float("-inf"), "category"),
    ], ids=["nan-x", "inf-w", "inf-image-id", "inf-width", "inf-category-id"])
    def test_non_finite_entry_named(self, section, key, value, entry):
        doc = minimal_doc()
        doc[section][0][key] = value
        with pytest.raises(ParseError, match=f"bad {entry} entry"):
            parse_coco(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("section,edit,entry", [
        ("categories", lambda e: {**e, "id": -1}, "category"),
        ("categories", lambda e: None, "category"),
        ("images", lambda e: {**e, "file_name": 5}, "image"),
        ("images", lambda e: {**e, "file_name": ["a.pgm"]}, "image"),
        ("images", lambda e: {**e, "width": 0}, "image"),
        ("images", lambda e: {**e, "height": -100}, "image"),
    ], ids=["negative-category-id", "category-null", "file-name-int", "file-name-list",
            "width-zero", "height-negative"])
    def test_bad_entry_named(self, section, edit, entry):
        doc = minimal_doc()
        doc[section][0] = edit(doc[section][0])
        with pytest.raises(ParseError, match=f"bad {entry} entry"):
            parse_coco(doc)

    @pytest.mark.parametrize("bbox,inside", [
        ([100, 10, 5, 5], False), ([10, 100, 5, 5], False),
        ([-5, 10, 5, 5], False), ([10, -5, 5, 5], False),
        ([99, 99, 5, 5], True), ([-4, -4, 5, 5], True), ([-10, -10, 200, 200], True),
    ], ids=["right", "below", "left", "above", "corner-overlap", "origin-overlap", "covering"])
    def test_box_wholly_outside_its_image(self, bbox, inside):
        """The 100x100 image keeps a box that overlaps it by any amount, and a
        box with no overlap is a ParseError naming the annotation and image."""
        doc = minimal_doc()
        doc["annotations"][0]["bbox"] = bbox
        if inside:
            assert parse_coco(doc).images[0].instances == [(BBox(*bbox), 7)]
            return
        with pytest.raises(ParseError, match=r"annotation 1: .* outside image 1 \(100x100\)"):
            parse_coco(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_coco(path)

    def test_save_load_roundtrip_with_pixels(self, tmp_path):
        img = AnnotatedImage(id=1, width=6, height=4, channels=1,
                             pixels=np.arange(24, dtype=np.uint8).reshape(4, 6),
                             instances=[(BBox(1, 1, 2, 2), 3)])
        data = Dataset(images=[img], categories={3: "dirt"})
        path = save_dataset(data, tmp_path / "out")
        loaded = load_coco(path)
        assert np.array_equal(loaded.images[0].pixels, img.pixels)
        assert loaded.images[0].instances == img.instances

    def test_save_failing_partway_leaves_no_annotations(self, tmp_path, monkeypatch):
        """Over an earlier save, a write failing at the second image leaves no
        annotations.json, so the directory does not load."""
        data = Dataset(images=[AnnotatedImage(id=i, width=3, height=2,
                                              pixels=np.full((2, 3), i, dtype=np.uint8))
                               for i in (1, 2)], categories={1: "x"})
        path = save_dataset(data, tmp_path)
        calls = []

        def fail_second(p, pixels):
            calls.append(p)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            write_pnm(p, pixels)

        monkeypatch.setattr("railswin.data.coco.write_pnm", fail_second)
        with pytest.raises(OSError):
            save_dataset(data, tmp_path)
        assert not os.path.exists(path)
        with pytest.raises(ParseError):
            load_coco(path)

    @pytest.mark.parametrize("payload", [b"P5 0 4 255\n", b"P5\n4 5\n255\n" + bytes(20),
                                         b"P5 5 3 255\n" + bytes(15), b"P6 5 3 255\n" + bytes(45)],
                             ids=["zero-width", "transposed", "short", "colour-short"])
    def test_pixels_must_match_entry_size(self, tmp_path, payload):
        """A PNM whose header disagrees with its entry's 5x4 is a ParseError naming both."""
        doc = {"images": [{"id": 1, "width": 5, "height": 4, "file_name": "a.pgm"}],
               "annotations": [], "categories": [{"id": 1, "name": "x"}]}
        (tmp_path / "a.pgm").write_bytes(payload)
        (tmp_path / "ann.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="a.pgm") as e:
            load_coco(tmp_path / "ann.json")
        w, h = (int(v) for v in payload.split()[1:3])
        assert f"{w}x{h}" in str(e.value) and "5x4" in str(e.value)
        assert load_coco(tmp_path / "ann.json", load_pixels=False).images[0].pixels is None

    def test_regenerated_doc_shape(self):
        img = AnnotatedImage(id=4, width=10, height=10,
                             instances=[(BBox(0, 0, 3, 3), 1)])
        doc = dataset_to_coco(Dataset(images=[img], categories={1: "x"}))
        assert doc["annotations"][0]["bbox"] == [0, 0, 3, 3]
        assert doc["annotations"][0]["area"] == 9

    def test_unnamed_images_get_one_name_from_both_writers(self, tmp_path):
        """A record without a file name is img_<id>.pgm, or .ppm in colour, in
        the regenerated document and on disk alike."""
        grey = AnnotatedImage(id=4, width=3, height=2)
        colour = AnnotatedImage(id=5, width=3, height=2, channels=3)
        data = Dataset(images=[grey, colour], categories={1: "x"})
        doc = dataset_to_coco(data)
        assert [im["file_name"] for im in doc["images"]] == ["img_000004.pgm", "img_000005.ppm"]
        colour.pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        save_dataset(data, tmp_path)
        assert json.loads((tmp_path / "annotations.json").read_text())["images"] == doc["images"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["annotations.json",
                                                              "img_000005.ppm"]


class TestPnm:
    def test_gray_roundtrip(self, tmp_path):
        img = np.arange(30, dtype=np.uint8).reshape(5, 6)
        path = tmp_path / "g.pgm"
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_color_roundtrip(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 255, (4, 3, 3)).astype(np.uint8)
        path = tmp_path / "c.ppm"
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_rewrite_leaves_only_the_new_image(self, tmp_path):
        """Rewriting a larger file in place drops its tail: the bytes are a fresh write's."""
        small = np.arange(30, dtype=np.uint8).reshape(5, 6)
        write_pnm(tmp_path / "fresh.pgm", small)
        write_pnm(tmp_path / "x.pgm", np.full((9, 8, 3), 200, dtype=np.uint8))
        write_pnm(tmp_path / "x.pgm", small)
        assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "fresh.pgm").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(ParseError):
            read_pnm(path)


from _oracles import oracle_stats


class TestCategoryStats:
    def test_single_box_direct_substitution(self):
        img = AnnotatedImage(id=1, width=100, height=100,
                             instances=[(BBox(0, 0, 10, 20), 1)])
        stats = category_stats(Dataset(images=[img], categories={1: "c"}))
        assert stats[0].mean_area_px == 200.0
        assert stats[0].mean_size_ratio == 0.02

    def test_two_boxes_hand_arithmetic(self):
        imgs = [
            AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 1, 1), 1)]),
            AnnotatedImage(id=2, width=10, height=10, instances=[(BBox(0, 0, 3, 3), 1)]),
        ]
        stats = category_stats(Dataset(images=imgs, categories={1: "c"}))
        assert stats[0].mean_area_px == 5.0
        assert stats[0].mean_size_ratio == (1 / 100 + 9 / 100) / 2  # 0.05 up to fp rounding

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(0)
        imgs = []
        for i in range(12):
            w, h = int(rng.integers(50, 200)), int(rng.integers(50, 200))
            instances = []
            for _ in range(int(rng.integers(1, 5))):
                bw, bh = float(rng.uniform(1, w / 2)), float(rng.uniform(1, h / 2))
                instances.append((BBox(0, 0, bw, bh), int(rng.integers(1, 4))))
            imgs.append(AnnotatedImage(id=i, width=w, height=h, instances=instances))
        data = Dataset(images=imgs, categories={1: "a", 2: "b", 3: "c"})
        for s in category_stats(data):
            area, ratio, mw, mh, n = oracle_stats(data, s.category_id)
            assert s.mean_area_px == area
            assert s.mean_size_ratio == ratio
            assert s.mean_w == mw and s.mean_h == mh
            assert s.instance_count == n

    def test_empty_category_warns_and_skips(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 2, 2), 1)])
        data = Dataset(images=[img], categories={1: "a", 2: "ghost"})
        with pytest.warns(UserWarning):
            stats = category_stats(data)
        assert [s.category_id for s in stats] == [1]

    def test_csv_columns(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 2, 2), 1)])
        text = stats_to_csv(category_stats(Dataset(images=[img], categories={1: "a"})))
        header = text.splitlines()[0]
        assert header == "category,count,mean_w,mean_h,mean_area_px,mean_size_ratio,size_class"


class TestSmallRule:
    def test_reported_ratios(self):
        assert classify_small(0.013) == "small"
        assert classify_small(0.099) == "regular"

    def test_exact_boundary_is_regular(self):
        assert classify_small(0.02) == "regular"
        assert classify_small(0.019999) == "small"

    def test_reference_constants(self):
        assert COCO_SMALL_AREA_PX == 1024
        assert COCO_MEDIUM_AREA_PX == 9216
        assert COCO_SMALL_RATIO == 0.003
        assert COCO_MEDIUM_RATIO == 0.03

    def test_out_of_range(self):
        with pytest.raises(InvalidParam):
            classify_small(1.5)
