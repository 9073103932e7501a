"""Procedural dataset generator: determinism, size rules, bounds."""

import hashlib

import numpy as np
import pytest

from railswin.errors import InvalidParam
from railswin.synth import DEFECT_KINDS, SyntheticSpec, generate_synthetic


def test_deterministic_per_seed():
    spec = SyntheticSpec(num_images=15, seed=11)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for x, y in zip(a.images, b.images):
        assert np.array_equal(x.pixels, y.pixels)
        assert x.instances == y.instances


def test_seeds_differ():
    a = generate_synthetic(SyntheticSpec(num_images=5, seed=1))
    b = generate_synthetic(SyntheticSpec(num_images=5, seed=2))
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a.images, b.images))


def test_small_fraction_one_bounds_every_ratio():
    data = generate_synthetic(SyntheticSpec(num_images=25, small_fraction=1.0, seed=3))
    for im in data.images:
        for box, _ in im.instances:
            assert box.area / (im.width * im.height) < 0.02


def dataset_sha(data):
    h = hashlib.sha256()
    for im in data.images:
        h.update(im.pixels.tobytes())
        h.update(repr([(b.x, b.y, b.w, b.h, c) for b, c in im.instances]).encode())
    return h.hexdigest()


def test_default_spec_bytes_are_pinned():
    # digests of the generator's output before small_categories existed
    assert dataset_sha(generate_synthetic(SyntheticSpec())) == \
        "848bf7f1f26c8b391a05eb682dac8af0df63f6a871eec9327650ea543680a96b"
    spec = SyntheticSpec(num_images=40, image_size=(48, 40), instances_per_image=(1, 3), seed=12)
    assert dataset_sha(generate_synthetic(spec)) == \
        "6f68c10bb0d2edc7a93b98e44f55869366f93b79a35e206ee9544338d05a026b"


def test_small_categories_are_always_small():
    data = generate_synthetic(SyntheticSpec(num_images=60, seed=3, small_fraction=0.0,
                                            small_categories=("dark-blob",)))
    blob = [cid for cid, name in data.categories.items() if name == "dark-blob"]
    ratios = {True: [], False: []}
    for im in data.images:
        for box, cat in im.instances:
            ratios[cat in blob].append(box.area / (im.width * im.height))
    assert ratios[True] and max(ratios[True]) < 0.02
    assert ratios[False] and min(ratios[False]) >= 0.02


def test_instance_count_bounds():
    data = generate_synthetic(SyntheticSpec(num_images=100, instances_per_image=(1, 3), seed=4))
    total = data.instance_count()
    assert 100 <= total <= 300
    for im in data.images:
        assert 1 <= len(im.instances) <= 3


def test_boxes_inside_images():
    data = generate_synthetic(SyntheticSpec(num_images=30, seed=5,
                                            instances_per_image=(1, 2)))
    for im in data.images:
        for box, cat in im.instances:
            assert box.x >= 0 and box.y >= 0
            assert box.x2 <= im.width and box.y2 <= im.height
            assert cat in data.categories


def test_category_table_matches_spec_order():
    data = generate_synthetic(SyntheticSpec(num_images=2, seed=0))
    assert tuple(data.categories[i + 1] for i in range(4)) == DEFECT_KINDS


def test_subset_of_kinds():
    data = generate_synthetic(SyntheticSpec(num_images=10, seed=6,
                                            categories=("dark-blob", "scratch-line")))
    assert set(data.categories.values()) == {"dark-blob", "scratch-line"}


def test_pixels_are_uint8():
    data = generate_synthetic(SyntheticSpec(num_images=3, seed=7))
    for im in data.images:
        assert im.pixels.dtype == np.uint8
        assert im.pixels.shape == (32, 32)


def test_spec_validation():
    with pytest.raises(InvalidParam):
        SyntheticSpec(num_images=0)
    with pytest.raises(InvalidParam):
        SyntheticSpec(categories=("unknown-kind",))
    with pytest.raises(InvalidParam):
        SyntheticSpec(instances_per_image=(3, 1))
    with pytest.raises(InvalidParam):
        SyntheticSpec(small_fraction=1.5)
    with pytest.raises(InvalidParam):
        SyntheticSpec(small_categories=("squat",))
    with pytest.raises(InvalidParam):  # a kind the spec never draws
        SyntheticSpec(categories=("scratch-line",), small_categories=("dark-blob",))
