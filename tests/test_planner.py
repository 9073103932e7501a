"""Balance planner and train/val splitting: determinism, targets, replay."""

import importlib
import json
from dataclasses import replace

import numpy as np
import pytest
from _oracles import oracle_bilinear_sample

from railswin.data.planner import plan_and_execute_augmentation, replay_plan, split_train_val
from railswin.errors import InvalidParam
from railswin.files import write_json
from railswin.synth import SyntheticSpec, generate_synthetic


def dataset(n=12, seed=0):
    return generate_synthetic(SyntheticSpec(num_images=n, seed=seed))


def datasets_equal(a, b):
    if len(a.images) != len(b.images):
        return False
    for x, y in zip(a.images, b.images):
        if x.id != y.id or x.instances != y.instances:
            return False
        if (x.pixels is None) != (y.pixels is None):
            return False
        if x.pixels is not None and not np.array_equal(x.pixels, y.pixels):
            return False
    return True


class TestPlanner:
    def test_already_met_target_is_noop(self):
        data = dataset()
        have = data.image_count(1)
        plan, out = plan_and_execute_augmentation(data, {1: have}, seed=0)
        assert plan.records == []
        assert len(out.images) == len(data.images)

    def test_counts_reach_targets(self):
        data = dataset()
        targets = {cid: data.image_count(cid) + 5 for cid in data.categories}
        plan, out = plan_and_execute_augmentation(data, targets, seed=1)
        for cid, want in targets.items():
            assert out.image_count(cid) >= want

    def test_synthesized_count_arithmetic(self):
        data = dataset(n=10, seed=3)
        cid = 1
        have = data.image_count(cid)
        plan, out = plan_and_execute_augmentation(data, {cid: have + 15}, seed=2)
        # every record must contribute the deficient category exactly once
        assert len(plan.records) == 15
        assert out.image_count(cid) == have + 15

    def test_deterministic_per_seed(self):
        data = dataset()
        targets = {1: data.image_count(1) + 8}
        p1, out1 = plan_and_execute_augmentation(data, targets, seed=9)
        p2, out2 = plan_and_execute_augmentation(data, targets, seed=9)
        assert p1.to_json() == p2.to_json()
        assert datasets_equal(out1, out2)

    def test_dict_writes_the_bytes_of_the_parsed_json(self, tmp_path):
        """plan.json is written from ``to_dict``; a round trip through ``to_json`` adds nothing."""
        data = dataset()
        targets = {cid: data.image_count(cid) + 6 for cid in data.categories}
        plan, _ = plan_and_execute_augmentation(data, targets, seed=3)
        assert plan.records and json.loads(plan.to_json()) == plan.to_dict()
        write_json(tmp_path / "direct.json", {"train": plan.to_dict()})
        write_json(tmp_path / "parsed.json", {"train": json.loads(plan.to_json())})
        assert (tmp_path / "direct.json").read_bytes() == (tmp_path / "parsed.json").read_bytes()

    def test_different_seeds_differ(self):
        data = dataset()
        targets = {1: data.image_count(1) + 8}
        p1, _ = plan_and_execute_augmentation(data, targets, seed=1)
        p2, _ = plan_and_execute_augmentation(data, targets, seed=2)
        assert p1.to_json() != p2.to_json()

    def test_replay_reproduces_outputs(self):
        data = dataset()
        targets = {2: data.image_count(2) + 6}
        plan, out = plan_and_execute_augmentation(data, targets, seed=4)
        replayed = replay_plan(plan, data)
        synthesized = [im for im in out.images if im.id > max(i.id for i in data.images)]
        assert len(replayed) == len(synthesized)
        for a, b in zip(synthesized, replayed):
            assert a.id == b.id and a.instances == b.instances
            assert np.array_equal(a.pixels, b.pixels)

    def test_numbering_starts_at_first_id(self):
        data = dataset()
        targets = {1: data.image_count(1) + 4}
        plan, _ = plan_and_execute_augmentation(data, targets, seed=6)
        top = max(im.id for im in data.images)
        assert [r.new_image_id for r in plan.records] == list(range(top + 1, top + 5))
        plan, out = plan_and_execute_augmentation(data, targets, seed=6, first_id=500)
        assert [r.new_image_id for r in plan.records] == [500, 501, 502, 503]
        assert [im.id for im in out.images[len(data.images):]] == [500, 501, 502, 503]

    def test_zero_instance_category_with_target(self):
        data = dataset()
        data.categories[99] = "ghost"
        with pytest.raises(InvalidParam):
            plan_and_execute_augmentation(data, {99: 5}, seed=0)

    def test_unknown_category(self):
        with pytest.raises(InvalidParam):
            plan_and_execute_augmentation(dataset(), {123: 5}, seed=0)

    def test_records_carry_transform_chains(self):
        data = dataset()
        plan, _ = plan_and_execute_augmentation(data, {1: data.image_count(1) + 3}, seed=5)
        for rec in plan.records:
            assert 1 <= len(rec.transforms) <= 3
            for t in rec.transforms:
                assert t[0] in ("hflip", "vflip", "scale", "rotate", "shear", "translate")


class TestResampledBytes:
    """The shipped resampler and the oracle synthesize the same images."""

    @staticmethod
    def synthesize(data, targets):
        plan, out = plan_and_execute_augmentation(data, targets, seed=8)
        first = max(im.id for im in data.images) + 1
        return plan, [im for im in out.images if im.id >= first], replay_plan(plan, data)

    @pytest.mark.parametrize("color", [False, True])
    def test_plan_and_replay_match_the_oracle(self, color, monkeypatch):
        data = dataset(n=12, seed=3)
        if color:
            data.images = [replace(im, channels=3, pixels=np.stack(
                [im.pixels, 255 - im.pixels, im.pixels // 2], axis=-1)) for im in data.images]
        targets = {cid: data.image_count(cid) + 6 for cid in data.categories}
        shipped = self.synthesize(data, targets)
        monkeypatch.setattr(importlib.import_module("railswin.data.augment"),
                            "_bilinear_sample", oracle_bilinear_sample)
        oracle = self.synthesize(data, targets)
        assert shipped[0].to_json() == oracle[0].to_json()
        resampled = [t for rec in shipped[0].records for t in rec.transforms
                     if t[0] not in ("hflip", "vflip")]
        assert len(resampled) >= 10
        for mine, theirs in ((shipped[1], oracle[1]), (shipped[2], oracle[2])):
            assert len(mine) == len(theirs) == len(shipped[0].records)
            for a, b in zip(mine, theirs):
                assert a.id == b.id and a.instances == b.instances
                assert a.pixels.dtype == b.pixels.dtype and a.pixels.shape == b.pixels.shape
                assert np.array_equal(a.pixels, b.pixels)


class TestSplit:
    def test_eighty_twenty(self):
        train, val = split_train_val(dataset(n=10), 0.8, seed=0)
        assert len(train.images) == 8
        assert len(val.images) == 2

    def test_partition_property(self):
        data = dataset(n=17)
        train, val = split_train_val(data, 0.7, seed=3)
        t_ids = {im.id for im in train.images}
        v_ids = {im.id for im in val.images}
        assert t_ids | v_ids == {im.id for im in data.images}
        assert t_ids & v_ids == set()

    def test_deterministic(self):
        data = dataset(n=20)
        t1, _ = split_train_val(data, 0.8, seed=7)
        t2, _ = split_train_val(data, 0.8, seed=7)
        assert [im.id for im in t1.images] == [im.id for im in t2.images]

    def test_fraction_validation(self):
        with pytest.raises(InvalidParam):
            split_train_val(dataset(), 0.0, seed=0)
        with pytest.raises(InvalidParam):
            split_train_val(dataset(), 1.0, seed=0)
