"""Seeded dataset balancing: split, then synthesize until targets are met."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InvalidParam
from .augment import apply_transforms
from .coco import Dataset


@dataclass
class SynthRecord:
    new_image_id: int
    source_image_id: int
    transforms: list  # [(kind, *params), ...]


@dataclass
class AugmentPlan:
    """Complete record of one balancing run; replayable without the RNG."""

    targets: dict  # category_id -> minimum image count
    seed: int
    split: str = "train"
    records: list = field(default_factory=list)

    def to_dict(self):
        return {
            "split": self.split,
            "seed": self.seed,
            "targets": {str(k): v for k, v in sorted(self.targets.items())},
            "records": [{"new_image_id": r.new_image_id,
                         "source_image_id": r.source_image_id,
                         "transforms": [list(t) for t in r.transforms]}
                        for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


def _draw_chain(rng, width, height):
    chain = []
    for _ in range(int(rng.integers(1, 4))):
        kind = ("hflip", "vflip", "scale", "rotate", "shear", "translate")[int(rng.integers(6))]
        if kind == "scale":
            chain.append(("scale", float(rng.uniform(0.5, 1.5))))
        elif kind == "rotate":
            chain.append(("rotate", float(rng.uniform(-15.0, 15.0))))
        elif kind == "shear":
            chain.append(("shear", float(rng.uniform(-0.2, 0.2))))
        elif kind == "translate":
            chain.append(("translate", float(rng.uniform(-0.2, 0.2)) * width,
                          float(rng.uniform(-0.2, 0.2)) * height))
        else:
            chain.append((kind,))
    return chain


def plan_and_execute_augmentation(dataset, targets, seed, split="train", first_id=None):
    """Synthesize augmented copies until every target category count is met.

    ``targets`` maps category id to a minimum number of images containing
    that category.  Sources are cycled in id order; transform chains are
    drawn from the given seed, retrying (bounded) when a chain drops every
    instance of the deficient category.  Synthesized images are numbered
    from ``first_id``, by default the split's largest id + 1.  Returns
    (plan, augmented dataset).
    """
    counts = {cid: dataset.image_count(cid) for cid in dataset.categories}
    for cid, want in targets.items():
        if cid not in dataset.categories:
            raise InvalidParam(f"target category {cid} is not in the dataset")
        if want > 0 and counts.get(cid, 0) == 0:
            raise InvalidParam(f"category {cid} has no source images to augment")

    rng = np.random.default_rng(seed)
    plan = AugmentPlan(targets=dict(targets), seed=seed, split=split)
    images = list(dataset.images)
    next_id = max((im.id for im in images), default=0) + 1 if first_id is None else first_id

    for cid in sorted(targets):
        sources = sorted((im for im in dataset.images if cid in im.category_ids()),
                         key=lambda im: im.id)
        cursor = 0
        while counts[cid] < targets[cid]:
            src = sources[cursor % len(sources)]
            cursor += 1
            new_img = None
            chain = None
            for _ in range(20):
                chain = _draw_chain(rng, src.width, src.height)
                candidate = apply_transforms(src, chain)
                if cid in candidate.category_ids():
                    new_img = candidate
                    break
            if new_img is None:  # mirror always preserves every box exactly
                chain = [("hflip",)]
                new_img = apply_transforms(src, chain)
            new_img = replace(new_img, id=next_id, file_name=None)
            plan.records.append(SynthRecord(new_image_id=next_id,
                                            source_image_id=src.id, transforms=chain))
            next_id += 1
            images.append(new_img)
            for c in new_img.category_ids():
                counts[c] = counts.get(c, 0) + 1

    return plan, Dataset(images=images, categories=dict(dataset.categories))


def replay_plan(plan, dataset):
    """Re-synthesize the plan's images from its records (no RNG involved)."""
    by_id = {im.id: im for im in dataset.images}
    out = []
    for rec in plan.records:
        img = apply_transforms(by_id[rec.source_image_id], rec.transforms)
        out.append(replace(img, id=rec.new_image_id, file_name=None))
    return out


def split_train_val(dataset, fraction, seed):
    """Seeded shuffle then split; every image lands on exactly one side."""
    if not 0.0 < fraction < 1.0:
        raise InvalidParam(f"split fraction must be in (0, 1), got {fraction}")
    order = sorted(dataset.images, key=lambda im: im.id)
    perm = np.random.default_rng(seed).permutation(len(order))
    n_train = int(len(order) * fraction)
    train_idx = set(perm[:n_train].tolist())
    train = [im for i, im in enumerate(order) if i in train_idx]
    val = [im for i, im in enumerate(order) if i not in train_idx]
    cats = dict(dataset.categories)
    return Dataset(images=train, categories=cats), Dataset(images=val, categories=dict(cats))
