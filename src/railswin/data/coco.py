"""COCO-style annotation ingestion and regeneration.

A dataset is a list of annotated images plus a category table.  Pixel
data is optional: annotation-only documents load fine, and image payloads
are attached from sibling PGM/PPM files when they exist (PNG and other
formats are expected to arrive as already-decoded arrays).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import DanglingReference, InvalidParam, ParseError
from ..files import read_json, write_json
from .boxes import BBox
from .imageio import read_pnm, write_pnm


@dataclass
class AnnotatedImage:
    id: int
    width: int
    height: int
    channels: int = 1
    pixels: np.ndarray | None = None  # uint8 [H, W] or [H, W, 3]
    instances: list = field(default_factory=list)  # [(BBox, category_id)]
    file_name: str | None = None

    def category_ids(self):
        return {cat for _, cat in self.instances}


@dataclass
class Dataset:
    images: list = field(default_factory=list)
    categories: dict = field(default_factory=dict)  # id -> name

    def __len__(self):
        return len(self.images)

    def instance_count(self, category_id=None):
        if category_id is None:
            return sum(len(im.instances) for im in self.images)
        return sum(1 for im in self.images for _, c in im.instances if c == category_id)

    def image_count(self, category_id):
        """Number of images containing at least one instance of the category."""
        return sum(1 for im in self.images if category_id in im.category_ids())


def load_coco(path, load_pixels=True):
    """Parse a COCO-style annotation document into a Dataset.

    Annotations referencing unknown image or category ids raise
    DanglingReference; structural problems raise ParseError.
    """
    doc = read_json(path, "annotations")
    return parse_coco(doc, base_dir=os.path.dirname(os.fspath(path)), load_pixels=load_pixels)


def parse_coco(doc, base_dir="", load_pixels=False):
    if not isinstance(doc, dict):
        raise ParseError("annotation document must be a JSON object")
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f"annotation document missing list field {key!r}")

    categories = {}
    for cat in doc["categories"]:
        try:
            cid, name = int(cat["id"]), str(cat.get("name", cat["id"]))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"bad category entry {cat!r}") from e
        if cid < 0:  # a checkpoint records its category ids as non-negative integers
            raise ParseError(f"bad category entry {cat!r}: negative id")
        categories[cid] = name

    images = {}
    for im in doc["images"]:
        try:
            rec = AnnotatedImage(id=int(im["id"]), width=int(im["width"]),
                                 height=int(im["height"]),
                                 file_name=im.get("file_name"))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"bad image entry {im!r}") from e
        if not isinstance(rec.file_name, (str, type(None))) or min(rec.width, rec.height) < 1:
            raise ParseError(f"bad image entry {im!r}: needs a positive width and height, "
                             "and a string file_name if any")
        if rec.id in images:
            raise ParseError(f"duplicate image id {rec.id}")
        if load_pixels and rec.file_name:
            full = os.path.join(base_dir, rec.file_name)
            if os.path.exists(full) and full.endswith((".pgm", ".ppm", ".pnm")):
                rec.pixels = read_pnm(full)
                rec.channels = 1 if rec.pixels.ndim == 2 else 3
                h, w = rec.pixels.shape[:2]
                if (w, h) != (rec.width, rec.height):
                    raise ParseError(f"{full}: image is {w}x{h}, but its entry says "
                                     f"{rec.width}x{rec.height}")
        images[rec.id] = rec

    for ann in doc["annotations"]:
        try:
            image_id = int(ann["image_id"])
            category_id = int(ann["category_id"])
            box = BBox(*(float(v) for v in ann["bbox"]))
        except (KeyError, TypeError, ValueError, OverflowError, InvalidParam) as e:
            raise ParseError(f"bad annotation entry {ann!r}: {e}") from e
        if image_id not in images:
            raise DanglingReference(f"annotation references missing image {image_id}")
        if category_id not in categories:
            raise DanglingReference(f"annotation references missing category {category_id}")
        im = images[image_id]
        if box.x >= im.width or box.y >= im.height or box.x + box.w <= 0 or box.y + box.h <= 0:
            raise ParseError(f"annotation {ann.get('id')!r}: box {ann['bbox']!r} lies wholly "
                             f"outside image {image_id} ({im.width}x{im.height})")
        im.instances.append((box, category_id))

    return Dataset(images=list(images.values()), categories=categories)


def _file_name(im):
    """The image's own file name if it is a bare one, else img_<id>.pgm, or .ppm
    for a colour image: an output name never leaves its split directory."""
    n = im.file_name
    if n and os.path.basename(n) == n and n not in (".", ".."):
        return n
    return f"img_{im.id:06d}." + ("pgm" if im.channels == 1 else "ppm")


def dataset_to_coco(dataset):
    """Regenerate a COCO-style document from a Dataset."""
    doc = {"images": [], "annotations": [], "categories": []}
    for cid in sorted(dataset.categories):
        doc["categories"].append({"id": cid, "name": dataset.categories[cid]})
    ann_id = 1
    for im in dataset.images:
        doc["images"].append({
            "id": im.id, "width": im.width, "height": im.height,
            "file_name": _file_name(im),
        })
        for box, cat in im.instances:
            doc["annotations"].append({
                "id": ann_id, "image_id": im.id, "category_id": cat,
                "bbox": [box.x, box.y, box.w, box.h], "area": box.area,
                "iscrowd": 0,
            })
            ann_id += 1
    return doc


def save_dataset(dataset, out_dir):
    """Write one PGM/PPM per image with pixel data, then annotations.json.

    Images are rewritten in place, so the split's annotations.json is
    removed before the first one and written last: a directory without
    it holds an interrupted save, which load_coco refuses.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "annotations.json")
    Path(path).unlink(missing_ok=True)
    for im in dataset.images:
        im.file_name = _file_name(im)
        if im.pixels is not None:
            write_pnm(os.path.join(out_dir, im.file_name), im.pixels)
    write_json(path, dataset_to_coco(dataset))
    return path
