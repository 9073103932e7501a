"""Per-category size statistics and the small-instance taxonomy.

A category's mean relative size is the mean over its instances of
box area divided by the area of the instance's own image.  Categories
whose mean relative size is strictly below 2% count as small.

For reference, the COCO absolute thresholds and their stated relative
sizes at 640x480: 32x32 pixels (0.3%) for small, 96x96 (3%) for medium.
High-resolution inspection imagery makes the relative rule the useful
one here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..errors import InvalidParam
from ..files import csv_text

SMALL_SIZE_RATIO = 0.02

COCO_SMALL_AREA_PX = 32 * 32
COCO_MEDIUM_AREA_PX = 96 * 96
COCO_REFERENCE_RESOLUTION = (640, 480)
COCO_SMALL_RATIO = 0.003
COCO_MEDIUM_RATIO = 0.03

STATS_CSV_COLUMNS = ("category", "count", "mean_w", "mean_h",
                     "mean_area_px", "mean_size_ratio", "size_class")


@dataclass
class CategoryStats:
    category_id: int
    name: str
    instance_count: int
    mean_area_px: float
    mean_w: float
    mean_h: float
    mean_size_ratio: float
    size_class: str  # "small" | "regular"


def classify_small(mean_size_ratio):
    """'small' iff the mean relative size is strictly below 2%."""
    if not 0.0 <= mean_size_ratio <= 1.0:
        raise InvalidParam(f"size ratio must be in [0, 1], got {mean_size_ratio}")
    return "small" if mean_size_ratio < SMALL_SIZE_RATIO else "regular"


def category_stats(dataset):
    """Mean box size (absolute and relative to each image) per category.

    Categories with no instances are skipped with a warning.
    """
    out = []
    for cid in sorted(dataset.categories):
        sum_area = sum_ratio = sum_w = sum_h = 0.0
        n = 0
        for im in dataset.images:
            img_area = float(im.width * im.height)
            for box, cat in im.instances:
                if cat != cid:
                    continue
                n += 1
                sum_area += box.w * box.h
                sum_ratio += (box.w * box.h) / img_area
                sum_w += box.w
                sum_h += box.h
        if n == 0:
            warnings.warn(f"category {dataset.categories[cid]!r} has no instances; skipped",
                          stacklevel=2)
            continue
        ratio = sum_ratio / n
        out.append(CategoryStats(
            category_id=cid, name=dataset.categories[cid], instance_count=n,
            mean_area_px=sum_area / n, mean_w=sum_w / n, mean_h=sum_h / n,
            mean_size_ratio=ratio, size_class=classify_small(ratio)))
    return out


def stats_to_csv(stats):
    return csv_text(STATS_CSV_COLUMNS,
                    [(s.name, s.instance_count, s.mean_w, s.mean_h, s.mean_area_px,
                      s.mean_size_ratio, s.size_class) for s in stats])
