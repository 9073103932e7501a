"""Seeded procedural rail-surface images with exact ground-truth boxes.

Four visually distinct defect kinds are drawn over a bright vertical
rail strip with additive Gaussian noise:

    scratch-line   thin bright diagonal stroke (tall box)
    dark-blob      dark elliptical spot, squat-like (round box)
    joint-gap-bar  flat dark horizontal bar (wide box)
    texture-patch  high-contrast speckle region (large box)

Instances flagged small are sized so box area / image area < 2% by
construction; regular instances sit comfortably above that line.  Each
instance is flagged small with probability ``small_fraction``, and always
when its kind is named in ``small_categories``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data.boxes import BBox
from .data.coco import AnnotatedImage, Dataset
from .errors import InvalidParam

DEFECT_KINDS = ("scratch-line", "dark-blob", "joint-gap-bar", "texture-patch")

_SMALL_RATIO_RANGE = (0.010, 0.019)
_REGULAR_RATIO_RANGE = (0.04, 0.18)

# width:height aspect sampling range per kind
_ASPECT = {
    "scratch-line": (0.3, 0.6),
    "dark-blob": (0.8, 1.25),
    "joint-gap-bar": (2.5, 5.0),
    "texture-patch": (0.8, 2.0),
}


@dataclass
class SyntheticSpec:
    num_images: int = 200
    image_size: tuple[int, int] = (32, 32)
    categories: tuple[str, ...] = DEFECT_KINDS
    instances_per_image: tuple[int, int] = (1, 1)
    small_fraction: float = 0.3
    small_categories: tuple[str, ...] = ()
    noise_level: float = 4.0
    seed: int = 0

    def __post_init__(self):
        self.image_size = tuple(int(v) for v in self.image_size)
        self.categories = tuple(self.categories)
        self.small_categories = tuple(self.small_categories)
        self.instances_per_image = tuple(int(v) for v in self.instances_per_image)
        if self.num_images < 1:
            raise InvalidParam("num_images must be >= 1")
        if any(v < 8 for v in self.image_size):
            raise InvalidParam("image_size must be at least 8x8")
        if not self.categories or any(c not in DEFECT_KINDS for c in self.categories):
            raise InvalidParam(f"categories must be drawn from {DEFECT_KINDS}")
        unknown = [c for c in self.small_categories if c not in self.categories]
        if unknown:
            raise InvalidParam(f"small_categories names {unknown[0]!r}, not one of {self.categories}")
        lo, hi = self.instances_per_image
        if not 1 <= lo <= hi:
            raise InvalidParam("instances_per_image must be (lo, hi) with 1 <= lo <= hi")
        if not 0.0 <= self.small_fraction <= 1.0:
            raise InvalidParam("small_fraction must be in [0, 1]")
        if self.noise_level < 0:
            raise InvalidParam("noise_level must be >= 0")
        if self.seed < 0:
            raise InvalidParam("synthetic seed must be >= 0")


def _background(rng, H, W, noise_level):
    xs = np.arange(W)
    profile = 70.0 + 110.0 * np.exp(-0.5 * ((xs - W / 2.0) / (W / 5.0)) ** 2)
    rows = np.linspace(0.95, 1.05, H)[:, None]
    img = rows * profile[None, :]
    if noise_level > 0:
        img = img + rng.normal(0.0, noise_level, (H, W))
    return img


def _pick_box_dims(rng, kind, H, W, small):
    area = H * W
    lo, hi = _SMALL_RATIO_RANGE if small else _REGULAR_RATIO_RANGE
    target = float(rng.uniform(lo, hi)) * area
    aspect = float(rng.uniform(*_ASPECT[kind]))
    w = max(2, int(round(math.sqrt(target * aspect))))
    h = max(2, int(round(w / aspect)))
    w, h = min(w, W - 1), min(h, H - 1)
    if small:  # keep the as-placed ratio strictly under the 2% line
        while w * h >= 0.02 * area and (w > 2 or h > 2):
            if h >= w and h > 2:
                h -= 1
            else:
                w -= 1
    return w, h


def _draw_instance(rng, img, kind, x, y, w, h):
    region = img[y:y + h, x:x + w]
    if kind == "scratch-line":
        n = max(w, h) * 2
        ts = np.linspace(0.0, 1.0, n)
        cols = np.clip(np.rint(ts * (w - 1)).astype(int), 0, w - 1)
        rows = np.clip(np.rint(ts * (h - 1)).astype(int), 0, h - 1)
        region[rows, cols] = 235.0
        region[rows, np.minimum(cols + 1, w - 1)] = 215.0
    elif kind == "dark-blob":
        ys, xs = np.mgrid[0:h, 0:w]
        ry, rx = max(h / 2.0, 1.0), max(w / 2.0, 1.0)
        mask = ((xs - (w - 1) / 2.0) / rx) ** 2 + ((ys - (h - 1) / 2.0) / ry) ** 2 <= 1.0
        region[mask] = region[mask] * 0.15 + 10.0
    elif kind == "joint-gap-bar":
        region *= 0.0
        region += rng.uniform(5.0, 25.0)
    else:  # texture-patch
        region[...] = rng.integers(0, 256, region.shape)


def generate_synthetic(spec):
    """Deterministically build (per seed) a dataset of annotated images."""
    rng = np.random.default_rng(spec.seed)
    H, W = spec.image_size
    lo, hi = spec.instances_per_image
    categories = {i + 1: name for i, name in enumerate(spec.categories)}
    name_to_id = {name: cid for cid, name in categories.items()}

    images = []
    for i in range(spec.num_images):
        img = _background(rng, H, W, spec.noise_level)
        n_inst = int(rng.integers(lo, hi + 1))
        instances = []
        for _ in range(n_inst):
            kind = spec.categories[int(rng.integers(len(spec.categories)))]
            # the draw happens either way, so the default spec keeps its bytes
            small = bool(rng.random() < spec.small_fraction) or kind in spec.small_categories
            w, h = _pick_box_dims(rng, kind, H, W, small)
            x = int(rng.integers(0, W - w + 1))
            y = int(rng.integers(0, H - h + 1))
            _draw_instance(rng, img, kind, x, y, w, h)
            instances.append((BBox(float(x), float(y), float(w), float(h)),
                              name_to_id[kind]))
        pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        images.append(AnnotatedImage(id=i + 1, width=W, height=H, channels=1,
                                     pixels=pixels, instances=instances))
    return Dataset(images=images, categories=categories)
