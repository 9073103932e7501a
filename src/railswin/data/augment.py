"""Geometric augmentation with exact box bookkeeping.

Transforms are (kind, *params) tuples:

    ("hflip",)            ("vflip",)
    ("scale", s)          s in [0.5, 1.5], about the image center
    ("rotate", deg)       |deg| <= 15, or any exact multiple of 90
    ("shear", k)          |k| <= 0.2, horizontal shear about the center
    ("translate", dx, dy) |dx| <= 0.2*W, |dy| <= 0.2*H, in pixels

Pixels are resampled bilinearly with zero fill (flips are exact index
reversals).  Boxes are mapped by transforming their four corners, taking
the axis-aligned hull, and clamping to the image; boxes that shrink below
4 px^2 are dropped.  Exact 90-degree rotations use integer matrices, so
lattice images and boxes round-trip exactly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np

from ..errors import InvalidParam
from .boxes import BBox

MIN_BOX_AREA = 4.0

TRANSFORM_KINDS = ("hflip", "vflip", "scale", "rotate", "shear", "translate")


def validate_transform(spec, width, height):
    kind, *args = spec
    if kind not in TRANSFORM_KINDS:
        raise InvalidParam(f"unknown transform {kind!r}")
    if kind in ("hflip", "vflip"):
        if args:
            raise InvalidParam(f"{kind} takes no parameters")
    elif kind == "scale":
        (s,) = args
        if not 0.5 <= s <= 1.5:
            raise InvalidParam(f"scale must be in [0.5, 1.5], got {s}")
    elif kind == "rotate":
        (deg,) = args
        if abs(deg) > 15 and deg % 90 != 0:
            raise InvalidParam(f"rotation must satisfy |deg| <= 15 or be a multiple of 90, got {deg}")
    elif kind == "shear":
        (k,) = args
        if abs(k) > 0.2:
            raise InvalidParam(f"shear must satisfy |k| <= 0.2, got {k}")
    elif kind == "translate":
        dx, dy = args
        if abs(dx) > 0.2 * width or abs(dy) > 0.2 * height:
            raise InvalidParam(
                f"translation ({dx}, {dy}) exceeds 20% of image extent {width}x{height}")


def _affine_matrix(spec, width, height):
    """Forward 3x3 map of continuous (x, y) image coordinates, or None for flips."""
    kind, *args = spec
    cx, cy = width / 2.0, height / 2.0

    def about_center(lin):
        m = np.eye(3)
        m[:2, :2] = lin
        m[0, 2] = cx - lin[0][0] * cx - lin[0][1] * cy
        m[1, 2] = cy - lin[1][0] * cx - lin[1][1] * cy
        return m

    if kind == "scale":
        (s,) = args
        return about_center([[s, 0.0], [0.0, s]])
    if kind == "rotate":
        (deg,) = args
        if deg % 90 == 0:
            quarter = int(deg // 90) % 4
            c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter]
        else:
            rad = math.radians(deg)
            c, s = math.cos(rad), math.sin(rad)
        return about_center([[c, -s], [s, c]])
    if kind == "shear":
        (k,) = args
        return about_center([[1.0, k], [0.0, 1.0]])
    if kind == "translate":
        dx, dy = args
        m = np.eye(3)
        m[0, 2], m[1, 2] = dx, dy
        return m
    return None  # flips take the exact path


def _affine_inverse(m):
    """Closed-form affine inverse; exact for integer rotation matrices."""
    a, b, tx = m[0]
    c, d, ty = m[1]
    det = a * d - b * c
    ia, ib = d / det, -b / det
    ic, id_ = -c / det, a / det
    return np.array([[ia, ib, -(ia * tx + ib * ty)],
                     [ic, id_, -(ic * tx + id_ * ty)],
                     [0.0, 0.0, 1.0]])


class _Scratch:
    """Work arrays for one pixel-array shape.

    ``padded`` is the image as float64 inside a two-pixel border that stays
    zero.  A tap's column x0 clipped to [-2, W] then reads 0 wherever x0 or
    x0 + 1 falls outside the image, and x0 + 1 is always the next column, so
    the four taps of a pixel are one flat index and three fixed offsets.
    """

    def __init__(self, shape):
        H, W = shape[:2]
        self.shape = shape
        self.xc, self.yc = np.arange(W) + 0.5, np.arange(H) + 0.5
        self.padded = np.zeros((H + 4, W + 4) + shape[2:])
        self.flat = self.padded.reshape((-1,) + shape[2:])
        self.f = [np.empty((H, W)) for _ in range(5)]
        self.i = [np.empty((H, W), np.int64) for _ in range(3)]
        self.taps = np.empty((H * W,) + shape[2:])
        self.acc = np.empty_like(self.taps)


# One _Scratch per thread, replaced when the image shape changes, so memory
# does not grow with the number of distinct sizes in a dataset.  Results
# never alias it, so one caller cannot see another's work.
_local = threading.local()


def _scratch(shape):
    s = getattr(_local, "scratch", None)
    if s is None or s.shape != shape:
        s = _local.scratch = _Scratch(shape)
    return s


def _axis_view(buf, shape):
    """A C-contiguous ``shape`` view of the first values of a scratch array."""
    return buf.reshape(-1)[:shape[0] * shape[1]].reshape(shape)


def _bilinear_sample(pixels, inv):
    """Resample with the inverse map; out-of-bounds reads contribute zero.

    Per pixel: source point ``inv @ (x + 0.5, y + 0.5, 1) - 0.5``, four taps
    weighted ``(1-wx)(1-wy)``, ``wx(1-wy)``, ``(1-wx)wy``, ``wx wy`` and summed
    in that order, then rounded and clipped to uint8.  Temporaries live in a
    per-shape ``_Scratch``; the result is always a fresh array.

    A source coordinate whose map row has a zero x (y) coefficient is the
    same in every column (row), so it is computed on one column (row) of
    pixel centres, [H, 1] ([1, W]), and broadcast where taps and weights
    combine: scale and translate work on H + W values per axis, not H * W.
    A zero coefficient times a positive centre is the same zero for every
    centre, so each value takes the same float operations either way.
    """
    H, W = pixels.shape[:2]
    s = _scratch(pixels.shape)
    s.padded[2:-2, 2:-2] = pixels
    ux, uy, wx, wy, w = s.f
    cx, cy, idx = s.i
    axes = []
    for (a, b, c), f, wf, i, n in ((inv[0], ux, wx, cx, W), (inv[1], uy, wy, cy, H)):
        xs = s.xc if a != 0 else s.xc[:1]
        ys = s.yc if b != 0 else s.yc[:1]
        f, wf, i = (_axis_view(buf, (len(ys), len(xs))) for buf in (f, wf, i))
        # source coordinate, (a*px + b*py) + c - 0.5, from 1-D centres
        f[...] = a * xs
        np.add(f, (b * ys)[:, None], out=f)
        np.add(f, c, out=f)
        np.subtract(f, 0.5, out=f)
        # i = floor(f) cast to int64 and w = f - i; then f becomes 1 - w, and
        # i the padded column (row) of i, clipped onto the zero border
        np.floor(f, out=wf)
        np.copyto(i, wf, casting="unsafe")
        np.subtract(f, i, out=wf)
        np.subtract(1.0, wf, out=f)
        np.clip(i, -2, n, out=i)
        i += 2
        axes.append((f, wf, i))
    (ux, wx, cx), (uy, wy, cy) = axes
    cy *= W + 4
    np.add(cy, cx, out=idx)
    acc, taps = s.acc, s.taps
    w_col = w.reshape((H * W,) + (1,) * (pixels.ndim - 2))
    # Weights are finite and >= 0, so a border read adds w * 0 = +0.0, as a
    # masked-out tap would, and the first tap can stand for 0.0 + tap.
    for k, (xw, yw, step) in enumerate(((ux, uy, 0), (wx, uy, 1), (ux, wy, W + 3), (wx, wy, 1))):
        if step:
            idx += step
        np.take(s.flat, idx.reshape(-1), axis=0, out=taps, mode="clip")
        np.multiply(xw, yw, out=w)
        np.multiply(w_col, taps, out=taps if k else acc)
        if k:
            np.add(acc, taps, out=acc)
    np.rint(acc, out=acc)
    np.clip(acc, 0, 255, out=acc)
    return acc.astype(np.uint8).reshape(pixels.shape)


def _map_box(box, matrix):
    pts = [(matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2],
            matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]) for x, y in box.corners()]
    return BBox.hull(pts)


def augment(img, transform):
    """Apply one transform to an annotated image; returns a new record.

    Pixel data, when present, is resampled; instance boxes are remapped
    and clamped, with degenerate leftovers dropped.
    """
    validate_transform(transform, img.width, img.height)
    kind = transform[0]

    if kind in ("hflip", "vflip"):
        pixels = None
        if img.pixels is not None:
            pixels = np.flip(img.pixels, axis=1 if kind == "hflip" else 0).copy()
        instances = []
        for box, cat in img.instances:
            if kind == "hflip":
                moved = BBox(img.width - box.x - box.w, box.y, box.w, box.h)
            else:
                moved = BBox(box.x, img.height - box.y - box.h, box.w, box.h)
            instances.append((moved, cat))
        return replace(img, pixels=pixels, instances=instances)

    matrix = _affine_matrix(transform, img.width, img.height)
    pixels = None
    if img.pixels is not None:
        pixels = _bilinear_sample(img.pixels, _affine_inverse(matrix))
    instances = []
    for box, cat in img.instances:
        moved = _map_box(box, matrix).clamped(img.width, img.height)
        if moved.area >= MIN_BOX_AREA:
            instances.append((moved, cat))
    return replace(img, pixels=pixels, instances=instances)


def apply_transforms(img, transforms):
    for t in transforms:
        img = augment(img, t)
    return img
