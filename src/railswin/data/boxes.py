"""Axis-aligned bounding boxes in (x, y, w, h) pixel coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InvalidParam


@dataclass(frozen=True)
class BBox:
    """Top-left corner plus extents; all finite, w and h never negative."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.w, self.h))):
            raise InvalidParam(f"box coordinates must be finite, got "
                               f"{[self.x, self.y, self.w, self.h]}")
        if self.w < 0 or self.h < 0:
            raise InvalidParam(f"box extents must be >= 0, got w={self.w}, h={self.h}")

    @property
    def x2(self):
        return self.x + self.w

    @property
    def y2(self):
        return self.y + self.h

    @property
    def area(self):
        return self.w * self.h

    def clamped(self, width, height):
        """Intersect with the [0, width] x [0, height] image region."""
        x1 = min(max(self.x, 0.0), float(width))
        y1 = min(max(self.y, 0.0), float(height))
        x2 = min(max(self.x2, 0.0), float(width))
        y2 = min(max(self.y2, 0.0), float(height))
        return BBox(x1, y1, max(x2 - x1, 0.0), max(y2 - y1, 0.0))

    def corners(self):
        """The four (x, y) corners, clockwise from top-left."""
        return [(self.x, self.y), (self.x2, self.y), (self.x2, self.y2), (self.x, self.y2)]

    @staticmethod
    def hull(points):
        """Axis-aligned hull of an iterable of (x, y) points."""
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return BBox(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))
