"""Intensity enhancement for 8-bit images.

he      global histogram equalization (monotone intensity map)
ahe     clip-limited tiled equalization, bilinearly blended between tiles
cet     linear contrast stretch between two percentiles, read from the level
        histogram
msrcp   multi-scale retinex on the intensity channel, chromaticity kept
        (the only method that loads scipy, on its first call)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import InvalidParam


def _check_uint8(pixels):
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise InvalidParam(f"enhancement expects 8-bit images, got {pixels.dtype}")
    if pixels.ndim not in (2, 3):
        raise InvalidParam(f"enhancement expects [H, W] or [H, W, 3], got {pixels.shape}")
    if pixels.size == 0:
        raise InvalidParam(f"enhancement expects a non-empty image, got {pixels.shape}")
    return pixels


def _equalize_lut(values, total):
    cdf = np.cumsum(values)
    return np.rint(255.0 * cdf / total).astype(np.uint8)


def hist_equalize(pixels):
    """Map each level to round(255 * cdf); per channel for color images."""
    pixels = _check_uint8(pixels)
    if pixels.ndim == 3:
        return np.stack([hist_equalize(pixels[..., c]) for c in range(pixels.shape[2])], axis=2)
    hist = np.bincount(pixels.reshape(-1), minlength=256)
    return np.take(_equalize_lut(hist, pixels.size), pixels)


def _clipped_hist(tile, clip_limit):
    hist = np.bincount(tile.reshape(-1), minlength=256).astype(np.float64)
    limit = max(clip_limit * tile.size / 256.0, 1.0)
    excess = np.maximum(hist - limit, 0.0).sum()
    hist = np.minimum(hist, limit)
    hist += excess / 256.0
    return hist


def adaptive_equalize(pixels, tiles=(8, 8), clip_limit=2.0):
    """Tiled equalization; each pixel blends the maps of its 4 nearest tiles."""
    pixels = _check_uint8(pixels)
    ty, tx = tiles
    if ty < 1 or tx < 1:
        raise InvalidParam(f"tile grid must be >= 1x1, got {tiles}")
    if clip_limit <= 0:
        raise InvalidParam(f"clip limit must be positive, got {clip_limit}")
    if pixels.ndim == 3:
        return np.stack([adaptive_equalize(pixels[..., c], tiles, clip_limit)
                         for c in range(pixels.shape[2])], axis=2)
    H, W = pixels.shape
    ty, tx = min(ty, H), min(tx, W)
    row_edges = np.linspace(0, H, ty + 1).astype(np.int64)
    col_edges = np.linspace(0, W, tx + 1).astype(np.int64)
    luts = np.empty((ty, tx, 256), dtype=np.float64)
    centers_y = np.empty(ty)
    centers_x = np.empty(tx)
    for i in range(ty):
        centers_y[i] = (row_edges[i] + row_edges[i + 1]) / 2.0
        for j in range(tx):
            centers_x[j] = (col_edges[j] + col_edges[j + 1]) / 2.0
            tile = pixels[row_edges[i]:row_edges[i + 1], col_edges[j]:col_edges[j + 1]]
            hist = _clipped_hist(tile, clip_limit)
            luts[i, j] = 255.0 * np.cumsum(hist) / hist.sum()

    def blend_coords(coords, centers):
        idx = np.searchsorted(centers, coords) - 1
        i0 = np.clip(idx, 0, len(centers) - 1)
        i1 = np.clip(idx + 1, 0, len(centers) - 1)
        span = centers[i1] - centers[i0]
        w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
        return i0, i1, np.clip(w, 0.0, 1.0)

    y0, y1, wy = blend_coords(np.arange(H) + 0.5, centers_y)
    x0, x1, wx = blend_coords(np.arange(W) + 0.5, centers_x)
    y0, y1, wy = y0[:, None], y1[:, None], wy[:, None]
    x0, x1, wx = x0[None, :], x1[None, :], wx[None, :]
    v = pixels
    out = ((1 - wy) * ((1 - wx) * luts[y0, x0, v] + wx * luts[y0, x1, v])
           + wy * ((1 - wx) * luts[y1, x0, v] + wx * luts[y1, x1, v]))
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _percentiles(hist, q):
    """``np.percentile`` (linear, Hyndman-Fan type 7) of the pixels counted in ``hist``.

    The same float operations as numpy's: position ``(n - 1) * q``, the order
    statistics at its floor and the next one, and the symmetric lerp.  The
    k-th smallest pixel is the first level whose cumulative count exceeds k.
    """
    cdf = np.cumsum(hist)
    n = int(cdf[-1])
    pos = (n - 1) * q
    k = np.floor(pos)
    t = pos - k
    k = k.astype(np.int64)
    a = np.searchsorted(cdf, k, side="right").astype(np.float64)
    b = np.searchsorted(cdf, np.minimum(k + 1, n - 1), side="right").astype(np.float64)
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def contrast_stretch(pixels, p_low=2.0, p_high=98.0):
    """Linear stretch of [p_low, p_high] percentiles onto [0, 255].

    Colour channels pool into one histogram.  The map is computed once per
    level as a 256-entry table, with the float operations a per-pixel map
    would run, so the bytes equal a per-pixel stretch between
    ``np.percentile`` values.
    """
    pixels = _check_uint8(pixels)
    if not 0.0 <= p_low < p_high <= 100.0:
        raise InvalidParam(f"percentiles must satisfy 0 <= low < high <= 100, got ({p_low}, {p_high})")
    hist = np.bincount(pixels.reshape(-1), minlength=256)
    lo, hi = _percentiles(hist, np.true_divide([p_low, p_high], 100))
    if hi <= lo:
        return pixels.copy()
    lut = (np.arange(256, dtype=np.float64) - lo) * (255.0 / (hi - lo))
    lut = np.clip(np.rint(lut), 0, 255).astype(np.uint8)
    return np.take(lut, pixels)


def msrcp(pixels, scales=(15.0, 80.0, 250.0)):
    """Multi-scale retinex on intensity; color ratios preserved when present."""
    # imported here: scipy.ndimage takes longer to import than the rest of
    # the package, and no other method needs it
    from scipy.ndimage import gaussian_filter

    pixels = _check_uint8(pixels)
    scales = tuple(scales)
    if not scales:
        raise InvalidParam("msrcp needs at least one blur scale")
    if any(s <= 0 for s in scales):
        raise InvalidParam(f"msrcp scales must be positive, got {scales}")
    img = pixels.astype(np.float64)
    intensity = img if img.ndim == 2 else img.mean(axis=2)
    log_i = np.log1p(intensity)
    msr = np.zeros_like(intensity)
    for s in scales:
        msr += log_i - np.log1p(gaussian_filter(intensity, sigma=s))
    msr /= len(scales)
    span = msr.max() - msr.min()
    if span <= 0:
        return pixels.copy()
    new_i = (msr - msr.min()) * (255.0 / span)
    if img.ndim == 2:
        return np.clip(np.rint(new_i), 0, 255).astype(np.uint8)
    # scale each channel by new/old intensity, capped so no channel clips
    old_i = np.maximum(intensity, 1e-6)
    max_c = np.maximum(img.max(axis=2), 1e-6)
    gain = np.minimum(new_i / old_i, 255.0 / max_c)
    out = img * gain[..., None]
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


METHODS = {"he": hist_equalize, "ahe": adaptive_equalize, "cet": contrast_stretch,
           "msrcp": msrcp}


def enhance(img, method):
    """Dispatch by method name; accepts a raw array or an annotated image."""
    fn = METHODS.get(str(method).lower())
    if fn is None:
        raise InvalidParam(f"unknown enhancement {method!r}; expected one of {tuple(METHODS)}")
    if isinstance(img, np.ndarray):
        return fn(img)
    if img.pixels is None:
        raise InvalidParam(f"image {img.id} has no pixel data to enhance")
    return replace(img, pixels=fn(img.pixels))
