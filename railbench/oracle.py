"""Reference computations the benchmark checks the package against.

Written as plain loops over Python scalars, indexed by (image, category)
so that checking hundreds of images stays cheap.  Nothing here imports
the package.

Detections are tuples ``(image_id, category_id, (x, y, w, h), score)``;
ground truth maps ``image_id -> [((x, y, w, h), category_id), ...]``.
"""

from __future__ import annotations

import math

# COCO recall thresholds 0.00, 0.01, ..., 1.00, computed as numpy's
# linspace computes them (start + k * step): ten of them differ from k / 100
# in the last bit, and the package compares recall against these values.
RECALL_THRESHOLDS = [k * (1.0 / 100) for k in range(101)]
RECALL_THRESHOLDS[-1] = 1.0


def iou(a, b):
    ix = max(0.0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def greedy_match(dets, gts, thresh):
    """dets: [(score, box)] in input order; gts: [box].  Returns TP flags."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i][0])
    used = [False] * len(gts)
    tp = [False] * len(dets)
    for i in order:
        best_j, best_ov = -1, 0.0
        for j, g in enumerate(gts):
            if used[j]:
                continue
            ov = iou(dets[i][1], g)
            if ov >= thresh and ov > best_ov:
                best_j, best_ov = j, ov
        if best_j >= 0:
            used[best_j] = True
            tp[i] = True
    return tp


def interpolated_ap(scored, num_gt):
    """101-point interpolated AP: mean over r of max precision at recall >= r."""
    if num_gt == 0:
        return 0.0
    ranked = sorted(range(len(scored)), key=lambda i: -scored[i][0])
    recalls, precisions = [], []
    tp = fp = 0
    for i in ranked:
        if scored[i][1]:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / num_gt)
        precisions.append(tp / (tp + fp))
    # best[i] = max precision over points i..end (recall never decreases)
    best = precisions[:]
    for i in range(len(best) - 2, -1, -1):
        best[i] = max(best[i], best[i + 1])
    total = 0.0
    k = 0
    for r in RECALL_THRESHOLDS:
        while k < len(recalls) and recalls[k] < r:
            k += 1
        total += best[k] if k < len(recalls) else 0.0
    return total / len(RECALL_THRESHOLDS)


def evaluate(dets, gt, thresholds=(0.5, 0.75), max_dets=100):
    """(mAP at min threshold, mAP at max threshold, AR@max_dets)."""
    per_image = {}
    for pos, d in enumerate(dets):
        per_image.setdefault(d[0], []).append((pos, d))
    index = {}
    for image_id, items in per_image.items():
        items.sort(key=lambda t: (-t[1][3], t[0]))
        for pos, d in sorted(items[:max_dets]):
            index.setdefault((image_id, d[1]), []).append((d[3], d[2]))
    cats = sorted({c for inst in gt.values() for _, c in inst})
    image_ids = sorted(gt)
    ap, rec = {}, {}
    for t in thresholds:
        for c in cats:
            scored = []
            num_gt = 0
            for image_id in image_ids:
                gts_c = [b for b, cat in gt[image_id] if cat == c]
                num_gt += len(gts_c)
                dets_c = index.get((image_id, c), [])
                flags = greedy_match(dets_c, gts_c, t)
                scored.extend((s, f) for (s, _), f in zip(dets_c, flags))
            ap[t, c] = interpolated_ap(scored, num_gt)
            rec[t, c] = sum(1 for _, f in scored if f) / num_gt
    if not cats:
        return 0.0, 0.0, 0.0
    lo, hi = min(thresholds), max(thresholds)
    map_lo = sum(ap[lo, c] for c in cats) / len(cats)
    map_hi = sum(ap[hi, c] for c in cats) / len(cats)
    mar = sum(sum(rec[t, c] for t in thresholds) / len(thresholds) for c in cats) / len(cats)
    return map_lo, map_hi, mar


def percentile(sorted_values, p):
    """Linear-interpolation percentile (Hyndman-Fan type 7) of sorted data.

    The position and the interpolation follow numpy's float operations
    step by step (symmetric lerp), so results agree to the last bit.
    """
    n = len(sorted_values)
    pos = (n - 1) * (p / 100.0)
    lo = min(math.floor(pos), n - 1)
    hi = min(lo + 1, n - 1)
    t = pos - lo
    a, b = float(sorted_values[lo]), float(sorted_values[hi])
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def stretch(pixels, p_low=2.0, p_high=98.0):
    """Map the [p_low, p_high] percentile range linearly onto [0, 255].

    ``pixels`` is a flat list of 0..255 ints; returns a list of ints.
    """
    ordered = sorted(pixels)
    lo = percentile(ordered, p_low)
    hi = percentile(ordered, p_high)
    if hi <= lo:
        return list(pixels)
    scale = 255.0 / (hi - lo)
    lut = [min(255, max(0, round((v - lo) * scale))) for v in range(256)]
    return [lut[v] for v in pixels]


def read_pgm(path):
    """(width, height, bytes) of a binary 8-bit PGM with a plain header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(maxsplit=4)
    if parts[0] != b"P5" or int(parts[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(parts[1]), int(parts[2])
    header = len(raw) - w * h
    return w, h, raw[header:]


def write_pgm(path, width, height, data):
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(bytes(data))
