"""Detection evaluation: IoU, greedy matching, interpolated AP/AR.

Conventions (the usual COCO ones):

* greedy matching in score order — each detection takes the highest-IoU
  unmatched ground-truth box of its own category with IoU >= threshold,
  the first such box on equal IoU; score ties break by input order;
* AP is the 101-point interpolated average of max precision at recall
  {0.00, 0.01, ..., 1.00};
* mAP/mAR macro-average over categories present in the ground truth;
* AR@k keeps at most k top-score detections per image and averages
  recall over the report's IoU thresholds.

Detections are scored as columns.  ``load_detections`` returns a
``DetectionTable``: int64 image and category ids, float64 ``[n, 4]`` boxes
and float64 scores.  ``evaluate`` takes that table or a sequence of
``Detection`` (which it turns into one) and groups with sorts, not dicts:
one ``lexsort`` caps each image, the detection/box pairs of each (image,
category) get their IoUs from one broadcast (``pair_iou``, ``iou``'s
operations in ``iou``'s order), and the greedy match walks only the pairs
at or above each threshold.  ``iou`` and ``match_detections`` are the
one-pair and one-image forms, for callers holding ``Detection`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .data.boxes import BBox
from .errors import InvalidParam, MissingStats, ParseError
from .files import csv_text, read_json

RECALL_GRID = np.linspace(0.0, 1.0, 101)
_INT64 = np.iinfo(np.int64)


@dataclass
class Detection:
    image_id: int
    box: BBox
    category_id: int
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidParam(f"detection score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class DetectionTable:
    """Detections as columns: ``image_id`` and ``category_id`` int64 [n],
    ``boxes`` float64 [n, 4] as (x, y, w, h), ``score`` float64 [n]."""

    image_id: np.ndarray
    category_id: np.ndarray
    boxes: np.ndarray
    score: np.ndarray

    def __len__(self):
        return len(self.score)

    @classmethod
    def from_detections(cls, dets):
        n = len(dets)
        try:
            image_id = np.fromiter((d.image_id for d in dets), np.int64, n)
            category_id = np.fromiter((d.category_id for d in dets), np.int64, n)
        except OverflowError as e:  # a dataset may hold larger ids; its detections cannot
            raise InvalidParam(f"detection ids must fit in int64: {e}") from e
        boxes = chain.from_iterable((d.box.x, d.box.y, d.box.w, d.box.h) for d in dets)
        return cls(image_id=image_id, category_id=category_id,
                   boxes=np.fromiter(boxes, np.float64, 4 * n).reshape(n, 4),
                   score=np.fromiter((d.score for d in dets), np.float64, n))


@dataclass
class PerCategory:
    category_id: int
    name: str
    ap50: float
    ap75: float
    ar100: float
    mean_size_ratio: float | None = None


@dataclass
class MetricsReport:
    map50: float
    map75: float
    mar100: float
    per_category: list = field(default_factory=list)
    thresholds: tuple = (0.5, 0.75)
    max_dets: int = 100


def iou(a, b):
    """Intersection area over union area; 0 when the union is empty."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _max(p, q):
    return np.where(q > p, q, p)  # Python's max(p, q): the first on ties and NaN


def _min(p, q):
    return np.where(q < p, q, p)  # Python's min(p, q)


def pair_iou(a, b):
    """``iou`` of (x, y, w, h) boxes ``a[..., 4]`` and ``b[..., 4]``, broadcast.

    The same float operations as ``iou`` in the same order, so each value
    has the bits ``iou`` gives for that pair.
    """
    ax, ay, aw, ah = np.moveaxis(a, -1, 0)
    bx, by, bw, bh = np.moveaxis(b, -1, 0)
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently too
        ix = _max(0.0, _min(ax + aw, bx + bw) - _max(ax, bx))
        iy = _max(0.0, _min(ay + ah, by + bh) - _max(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
        return np.where(union > 0, inter / union, 0.0)


def match_detections(dets, gts, iou_thresh):
    """Greedy per-category matching within one image.

    Returns (labels, fn): labels[i] is True where detection i is a true
    positive, in the input order of ``dets``; fn counts unmatched
    ground-truth boxes.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise InvalidParam(f"iou threshold must be in (0, 1], got {iou_thresh}")
    labels = [False] * len(dets)
    taken = [False] * len(gts)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].score):
        best, best_iou = -1, 0.0
        for j, (box, cat) in enumerate(gts):
            if cat != dets[i].category_id:
                continue
            ov = iou(dets[i].box, box)
            if ov >= iou_thresh and ov > best_iou and not taken[j]:
                best, best_iou = j, ov
        if best >= 0:
            taken[best] = True
            labels[i] = True
    return labels, len(gts) - sum(labels)


def average_precision(scored_labels, num_gt):
    """101-point interpolated AP from (score, is_tp) pairs.

    ``scored_labels`` is a sequence of pairs or an [n, 2] array of them.
    Ties in score keep their input order.  Returns None when the category
    has no ground truth and no detections (skipped); 0.0 when detections
    exist but no ground truth does.
    """
    if num_gt < 0:
        raise InvalidParam("num_gt must be >= 0")
    if num_gt == 0:
        return None if not len(scored_labels) else 0.0
    pairs = np.asarray(scored_labels, dtype=np.float64).reshape(-1, 2)
    if len(pairs) == 0:
        return 0.0
    hit = pairs[np.argsort(-pairs[:, 0], kind="stable"), 1] != 0
    tp = np.cumsum(hit, dtype=np.float64)
    fp = np.cumsum(~hit, dtype=np.float64)
    recall = tp / num_gt
    precision = tp / (tp + fp)
    # max precision at recall >= r, swept from the right
    best = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    interp = np.where(idx < len(best), best[np.minimum(idx, len(best) - 1)], 0.0)
    return float(np.mean(interp))


def _capped(table, max_dets):
    """Input positions of the ``max_dets`` top-score detections of each
    image (score ties by input order), in input order."""
    n = len(table)
    pos = np.arange(n)
    order = np.lexsort((pos, -table.score, table.image_id))
    image = table.image_id[order]
    first = np.ones(n, dtype=bool)
    first[1:] = image[1:] != image[:-1]
    starts = np.flatnonzero(first)
    rank = pos - starts[np.cumsum(first) - 1]
    return np.sort(order[rank < max_dets])


def _greedy_tp(score, pair_det, pair_gt, ov, thresholds):
    """True-positive flags of the detections, one bool array per threshold.

    ``pair_det[k]`` and ``pair_gt[k]`` name a detection and a box of one
    (image, category) group, ``ov[k]`` their IoU.  Detections go in score
    order, ties by position; each takes its untaken box of highest IoU, the
    lowest box index on equal IoU.  Only pairs at or above a threshold are
    walked.
    """
    keep = ov >= min(thresholds)
    pair_det, pair_gt, ov = pair_det[keep], pair_gt[keep], ov[keep]
    order = np.lexsort((pair_gt, -ov, pair_det, -score[pair_det]))
    pair_det, pair_gt, ov = pair_det[order], pair_gt[order], ov[order]
    out = []
    for t in thresholds:
        hit = ov >= t
        matched, taken = set(), set()
        for d, g in zip(pair_det[hit].tolist(), pair_gt[hit].tolist()):
            if d not in matched and g not in taken:
                matched.add(d)
                taken.add(g)
        tp = np.zeros(len(score), dtype=bool)
        tp[list(matched)] = True
        out.append(tp)
    return out


def evaluate(dets, dataset, thresholds=(0.5, 0.75), max_dets=100):
    """Score detections against a dataset's ground truth.

    ``dets`` is a ``DetectionTable`` or a sequence of ``Detection``.
    Macro-averages over categories present in the ground truth; a
    category with detections but no ground truth contributes nothing to
    the means (its AP would be 0 by convention, but it is not a member
    of the averaging set), nor do detections on images outside the
    dataset.

    Each (category, image) group is one int64 key, category index times
    the image count plus the image's index in id order.  The boxes are
    sorted by key, each image's instances in their own order; the capped
    detections by key, then input position, which is the order
    ``average_precision`` is fed in.  A detection pairs with the boxes of
    its key, found by binary search, and the pairs are matched for all
    thresholds at once.
    """
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise InvalidParam(f"iou threshold must be in (0, 1], got {t}")
    if max_dets < 0:
        raise InvalidParam(f"max_dets must be >= 0, got {max_dets}")
    table = dets if isinstance(dets, DetectionTable) else DetectionTable.from_detections(
        list(dets))

    gt_by_image = {im.id: im.instances for im in dataset.images}
    n_images = len(gt_by_image)
    image_index = {image_id: k for k, image_id in enumerate(sorted(gt_by_image))}
    present = {cat for instances in gt_by_image.values() for _, cat in instances}
    categories = sorted(c for c in dataset.categories if c in present)
    cat_index = {c: k for k, c in enumerate(categories)}
    category_starts = np.arange(len(categories) + 1) * n_images

    gt_key, gt_boxes = [], []
    for image_id, instances in gt_by_image.items():
        for box, cat in instances:
            if cat in cat_index:  # a box of a category the dataset does not list is ignored
                gt_key.append(cat_index[cat] * n_images + image_index[image_id])
                gt_boxes.append((box.x, box.y, box.w, box.h))
    gt_key = np.array(gt_key, dtype=np.int64)
    gt_order = np.argsort(gt_key, kind="stable")
    gt_key = gt_key[gt_order]
    gt_boxes = np.array(gt_boxes, dtype=np.float64).reshape(-1, 4)[gt_order]
    num_gt = np.diff(np.searchsorted(gt_key, category_starts))

    det = _capped(table, max_dets)
    det_i = np.fromiter(map(image_index.get, table.image_id[det].tolist(), repeat(-1)),
                        np.int64, len(det))
    det_c = np.fromiter(map(cat_index.get, table.category_id[det].tolist(), repeat(-1)),
                        np.int64, len(det))
    scored = (det_i >= 0) & (det_c >= 0)
    det_key = det_c[scored] * n_images + det_i[scored]
    det_order = np.argsort(det_key, kind="stable")
    det, det_key = det[scored][det_order], det_key[det_order]
    score = table.score[det]

    lo = np.searchsorted(gt_key, det_key, side="left")
    counts = np.searchsorted(gt_key, det_key, side="right") - lo
    pair_det = np.repeat(np.arange(len(det)), counts)
    first_pair = np.cumsum(counts) - counts
    pair_gt = lo[pair_det] + np.arange(len(pair_det)) - first_pair[pair_det]
    ov = pair_iou(table.boxes[det[pair_det]], gt_boxes[pair_gt])
    tps = _greedy_tp(score, pair_det, pair_gt, ov, thresholds)

    bounds = np.searchsorted(det_key, category_starts)
    ap = {t: {} for t in thresholds}
    recall = {t: {} for t in thresholds}
    for k, c in enumerate(categories):
        part = slice(bounds[k], bounds[k + 1])
        n_gt = int(num_gt[k])
        for t, tp in zip(thresholds, tps):
            ap[t][c] = average_precision(np.column_stack((score[part], tp[part])), n_gt) or 0.0
            recall[t][c] = int(np.count_nonzero(tp[part])) / n_gt

    t_lo, t_hi = min(thresholds), max(thresholds)
    per_category = []
    for c in categories:
        ar = float(np.mean([recall[t][c] for t in thresholds]))
        per_category.append(PerCategory(
            category_id=c, name=dataset.categories[c],
            ap50=ap[t_lo][c], ap75=ap[t_hi][c], ar100=ar))
    if categories:
        map_lo = float(np.mean([ap[t_lo][c] for c in categories]))
        map_hi = float(np.mean([ap[t_hi][c] for c in categories]))
        mar = float(np.mean([pc.ar100 for pc in per_category]))
    else:
        map_lo = map_hi = mar = 0.0
    return MetricsReport(map50=map_lo, map75=map_hi, mar100=mar,
                         per_category=per_category, thresholds=tuple(thresholds),
                         max_dets=max_dets)


def size_ordered_report(report, stats):
    """Attach size ratios and order rows largest-ratio first.

    Returns (rows, csv_text); raises MissingStats when a report category
    has no statistics entry.
    """
    by_id = {s.category_id: s for s in stats}
    rows = []
    for pc in report.per_category:
        if pc.category_id not in by_id:
            raise MissingStats(f"no size statistics for category {pc.name!r}")
        rows.append(PerCategory(category_id=pc.category_id, name=pc.name,
                                ap50=pc.ap50, ap75=pc.ap75, ar100=pc.ar100,
                                mean_size_ratio=by_id[pc.category_id].mean_size_ratio))
    rows.sort(key=lambda r: -r.mean_size_ratio)
    return rows, csv_text(("category", "size_ratio", "ap50", "ap75", "ar100"),
                          [(r.name, r.mean_size_ratio, r.ap50, r.ap75, r.ar100) for r in rows])


def _columns(doc):
    """The entries as a table: int() ids, float() box values and score, and
    a ValueError unless every box is finite with w, h >= 0 and every score
    in [0, 1]."""
    n = len(doc)

    def column(key, convert, dtype):
        return np.fromiter(map(convert, map(itemgetter(key), doc)), dtype, n)

    bboxes = list(map(itemgetter("bbox"), doc))
    if not all(len(b) == 4 for b in bboxes):
        raise ValueError("a bbox without 4 values")
    boxes = np.fromiter(map(float, chain.from_iterable(bboxes)), np.float64, 4 * n).reshape(n, 4)
    score = column("score", float, np.float64)
    if not (np.isfinite(boxes).all() and (boxes[:, 2:] >= 0).all()
            and ((score >= 0.0) & (score <= 1.0)).all()):
        raise ValueError("a box or score out of range")
    return DetectionTable(image_id=column("image_id", int, np.int64),
                          category_id=column("category_id", int, np.int64),
                          boxes=boxes, score=score)


def _entry(entry):
    """One entry as a Detection, or a ParseError that names it."""
    try:
        d = Detection(image_id=int(entry["image_id"]),
                      box=BBox(*(float(v) for v in entry["bbox"])),
                      category_id=int(entry["category_id"]),
                      score=float(entry["score"]))
        if not all(_INT64.min <= i <= _INT64.max for i in (d.image_id, d.category_id)):
            raise OverflowError("ids must fit in int64")
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParam) as e:
        raise ParseError(f"bad detection entry {entry!r}: {e}") from e
    return d


def load_detections(path):
    """Read a COCO-results-style JSON list of detections into a ``DetectionTable``.

    Each field is converted as a ``Detection`` would be (``int`` ids,
    ``float`` box values and score), and the checks run on whole columns:
    a finite box with non-negative extents, a score in [0, 1], ids that
    fit in int64.  When any of that fails, the entries are parsed one by
    one, so that the ``ParseError`` names the first bad entry.
    """
    doc = read_json(path, "detections")
    if not isinstance(doc, list):
        raise ParseError("detections document must be a JSON list")
    try:
        return _columns(doc)
    except (KeyError, TypeError, ValueError, OverflowError):
        return DetectionTable.from_detections([_entry(entry) for entry in doc])


def report_to_dict(report):
    return {
        "map50": report.map50,
        "map75": report.map75,
        "mar100": report.mar100,
        "ar_threshold_set": list(report.thresholds),
        "max_dets": report.max_dets,
        "per_category": [{
            "category_id": pc.category_id, "name": pc.name, "ap50": pc.ap50,
            "ap75": pc.ap75, "ar100": pc.ar100, "mean_size_ratio": pc.mean_size_ratio,
        } for pc in report.per_category],
    }


def report_to_csv(report):
    rows = [(pc.name, pc.ap50, pc.ap75, pc.ar100) for pc in report.per_category]
    rows.append(("mean", report.map50, report.map75, report.mar100))
    return csv_text(("category", "ap50", "ap75", "ar100"), rows)
