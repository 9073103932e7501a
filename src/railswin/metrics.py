"""Detection evaluation: IoU, greedy matching, interpolated AP/AR.

Conventions (the usual COCO ones):

* greedy matching in score order — each detection takes the highest-IoU
  unmatched ground-truth box of its own category with IoU >= threshold;
  score ties break by input order;
* AP is the 101-point interpolated average of max precision at recall
  {0.00, 0.01, ..., 1.00};
* mAP/mAR macro-average over categories present in the ground truth;
* AR@k keeps at most k top-score detections per image and averages
  recall over the report's IoU thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data.boxes import BBox
from .errors import InvalidParam, MissingStats, ParseError
from .files import csv_text, read_json

RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass
class Detection:
    image_id: int
    box: BBox
    category_id: int
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidParam(f"detection score must be in [0, 1], got {self.score}")


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


def match_detections(dets, gts, iou_thresh):
    """Greedy per-category matching within one image.

    Returns (labels, fn): labels[i] is True where detection i is a true
    positive, in the input order of ``dets``; fn counts unmatched
    ground-truth boxes.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise InvalidParam(f"iou threshold must be in (0, 1], got {iou_thresh}")
    labels = [False] * len(dets)
    fn = len(gts)
    for c in {d.category_id for d in dets}:
        mine = [i for i, d in enumerate(dets) if d.category_id == c]
        boxes = [b for b, cat in gts if cat == c]
        (found,) = _greedy_match([dets[i] for i in mine], boxes, (iou_thresh,))
        for i, tp in zip(mine, found):
            labels[i] = tp
        fn -= sum(found)
    return labels, fn


def _greedy_match(dets, boxes, thresholds):
    """Labels of same-category ``dets`` against ``boxes``, one list per threshold.

    In score order (ties by input order) each detection takes the untaken
    box of highest IoU >= the threshold, the first such box on equal IoU.
    The IoUs and the order are computed once for all thresholds.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    rows = [[iou(dets[i].box, b) for b in boxes] for i in order]
    out = []
    for t in thresholds:
        labels = [False] * len(dets)
        taken = [False] * len(boxes)
        for i, row in zip(order, rows):
            best, best_iou = -1, 0.0
            for j, ov in enumerate(row):
                if ov >= t and ov > best_iou and not taken[j]:
                    best, best_iou = j, ov
            if best >= 0:
                taken[best] = True
                labels[i] = True
        out.append(labels)
    return out


def average_precision(scored_labels, num_gt):
    """101-point interpolated AP from (score, is_tp) pairs.

    Returns None when the category has no ground truth and no detections
    (skipped); 0.0 when detections exist but no ground truth does.
    """
    if num_gt < 0:
        raise InvalidParam("num_gt must be >= 0")
    if num_gt == 0:
        return None if not scored_labels else 0.0
    ranked = sorted(range(len(scored_labels)), key=lambda i: -scored_labels[i][0])
    tp = np.cumsum([1.0 if scored_labels[i][1] else 0.0 for i in ranked])
    fp = np.cumsum([0.0 if scored_labels[i][1] else 1.0 for i in ranked])
    if len(ranked) == 0:
        return 0.0
    recall = tp / num_gt
    precision = tp / (tp + fp)
    # max precision at recall >= r, swept from the right
    best = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    interp = np.where(idx < len(best), best[np.minimum(idx, len(best) - 1)], 0.0)
    return float(np.mean(interp))


def _cap_per_image(dets, max_dets):
    by_image = {}
    for i, d in enumerate(dets):
        by_image.setdefault(d.image_id, []).append((i, d))
    kept = []
    for _, items in sorted(by_image.items()):
        items.sort(key=lambda t: (-t[1].score, t[0]))
        kept.extend(i for i, _ in items[:max_dets])
    kept.sort()
    return [dets[i] for i in kept]


def evaluate(dets, dataset, thresholds=(0.5, 0.75), max_dets=100):
    """Score detections against a dataset's ground truth.

    Macro-averages over categories present in the ground truth; a
    category with detections but no ground truth contributes nothing to
    the means (its AP would be 0 by convention, but it is not a member
    of the averaging set), nor do detections on images outside the
    dataset.  Detections and boxes are indexed by (image, category) once,
    so the cost is linear in the number of images.
    """
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise InvalidParam(f"iou threshold must be in (0, 1], got {t}")
    dets_at = {}
    for d in _cap_per_image(list(dets), max_dets):
        dets_at.setdefault((d.image_id, d.category_id), []).append(d)
    gt_by_image = {im.id: im.instances for im in dataset.images}
    boxes_at = {}
    for image_id, instances in gt_by_image.items():
        for box, cat in instances:
            boxes_at.setdefault((image_id, cat), []).append(box)
    image_ids = sorted(gt_by_image)
    gt_categories = {c for _, c in boxes_at}
    categories = sorted(c for c in dataset.categories if c in gt_categories)

    ap = {t: {} for t in thresholds}
    recall = {t: {} for t in thresholds}
    for c in categories:
        scored = [[] for _ in thresholds]
        num_gt = 0
        for image_id in image_ids:
            boxes = boxes_at.get((image_id, c), [])
            num_gt += len(boxes)
            found = dets_at.get((image_id, c))
            if found:
                for kept, labels in zip(scored, _greedy_match(found, boxes, thresholds)):
                    kept.extend((d.score, tp) for d, tp in zip(found, labels))
        for t, kept in zip(thresholds, scored):
            ap[t][c] = average_precision(kept, num_gt) or 0.0
            tp_total = sum(1 for _, is_tp in kept if is_tp)
            recall[t][c] = tp_total / num_gt if num_gt else 0.0

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


def load_detections(path):
    """Read a COCO-results-style JSON list of detections."""
    doc = read_json(path, "detections")
    if not isinstance(doc, list):
        raise ParseError("detections document must be a JSON list")
    out = []
    for entry in doc:
        try:
            out.append(Detection(image_id=int(entry["image_id"]),
                                 box=BBox(*(float(v) for v in entry["bbox"])),
                                 category_id=int(entry["category_id"]),
                                 score=float(entry["score"])))
        except (KeyError, TypeError, ValueError, OverflowError, InvalidParam) as e:
            raise ParseError(f"bad detection entry {entry!r}: {e}") from e
    return out


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
