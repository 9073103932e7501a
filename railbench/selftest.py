"""Tests of the benchmark's own parts: the oracle, span arithmetic, output checks.

    python3 -m pytest -q railbench/selftest.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

BOX = (10.0, 10.0, 20.0, 20.0)


# -- oracle ------------------------------------------------------------------


def test_recall_thresholds_are_the_coco_grid():
    assert oracle.RECALL_THRESHOLDS == list(np.linspace(0.0, 1.0, 101))


def test_perfect_detection():
    gt = {1: [(BOX, 1)]}
    assert oracle.evaluate([(1, 1, BOX, 0.9)], gt) == (1.0, 1.0, 1.0)


def test_hand_computed_ap_with_a_false_positive_between_hits():
    # ranked: TP (r=.5, p=1), FP (r=.5, p=.5), TP (r=1, p=2/3)
    # thresholds 0.00..0.50 (51 of them) see p=1; 0.51..1.00 (50) see p=2/3
    other = (50.0, 50.0, 20.0, 20.0)
    gt = {1: [(BOX, 1)], 2: [(other, 1)]}
    dets = [(1, 1, BOX, 0.9), (1, 1, (70.0, 70.0, 5.0, 5.0), 0.8), (2, 1, other, 0.7)]
    ap50, ap75, ar = oracle.evaluate(dets, gt)
    assert ap50 == pytest.approx((51 * 1.0 + 50 * (2 / 3)) / 101, abs=1e-12)
    assert ap75 == ap50
    assert ar == 1.0


def test_iou_between_thresholds_counts_at_050_only():
    # 20x20 box against 20x15 box inside it: IoU 0.75 - eps is below 0.75
    det = (10.0, 10.0, 20.0, 14.9)
    assert 0.5 < oracle.iou(det, BOX) < 0.75
    ap50, ap75, ar = oracle.evaluate([(1, 1, det, 0.5)], {1: [(BOX, 1)]})
    assert (ap50, ap75, ar) == (1.0, 0.0, 0.5)


def test_missed_category_scores_zero_and_wrong_category_never_matches():
    gt = {1: [(BOX, 1), (BOX, 2)]}
    ap50, _, ar = oracle.evaluate([(1, 2, BOX, 0.9)], gt)
    assert ap50 == pytest.approx(0.5)  # category 1: 0, category 2: 1
    assert ar == pytest.approx(0.5)


def test_oracle_agrees_with_package_on_random_fixtures():
    from railswin.data.boxes import BBox
    from railswin.data.coco import AnnotatedImage, Dataset
    from railswin.metrics import Detection, evaluate

    rng = np.random.default_rng(3)
    for _ in range(20):
        images, dets, gt = [], [], {}
        for image_id in range(1, 6):
            inst = [((float(rng.integers(0, 40)), float(rng.integers(0, 40)),
                      float(rng.integers(5, 25)), float(rng.integers(5, 25))),
                     int(rng.integers(1, 3))) for _ in range(rng.integers(0, 4))]
            gt[image_id] = inst
            images.append(AnnotatedImage(id=image_id, width=80, height=80,
                                         instances=[(BBox(*b), c) for b, c in inst]))
            for _ in range(rng.integers(0, 8)):
                b = (float(rng.integers(0, 40)), float(rng.integers(0, 40)),
                     float(rng.integers(5, 25)), float(rng.integers(5, 25)))
                dets.append((image_id, int(rng.integers(1, 3)), b, float(rng.random())))
        report = evaluate([Detection(i, BBox(*b), c, s) for i, c, b, s in dets],
                          Dataset(images=images, categories={1: "a", 2: "b"}))
        got = (report.map50, report.map75, report.mar100)
        checks.check_map(got, oracle.evaluate(dets, gt))


def test_stretch_matches_package_bit_for_bit():
    from railswin.data.enhance import contrast_stretch

    rng = np.random.default_rng(5)
    for i in range(200):
        h, w = rng.integers(2, 40, 2)
        px = np.clip(rng.normal(120, 10 + i, (h, w)), 0, 255).astype(np.uint8)
        assert contrast_stretch(px).reshape(-1).tolist() == oracle.stretch(px.reshape(-1).tolist())


# -- spans -------------------------------------------------------------------


def _table():
    # A [0,100] holds B [10,40] and C [50,90]; C holds D [60,70]
    return SpanTable(names=["x.A", "x.B", "y.C", "x.D"], parents=[-1, 0, 0, 2],
                     starts=[0, 10, 50, 60], ends=[100, 40, 90, 70])


def test_self_time_is_duration_minus_direct_children():
    assert _table().self_times().tolist() == [30, 30, 30, 10]


def test_layer_self_time_and_outermost_totals():
    t = _table()
    assert t.layer_self_ns("x") == 70
    assert t.layer_self_ns("y") == 30
    assert t.total_ns(["x.B", "x.D"]) == 40
    assert t.total_ns(["y.C", "x.D"]) == 40  # D lies inside C and is not counted twice
    assert t.total_ns(["x.A", "x.D"]) == 100
    within = t.inside("y.C")
    assert within.tolist() == [False, False, True, True]
    assert t.total_ns(["x.D"], within) == 10
    assert t.calls("x.D") == 1


def test_tracer_records_nesting_and_restores_originals():
    import railswin.metrics as RM
    from railswin.data.boxes import BBox
    from railswin.metrics import Detection

    original = RM.match_detections
    tracer = Tracer()
    tracer.install("railswin.metrics:match_detections", "metrics.match_detections")
    tracer.install("railswin.metrics:iou", "metrics.iou", span=False)
    tracer.install("railswin.metrics:no_such_function", "metrics.none")
    assert RM.match_detections is not original
    dets = [Detection(1, BBox(*BOX), 1, 0.5)]
    RM.match_detections(dets, [(BBox(*BOX), 1), (BBox(0, 0, 5, 5), 1)], 0.5)
    tracer.uninstall()
    assert RM.match_detections is original
    spans, counts = tracer.take()
    assert spans.names == ["metrics.match_detections"]
    assert counts["metrics.iou"] == 2
    assert counts[("metrics.iou", "metrics.match_detections")] == 2
    assert tracer.missing == ["railswin.metrics:no_such_function"]
    assert spans.self_times()[0] == spans.durations[0] > 0


# -- output checks fail on wrong outputs ---------------------------------------


def test_directional_derivative_check():
    checks.check_directional_derivative(-0.0426, [-0.04261, -0.0426])
    with pytest.raises(CheckFailed):  # flipped gradient sign
        checks.check_directional_derivative(0.0426, [-0.0426])
    with pytest.raises(CheckFailed):  # all-zero gradient
        checks.check_directional_derivative(0.0, [1e-3])


def test_first_loss_and_loss_decrease_checks():
    checks.check_first_loss(math.log(4), 4)
    with pytest.raises(CheckFailed):
        checks.check_first_loss(math.log(4) + 1e-9, 4)
    checks.check_loss_decrease([2.0] * 50 + [0.9] * 50)
    with pytest.raises(CheckFailed):
        checks.check_loss_decrease([2.0] * 50 + [1.1] * 50)
    with pytest.raises(CheckFailed):
        checks.check_loss_decrease([2.0] * 99)
    with pytest.raises(CheckFailed):
        checks.check_loss_decrease([2.0] * 50 + [float("nan")] + [0.1] * 49)


def test_stage_shape_check():
    good = [(1, 96, 56, 56), (1, 192, 28, 28), (1, 384, 14, 14), (1, 768, 7, 7)]
    checks.check_stage_shapes(good, 1, 96, 4, (224, 224))
    with pytest.raises(CheckFailed):
        checks.check_stage_shapes(good[:3] + [(1, 768, 14, 14)], 1, 96, 4, (224, 224))


def test_detection_checks():
    sizes = {1: (32, 32)}
    checks.check_detections([(1, 1, (0.0, 0.0, 32.0, 32.0), 1.0)], sizes, 100)
    for bad in ([(1, 1, (20.0, 0.0, 16.0, 8.0), 0.5)],     # leaves the image
                [(1, 1, (0.0, 0.0, 8.0, 8.0), 1.5)],       # score above 1
                [(2, 1, (0.0, 0.0, 8.0, 8.0), 0.5)],       # unknown image
                [(1, 1, (0.0, 0.0, 8.0, 8.0), 0.5)] * 101):  # over max_dets
        with pytest.raises(CheckFailed):
            checks.check_detections(bad, sizes, 100)


def test_map_check_catches_a_perturbed_score():
    other = (50.0, 50.0, 20.0, 20.0)
    gt = {1: [(BOX, 1)], 2: [(other, 1)]}
    dets = [(1, 1, BOX, 0.9), (1, 1, (70.0, 70.0, 5.0, 5.0), 0.8), (2, 1, other, 0.7)]
    want = oracle.evaluate(dets, gt)
    perturbed = dets[:1] + [(1, 1, (70.0, 70.0, 5.0, 5.0), 0.95)] + dets[2:]
    with pytest.raises(CheckFailed):
        checks.check_map(oracle.evaluate(perturbed, gt), want)
    with pytest.raises(CheckFailed):
        checks.check_map((want[0] + 1e-6, want[1], want[2]), want)


def _doc(images, anns):
    return {"images": [{"id": i, "width": 64, "height": 64, "file_name": f} for i, f in images],
            "annotations": [{"id": k, "image_id": i, "category_id": c, "bbox": list(b)}
                            for k, (i, c, b) in enumerate(anns)],
            "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]}


def _splits():
    source = {"s1.pgm": 1, "s2.pgm": 2, "s3.pgm": 3}
    train = _doc([(1, "s1.pgm"), (2, "s2.pgm"), (4, "img_000004.pgm")],
                 [(1, 1, (0, 0, 8, 8)), (2, 2, (4, 4, 8, 8)), (4, 1, (1, 1, 8, 8))])
    # val's synthesized image reuses id 2 of a train image
    val = _doc([(3, "s3.pgm"), (2, "img_000002.pgm")],
               [(3, 2, (0, 0, 8, 8)), (2, 2, (0, 0, 9, 9))])
    plans = {"train": [{"new_image_id": 4, "source_image_id": 1}],
             "val": [{"new_image_id": 2, "source_image_id": 3}]}
    return source, train, val, plans


def test_preprocess_checks_accept_a_valid_output():
    source, train, val, plans = _splits()
    checks.check_partition(source, {"train": train, "val": val}, plans)
    checks.check_targets(train, {"a": 2, "b": 1})
    checks.check_boxes(train)
    checks.check_boxes(val)


def test_partition_check_catches_a_dropped_image_and_leakage():
    source, train, val, plans = _splits()
    dropped = dict(train, images=train["images"][1:],
                   annotations=[a for a in train["annotations"] if a["image_id"] != 1])
    with pytest.raises(CheckFailed):
        checks.check_partition(source, {"train": dropped, "val": val}, plans)
    leaky = dict(plans, val=[{"new_image_id": 2, "source_image_id": 1}])
    with pytest.raises(CheckFailed):
        checks.check_partition(source, {"train": train, "val": val}, leaky)
    twice = dict(val, images=val["images"] + [{"id": 1, "width": 64, "height": 64,
                                                 "file_name": "s1.pgm"}])
    with pytest.raises(CheckFailed):
        checks.check_partition(source, {"train": train, "val": twice}, plans)


def test_target_and_box_checks_catch_bad_outputs():
    _, train, _, _ = _splits()
    with pytest.raises(CheckFailed):
        checks.check_targets(train, {"b": 2})
    for box in ((60, 0, 8, 8), (0, 0, 1, 3)):  # out of bounds; area 3 < 4
        bad = dict(train, annotations=train["annotations"] + [
            {"id": 99, "image_id": 1, "category_id": 1, "bbox": list(box)}])
        with pytest.raises(CheckFailed):
            checks.check_boxes(bad)


def test_stretch_check_catches_a_changed_pixel():
    src = bytes(range(0, 250, 5)) * 4
    out = bytes(oracle.stretch(src))
    checks.check_stretch(src, out, 1)
    with pytest.raises(CheckFailed):
        checks.check_stretch(src, bytes([out[0] ^ 1]) + out[1:], 1)
    with pytest.raises(CheckFailed):
        checks.check_stretch(src, src, 1)  # enhancement skipped
