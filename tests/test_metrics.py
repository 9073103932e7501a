"""Detection metrics against exhaustive brute-force oracles."""

import json

import numpy as np
import pytest

from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage, Dataset
from railswin.errors import InvalidParam, MissingStats, ParseError
from railswin.metrics import (
    Detection,
    DetectionTable,
    average_precision,
    evaluate,
    iou,
    load_detections,
    match_detections,
    pair_iou,
    report_to_csv,
    report_to_dict,
    size_ordered_report,
)
from railswin.data.stats import CategoryStats

from _oracles import (
    dense_fixture,
    loop_evaluate,
    oracle_ap,
    oracle_average_precision,
    oracle_evaluate,
    oracle_iou,
    random_fixture,
)


class TestIou:
    def test_identical(self):
        assert iou(BBox(3, 4, 5, 6), BBox(3, 4, 5, 6)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_one_seventh(self):
        # rasterization oracle: unit pixels in [0,2)^2 vs [1,3)^2 overlap on 1
        # of the 7 distinct covered pixels
        grid = [(x, y) for x in range(3) for y in range(3)]
        in_a = {(x, y) for x, y in grid if x < 2 and y < 2}
        in_b = {(x, y) for x, y in grid if 1 <= x < 3 and 1 <= y < 3}
        assert len(in_a & in_b) / len(in_a | in_b) == pytest.approx(1 / 7)
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == 1 / 7

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = BBox(*rng.uniform(0, 20, 2), *rng.uniform(1, 20, 2))
            b = BBox(*rng.uniform(0, 20, 2), *rng.uniform(1, 20, 2))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert v == oracle_iou(a, b)

    def test_one_iff_identical_positive(self):
        assert iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0  # empty union convention
        assert iou(BBox(1, 1, 3, 3), BBox(1, 1, 3, 3.5)) < 1.0


class TestPairIou:
    """The broadcast IoU has the bits of the scalar ``iou`` for every pair."""

    EDGE_CASES = [
        ((0, 0, 10, 10), (10, 0, 10, 10)),  # touching edges
        ((0, 0, 10, 10), (0, 10, 10, 10)),
        ((0, 0, 10, 10), (10, 10, 5, 5)),  # touching corners
        ((5, 5, 0, 0), (0, 0, 10, 10)),  # zero area, inside
        ((0, 0, 0, 10), (0, 0, 10, 10)),  # zero width, on an edge
        ((5, 5, 0, 0), (5, 5, 0, 0)),  # two empty boxes: empty union
        ((2, 3, 4, 5), (0, 0, 10, 10)),  # one inside the other
        ((0.1, 0.2, 0.3, 0.7), (0.1, 0.2, 0.3, 0.7)),  # identical
        ((0, 0, 1, 1), (50, 50, 1, 1)),  # disjoint
        ((-0.0, -0.0, 0.0, 0.0), (0.0, 0.0, -0.0, 0.0)),  # signed zeros
        ((-1.0, 0.0, 1.0, 1.0), (-0.0, 0.0, 1.0, 1.0)),  # edge at -0.0 against 0.0
        ((-0.0, 0.0, -0.0, 1.0), (0.0, 0.0, 5.0, 1.0)),  # overlap of -0.0: iou gives +0.0
        ((1e308, 0, 1e308, 1), (1e308, 0, 1e308, 1)),  # x + w overflows
    ]

    @staticmethod
    def scalar_grid(a, b):
        return np.array([[iou(BBox(*p), BBox(*q)) for q in b.tolist()] for p in a.tolist()])

    @pytest.mark.parametrize("a,b", EDGE_CASES)
    def test_edge_cases(self, a, b):
        for p, q in ((a, b), (b, a)):
            got = pair_iou(np.array(p, dtype=float), np.array(q, dtype=float))
            assert got.tobytes() == np.float64(iou(BBox(*p), BBox(*q))).tobytes(), (p, q)

    def test_random_boxes(self):
        rng = np.random.default_rng(30)
        a = np.column_stack([rng.uniform(0, 50, (40, 2)), rng.uniform(0, 30, (40, 2))])
        b = np.column_stack([rng.uniform(0, 50, (30, 2)), rng.uniform(0, 30, (30, 2))])
        got = pair_iou(a[:, None, :], b[None, :, :])
        assert got.shape == (40, 30)
        assert got.tobytes() == self.scalar_grid(a, b).tobytes()

    def test_integer_grid_boxes(self):
        # small integer boxes: many touching edges, nested boxes and tied IoUs
        rng = np.random.default_rng(31)
        boxes = rng.integers(0, 6, (50, 4)).astype(float)
        got = pair_iou(boxes[:, None, :], boxes[None, :, :])
        assert got.tobytes() == self.scalar_grid(boxes, boxes).tobytes()


class TestMatching:
    def test_single_pair(self):
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.9)]
        gts = [(BBox(2, 0, 10, 10), 1)]  # IoU = 8/12 = 0.66
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True] and fn == 0

    def test_duplicate_detection_greedy(self):
        gts = [(BBox(0, 0, 10, 10), 1)]
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.9),
                Detection(1, BBox(1, 0, 10, 10), 1, 0.8)]
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True, False] and fn == 0

    def test_wrong_category_is_fp_and_fn(self):
        gts = [(BBox(0, 0, 10, 10), 2)]
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.9)]
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [False] and fn == 1

    def test_picks_highest_iou(self):
        gts = [(BBox(0, 0, 10, 10), 1), (BBox(2, 0, 10, 10), 1)]
        dets = [Detection(1, BBox(1, 0, 10, 10), 1, 0.9)]
        labels, fn = match_detections(dets, gts, 0.3)
        assert labels == [True] and fn == 1

    def test_score_ties_break_by_insertion_order(self):
        gts = [(BBox(0, 0, 10, 10), 1)]
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.5),
                Detection(1, BBox(0, 1, 10, 10), 1, 0.5)]
        labels, _ = match_detections(dets, gts, 0.5)
        assert labels == [True, False]

    def test_threshold_validation(self):
        with pytest.raises(InvalidParam):
            match_detections([], [], 0.0)

    def test_raising_threshold_never_increases_tp(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            dets, data = random_fixture(rng)
            img = data.images[0]
            mine = [d for d in dets if d.image_id == img.id]
            counts = []
            for t in (0.3, 0.5, 0.7, 0.9):
                labels, _ = match_detections(mine, img.instances, t)
                counts.append(sum(labels))
            assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestAveragePrecision:
    def test_single_tp_is_one(self):
        assert average_precision([(0.4, True)], 1) == 1.0

    def test_fp_then_tp_is_half(self):
        ap = average_precision([(0.9, False), (0.8, True)], 1)
        assert ap == oracle_ap([(0.9, False), (0.8, True)], 1) == 0.5

    def test_tp_fp_tp_two_gt(self):
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        expected = oracle_ap(scored, 2)  # = (51 * 1 + 50 * 2/3) / 101
        assert expected == pytest.approx(253 / 303, abs=1e-12)
        assert average_precision(scored, 2) == pytest.approx(expected, abs=1e-12)

    def test_zero_gt_conventions(self):
        assert average_precision([], 0) is None
        assert average_precision([(0.5, False)], 0) == 0.0

    def test_score_rescale_invariance(self):
        rng = np.random.default_rng(2)
        scored = [(float(s), bool(rng.random() > 0.5)) for s in rng.random(10)]
        ap1 = average_precision(scored, 4)
        ap2 = average_precision([(s * 7.0, tp) for s, tp in scored], 4)
        assert ap1 == ap2

    def test_matches_oracle_on_random_rankings(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(0, 8))
            scored = [(float(rng.random()), bool(rng.random() > 0.5)) for _ in range(n)]
            num_gt = int(rng.integers(0, 5))
            a = average_precision(scored, num_gt)
            b = oracle_ap(scored, num_gt)
            if a is None:
                assert b is None
            else:
                assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("scored,num_gt", [
        ([], 0), ([], 3), ([(0.5, False)], 0),
        ([(0.5, False), (0.4, False), (0.4, False)], 2),  # all false positives
        ([(0.5, True), (0.5, False), (0.5, True), (0.5, False)], 3),  # one tie
        ([(0.3, False), (0.7, True), (0.3, True), (0.7, False), (0.3, True)], 4),
        ([(0.0, True), (1.0, False), (0.0, False)], 1),
    ])
    def test_equals_earlier_ranking(self, scored, num_gt):
        """Stable argsort ranks ties in input order, as Python's sorted did."""
        assert average_precision(scored, num_gt) == oracle_average_precision(scored, num_gt)

    def test_equals_earlier_ranking_on_random_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(0, 30))
            scored = [(float(rng.integers(0, 5)) / 4, bool(rng.random() > 0.6))
                      for _ in range(n)]
            num_gt = int(rng.integers(0, 12))
            expected = oracle_average_precision(scored, num_gt)
            assert average_precision(scored, num_gt) == expected
            pairs = np.array(scored, dtype=np.float64).reshape(-1, 2)
            assert average_precision(pairs, num_gt) == expected


class TestEvaluate:
    def test_perfect_detector(self):
        rng = np.random.default_rng(4)
        images, dets = [], []
        for image_id in (1, 2):
            instances = [(BBox(float(5 * k), 5.0, 8.0, 8.0), k + 1) for k in range(2)]
            images.append(AnnotatedImage(id=image_id, width=60, height=40,
                                         instances=instances))
            dets.extend(Detection(image_id, box, cat, float(rng.uniform(0.5, 1.0)))
                        for box, cat in instances)
        report = evaluate(dets, Dataset(images=images, categories={1: "a", 2: "b"}))
        assert report.map50 == report.map75 == report.mar100 == 1.0

    def test_empty_detections(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 5, 5), 1)])
        report = evaluate([], Dataset(images=[img], categories={1: "a"}))
        assert report.map50 == report.map75 == report.mar100 == 0.0

    def test_fixture_matches_oracle(self):
        rng = np.random.default_rng(5)
        dets, data = random_fixture(rng)
        report = evaluate(dets, data)
        lo, hi, mar = oracle_evaluate(dets, data, (0.5, 0.75), 100)
        assert report.map50 == pytest.approx(lo, abs=1e-12)
        assert report.map75 == pytest.approx(hi, abs=1e-12)
        assert report.mar100 == pytest.approx(mar, abs=1e-12)

    def test_many_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            dets, data = random_fixture(rng)
            report = evaluate(dets, data)
            lo, hi, mar = oracle_evaluate(dets, data, (0.5, 0.75), 100)
            assert report.map50 == pytest.approx(lo, abs=1e-12)
            assert report.map75 == pytest.approx(hi, abs=1e-12)
            assert report.mar100 == pytest.approx(mar, abs=1e-12)

    def test_map50_at_least_map75(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dets, data = random_fixture(rng)
            report = evaluate(dets, data)
            assert report.map50 >= report.map75 - 1e-12

    def test_max_dets_cap(self):
        img = AnnotatedImage(id=1, width=100, height=100,
                             instances=[(BBox(0, 0, 10, 10), 1)])
        good = Detection(1, BBox(0, 0, 10, 10), 1, 0.3)
        noise = [Detection(1, BBox(50, 50, 5, 5), 1, 0.9), good]
        capped = evaluate(noise, Dataset(images=[img], categories={1: "a"}), max_dets=1)
        assert capped.mar100 == 0.0  # the good low-score detection was cut

    def test_category_without_gt_excluded_from_mean(self):
        img = AnnotatedImage(id=1, width=100, height=100,
                             instances=[(BBox(0, 0, 10, 10), 1)])
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.9),
                Detection(1, BBox(20, 20, 5, 5), 2, 0.8)]
        report = evaluate(dets, Dataset(images=[img], categories={1: "a", 2: "b"}))
        assert [pc.category_id for pc in report.per_category] == [1]
        assert report.map50 == 1.0


class TestIndexedEvaluate:
    """The indexed ``evaluate`` returns the very report of the original loop."""

    def test_dense_fixtures_equal_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            dets, data = dense_fixture(rng, int(rng.integers(50, 301)))
            assert len(dets) == 20 * len(data.images)
            assert evaluate(dets, data) == loop_evaluate(dets, data)

    def test_score_ties_equal_loop(self):
        rng = np.random.default_rng(21)
        for grid in (2, 5, 20):
            dets, data = dense_fixture(rng, 80, tie_grid=grid)
            rng.shuffle(data.images)  # ties across images break by image id, not list order
            assert evaluate(dets, data) == loop_evaluate(dets, data)
            assert evaluate(dets, data, max_dets=7) == loop_evaluate(dets, data, max_dets=7)

    def test_ties_break_by_input_order(self):
        img = AnnotatedImage(id=1, width=100, height=100, instances=[(BBox(0, 0, 10, 10), 1)])
        data = Dataset(images=[img], categories={1: "a"})
        exact = Detection(1, BBox(0, 0, 10, 10), 1, 0.5)
        miss = Detection(1, BBox(60, 60, 10, 10), 1, 0.5)
        # first in input order takes the box: AP 1 when it is the hit, 1/2 when not
        assert evaluate([exact, miss], data).map50 == 1.0
        assert evaluate([miss, exact], data).map50 == average_precision(
            [(0.5, False), (0.5, True)], 1)
        assert evaluate([miss, exact], data) == loop_evaluate([miss, exact], data)

    def test_iou_equal_to_threshold_matches(self):
        img = AnnotatedImage(id=1, width=100, height=100, instances=[(BBox(0, 0, 10, 20), 1)])
        data = Dataset(images=[img], categories={1: "a"})
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.5)]  # IoU exactly 1/2
        report = evaluate(dets, data)
        assert (report.map50, report.map75, report.mar100) == (1.0, 0.0, 0.5)
        assert report == loop_evaluate(dets, data)

    def test_unknown_image_ids_contribute_nothing(self):
        rng = np.random.default_rng(22)
        dets, data = dense_fixture(rng, 60)
        strays = [Detection(image_id, BBox(1, 1, 20, 20), c, 0.99)
                  for image_id in (0, 61, 10_000) for c in (1, 2, 3)]
        mixed = strays[:4] + dets + strays[4:]
        assert evaluate(mixed, data) == loop_evaluate(mixed, data) == evaluate(dets, data)

    def test_categories_without_ground_truth(self):
        rng = np.random.default_rng(23)
        dets, data = dense_fixture(rng, 60, categories=(1, 2, 3, 4))
        for im in data.images:  # category 4 keeps its detections but loses its boxes
            im.instances = [(b, c) for b, c in im.instances if c != 4]
        extra = [Detection(d.image_id, d.box, 5, d.score) for d in dets[::7]]  # unlisted id
        report = evaluate(dets + extra, data)
        assert report == loop_evaluate(dets + extra, data)
        assert [pc.category_id for pc in report.per_category] == [1, 2, 3]

    def test_cap_counts_detections_before_category_filter(self):
        img = AnnotatedImage(id=1, width=100, height=100, instances=[(BBox(0, 0, 10, 10), 1)])
        data = Dataset(images=[img], categories={1: "a", 2: "b"})
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.5),
                Detection(1, BBox(50, 50, 10, 10), 2, 0.9)]  # no category-2 ground truth
        assert evaluate(dets, data, max_dets=2).map50 == 1.0
        capped = evaluate(dets, data, max_dets=1)
        assert capped.map50 == capped.mar100 == 0.0
        assert capped == loop_evaluate(dets, data, max_dets=1)

    def test_max_dets_1_equals_loop(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            dets, data = dense_fixture(rng, 100, tie_grid=10)
            assert evaluate(dets, data, max_dets=1) == loop_evaluate(dets, data, max_dets=1)

    def test_repeated_image_id_equals_loop(self):
        rng = np.random.default_rng(25)
        dets, data = dense_fixture(rng, 40)
        data.images.append(AnnotatedImage(id=3, width=100, height=100,
                                          instances=[(BBox(5, 5, 30, 30), 2)]))
        assert evaluate(dets, data) == loop_evaluate(dets, data)

    def test_other_thresholds_equal_loop(self):
        rng = np.random.default_rng(26)
        dets, data = dense_fixture(rng, 60)
        for ts in ((0.3,), (0.5, 0.5), (0.9, 0.4, 0.6)):
            assert evaluate(dets, data, ts) == loop_evaluate(dets, data, ts)


class TestColumnarEvaluate:
    """A ``DetectionTable``, the same detections as a list, and the loop oracle
    give the very same report."""

    @staticmethod
    def check(dets, data, **kw):
        report = evaluate(DetectionTable.from_detections(dets), data, **kw)
        assert report == evaluate(dets, data, **kw) == loop_evaluate(dets, data, **kw)
        return report

    def test_several_boxes_per_image_and_category(self):
        rng = np.random.default_rng(40)
        for categories in ((1,), (1, 2)):
            for _ in range(4):
                dets, data = dense_fixture(rng, 60, dets_per_image=30, categories=categories)
                crowded = sum(1 for im in data.images
                              for c in categories if [cat for _, cat in im.instances].count(c) > 1)
                assert crowded >= 5
                for max_dets in (100, 7, 1):
                    self.check(dets, data, max_dets=max_dets)

    def test_equal_iou_goes_to_the_first_box(self):
        left, right = BBox(-1, 0, 10, 10), BBox(1, 0, 10, 10)
        dets = [Detection(1, BBox(0, 0, 10, 10), 1, 0.9),  # IoU 90/110 with either box
                Detection(1, BBox(-1, 0, 10, 10), 1, 0.8)]  # IoU 1 with left, 80/120 with right
        assert iou(dets[0].box, left) == iou(dets[0].box, right)
        miss = average_precision([(0.9, True), (0.8, False)], 2)
        for first, second, map75 in ((right, left, 1.0), (left, right, miss)):
            img = AnnotatedImage(id=1, width=20, height=10, instances=[(first, 1), (second, 1)])
            report = self.check(dets, Dataset(images=[img], categories={1: "a"}))
            # the 0.9 detection takes ``first``; the 0.8 one then matches at 0.75
            # only when the box left to it is its own exact copy
            assert (report.map50, report.map75) == (1.0, map75)

    def test_equal_scores(self):
        rng = np.random.default_rng(41)
        for grid in (1, 2, 5):
            dets, data = dense_fixture(rng, 80, categories=(1, 2), tie_grid=grid)
            self.check(dets, data)
            self.check(dets, data, max_dets=1)

    def test_unknown_images_and_categories(self):
        rng = np.random.default_rng(42)
        dets, data = dense_fixture(rng, 50)
        strays = [Detection(image_id, BBox(1, 1, 20, 20), c, 0.99)
                  for image_id in (-5, 0, 51, 2**62) for c in (1, 2, 3, 9)]
        mixed = strays[:7] + dets + strays[7:]
        assert self.check(mixed, data) == evaluate(dets, data)
        self.check(mixed, data, max_dets=1)

    def test_loaded_table(self, tmp_path):
        rng = np.random.default_rng(43)
        dets, data = dense_fixture(rng, 40, tie_grid=10)
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([{"image_id": d.image_id, "category_id": d.category_id,
                                     "bbox": [d.box.x, d.box.y, d.box.w, d.box.h],
                                     "score": d.score} for d in dets]))
        assert evaluate(load_detections(path), data) == self.check(dets, data)

    def test_empty_table(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 5, 5), 1)])
        data = Dataset(images=[img], categories={1: "a"})
        report = self.check([], data)
        assert (report.map50, report.map75, report.mar100) == (0.0, 0.0, 0.0)

    def test_ids_beyond_int64_rejected(self):
        img = AnnotatedImage(id=2**63, width=10, height=10, instances=[(BBox(0, 0, 5, 5), 1)])
        with pytest.raises(InvalidParam, match="int64"):
            evaluate([Detection(2**63, BBox(0, 0, 5, 5), 1, 0.5)],
                     Dataset(images=[img], categories={1: "a"}))

    def test_negative_max_dets_rejected(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 5, 5), 1)])
        with pytest.raises(InvalidParam):
            evaluate([], Dataset(images=[img], categories={1: "a"}), max_dets=-1)


class TestSizeOrderedReport:
    def stats(self, ratios):
        return [CategoryStats(category_id=i + 1, name=f"c{i + 1}", instance_count=1,
                              mean_area_px=10.0, mean_w=2.0, mean_h=5.0,
                              mean_size_ratio=r,
                              size_class="small" if r < 0.02 else "regular")
                for i, r in enumerate(ratios)]

    def report(self, n):
        img = AnnotatedImage(id=1, width=100, height=100,
                             instances=[(BBox(0, 0, 5, 5), c + 1) for c in range(n)])
        return evaluate([], Dataset(images=[img],
                                    categories={c + 1: f"c{c + 1}" for c in range(n)}))

    def test_descending_order(self):
        rows, csv_text = size_ordered_report(self.report(3), self.stats([0.05, 0.01, 0.03]))
        assert [r.mean_size_ratio for r in rows] == [0.05, 0.03, 0.01]
        assert csv_text.splitlines()[0] == "category,size_ratio,ap50,ap75,ar100"

    def test_single_category(self):
        rows, _ = size_ordered_report(self.report(1), self.stats([0.01]))
        assert len(rows) == 1

    def test_missing_stats(self):
        with pytest.raises(MissingStats):
            size_ordered_report(self.report(2), self.stats([0.05]))


class TestDetectionIO:
    def test_load_results_json(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text('[{"image_id": 1, "category_id": 2, "bbox": [1, 2, 3, 4], "score": 0.5}]')
        table = load_detections(path)
        assert len(table) == 1
        assert table.image_id.tolist() == [1] and table.image_id.dtype == np.int64
        assert table.category_id.tolist() == [2] and table.category_id.dtype == np.int64
        assert table.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert table.score.tolist() == [0.5]

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"image_id": 1}]')
        with pytest.raises(ParseError):
            load_detections(path)

    @pytest.mark.parametrize("entry", [
        '{"image_id": 1, "category_id": 2, "bbox": [NaN, 2, 3, 4], "score": 0.5}',
        '{"image_id": 1, "category_id": 2, "bbox": [1, 2, Infinity, 4], "score": 0.5}',
        '{"image_id": Infinity, "category_id": 2, "bbox": [1, 2, 3, 4], "score": 0.5}',
        '{"image_id": 1, "category_id": 2, "bbox": [1, 2, 3, 4], "score": NaN}',
        '{"image_id": 1, "category_id": 2, "bbox": [1, 2, 3], "score": 0.5}',
    ], ids=["nan-x", "inf-w", "inf-image-id", "nan-score", "three-coordinates"])
    def test_bad_entry_named(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(f"[{entry}]")
        with pytest.raises(ParseError, match="bad detection entry"):
            load_detections(path)

    GOOD = {"image_id": 1, "category_id": 2, "bbox": [1, 2, 3, 4], "score": 0.5}
    BAD = {
        "negative-w": ({"image_id": 1, "category_id": 2, "bbox": [1, 2, -3, 4], "score": 0.5},
                       "box extents must be >= 0"),
        "score-1.5": ({"image_id": 1, "category_id": 2, "bbox": [1, 2, 3, 4], "score": 1.5},
                      "detection score must be in [0, 1]"),
        "not-an-object": ([1, 2, [1, 2, 3, 4], 0.5], "list indices must be integers"),
        "five-values": ({"image_id": 1, "category_id": 2, "bbox": [1, 2, 3, 4, 5], "score": 0.5},
                        "positional argument"),
        "id-beyond-int64": ({"image_id": 2**63, "category_id": 2, "bbox": [1, 2, 3, 4],
                             "score": 0.5}, "ids must fit in int64"),
    }

    @pytest.mark.parametrize("case", list(BAD))
    def test_first_bad_entry_named(self, tmp_path, case):
        bad, words = self.BAD[case]
        later = {"category_id": 2, "bbox": [1, 2, 3, 4], "score": 0.5}  # no image_id
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([self.GOOD, self.GOOD, bad, later, bad]))
        with pytest.raises(ParseError) as err:
            load_detections(path)
        assert str(err.value).startswith(f"bad detection entry {bad!r}: ")
        assert words in str(err.value)

    def test_string_and_float_ids_convert_as_int(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([self.GOOD, {"image_id": "3", "category_id": 2.9,
                                                "bbox": ["1", 2, 3, 4], "score": "0.25"}]))
        table = load_detections(path)
        assert table.image_id.tolist() == [1, 3]
        assert table.category_id.tolist() == [2, 2]
        assert table.boxes.tolist() == [[1, 2, 3, 4], [1, 2, 3, 4]]
        assert table.score.tolist() == [0.5, 0.25]

    def test_empty_list(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text("[]")
        table = load_detections(path)
        assert len(table) == 0 and table.boxes.shape == (0, 4)

    def test_score_validation(self):
        with pytest.raises(InvalidParam):
            Detection(1, BBox(0, 0, 1, 1), 1, 1.5)

    def test_report_serialization(self):
        img = AnnotatedImage(id=1, width=10, height=10, instances=[(BBox(0, 0, 5, 5), 1)])
        report = evaluate([], Dataset(images=[img], categories={1: "a"}))
        doc = report_to_dict(report)
        assert doc["ar_threshold_set"] == [0.5, 0.75]
        csv_text = report_to_csv(report)
        assert csv_text.splitlines()[0] == "category,ap50,ap75,ar100"
