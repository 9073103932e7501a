"""Time ``evaluate`` against the image count and ``predict_detections`` at nano size.

    PYTHONPATH=src python3 scripts/bench_eval.py

Prints one JSON document: the median and min seconds over REPEATS runs of
``evaluate`` at 200 / 400 / 800 / 1600 images with 20 detections each, and
of ``predict_detections`` on 128 nano-size (32x32) images for placements
``none`` and ``block``, with images/s at the median.  BLAS runs
single-threaded.  Point PYTHONPATH at another checkout's ``src`` to time
that one on the same inputs.
"""

from __future__ import annotations

import json
import os
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from railswin.data.boxes import BBox  # noqa: E402
from railswin.data.coco import AnnotatedImage, Dataset  # noqa: E402
from railswin.metrics import Detection, evaluate  # noqa: E402
from railswin.swin import CbamPlacement, SwinBackbone, nano_config  # noqa: E402
from railswin.synth import SyntheticSpec, generate_synthetic  # noqa: E402
from railswin.train import init_head_params, predict_detections  # noqa: E402

DETS_PER_IMAGE = 20
SIZES = (200, 400, 800, 1600)  # images per evaluate fixture
REPEATS = 5


def scoring_fixture(num_images, seed=0, categories=(1, 2, 3, 4)):
    """1-3 boxes per 128x128 image; jittered copies of each box, then random boxes."""
    rng = np.random.default_rng([seed, num_images])
    images, dets = [], []
    for image_id in range(1, num_images + 1):
        instances = []
        for _ in range(int(rng.integers(1, 4))):
            w, h = rng.uniform(8, 60, 2)
            instances.append((BBox(float(rng.uniform(0, 128 - w)), float(rng.uniform(0, 128 - h)),
                                   float(w), float(h)), int(rng.choice(categories))))
        images.append(AnnotatedImage(id=image_id, width=128, height=128, instances=instances))
        boxes = [(b, c) for b, c in instances for _ in range(3)][:DETS_PER_IMAGE]
        boxes = [(BBox(b.x + rng.normal(0, 0.1) * b.w, b.y + rng.normal(0, 0.1) * b.h,
                       b.w * float(np.exp(rng.normal(0, 0.1))), b.h), c) for b, c in boxes]
        while len(boxes) < DETS_PER_IMAGE:
            w, h = rng.uniform(4, 64, 2)
            boxes.append((BBox(float(rng.uniform(0, 128 - w)), float(rng.uniform(0, 128 - h)),
                               float(w), float(h)), int(rng.choice(categories))))
        dets.extend(Detection(image_id, b, c, float(rng.random())) for b, c in boxes)
    return dets, Dataset(images=images, categories={c: f"c{c}" for c in categories})


def timed(fn):
    seconds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return seconds


def main():
    result = {"evaluate": {}, "predict_detections": {}}
    for n in SIZES:
        dets, data = scoring_fixture(n)
        s = timed(lambda: evaluate(dets, data))
        result["evaluate"][str(n)] = {"median_s": statistics.median(s), "min_s": min(s)}

    val = generate_synthetic(SyntheticSpec(num_images=128, image_size=(32, 32), seed=100_000))
    for placement in (CbamPlacement.NONE, CbamPlacement.BLOCK):
        backbone = SwinBackbone(nano_config(placement, seed=0))
        head = init_head_params(backbone.cfg, len(val.categories), "localization")
        rng = np.random.default_rng(1)
        head.w.data = rng.normal(0.0, 0.5, head.w.shape)
        head.b.data = rng.normal(0.0, 0.5, head.b.shape)
        s = timed(lambda: predict_detections(backbone, head, val))
        result["predict_detections"][placement.value] = {
            "median_s": statistics.median(s), "min_s": min(s),
            "img_per_s": len(val.images) / statistics.median(s)}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
