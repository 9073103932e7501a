"""sha256 digests of what nano training produces, to compare two checkouts.

    PYTHONPATH=src python3 scripts/digest.py

For each placement x task, trains the nano config for ITERATIONS steps at
batch BATCH on a seeded synthetic set and prints one line per artifact:

* ``losses``: the loss curve, as the bytes of each float;
* ``params``: every ``param.*`` array of the saved checkpoint;
* ``moments``: every ``adam_m.*`` and ``adam_v.*`` array of it;
* ``outputs``: the ``predict_detections`` tuples on a held-out synthetic
  set (localization), or the head's logits on it (classification);
* ``report``: the ``evaluate`` report of those detections (localization).

Each placement also gets a ``maps`` line: the four stage maps that
``SwinBackbone.forward`` returns, with no stage limit, for a freshly
initialised backbone on a fixed seeded batch.

Arrays enter a digest in checkpoint order, each with its name, dtype and
shape.  Then ``run_ablation`` runs every placement, and each row of its
CSV, without the ``iter_time_*`` columns, is printed with its digest.

A ``full`` line digests the losses, parameters and moments of 2 full-size
iterations (``tiny_config`` at 224x224, batch 1, ``none`` classification),
where the tensors ``train`` steps inside the backward walk are large
enough to span many of ``optim.CHUNK``'s cache blocks.

Last, one fixed nano session of the ``railswin`` command (``stats``,
``preprocess --enhance cet``, a localization ``train`` on the preprocessed
train split, then ``eval --dets`` and ``eval --checkpoint`` on the val
split) prints a ``cli`` line per text artifact it writes, with the sha256
of the file's bytes.  ``timing.csv`` is left out: it holds wall times.
Each split that ``preprocess`` writes also gets an ``images`` line over
its PGM/PPM files, name and bytes, in sorted name order.  The last line
is ``eval --dets`` on the preprocessed train split with DENSE_DETS
detections per image (three jittered copies of each box, then random
boxes of any category, scores on a 0.01 grid so that some tie): one
digest over its three artifacts, names and bytes.

BLAS runs single-threaded.  Point PYTHONPATH at another checkout's ``src``
and diff the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from railswin.cli import main as cli  # noqa: E402
from railswin.config import to_dict  # noqa: E402
from railswin.data.coco import save_dataset  # noqa: E402
from railswin.metrics import evaluate, report_to_dict  # noqa: E402
from railswin.swin import CbamPlacement, SwinBackbone, nano_config, tiny_config  # noqa: E402
from railswin.synth import SyntheticSpec, generate_synthetic  # noqa: E402
from railswin.tensor import Tensor, no_grad  # noqa: E402
from railswin.train import (  # noqa: E402
    TrainConfig,
    _image_tensor,
    head_forward,
    predict_detections,
    run_ablation,
    train,
)

ITERATIONS = 100
BATCH = 16
TRAIN_IMAGES = 32
VAL_IMAGES = 16
SEED = 0
DENSE_DETS = 20
FULL_ITERATIONS = 2


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def arrays_sha(blob, prefixes):
    parts = []
    for name in blob.files:
        if name.startswith(prefixes):
            a = blob[name]
            parts += [name, a.dtype, a.shape, np.ascontiguousarray(a).tobytes()]
    return sha(*parts)


def config(placement, task):
    return TrainConfig(swin=nano_config(placement, seed=SEED), seed=SEED,
                       max_iterations=ITERATIONS, epochs=ITERATIONS, batch_size=BATCH,
                       task=task, synthetic=SyntheticSpec(num_images=TRAIN_IMAGES, seed=SEED))


def digest_run(placement, task, workdir):
    cfg = config(placement, task)
    result = train(cfg, out_dir=workdir)
    val = generate_synthetic(replace(cfg.synthetic, seed=SEED + 100_000,
                                     num_images=VAL_IMAGES))
    lines = {"losses": sha(np.array(result.losses).tobytes())}
    with np.load(result.checkpoint_path) as blob:
        lines["params"] = arrays_sha(blob, ("param.",))
        lines["moments"] = arrays_sha(blob, ("adam_m.", "adam_v."))
    if task == "localization":
        dets = predict_detections(result.backbone, result.head, val)
        lines["outputs"] = sha(*[(d.image_id, d.category_id, d.box.x, d.box.y, d.box.w,
                                  d.box.h, d.score) for d in dets])
        report = report_to_dict(evaluate(dets, val))
        lines["report"] = sha(json.dumps(report, sort_keys=True))
    else:
        with no_grad():
            logits = head_forward(result.backbone.forward(_image_tensor(val.images)),
                                  result.head)
        lines["outputs"] = sha(logits.data.tobytes())
    for key, value in lines.items():
        print(f"{placement.value}/{task} {key} {value}")


def digest_full(workdir):
    cfg = TrainConfig(swin=tiny_config(CbamPlacement.NONE, seed=SEED), seed=SEED,
                      max_iterations=FULL_ITERATIONS, epochs=FULL_ITERATIONS, batch_size=1,
                      task="classification",
                      synthetic=SyntheticSpec(num_images=FULL_ITERATIONS, image_size=(224, 224),
                                              seed=SEED))
    result = train(cfg, out_dir=workdir)
    with np.load(result.checkpoint_path) as blob:
        arrays = arrays_sha(blob, ("param.", "adam_m.", "adam_v."))
    print(f"full none/classification {sha(np.array(result.losses).tobytes(), arrays)}")


def digest_maps(placement):
    cfg = nano_config(placement, seed=SEED)
    image = np.random.default_rng(SEED).normal(size=(BATCH, 1) + cfg.input_size)
    maps = SwinBackbone(cfg).forward(Tensor(image))
    parts = []
    for f in maps:
        parts += [f.shape, np.ascontiguousarray(f.data).tobytes()]
    print(f"{placement.value}/backbone maps {sha(len(maps), *parts)}")


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"railswin {' '.join(map(str, argv))} exited {rc}")


def digest_cli(workdir):
    def path(*parts):
        return os.path.join(workdir, *parts)

    data = generate_synthetic(SyntheticSpec(num_images=TRAIN_IMAGES, seed=SEED,
                                            instances_per_image=(1, 2)))
    ann = save_dataset(data, path("data"))
    with open(path("targets.json"), "w") as fh:
        json.dump({"fraction": 0.75, "train": {"dark-blob": 16}, "val": {"scratch-line": 6}}, fh)
    cfg = replace(config(CbamPlacement.BLOCK, "localization"),
                  dataset=path("prep", "train", "annotations.json"), max_iterations=8)
    with open(path("cfg.json"), "w") as fh:
        json.dump(to_dict(cfg), fh)
    val = path("prep", "val", "annotations.json")
    run_cli("stats", ann, "--out", path("stats"))
    run_cli("preprocess", ann, "--enhance", "cet", "--augment-plan", path("targets.json"),
            "--seed", SEED, "--out", path("prep"))
    with open(val) as fh:
        dets = [{"image_id": a["image_id"], "category_id": a["category_id"],
                 "bbox": [v + 1 for v in a["bbox"]], "score": 1.0 / (1 + a["id"] % 7)}
                for a in json.load(fh)["annotations"]]
    with open(path("dets.json"), "w") as fh:
        json.dump(dets, fh)
    run_cli("train", "--config", path("cfg.json"), "--out", path("train"))
    run_cli("eval", "--dets", path("dets.json"), "--dataset", val, "--out", path("eval-dets"))
    run_cli("eval", "--checkpoint", path("train", "checkpoint.npz"), "--dataset", val,
            "--out", path("eval-ckpt"))
    names = ["stats/stats.csv", "prep/plan.json", "prep/train/annotations.json",
             "prep/val/annotations.json", "train/loss_curve.csv"]
    names += [f"{run}/{name}" for run in ("eval-dets", "eval-ckpt")
              for name in ("metrics.json", "metrics.csv", "size_ordered.csv")]
    for name in names:
        with open(path(name), "rb") as fh:
            print(f"cli {name} {sha(fh.read())}")
    for split in ("train", "val"):
        parts = []
        for name in sorted(os.listdir(path("prep", split))):
            if name.endswith((".pgm", ".ppm")):
                with open(path("prep", split, name), "rb") as fh:
                    parts += [name, fh.read()]
        print(f"cli prep/{split} images {len(parts) // 2} {sha(*parts)}")
    train_split = path("prep", "train", "annotations.json")
    with open(train_split) as fh:
        write_dense_dets(json.load(fh), path("dense.json"))
    run_cli("eval", "--dets", path("dense.json"), "--dataset", train_split,
            "--out", path("eval-dense"))
    parts = []
    for name in ("metrics.json", "metrics.csv", "size_ordered.csv"):
        with open(path("eval-dense", name), "rb") as fh:
            parts += [name, fh.read()]
    print(f"cli eval-dense {sha(*parts)}")


def write_dense_dets(doc, out_path):
    """DENSE_DETS detections per image of a COCO document, made as railbench's
    dataset-eval makes them (jittered copies of each box, then random boxes),
    with scores rounded to 0.01."""
    rng = np.random.default_rng([SEED, 7])
    cats = [c["id"] for c in doc["categories"]]
    boxes = {im["id"]: [] for im in doc["images"]}
    for a in doc["annotations"]:
        boxes[a["image_id"]].append((a["bbox"], a["category_id"]))
    out = []
    for im in doc["images"]:
        W, H = im["width"], im["height"]
        mine = []
        for (x, y, w, h), cat in boxes[im["id"]]:
            for spread in (0.05, 0.15, 0.3):
                dx, dy, sw, sh = rng.normal(0.0, spread, 4)
                bx = min(max(x + dx * w, 0.0), W - 1.0)
                by = min(max(y + dy * h, 0.0), H - 1.0)
                bw, bh = min(w * np.exp(sw), W - bx), min(h * np.exp(sh), H - by)
                mine.append((cat, [bx, by, bw, bh]))
        while len(mine) < DENSE_DETS:
            bw, bh = rng.uniform(4.0, W / 2.0), rng.uniform(4.0, H / 2.0)
            mine.append((int(rng.choice(cats)),
                         [rng.uniform(0.0, W - bw), rng.uniform(0.0, H - bh), bw, bh]))
        for cat, box in mine[:DENSE_DETS]:
            out.append({"image_id": im["id"], "category_id": cat,
                        "bbox": [float(v) for v in box], "score": round(float(rng.random()), 2)})
    with open(out_path, "w") as fh:
        json.dump(out, fh)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for placement in CbamPlacement:
            digest_maps(placement)
            for task in ("classification", "localization"):
                digest_run(placement, task, os.path.join(tmp, f"{placement.value}-{task}"))
    result = run_ablation(config(CbamPlacement.NONE, "localization"), seeds=(SEED,),
                          val_images=VAL_IMAGES)
    header, *rows = result.to_csv().splitlines()
    keep = [i for i, c in enumerate(header.split(",")) if not c.startswith("iter_time_")]
    for row in rows:
        cells = ",".join(row.split(",")[i] for i in keep)
        print(f"ablation {sha(cells)} {cells}")
    with tempfile.TemporaryDirectory() as tmp:
        digest_cli(tmp)
    with tempfile.TemporaryDirectory() as tmp:
        digest_full(tmp)


if __name__ == "__main__":
    main()
