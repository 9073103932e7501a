"""The three workloads: set-up, one round of operations, output checks, metrics.

A round is the unit of work the benchmark repeats until its time is up;
every round of a run performs the same operations on the same inputs.
Package functions are called through their modules (``RT.train``) so that
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import railswin.cli as cli
import railswin.metrics as RM
import railswin.synth as S
import railswin.tensor as T
import railswin.train as RT
from railswin.errors import RailswinError
from railswin.swin import CbamPlacement, nano_config, tiny_config

import checks
import oracle

clock = time.perf_counter


@dataclass
class Round:
    attempted: int
    failed: int = 0
    wall: float = 0.0
    out: dict = field(default_factory=dict)


def image_tensor(images):
    """[B, 1, H, W] in [-1, 1], built here rather than by the package."""
    arr = np.stack([im.pixels.astype(np.float64) for im in images]) / 127.5 - 1.0
    return T.Tensor(arr[:, None, :, :])


def detection_tuples(dets):
    return [(d.image_id, d.category_id, (d.box.x, d.box.y, d.box.w, d.box.h), d.score)
            for d in dets]


def ground_truth(dataset):
    return {im.id: [((b.x, b.y, b.w, b.h), c) for b, c in im.instances] for im in dataset.images}


def directional_derivative(params, loss_fn, seed, steps):
    """sum(grad . d) from backward, and central differences along d at each step.

    d is a seeded random direction of unit norm over all parameters.
    """
    for p in params:
        p.grad = None
    T.backward(loss_fn())
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal(p.shape) for p in params]
    norm = math.sqrt(sum(float(np.vdot(d, d)) for d in dirs))
    analytic = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, dirs)
                   if p.grad is not None) / norm
    originals = [p.data for p in params]
    numerics = []
    with T.no_grad():
        for h in steps:
            values = []
            for sign in (1.0, -1.0):
                for p, orig, d in zip(params, originals, dirs):
                    p.data = orig + (sign * h / norm) * d
                values.append(loss_fn().item())
            numerics.append((values[0] - values[1]) / (2.0 * h))
    for p, orig in zip(params, originals):
        p.data = orig
        p.grad = None
    return analytic, numerics


def train_config(swin, spec, seed, task, batch_size, iterations):
    return RT.TrainConfig(swin=swin, lr=1e-3, weight_decay=0.05, betas=(0.9, 0.999),
                          epochs=iterations, batch_size=batch_size, seed=seed, task=task,
                          max_iterations=iterations, synthetic=spec)


def check_iterations(r, iterations):
    secs = r.out["iter_s"]
    checks.require(len(secs) == iterations, f"{len(secs)} iterations timed, expected {iterations}")
    checks.require(0 < sum(secs) <= r.out["train_s"],
                   "iteration times do not fit inside the train() call")


# ---------------------------------------------------------------------------


class AblateNanoBlock:
    """One ablation inner loop, placement ``block``: train, predict, evaluate."""

    name = "ablate-nano-block"
    ITERATIONS = 200
    BATCH = 16
    TRAIN_IMAGES = 200
    VAL_IMAGES = 128
    SIZE = (32, 32)
    OPS = 3  # train, predict_detections, evaluate

    def setup(self, seed, workdir):
        spec = S.SyntheticSpec(num_images=self.TRAIN_IMAGES, image_size=self.SIZE, seed=seed)
        data = S.generate_synthetic(spec)
        val = S.generate_synthetic(replace(spec, seed=seed + 100_000, num_images=self.VAL_IMAGES))
        cfg = train_config(nano_config(CbamPlacement.BLOCK, seed=seed), spec, seed,
                           "localization", self.BATCH, self.ITERATIONS)
        return {"seed": seed, "cfg": cfg, "data": data, "val": val}

    def run_round(self, st):
        r = Round(attempted=self.OPS)
        st.pop("model", None)  # free the last model before training the next
        try:
            t0 = clock()
            result = RT.train(st["cfg"], data=st["data"])
            t1 = clock()
            dets = RT.predict_detections(result.backbone, result.head, st["val"])
            t2 = clock()
            report = RM.evaluate(dets, st["val"])
            t3 = clock()
        except RailswinError as e:
            r.failed = self.OPS
            r.out["error"] = str(e)
            return r
        r.out = {"train_s": t1 - t0, "iter_s": list(result.timing.seconds),
                 "losses": list(result.losses), "predict_s": t2 - t1, "eval_s": t3 - t2,
                 "dets": detection_tuples(dets),
                 "report": (report.map50, report.map75, report.mar100)}
        st["model"] = (result.backbone, result.head)
        return r

    def check(self, st, rounds):
        val = st["val"]
        sizes = {im.id: (im.width, im.height) for im in val.images}
        gt = ground_truth(val)
        for r in rounds:
            check_iterations(r, self.ITERATIONS)
            checks.check_loss_decrease(r.out["losses"])
            checks.check_detections(r.out["dets"], sizes, max_dets=100)
            checks.check_map(r.out["report"], oracle.evaluate(r.out["dets"], gt))
        backbone, head = st["model"]
        cfg = st["cfg"].swin
        batch = val.images[:self.BATCH]
        stride = cfg.patch_size * 4
        grid = (self.SIZE[0] // stride, self.SIZE[1] // stride)
        cat_index = {cid: i for i, cid in enumerate(sorted(val.categories))}
        shapes = []

        def loss_fn():
            feats = backbone.forward(image_tensor(batch))
            shapes[:] = [f.shape for f in feats]
            raw = RT.head_forward(feats, head)
            return RT.localization_loss(raw, batch, grid, stride, cat_index)

        params = [p for _, p in backbone.named_parameters() + head.named_parameters()]
        # the block gates hold ReLU and max kinks: try three steps
        analytic, numerics = directional_derivative(params, loss_fn, st["seed"],
                                                    steps=(1e-5, 1e-6, 1e-7))
        checks.check_directional_derivative(analytic, numerics)
        checks.check_stage_shapes(shapes, len(batch), cfg.embed_dim, cfg.patch_size, self.SIZE)

    def metrics(self, rounds):
        return {
            "main_img_per_s": (self.ITERATIONS * self.BATCH * len(rounds)
                               / sum(r.out["train_s"] for r in rounds), "images/s"),
            "score_img_per_s": (self.VAL_IMAGES * len(rounds)
                                / sum(r.out["predict_s"] + r.out["eval_s"] for r in rounds),
                                "images/s"),
            "step_p50_ms": (iteration_p50_ms(rounds), "ms"),
        }


def iteration_p50_ms(rounds):
    return 1000.0 * statistics.median(s for r in rounds for s in r.out["iter_s"])


# ---------------------------------------------------------------------------


class TrainFull:
    """Full-size backbone at 224^2: training steps, then no_grad forwards."""

    name = "train-full"
    ITERATIONS = 8
    FORWARDS = 3
    TRAIN_IMAGES = 16
    SIZE = (224, 224)

    def setup(self, seed, workdir):
        spec = S.SyntheticSpec(num_images=self.TRAIN_IMAGES, image_size=self.SIZE,
                               instances_per_image=(1, 1), seed=seed)
        data = S.generate_synthetic(spec)
        val = S.generate_synthetic(replace(spec, seed=seed + 100_000, num_images=self.FORWARDS))
        cfg = train_config(tiny_config(CbamPlacement.NONE, seed=seed), spec, seed,
                           "classification", 1, self.ITERATIONS)
        return {"seed": seed, "cfg": cfg, "data": data, "val": val}

    def run_round(self, st):
        r = Round(attempted=1 + self.FORWARDS)
        st.pop("model", None)
        try:
            t0 = clock()
            result = RT.train(st["cfg"], data=st["data"])
            r.out["train_s"] = clock() - t0
        except RailswinError as e:
            r.failed = r.attempted
            r.out["error"] = str(e)
            return r
        fwd_s, shapes, logits = [], [], []
        for im in st["val"].images:
            x = image_tensor([im])
            try:
                t0 = clock()
                with T.no_grad():
                    feats = result.backbone.forward(x)
                    out = RT.head_forward(feats, result.head)
                fwd_s.append(clock() - t0)
            except RailswinError as e:
                r.failed += 1
                r.out["error"] = str(e)
                continue
            shapes.append([f.shape for f in feats])
            logits.append(out.data.copy())
        r.out.update({"iter_s": list(result.timing.seconds), "losses": list(result.losses),
                      "fwd_s": fwd_s, "shapes": shapes, "logits": logits,
                      "num_classes": len(st["data"].categories)})
        st["model"] = (result.backbone, result.head)
        return r

    def check(self, st, rounds):
        cfg = st["cfg"].swin
        for r in rounds:
            check_iterations(r, self.ITERATIONS)
            checks.check_first_loss(r.out["losses"][0], r.out["num_classes"])
            checks.require(all(math.isfinite(v) for v in r.out["losses"]), "non-finite loss")
            for shapes in r.out["shapes"]:
                checks.check_stage_shapes(shapes, 1, cfg.embed_dim, cfg.patch_size, self.SIZE)
            for lg in r.out["logits"]:
                checks.require(lg.shape == (1, r.out["num_classes"]) and np.isfinite(lg).all(),
                               f"forward logits {lg.shape} not finite [1, K]")
        backbone, head = st["model"]
        im = st["val"].images[0]
        cat_index = {cid: i for i, cid in enumerate(sorted(st["data"].categories))}
        label = np.array([cat_index[im.instances[0][1]]])

        def loss_fn():
            logits = RT.head_forward(backbone.forward(image_tensor([im])), head)
            return T.cross_entropy(logits, label)

        params = [p for _, p in backbone.named_parameters() + head.named_parameters()]
        # no kinks without the gates; one step keeps the check to two forwards
        analytic, numerics = directional_derivative(params, loss_fn, st["seed"], steps=(1e-4,))
        checks.check_directional_derivative(analytic, numerics)

    def metrics(self, rounds):
        fwd = [s for r in rounds for s in r.out["fwd_s"]]
        return {
            "main_img_per_s": (self.ITERATIONS * len(rounds)
                               / sum(r.out["train_s"] for r in rounds), "images/s"),
            "score_img_per_s": (len(fwd) / sum(fwd), "images/s"),
            "step_p50_ms": (iteration_p50_ms(rounds), "ms"),
        }


# ---------------------------------------------------------------------------


class DatasetEval:
    """``railswin preprocess`` then ``railswin eval --dets``, in process."""

    name = "dataset-eval"
    ITERATIONS = 0  # no training
    SOURCE_IMAGES = 300
    SIZE = (128, 128)
    FRACTION = 0.8
    TRAIN_TARGET = 110
    VAL_TARGET = 35
    DETS_PER_IMAGE = 20

    def setup(self, seed, workdir):
        # one instance per image: each synthesized image then adds exactly one
        # to one category, so split sizes are the targets whatever the seed
        spec = S.SyntheticSpec(num_images=self.SOURCE_IMAGES, image_size=self.SIZE,
                               instances_per_image=(1, 1), seed=seed)
        ds = S.generate_synthetic(spec)
        src = os.path.join(workdir, "source")
        os.makedirs(src, exist_ok=True)
        doc = {"images": [], "annotations": [],
               "categories": [{"id": c, "name": n} for c, n in sorted(ds.categories.items())]}
        pixels, files = {}, {}
        for im in ds.images:
            name = f"src_{im.id:05d}.pgm"
            data = im.pixels.tobytes()
            oracle.write_pgm(os.path.join(src, name), im.width, im.height, data)
            pixels[im.id] = data
            files[name] = im.id
            doc["images"].append({"id": im.id, "width": im.width, "height": im.height,
                                  "file_name": name})
            for box, cat in im.instances:
                doc["annotations"].append({"id": len(doc["annotations"]) + 1, "image_id": im.id,
                                           "category_id": cat,
                                           "bbox": [box.x, box.y, box.w, box.h]})
        with open(os.path.join(src, "annotations.json"), "w") as fh:
            json.dump(doc, fh)
        names = [n for _, n in sorted(ds.categories.items())]
        targets = {"fraction": self.FRACTION,
                   "train": {n: self.TRAIN_TARGET for n in names},
                   "val": {n: self.VAL_TARGET for n in names}}
        with open(os.path.join(workdir, "targets.json"), "w") as fh:
            json.dump(targets, fh)
        return {"seed": seed, "workdir": workdir, "pixels": pixels, "files": files,
                "targets": targets,
                "source": os.path.join(src, "annotations.json"),
                "dets": os.path.join(workdir, "dets.json")}

    def write_dets(self, st, split_doc):
        """20 detections per image: jittered copies of each box plus random boxes."""
        rng = np.random.default_rng([st["seed"], 7])
        images, gt = checks.coco_index(split_doc)
        cats = [c["id"] for c in split_doc["categories"]]
        out = []
        for image_id in sorted(images):
            W, H, _ = images[image_id]
            mine = []
            for (x, y, w, h), cat in gt[image_id]:
                for spread in (0.05, 0.15, 0.3):
                    dx, dy, sw, sh = rng.normal(0.0, spread, 4)
                    bw, bh = w * math.exp(sw), h * math.exp(sh)
                    bx = min(max(x + dx * w, 0.0), W - 1.0)
                    by = min(max(y + dy * h, 0.0), H - 1.0)
                    mine.append((cat, [bx, by, min(bw, W - bx), min(bh, H - by)]))
            while len(mine) < self.DETS_PER_IMAGE:
                bw, bh = rng.uniform(4.0, W / 2.0), rng.uniform(4.0, H / 2.0)
                mine.append((int(rng.choice(cats)),
                             [rng.uniform(0.0, W - bw), rng.uniform(0.0, H - bh), bw, bh]))
            for cat, box in mine[:self.DETS_PER_IMAGE]:
                out.append({"image_id": image_id, "category_id": int(cat),
                            "bbox": [float(v) for v in box], "score": float(rng.random())})
        with open(st["dets"], "w") as fh:
            json.dump(out, fh)

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as e:
                return e.code or 2

    def run_round(self, st):
        r = Round(attempted=2)
        prep = os.path.join(st["workdir"], "prep")
        evald = os.path.join(st["workdir"], "eval")
        t0 = clock()
        rc = self._cli(["preprocess", st["source"], "--enhance", "cet",
                        "--augment-plan", os.path.join(st["workdir"], "targets.json"),
                        "--seed", str(st["seed"]), "--out", prep])
        r.out["prep_s"] = clock() - t0
        if rc != 0:
            r.failed = 2
            return r
        split = os.path.join(prep, "train", "annotations.json")
        if not os.path.exists(st["dets"]):
            with open(split) as fh:
                self.write_dets(st, json.load(fh))
        t0 = clock()
        rc = self._cli(["eval", "--dataset", split, "--dets", st["dets"], "--out", evald])
        r.out["eval_s"] = clock() - t0
        if rc != 0:
            r.failed = 1
            return r
        for key, path in (("train", split), ("val", os.path.join(prep, "val", "annotations.json")),
                          ("plan", os.path.join(prep, "plan.json")),
                          ("metrics", os.path.join(evald, "metrics.json"))):
            with open(path, "rb") as fh:
                r.out[key] = fh.read()
        return r

    def check(self, st, rounds):
        first = rounds[0].out
        for r in rounds[1:]:
            for key in ("train", "val", "plan", "metrics"):
                checks.require(r.out[key] == first[key], f"round output {key} differs from round 1")
        train, val = json.loads(first["train"]), json.loads(first["val"])
        plan = json.loads(first["plan"])
        t = st["targets"]
        checks.check_targets(train, t["train"])
        checks.check_targets(val, t["val"])
        checks.check_partition(st["files"], {"train": train, "val": val},
                               {k: plan[k]["records"] for k in ("train", "val")})
        prep = os.path.join(st["workdir"], "prep")
        for name, doc in (("train", train), ("val", val)):
            checks.check_boxes(doc)
            for im in doc["images"]:
                if im["file_name"] in st["files"]:
                    _, _, data = oracle.read_pgm(os.path.join(prep, name, im["file_name"]))
                    checks.check_stretch(st["pixels"][im["id"]], data, im["id"])
        with open(st["dets"]) as fh:
            dets = [(d["image_id"], d["category_id"], tuple(d["bbox"]), d["score"])
                    for d in json.load(fh)]
        report = json.loads(first["metrics"])
        _, gt = checks.coco_index(train)
        checks.check_map((report["map50"], report["map75"], report["mar100"]),
                         oracle.evaluate(dets, gt))

    def metrics(self, rounds):
        n_train = len(json.loads(rounds[0].out["train"])["images"])
        n_val = len(json.loads(rounds[0].out["val"])["images"])
        return {
            "main_img_per_s": ((n_train + n_val) * len(rounds)
                               / sum(r.out["prep_s"] for r in rounds), "images/s"),
            "score_img_per_s": (n_train * len(rounds) / sum(r.out["eval_s"] for r in rounds),
                                "images/s"),
            "step_p50_ms": (1000.0 * statistics.median(r.out["prep_s"] + r.out["eval_s"]
                                                        for r in rounds), "ms"),
        }


WORKLOADS = {w.name: w for w in (AblateNanoBlock, TrainFull, DatasetEval)}
