"""Training loop, toy detection head, checkpoints, timing, and ablation."""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .config import from_dict, to_dict
from .data.coco import Dataset, load_coco
from .data.stats import category_stats
from .errors import DatasetEmpty, InvalidParam, NonFiniteLoss, ParseError, ShapeMismatch
from .files import atomic_open, csv_text, read_json, write_text
from .metrics import Detection, evaluate
from .data.boxes import BBox
from .optim import CHUNK, AdamState, adamw_update
from .swin import CbamPlacement, SwinBackbone, SwinConfig, map_to_grid
from .synth import SyntheticSpec, generate_synthetic
from .tensor import Tensor, backward, no_grad

TASKS = ("classification", "localization")

WARMUP_ITERS = 5

# A tensor whose update spans at least this many CHUNK blocks is stepped on
# the optimizer worker thread while the walk goes on.
WORKER_BLOCKS = 4


@dataclass
class TrainConfig:
    swin: SwinConfig
    lr: float = 1e-3
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    epochs: int = 16
    batch_size: int = 16
    seed: int = 0
    dataset: str = "synthetic"  # "synthetic" or a path to a COCO-style JSON
    task: str = "classification"
    max_iterations: int | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self):
        self.betas = tuple(float(b) for b in self.betas)
        self.validate()

    def validate(self):
        if self.lr <= 0:
            raise InvalidParam("lr must be positive")
        if not all(0.0 <= b < 1.0 for b in self.betas) or len(self.betas) != 2:
            raise InvalidParam("betas must be two values in [0, 1)")
        if self.epochs < 1:
            raise InvalidParam("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidParam("batch_size must be >= 1")
        if self.task not in TASKS:
            raise InvalidParam(f"task must be one of {TASKS}")
        if self.weight_decay < 0:
            raise InvalidParam("weight_decay must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidParam("max_iterations must be >= 1 when set")
        if self.seed < 0:
            raise InvalidParam("seed must be >= 0")


def load_train_config(path):
    return from_dict(TrainConfig, read_json(path, "train config"))


# ---------------------------------------------------------------------------
# detection/classification head


@dataclass
class HeadParams:
    task: str
    w: Tensor
    b: Tensor
    num_classes: int
    stage: int  # the backbone stage whose map the head reads

    def named_parameters(self):
        return T.named_parameters(self, "head.")


def init_head_params(cfg, num_classes, task):
    """Classification reads the stage-4 map, localization the stage-3 map."""
    if task == "classification":
        stage, out = 3, num_classes
    else:
        stage, out = 2, 5 + num_classes  # objectness, 4 offsets, class scores
    # zero-init: logits start flat, avoiding the first-step loss spike
    w = Tensor(np.zeros((out, cfg.stage_dim(stage))), requires_grad=True)
    b = Tensor(np.zeros(out), requires_grad=True)
    return HeadParams(task=task, w=w, b=b, num_classes=num_classes, stage=stage)


def head_forward(features, head):
    """Classification: pooled logits. Localization: per-cell raw outputs [..., h*w, 5+K]."""
    f = features[head.stage]
    if f.shape[-3] != head.w.shape[1]:
        raise ShapeMismatch(f"head dim {head.w.shape[1]} != feature dim {f.shape[-3]}")
    if head.task == "classification":
        return T.linear(T.tmean(f, axis=(-2, -1)), head.w, head.b)
    h, w = f.shape[-2], f.shape[-1]
    cells = T.reshape(map_to_grid(f), f.shape[:-3] + (h * w, f.shape[-3]))
    return T.linear(cells, head.w, head.b)


def decode_detections(raw, grid_hw, stride, image_id, image_size, cat_ids,
                      score_thresh=0.05, max_dets=100):
    """Turn per-cell raw outputs [cells, 5+K] into clamped Detection records.

    ``cat_ids`` maps class index -> dataset category id.
    """
    gh, gw = grid_hw
    H, W = image_size
    obj = 1.0 / (1.0 + np.exp(-np.clip(raw[:, 0], -50, 50)))
    offs = raw[:, 1:5]
    cls = raw[:, 5:]
    cls = cls - cls.max(axis=1, keepdims=True)
    probs = np.exp(cls)
    probs /= probs.sum(axis=1, keepdims=True)
    cats = probs.argmax(axis=1)
    scores = obj * probs[np.arange(len(cats)), cats]
    out = []
    for cell in np.argsort(-scores, kind="stable"):
        if scores[cell] < score_thresh or len(out) >= max_dets:
            break
        i, j = divmod(int(cell), gw)
        cx = (j + 0.5 + offs[cell, 0]) * stride
        cy = (i + 0.5 + offs[cell, 1]) * stride
        bw = float(np.exp(np.clip(offs[cell, 2], -8, 8)) * stride)
        bh = float(np.exp(np.clip(offs[cell, 3], -8, 8)) * stride)
        box = BBox(cx - bw / 2.0, cy - bh / 2.0, bw, bh).clamped(W, H)
        if box.area <= 0:
            continue
        out.append(Detection(image_id=image_id, box=box,
                             category_id=cat_ids[int(cats[cell])],
                             score=float(min(max(scores[cell], 0.0), 1.0))))
    return out


def _localization_targets(batch_images, grid_hw, stride, cat_index):
    gh, gw = grid_hw
    cells = gh * gw
    B = len(batch_images)
    obj = np.zeros((B, cells))
    pos_idx, pos_cls, pos_off = [], [], []
    for b, im in enumerate(batch_images):
        for box, cat in im.instances:
            cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
            # a centre outside the image trains the nearest cell of its own image
            j = min(max(int(cx // stride), 0), gw - 1)
            i = min(max(int(cy // stride), 0), gh - 1)
            cell = i * gw + j
            obj[b, cell] = 1.0
            pos_idx.append(b * cells + cell)
            pos_cls.append(cat_index[cat])
            pos_off.append([cx / stride - (j + 0.5), cy / stride - (i + 0.5),
                            np.log(max(box.w, 1e-3) / stride),
                            np.log(max(box.h, 1e-3) / stride)])
    return obj, np.array(pos_idx, dtype=np.int64), np.array(pos_cls, dtype=np.int64), \
        np.array(pos_off, dtype=np.float64)


def localization_loss(raw, batch_images, grid_hw, stride, cat_index):
    """Objectness BCE over all cells + class CE and smooth-L1 at positives."""
    B, cells, width = raw.shape
    obj_t, pos_idx, pos_cls, pos_off = _localization_targets(
        batch_images, grid_hw, stride, cat_index)
    flat = T.reshape(raw, (B * cells, width))
    obj_logits = T.reshape(T.slice_axis(flat, -1, 0, 1), (B * cells,))
    loss = T.bce_with_logits(obj_logits, obj_t.reshape(-1))
    if len(pos_idx):
        rows = T.take(flat, pos_idx)
        offs = T.slice_axis(rows, -1, 1, 5)
        cls_logits = T.slice_axis(rows, -1, 5, width)
        loss = loss + T.smooth_l1(offs, pos_off) + T.cross_entropy(cls_logits, pos_cls)
    return loss


# ---------------------------------------------------------------------------
# timing


def _mean(values):
    """The mean of measured values; None when nothing was measured."""
    return float(np.mean(values)) if values else None


def _std(values):
    return float(np.std(values)) if values else None


@dataclass
class IterTimingLog:
    seconds: list = field(default_factory=list)

    def retained(self):
        return self.seconds[WARMUP_ITERS:]

    def mean(self):
        return _mean(self.retained())

    def std(self):
        return _std(self.retained())

    def to_csv(self):
        return csv_text(("iteration", "seconds"), enumerate(self.seconds, 1))


# ---------------------------------------------------------------------------
# dataset plumbing


def _load_training_data(cfg):
    if cfg.dataset == "synthetic":
        spec = cfg.synthetic
        if spec is None:
            spec = SyntheticSpec(image_size=cfg.swin.input_size, seed=cfg.seed)
        data = generate_synthetic(spec)
    else:
        data = load_coco(cfg.dataset)
        data.images = [im for im in data.images if im.pixels is not None]
    if not data.images:
        raise DatasetEmpty(f"no usable images in dataset {cfg.dataset!r}")
    return data


def _image_tensor(images):
    shapes = {im.pixels.shape for im in images}
    if len(shapes) > 1:
        raise InvalidParam(f"batch mixes image shapes {sorted(shapes)}; "
                           "training expects a uniform-size dataset")
    arr = np.stack([im.pixels.astype(np.float64) for im in images])
    arr = arr / 127.5 - 1.0
    if arr.ndim == 3:
        arr = arr[:, None, :, :]
    else:
        arr = arr.transpose(0, 3, 1, 2)
    return Tensor(arr)


def _class_label(image, cat_index):
    if not image.instances:
        raise DatasetEmpty(f"image {image.id} has no instances to classify")
    return cat_index[image.instances[0][1]]


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, cfg, backbone, head, adam_state, iteration, category_ids):
    """Write the resume state to ``path`` atomically; class k is the sorted ``category_ids[k]``."""
    named = backbone.named_parameters() + head.named_parameters()
    arrays = {f"param.{name}": t.data for name, t in named}
    for (name, _), m, v in zip(named, adam_state.m, adam_state.v):
        arrays[f"adam_m.{name}"] = m
        arrays[f"adam_v.{name}"] = v
    meta = {
        "config": to_dict(cfg),
        "iteration": iteration,
        "adam_t": adam_state.t,
        "in_channels": backbone.in_channels,
        "num_classes": head.num_classes,
        "category_ids": list(category_ids),
        "param_names": [name for name, _ in named],
    }
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Rebuild (cfg, backbone, head, adam_state, meta) from an .npz file.

    An unreadable, corrupt or incomplete file raises ParseError.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as blob:
            arrays = dict(blob)
    # TypeError: a bare .npy array, which has no entries to open
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise ParseError(f"cannot read checkpoint {path}: {e}") from e
    try:
        meta = json.loads(str(arrays["meta"]))
        if not isinstance(meta, dict):
            raise ParseError(f"checkpoint {path}: meta is not a JSON object")
        for key in ("iteration", "adam_t", "in_channels", "num_classes"):
            if type(meta[key]) is not int or meta[key] < 0:
                raise ParseError(f"checkpoint {path}: {key} must be a non-negative integer, "
                                 f"got {json.dumps(meta[key])}")
        ids = meta["category_ids"]
        if (not isinstance(ids, list) or len(ids) != meta["num_classes"]
                or any(type(c) is not int or c < 0 for c in ids) or len(set(ids)) != len(ids)):
            raise ParseError(f"checkpoint {path}: category_ids must be {meta['num_classes']} "
                             f"distinct non-negative integers, got {json.dumps(ids)}")
        cfg = from_dict(TrainConfig, meta["config"])
        backbone = SwinBackbone(cfg.swin, in_channels=meta["in_channels"])
        head = init_head_params(cfg.swin, meta["num_classes"], cfg.task)
        named = backbone.named_parameters() + head.named_parameters()
        if set(meta["param_names"]) != {name for name, _ in named}:
            raise ParseError(f"checkpoint {path} does not match the config's parameter set")
        for name, t in named:
            for key in (f"param.{name}", f"adam_m.{name}", f"adam_v.{name}"):
                a = arrays[key]
                if a.shape != t.data.shape or a.dtype != t.data.dtype:
                    raise ParseError(f"checkpoint {path}: {key} is {a.dtype} {a.shape}, "
                                     f"expected {t.data.dtype} {t.data.shape}")
            t.data = arrays[f"param.{name}"]
        adam = AdamState(m=[arrays[f"adam_m.{name}"] for name, _ in named],
                         v=[arrays[f"adam_v.{name}"] for name, _ in named],
                         t=meta["adam_t"])
    except (KeyError, ValueError) as e:
        raise ParseError(f"checkpoint {path} has a missing or unreadable entry: {e}") from e
    return cfg, backbone, head, adam, meta


def check_dataset(meta, dataset):
    """InvalidParam unless ``dataset`` has the category ids and the image
    channel count the checkpoint was trained on."""
    ids = sorted(dataset.categories)
    if ids != meta["category_ids"]:
        raise InvalidParam(f"the checkpoint has {meta['num_classes']} classes, category ids "
                           f"{meta['category_ids']}; the dataset {len(ids)} categories, ids {ids}")
    channels = sorted({1 if im.pixels.ndim == 2 else 3
                       for im in dataset.images if im.pixels is not None})
    if channels and channels != [meta["in_channels"]]:
        raise InvalidParam(f"the checkpoint takes {meta['in_channels']}-channel images; "
                           f"the dataset's images have {' and '.join(map(str, channels))} channels")


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    losses: list
    timing: IterTimingLog
    backbone: SwinBackbone
    head: HeadParams
    data: Dataset
    cat_index: dict
    checkpoint_path: str | None = None

    def loss_curve_csv(self):
        return csv_text(("iteration", "loss"), enumerate(self.losses, 1))


def train(cfg, out_dir=None, resume=None, data=None):
    """Run the configured training; bit-deterministic.

    Writes loss_curve.csv, timing.csv and checkpoint.npz under ``out_dir``
    when given.  ``resume`` continues from a checkpoint produced by a
    previous run of the same config.

    One optimizer worker thread steps the large tensors while ``backward``
    walks on; it starts at the first such tensor and is joined before
    ``train`` returns or raises.  The worker acknowledges every job, failed
    or not; ``train`` waits for the queue to drain before it times the
    iteration, then raises the worker's first error.  Each update reads
    only its own tensor, gradient and moments, and a handed-over tensor has
    no consumer left in the walk, so the bytes are those of a
    single-threaded run.
    """
    if data is None:
        data = _load_training_data(cfg)
    cat_ids = sorted(data.categories)
    cat_index = {cid: i for i, cid in enumerate(cat_ids)}
    num_classes = len(cat_ids)
    in_channels = 1 if data.images[0].pixels.ndim == 2 else 3

    start_iteration = 0
    if resume is not None:
        cfg_ck, backbone, head, adam_state, meta = load_checkpoint(resume)
        if cfg_ck.swin != cfg.swin:
            raise InvalidParam("resume checkpoint was built for a different backbone config")
        if cfg_ck.task != cfg.task:
            raise InvalidParam(f"resume checkpoint was trained for {cfg_ck.task}, "
                               f"not {cfg.task}")
        check_dataset(meta, data)
        start_iteration = meta["iteration"]
    else:
        backbone = SwinBackbone(cfg.swin, in_channels=in_channels)
        head = init_head_params(cfg.swin, num_classes, cfg.task)
    params = [t for _, t in backbone.named_parameters() + head.named_parameters()]
    if resume is None:
        adam_state = AdamState.init(params)
    # Every tensor is stepped inside the walk as soon as its gradient is
    # final, so the gradients of the late stages are gone before the walk
    # reaches the early stages' activations.
    moments = {id(p): (p, m, v) for p, m, v in zip(params, adam_state.m, adam_state.v)}
    scratch = np.empty(CHUNK), np.empty(CHUNK)
    large = WORKER_BLOCKS * CHUNK

    n = len(data.images)
    iters_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total = cfg.epochs * iters_per_epoch
    if cfg.max_iterations is not None:
        total = min(total, cfg.max_iterations)

    def update(p, m, v, t, scratch):
        adamw_update(p, p.grad, m, v, t, cfg.lr, cfg.betas, 1e-8, cfg.weight_decay, scratch)
        p.grad = None

    def work():
        # the optimizer worker, with a scratch pair of its own: it acknowledges
        # every job, failed or not, and records each error for train to raise
        worker_scratch = np.empty(CHUNK), np.empty(CHUNK)
        for job in iter(jobs.get, None):
            try:
                update(*job, worker_scratch)
            except Exception as e:
                errors.append(e)
            finally:
                jobs.task_done()

    jobs, errors = queue.Queue(), []
    worker = None  # started at the first large tensor
    losses = []
    timing = IterTimingLog()
    iteration = start_iteration
    order, order_epoch = None, -1
    try:
        while iteration < total:
            t0 = time.perf_counter()
            epoch = iteration // iters_per_epoch
            if epoch != order_epoch:
                # epoch order is random-access (seeded per epoch) so a resumed
                # run sees exactly the batches a fresh run would
                order = np.random.default_rng([cfg.seed + 1, epoch]).permutation(n)
                order_epoch = epoch
            lo = (iteration % iters_per_epoch) * cfg.batch_size
            batch = [data.images[k] for k in order[lo:lo + cfg.batch_size]]
            x = _image_tensor(batch)

            features = backbone.forward(x, head.stage + 1)
            out = head_forward(features, head)
            if cfg.task == "classification":
                labels = np.array([_class_label(im, cat_index) for im in batch])
                loss = T.cross_entropy(out, labels)
            else:
                loss = localization_loss(out, batch, features[head.stage].shape[-2:],
                                         cfg.swin.stage_stride(head.stage), cat_index)

            value = loss.item()
            if not np.isfinite(value):
                raise NonFiniteLoss(f"loss became {value} at iteration {iteration + 1}")
            # the loss alone holds the tape now, so releasing frees it as backward walks
            del x, features, out
            adam_state.t += 1
            # what the walk never reaches (stages the forward skips) has no
            # gradient, so its update only decays it
            unreached = dict(moments)

            def step(p):
                nonlocal worker
                _, m, v = unreached.pop(id(p))
                if p.data.size < large:
                    update(p, m, v, adam_state.t, scratch)
                    return
                if worker is None:
                    thread = threading.Thread(target=work, name="railswin-adamw")
                    thread.start()
                    worker = thread  # joined in the finally once it has started
                jobs.put((p, m, v, adam_state.t))

            backward(loss, release=True, on_final=step)
            del loss
            for p, m, v in unreached.values():
                update(p, m, v, adam_state.t, scratch)
            if worker is not None:
                jobs.join()
                if errors:
                    raise errors[0]
            losses.append(value)
            timing.seconds.append(time.perf_counter() - t0)
            iteration += 1
    finally:
        if worker is not None:
            jobs.put(None)
            worker.join()

    result = TrainResult(losses=losses, timing=timing, backbone=backbone, head=head,
                         data=data, cat_index=cat_index)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_text(os.path.join(out_dir, "loss_curve.csv"), result.loss_curve_csv())
        write_text(os.path.join(out_dir, "timing.csv"), timing.to_csv())
        ckpt = os.path.join(out_dir, "checkpoint.npz")
        save_checkpoint(ckpt, cfg, backbone, head, adam_state, iteration, cat_ids)
        result.checkpoint_path = ckpt
    return result


# ---------------------------------------------------------------------------
# evaluation of a trained localization model


PREDICT_CHUNK = 16  # images per no_grad forward in predict_detections


def predict_detections(backbone, head, dataset):
    """Detections for every image, in dataset order, at ``decode_detections``' defaults.

    Runs of consecutive images with the same pixel shape go through the
    backbone together, at most PREDICT_CHUNK at a time.
    """
    if head.task != "localization":
        raise InvalidParam("detection decoding needs a localization head")
    if head.num_classes != len(dataset.categories):
        raise InvalidParam(f"the head has {head.num_classes} classes but the dataset "
                           f"has {len(dataset.categories)} categories")
    for im in dataset.images:
        if im.pixels is None:
            raise ParseError(f"image {im.id} has no pixels: file {im.file_name!r} "
                             "is missing or not a PNM")
    stride = backbone.cfg.stage_stride(head.stage)
    cat_ids = sorted(dataset.categories)
    out = []
    with no_grad():
        for _, run in itertools.groupby(dataset.images, key=lambda im: im.pixels.shape):
            run = list(run)
            for lo in range(0, len(run), PREDICT_CHUNK):
                chunk = run[lo:lo + PREDICT_CHUNK]
                features = backbone.forward(_image_tensor(chunk), head.stage + 1)
                raw = head_forward(features, head)
                grid_hw = features[head.stage].shape[-2:]
                for im, rows in zip(chunk, raw.data):
                    out.extend(decode_detections(rows, grid_hw, stride, im.id,
                                                 (im.height, im.width), cat_ids))
    return out


# ---------------------------------------------------------------------------
# ablation over placements


ABLATION_CSV_COLUMNS = ("variant", "map50", "map75", "ar100",
                        "iter_time_mean", "iter_time_std",
                        "map50_small", "map50_regular")


@dataclass
class AblationRun:
    variant: str
    seed: int
    report: object
    timing: IterTimingLog
    ap50_small: float | None = None
    ap50_regular: float | None = None


@dataclass
class AblationResult:
    runs: list
    summary: list  # one dict per variant, ABLATION_CSV_COLUMNS keys

    def to_csv(self):
        return csv_text(ABLATION_CSV_COLUMNS,
                        ([row[c] for c in ABLATION_CSV_COLUMNS] for row in self.summary))


def run_ablation(base_cfg, variants=tuple(CbamPlacement), seeds=(0,), val_images=60):
    """Train/evaluate every placement variant on identical data per seed.

    Numbers are reported as measured; no attempt is made to reproduce
    full-scale results.  A summary value with nothing measured behind it
    (every iteration in the warmup, no category of a size class) is None.
    """
    if not seeds:
        raise InvalidParam("run_ablation needs at least one seed")
    runs, summary = [], []
    for variant in variants:
        mine = []
        for seed in seeds:
            swin = replace(base_cfg.swin, placement=variant, seed=seed)
            synth = base_cfg.synthetic or SyntheticSpec(image_size=swin.input_size)
            cfg = replace(base_cfg, swin=swin, seed=seed, task="localization",
                          synthetic=replace(synth, seed=seed))
            result = train(cfg)
            val = generate_synthetic(replace(cfg.synthetic, seed=seed + 100_000,
                                             num_images=val_images))
            dets = predict_detections(result.backbone, result.head, val)
            report = evaluate(dets, val)
            size_class = {s.category_id: s.size_class for s in category_stats(val)}
            small = [pc.ap50 for pc in report.per_category
                     if size_class.get(pc.category_id) == "small"]
            regular = [pc.ap50 for pc in report.per_category
                       if size_class.get(pc.category_id) == "regular"]
            mine.append(AblationRun(variant=variant.value, seed=seed, report=report,
                                    timing=result.timing, ap50_small=_mean(small),
                                    ap50_regular=_mean(regular)))
        runs += mine
        times = [s for r in mine for s in r.timing.retained()]
        summary.append({
            "variant": variant.value,
            "map50": _mean([r.report.map50 for r in mine]),
            "map75": _mean([r.report.map75 for r in mine]),
            "ar100": _mean([r.report.mar100 for r in mine]),
            "iter_time_mean": _mean(times),
            "iter_time_std": _std(times),
            "map50_small": _mean([r.ap50_small for r in mine if r.ap50_small is not None]),
            "map50_regular": _mean([r.ap50_regular for r in mine
                                    if r.ap50_regular is not None]),
        })
    return AblationResult(runs=runs, summary=summary)


def bench(cfg, iters):
    """Measure per-iteration wall time over ``iters`` training iterations.

    The first ``WARMUP_ITERS`` are not measured, so ``iters`` must exceed them.
    """
    if iters <= WARMUP_ITERS:
        raise InvalidParam(f"bench needs iters > {WARMUP_ITERS} warmup iterations, got {iters}")
    cfg = replace(cfg, max_iterations=iters,
                  epochs=max(cfg.epochs, iters))  # enough epochs to cover iters
    result = train(cfg)
    return result.timing
