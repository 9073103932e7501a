"""Time railswin's hot paths in one tree, or in two trees paired in one process.

    python3 scripts/ab.py A_SRC [B_SRC] [--rows PREFIX ...]

A_SRC and B_SRC are checkouts' ``src`` directories.  Each tree's ``railswin``
is copied to a temporary directory as ``rs_a`` (``rs_b``) and imported from
there, which works because the package uses only relative imports.
``--rows`` runs only the rows whose names start with a prefix.  BLAS runs
single-threaded.  The JSON document printed records the machine too.

One tree: each row of ``ROWS`` prints the median and min milliseconds of its
timed calls.  Two trees: each round sets a row up and times it on both
sides, in a seeded random order, and the row prints each side's median, the
median over rounds of log(B / A) as a percent with a bootstrap 95% interval,
and the rounds B was slower.  The trees share one allocator, caches and
import order, so repeat in a second process with the trees swapped, and
count a difference only when both processes' intervals exclude 0 on the
same side.  Two counts come first: ``tape_nodes``, and ``full_rounds`` (one tree only,
since one process cannot split page faults or peak RSS between trees).
"""

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REPEATS = 5  # timed calls per side per round
NANO_ITERS = 20  # timed nano iterations per side per round
SEED = 0  # of the side order and of the bootstrap


def timed(fn, repeats=REPEATS):
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return seconds


def gelu(config, batch, backward, rs):
    """At the stage-0 MLP's activation shape."""
    cfg = config(rs)
    shape = (batch, cfg.input_size[0] * cfg.input_size[1] // cfg.patch_size ** 2,
             int(cfg.embed_dim * cfg.mlp_ratio))
    x = rs.tensor.Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=True)
    y = rs.tensor.gelu(x)
    y.grad = np.ones(shape)

    def bwd():
        x.grad = None
        y._backward(y)

    return timed(bwd if backward else lambda: rs.tensor.gelu(x))


def adamw(config, head, repeats, rs):
    """Over a backbone's tensors, and a classification head's of 3 classes with ``head``."""
    cfg = config(rs)
    named = rs.swin.SwinBackbone(cfg).named_parameters()
    if head:
        named += rs.train.init_head_params(cfg, 3, "classification").named_parameters()
    params = [t for _, t in named]
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=p.shape) for p in params]
    state = rs.optim.AdamState.init(params)
    scratch = np.empty(rs.optim.CHUNK), np.empty(rs.optim.CHUNK)

    def step():
        state.t += 1
        for p, g, m, v in zip(params, grads, state.m, state.v):
            rs.optim.adamw_update(p, g, m, v, state.t, 1e-3, (0.9, 0.999), 1e-8, 0.05, scratch)

    return timed(step, repeats)


def iteration(config, batch, iters, task, rs):
    swin = config(rs)
    spec = rs.synth.SyntheticSpec(num_images=batch * 2, image_size=swin.input_size, seed=0)
    cfg = rs.train.TrainConfig(swin=swin, batch_size=batch, seed=0, synthetic=spec, task=task)
    return rs.train.bench(cfg, rs.train.WARMUP_ITERS + iters).retained()


def nano(placement):
    return lambda rs: rs.swin.nano_config(rs.swin.CbamPlacement(placement), seed=0)


def full(rs):
    return rs.swin.tiny_config()


def full_forward(rs):
    backbone = rs.swin.SwinBackbone(full(rs))
    image = rs.tensor.Tensor(np.random.default_rng(0).normal(size=(1, 1) + full(rs).input_size))
    with rs.tensor.no_grad():
        backbone.forward(image)  # the first call faults in the activations' pages
        return timed(lambda: backbone.forward(image))


def evaluate(num_images, rs, dets_per_image=20, categories=(1, 2, 3, 4)):
    """1-3 boxes per 128x128 image; jittered copies of each box, then random boxes."""
    BBox, rng = rs.data.BBox, np.random.default_rng([0, num_images])

    def random_box(lo, hi):
        w, h = rng.uniform(lo, hi, 2)
        return (BBox(float(rng.uniform(0, 128 - w)), float(rng.uniform(0, 128 - h)),
                     float(w), float(h)), int(rng.choice(categories)))

    images, dets = [], []
    for image_id in range(1, num_images + 1):
        instances = [random_box(8, 60) for _ in range(int(rng.integers(1, 4)))]
        images.append(rs.data.AnnotatedImage(id=image_id, width=128, height=128,
                                             instances=instances))
        boxes = [(b, c) for b, c in instances for _ in range(3)][:dets_per_image]
        boxes = [(BBox(b.x + rng.normal(0, 0.1) * b.w, b.y + rng.normal(0, 0.1) * b.h,
                       b.w * float(np.exp(rng.normal(0, 0.1))), b.h), c) for b, c in boxes]
        while len(boxes) < dets_per_image:
            boxes.append(random_box(4, 64))
        dets.extend(rs.metrics.Detection(image_id, b, c, float(rng.random())) for b, c in boxes)
    data = rs.data.Dataset(images=images, categories={c: f"c{c}" for c in categories})
    return timed(lambda: rs.metrics.evaluate(dets, data))


def predict(placement, rs):
    spec = rs.synth.SyntheticSpec(num_images=128, image_size=(32, 32), seed=100_000)
    val = rs.synth.generate_synthetic(spec)
    backbone = rs.swin.SwinBackbone(nano(placement)(rs))
    head = rs.train.init_head_params(backbone.cfg, len(val.categories), "localization")
    rng = np.random.default_rng(1)
    head.w.data = rng.normal(0.0, 0.5, head.w.shape)
    head.b.data = rng.normal(0.0, 0.5, head.b.shape)
    return timed(lambda: rs.train.predict_detections(backbone, head, val))


# name -> (rounds, run); run(side) sets up, then returns the seconds of its timed calls
ROWS = {
    **{f"gelu.{size}.{way}": (20, partial(gelu, config, batch, way == "backward"))
       for size, config, batch in (("nano", nano("none"), 16), ("full", full, 1))
       for way in ("forward", "backward")},
    "adamw.full": (10, partial(adamw, full, False, REPEATS)),
    "adamw.nano": (20, partial(adamw, nano("block"), True, NANO_ITERS)),
    **{f"nano.{task}.{p}": (40, partial(iteration, nano(p), 16, NANO_ITERS, task))
       for task in ("classification", "localization") for p in ("none", "block")},
    "full.no_grad_forward": (10, full_forward),
    "full.train_iteration": (10, partial(iteration, full, 1, REPEATS, "classification")),
    **{f"evaluate.{n}": (20, partial(evaluate, n)) for n in (200, 400, 800, 1600)},
    **{f"predict.{p}": (20, partial(predict, p)) for p in ("none", "block")},
}


def tape_nodes(rs):
    """Tape nodes recorded by one nano training iteration at batch 16."""
    counts, make = {}, rs.tensor._make
    try:
        for placement, task in itertools.product(("none", "block"), rs.train.TASKS):
            calls = []
            rs.tensor._make = lambda *args: calls.append(1) or make(*args)
            spec = rs.synth.SyntheticSpec(num_images=32, image_size=(32, 32), seed=0)
            rs.train.train(rs.train.TrainConfig(swin=nano(placement)(rs), batch_size=16, seed=0,
                                                synthetic=spec, task=task, max_iterations=1,
                                                epochs=1))
            counts[f"{placement}.{task}"] = len(calls)
    finally:
        rs.tensor._make = make
    return counts


def full_rounds(rs):
    """Page faults and times of three back-to-back full-size rounds: train 4
    iterations, then run 2 ``no_grad`` forwards."""
    spec = rs.synth.SyntheticSpec(num_images=4, image_size=full(rs).input_size, seed=0)
    cfg = rs.train.TrainConfig(swin=full(rs), batch_size=1, seed=0, synthetic=spec,
                               max_iterations=4, epochs=4)
    image = rs.tensor.Tensor(np.random.default_rng(0).normal(size=(1, 1) + spec.image_size))
    out = []
    for _ in range(3):
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        result = rs.train.train(cfg)
        with rs.tensor.no_grad():
            for _ in range(2):
                result.backbone.forward(image)
        after = resource.getrusage(resource.RUSAGE_SELF)
        out.append({"minor_faults": after.ru_minflt - before.ru_minflt,
                    "system_s": round(after.ru_stime - before.ru_stime, 2),
                    "wall_s": round(time.perf_counter() - t0, 2)})
        del result
    return {"rounds": out,
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}


def paired_change(log_ratios):
    """Median log(B / A) as a percent, its bootstrap 95% interval and the rounds B was slower."""
    d = np.asarray(log_ratios, dtype=float)
    medians = np.median(np.random.default_rng(SEED).choice(d, (10_000, d.size)), axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return {"change_pct": round(100 * math.expm1(np.median(d)), 2),
            "ci95_pct": [round(100 * math.expm1(lo), 2), round(100 * math.expm1(hi), 2)],
            "b_slower": int((d > 0).sum()), "rounds": int(d.size)}


def run_row(run, sides, rounds, rng):
    """Run ``run`` once per side per round, sides in a random order, and summarise."""
    seconds = [[] for _ in sides]
    for _ in range(rounds):
        for k in rng.permutation(len(sides)):
            seconds[k].append(run(sides[k]))
    if len(sides) == 1:
        flat = [s for runs in seconds[0] for s in runs]
        return {"median_ms": round(1e3 * statistics.median(flat), 3),
                "min_ms": round(1e3 * min(flat), 3), "runs": len(flat)}
    a, b = ([statistics.median(runs) for runs in side] for side in seconds)
    return {"a_ms": round(1e3 * statistics.median(a), 3),
            "b_ms": round(1e3 * statistics.median(b), 3),
            **paired_change(np.log(b) - np.log(a))}


def load_tree(src, name, into):
    """Import ``src``'s railswin package under ``name`` from a copy in ``into``."""
    shutil.copytree(Path(src) / "railswin", Path(into) / name)
    sys.path.insert(0, str(into))
    return importlib.import_module(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src", nargs="?")
    parser.add_argument("--rows", nargs="+", default=[""], metavar="PREFIX")
    args = parser.parse_args(argv)
    srcs = [s for s in (args.a_src, args.b_src) if s]
    chosen = lambda name: name.startswith(tuple(args.rows))  # noqa: E731
    doc = {"machine": {"cpu_count": os.cpu_count(), **{v: os.environ[v] for v in THREAD_VARS},
                       "numpy": np.__version__, "python": platform.python_version()},
           "trees": [str(Path(s).resolve()) for s in srcs], "rows": {}}
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [load_tree(s, name, tmp) for s, name in zip(srcs, ("rs_a", "rs_b"))]
        if chosen("tape_nodes"):
            counts = [tape_nodes(rs) for rs in sides]
            doc["rows"]["tape_nodes"] = counts[0] if len(sides) == 1 else dict(zip("ab", counts))
        if len(sides) == 1 and chosen("full_rounds"):
            doc["rows"]["full_rounds"] = full_rounds(sides[0])
        for name, (rounds, run) in ROWS.items():
            if chosen(name):
                print(name, file=sys.stderr, flush=True)
                doc["rows"][name] = run_row(run, sides, rounds, rng)
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
