"""Time the tape's hot path: GELU, AdamW, nano and full-size training steps.

    PYTHONPATH=src python3 scripts/bench_hotpath.py

Prints one JSON document of median and min milliseconds over REPEATS runs
(NANO_ITERS for the nano loop and the nano ``adamw`` pass) of:

- ``gelu``: one forward and one backward call at the stage-0 MLP shapes
  of the nano config (batch 16, 32x32) and the full-size config (batch 1,
  224x224);
- ``adamw``: one AdamW step with random gradients, ``adamw_update`` on
  each tensor through one scratch pair as ``train`` takes it, over the
  full-size backbone's parameters (few large tensors, bound by memory
  traffic) and over the tensors of a nano ``block`` classification run
  (backbone and head: many small tensors, bound by per-tensor Python
  overhead);
- ``nano_iteration``: one training iteration at batch 16 for placements
  ``none`` and ``block``, from ``train.bench`` after its warmup;
- ``full``: one full-size forward under ``no_grad`` and one training
  iteration at batch 1, from ``train.bench`` after its warmup.

It also prints two counts: ``tape_nodes``, the nodes one nano training
iteration (batch 16) records, for placements ``none`` and ``block`` and
both tasks; and ``full_rounds``, the minor page faults, system and wall
seconds of FULL_ROUNDS back-to-back full-size rounds in this process (each
trains FULL_ROUND_ITERS iterations at batch 1, then runs FULL_ROUND_FORWARDS
``no_grad`` forwards), from ``resource.getrusage``, with the peak RSS.

BLAS runs single-threaded.  Point PYTHONPATH at another checkout's ``src``
to time that one on the same inputs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from railswin import tensor as T  # noqa: E402
from railswin.optim import CHUNK, AdamState, adamw_update  # noqa: E402
from railswin.swin import CbamPlacement, SwinBackbone, nano_config, tiny_config  # noqa: E402
from railswin.synth import SyntheticSpec  # noqa: E402
from railswin.train import (TASKS, WARMUP_ITERS, TrainConfig, bench,  # noqa: E402
                            init_head_params, train)

REPEATS = 5
NANO_ITERS = 20
FULL_ROUNDS = 3
FULL_ROUND_ITERS = 4
FULL_ROUND_FORWARDS = 2


def stage0_mlp_shape(cfg, batch):
    tokens = (cfg.input_size[0] // cfg.patch_size) * (cfg.input_size[1] // cfg.patch_size)
    return (batch, tokens, int(cfg.embed_dim * cfg.mlp_ratio))


def summary(seconds):
    return {"median_ms": 1e3 * statistics.median(seconds), "min_ms": 1e3 * min(seconds),
            "runs": len(seconds)}


def timed(fn, repeats=REPEATS):
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return seconds


def time_gelu(shape):
    x = T.Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=True)
    y = T.gelu(x)
    y.grad = np.ones(shape)

    def bwd():
        x.grad = None
        y._backward(y)

    return {"shape": list(shape), "forward": summary(timed(lambda: T.gelu(x))),
            "backward": summary(timed(bwd))}


def time_adamw(params, repeats=REPEATS):
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=p.shape) for p in params]
    state = AdamState.init(params)
    scratch = np.empty(CHUNK), np.empty(CHUNK)

    def step():
        state.t += 1
        for p, g, m, v in zip(params, grads, state.m, state.v):
            adamw_update(p, g, m, v, state.t, 1e-3, (0.9, 0.999), 1e-8, 0.05, scratch)

    s = timed(step, repeats)
    return {"tensors": len(params), "values": sum(p.size for p in params), **summary(s)}


def nano_block_parameters():
    cfg = nano_config(CbamPlacement.BLOCK, seed=0)
    head = init_head_params(cfg, 3, "classification")
    return [t for _, t in SwinBackbone(cfg).named_parameters() + head.named_parameters()]


def train_iterations(swin, batch, iters):
    spec = SyntheticSpec(num_images=batch * 2, image_size=swin.input_size, seed=0)
    cfg = TrainConfig(swin=swin, batch_size=batch, seed=0, synthetic=spec)
    return summary(bench(cfg, WARMUP_ITERS + iters).retained())


def tape_nodes(placement, task):
    """Tape nodes recorded by one nano training iteration at batch 16."""
    spec = SyntheticSpec(num_images=32, image_size=(32, 32), seed=0)
    cfg = TrainConfig(swin=nano_config(placement, seed=0), batch_size=16, seed=0,
                      synthetic=spec, task=task, max_iterations=1, epochs=1)
    make, calls = T._make, [0]

    def counting(*args):
        calls[0] += 1
        return make(*args)

    T._make = counting
    try:
        train(cfg)
    finally:
        T._make = make
    return calls[0]


def full_rounds():
    """Page faults and times of back-to-back full-size train + forward rounds."""
    full = tiny_config()
    spec = SyntheticSpec(num_images=4, image_size=full.input_size, seed=0)
    cfg = TrainConfig(swin=full, batch_size=1, seed=0, synthetic=spec,
                      max_iterations=FULL_ROUND_ITERS, epochs=FULL_ROUND_ITERS)
    image = T.Tensor(np.random.default_rng(0).normal(size=(1, 1) + full.input_size))
    rounds = []
    for _ in range(FULL_ROUNDS):
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        result = train(cfg)
        with T.no_grad():
            for _ in range(FULL_ROUND_FORWARDS):
                result.backbone.forward(image)
        after = resource.getrusage(resource.RUSAGE_SELF)
        rounds.append({"minor_faults": after.ru_minflt - before.ru_minflt,
                       "system_s": round(after.ru_stime - before.ru_stime, 2),
                       "wall_s": round(time.perf_counter() - t0, 2)})
        del result
    return {"rounds": rounds,
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)}


def main():
    nano, full = nano_config(), tiny_config()
    result = {"tape_nodes": {p.value: {task: tape_nodes(p, task) for task in TASKS}
                             for p in (CbamPlacement.NONE, CbamPlacement.BLOCK)},
              "full_rounds": full_rounds(),
              "gelu": {"nano": time_gelu(stage0_mlp_shape(nano, 16)),
                       "full": time_gelu(stage0_mlp_shape(full, 1))},
              "adamw": {
                  "full": time_adamw([t for _, t in SwinBackbone(full).named_parameters()]),
                  "nano": time_adamw(nano_block_parameters(), NANO_ITERS)},
              "nano_iteration": {p.value: train_iterations(nano_config(p, seed=0), 16, NANO_ITERS)
                                 for p in (CbamPlacement.NONE, CbamPlacement.BLOCK)}}
    backbone = SwinBackbone(full)
    image = T.Tensor(np.random.default_rng(0).normal(size=(1, 1) + full.input_size))
    with T.no_grad():
        backbone.forward(image)  # first call faults in the activations' pages
        forward = summary(timed(lambda: backbone.forward(image)))
    result["full"] = {"no_grad_forward": forward,
                      "train_iteration": train_iterations(full, 1, REPEATS)}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
