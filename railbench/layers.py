"""Which package functions the traced run wraps, and the per-layer metrics.

Normalisation (see README.md): ``train.iter_*_ms`` and ``tensor.ops.calls``
are per training iteration; ``cbam.refine.calls`` and
``swin.window_msa.calls`` per backbone forward; ``optim.tensors`` and
``optim.bytes`` per optimizer step; ``synth.*`` per set-up; everything
else per round.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("tensor", "optim", "cbam", "swin", "train", "metrics", "data", "synth", "cli")

STRUCTURAL = ("reshape", "transpose", "slice_axis", "roll", "zero_pad", "take", "concat")
LOSSES = ("train.localization_loss", "tensor.cross_entropy", "tensor.bce_with_logits",
          "tensor.smooth_l1")

# (module:attribute, span name)
SPANS = (
    [(f"railswin.tensor:{op}", f"tensor.{op}")
     for op in ("linear", "matmul", "gelu", "layer_norm", "softmax", "conv2d", *STRUCTURAL,
                "cross_entropy", "bce_with_logits", "smooth_l1", "backward")]
    + [(f"railswin.cbam:{f}", f"cbam.{f}")
       for f in ("channel_attention_map", "spatial_attention_map", "refine")]
    + [(f"railswin.swin:{f}", f"swin.{f}")
       for f in ("backbone_forward", "swin_block_forward", "window_msa", "patch_merging",
                 "patch_partition_embed")]
    + [(f"railswin.train:{f}", f"train.{f}")
       for f in ("train", "head_forward", "localization_loss", "predict_detections",
                 "decode_detections")]
    + [(f"railswin.metrics:{f}", f"metrics.{f}")
       for f in ("evaluate", "average_precision", "load_detections")]
    + [("railswin.data.coco:load_coco", "data.load_coco"),
       ("railswin.data.coco:save_dataset", "data.save_dataset"),
       ("railswin.data.enhance:enhance", "data.enhance"),
       ("railswin.data.planner:split_train_val", "data.split_train_val"),
       ("railswin.data.augment:augment", "data.augment"),
       ("railswin.data.stats:category_stats", "data.category_stats"),
       ("railswin.synth:generate_synthetic", "synth.generate_synthetic"),
       ("railswin.cli:cmd_preprocess", "cli.preprocess"),
       ("railswin.cli:cmd_eval", "cli.eval")]
)


def _adamw(tracer, args, kwargs, result):
    params = args[0]
    tracer.count("optim.tensors", len(params))
    # read param, grad, m, v; write param, m, v
    tracer.count("optim.bytes", 7 * sum(p.data.nbytes for p in params))


def _match(tracer, args, kwargs, result):
    if len(args[0]) and len(args[1]):
        tracer.count("metrics.match_useful")


def _plan(tracer, args, kwargs, result):
    tracer.count("data.plan_records", len(result[0].records))


def install(tracer):
    for target, name in SPANS:
        tracer.install(target, name)
    tracer.install("railswin.optim:adamw_step", "optim.adamw_step", hook=_adamw)
    tracer.install("railswin.metrics:match_detections", "metrics.match_detections", hook=_match)
    tracer.install("railswin.data.planner:plan_and_execute_augmentation",
                   "data.plan_and_execute_augmentation", hook=_plan)
    tracer.install("railswin.tensor:_make", "tensor.ops", span=False)
    tracer.install("railswin.metrics:iou", "metrics.iou", span=False)
    tracer.install("railswin.data.augment:apply_transforms", "data.chains", span=False)
    tracer.install("railswin.data.imageio:read_pnm", "data.read_pnm", span=False,
                   hook=lambda t, a, k, r: t.count("data.read_pnm.bytes", r.nbytes))
    tracer.install("railswin.data.imageio:write_pnm", "data.write_pnm", span=False,
                   hook=lambda t, a, k, r: t.count("data.write_pnm.bytes", np.asarray(a[1]).nbytes))


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, counts, rounds, setup_spans, setups, iterations, iter_s):
    """Per-layer metrics {name: (value, unit)} from the traced rounds' spans."""
    ms = 1e-6
    m = {}

    def per_round(names):
        return spans.total_ns(names) * ms / rounds

    for op in ("linear", "matmul", "gelu", "layer_norm", "softmax", "conv2d"):
        m[f"tensor.{op}.fwd_ms"] = (per_round([f"tensor.{op}"]), "ms")
    m["tensor.structural.fwd_ms"] = (per_round([f"tensor.{op}" for op in STRUCTURAL]), "ms")
    m["tensor.ops.calls"] = (_ratio(counts[("tensor.ops", "train.train")], iterations), "count")
    m["tensor.backward_ms"] = (per_round(["tensor.backward"]), "ms")

    steps = spans.calls("optim.adamw_step")
    m["optim.adamw_step_ms"] = (per_round(["optim.adamw_step"]), "ms")
    m["optim.tensors"] = (_ratio(counts["optim.tensors"], steps), "count")
    m["optim.bytes"] = (_ratio(counts["optim.bytes"], steps), "B")

    forwards = spans.calls("swin.backbone_forward")
    for f in ("channel_attention_map", "spatial_attention_map", "refine"):
        m[f"cbam.{f}_ms"] = (per_round([f"cbam.{f}"]), "ms")
    m["cbam.refine.calls"] = (_ratio(spans.calls("cbam.refine"), forwards), "count")

    for f in ("backbone_forward", "swin_block_forward", "window_msa", "patch_merging",
              "patch_partition_embed"):
        m[f"swin.{f}_ms"] = (per_round([f"swin.{f}"]), "ms")
    m["swin.window_msa.calls"] = (_ratio(spans.calls("swin.window_msa"), forwards), "count")

    in_train = spans.inside("train.train")
    fwd = spans.total_ns(["swin.backbone_forward", "train.head_forward", *LOSSES], in_train)
    bwd = spans.total_ns(["tensor.backward"], in_train)
    opt = spans.total_ns(["optim.adamw_step"], in_train)
    other = iter_s * 1e9 - fwd - bwd - opt
    for phase, ns in (("fwd", fwd), ("bwd", bwd), ("opt", opt), ("other", other)):
        m[f"train.iter_{phase}_ms"] = (_ratio(ns * ms, iterations), "ms")
    m["train.head_forward_ms"] = (per_round(["train.head_forward"]), "ms")
    m["train.loss_ms"] = (per_round(LOSSES), "ms")
    m["train.predict_detections_ms"] = (per_round(["train.predict_detections"]), "ms")
    m["train.decode_detections_ms"] = (per_round(["train.decode_detections"]), "ms")

    for f in ("evaluate", "match_detections", "average_precision", "load_detections"):
        m[f"metrics.{f}_ms"] = (per_round([f"metrics.{f}"]), "ms")
    matches = spans.calls("metrics.match_detections")
    m["metrics.match_detections.calls"] = (matches / rounds, "count")
    m["metrics.iou.calls"] = (counts["metrics.iou"] / rounds, "count")
    m["metrics.match_useful_ratio"] = (_ratio(counts["metrics.match_useful"], matches), "ratio")

    for f in ("load_coco", "enhance", "split_train_val", "plan_and_execute_augmentation",
              "augment", "save_dataset", "category_stats"):
        m[f"data.{f}_ms"] = (per_round([f"data.{f}"]), "ms")
    m["data.augment.calls"] = (spans.calls("data.augment") / rounds, "count")
    m["data.chain_accept_ratio"] = (_ratio(counts["data.plan_records"], counts["data.chains"]),
                                    "ratio")
    m["data.read_pnm.bytes"] = (counts["data.read_pnm.bytes"] / rounds, "B")
    m["data.write_pnm.bytes"] = (counts["data.write_pnm.bytes"] / rounds, "B")

    m["synth.generate_synthetic_ms"] = (
        setup_spans.total_ns(["synth.generate_synthetic"]) * ms / setups, "ms")

    m["cli.preprocess_ms"] = (per_round(["cli.preprocess"]), "ms")
    m["cli.eval_ms"] = (per_round(["cli.eval"]), "ms")
    m["cli.preprocess.self_ms"] = (spans.name_self_ns("cli.preprocess") * ms / rounds, "ms")
    m["cli.eval.self_ms"] = (spans.name_self_ns("cli.eval") * ms / rounds, "ms")

    for layer in LAYERS:
        if layer == "synth":
            value = setup_spans.layer_self_ns(layer) * ms / setups
        else:
            value = spans.layer_self_ns(layer) * ms / rounds
        m[f"{layer}.self_ms"] = (value, "ms")
    return m

