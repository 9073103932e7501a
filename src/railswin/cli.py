"""Command-line surface.

Commands: stats, preprocess, train, eval, gradcheck, ablate, bench.
Artifacts land under --out: metrics.json, metrics.csv, loss_curve.csv,
timing.csv, size_ordered.csv (as applicable per command).
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .cbam import ChannelAttentionParams, channel_attention_map
from .config import from_dict
from .data.coco import load_coco, save_dataset
from .data.enhance import METHODS, enhance
from .data.planner import plan_and_execute_augmentation, split_train_val
from .data.stats import category_stats, stats_to_csv
from .errors import InvalidParam, ParseError, RailswinError
from .files import read_json, write_json, write_text
from .metrics import evaluate, load_detections, report_to_csv, report_to_dict, size_ordered_report
from .tensor import Tensor, grad_check
from .train import (
    WARMUP_ITERS,
    bench,
    check_categories,
    load_checkpoint,
    load_train_config,
    predict_detections,
    run_ablation,
    train,
)


def _ensure_out(args):
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_stats(args):
    data = load_coco(args.annotations, load_pixels=False)
    text = stats_to_csv(category_stats(data))
    print(text, end="")
    if args.out:
        write_text(os.path.join(_ensure_out(args), "stats.csv"), text)
    return 0


def _seed(text):
    """A seed flag's value: a non-negative integer, else a usage error."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _seeds(text):
    """A comma-separated list of seeds."""
    return [_seed(s) for s in text.split(",") if s]


@dataclass
class AugmentTargets:
    """An augment-plan file: the train fraction and per-split category counts."""

    fraction: float = 0.8
    train: dict[str, int] = field(default_factory=dict)
    val: dict[str, int] = field(default_factory=dict)


def _load_targets(path, categories):
    """(fraction, train targets, val targets) from an augment-plan JSON file.

    An unreadable file or a malformed document is a ParseError; an unknown
    category name or a negative count is an InvalidParam.
    """
    targets = from_dict(AugmentTargets, read_json(path, "augment targets"), "augment targets")
    by_name = {name: cid for cid, name in categories.items()}

    def resolve(side):
        out = {}
        for key, count in side.items():
            if count < 0:
                raise InvalidParam(f"augment target {key!r} count must be >= 0, got {count}")
            if key in by_name:
                out[by_name[key]] = count
            elif key.isdigit() and int(key) in categories:
                out[int(key)] = count
            else:
                raise InvalidParam(f"unknown category {key!r} in targets")
        return out

    return targets.fraction, resolve(targets.train), resolve(targets.val)


def cmd_preprocess(args):
    data = load_coco(args.annotations)
    if args.enhance:
        for im in data.images:
            if im.pixels is not None:
                enhanced = enhance(im.pixels, args.enhance)
                im.pixels = enhanced
    fraction, train_targets, val_targets = _load_targets(args.augment_plan, data.categories)
    train_ds, val_ds = split_train_val(data, fraction, args.seed)
    # plan both splits before writing anything, so a planning error leaves --out as it was
    splits = {}
    # synthesized ids follow every source id and never repeat across splits
    next_id = max((im.id for im in data.images), default=0) + 1
    for name, ds, targets in (("train", train_ds, train_targets), ("val", val_ds, val_targets)):
        plan, augmented = plan_and_execute_augmentation(ds, targets, args.seed, split=name,
                                                        first_id=next_id)
        next_id += len(plan.records)
        splits[name] = plan, augmented
    out = _ensure_out(args)
    # images are rewritten in place, and a split counts as written once its
    # annotations.json is, the run once plan.json is: drop them all first
    plan_path = os.path.join(out, "plan.json")
    for path in [plan_path] + [os.path.join(out, name, "annotations.json") for name in splits]:
        Path(path).unlink(missing_ok=True)
    for name, (plan, augmented) in splits.items():
        save_dataset(augmented, os.path.join(out, name))
        print(f"{name}: {len(augmented.images)} images "
              f"({len(plan.records)} synthesized)")
    write_json(plan_path, {name: plan.to_dict() for name, (plan, _) in splits.items()})
    return 0


def cmd_train(args):
    cfg = load_train_config(args.config)
    out = _ensure_out(args)
    result = train(cfg, out_dir=out, resume=args.resume)
    if result.losses:
        timing = result.timing
        if timing.retained():
            iter_time = f"iter time {timing.mean():.4f}s ± {timing.std():.4f}s"
        else:
            iter_time = f"no iteration timed: all fall within the {WARMUP_ITERS}-iteration warmup"
        print(f"trained {len(result.losses)} iterations; "
              f"final loss {result.losses[-1]:.4f}; {iter_time}")
    else:
        print("nothing to train: checkpoint already covers the configured iterations")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_eval(args):
    if args.dets and args.checkpoint:
        raise InvalidParam("eval takes --dets or --checkpoint, not both")
    if not (args.dets or args.checkpoint):
        raise InvalidParam("eval needs --dets or --checkpoint")
    # --dets scores boxes alone; --checkpoint runs the model on the pixels
    data = load_coco(args.dataset, load_pixels=not args.dets)
    if args.dets:
        dets = load_detections(args.dets)
    else:
        _, backbone, head, _, meta = load_checkpoint(args.checkpoint)
        check_categories(meta, data)
        dets = predict_detections(backbone, head, data)
    report = evaluate(dets, data)
    out = _ensure_out(args)
    write_json(os.path.join(out, "metrics.json"), report_to_dict(report))
    write_text(os.path.join(out, "metrics.csv"), report_to_csv(report))
    try:
        _, text = size_ordered_report(report, category_stats(data))
        write_text(os.path.join(out, "size_ordered.csv"), text)
    except RailswinError as e:
        print(f"size-ordered report skipped: {e}", file=sys.stderr)
    print(f"mAP.50 {report.map50:.4f}  mAP.75 {report.map75:.4f}  AR@100 {report.mar100:.4f}")
    return 0


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    checks = []

    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(2, 4)))
    m2 = Tensor(rng.normal(size=(4, 2)))
    checks.append(("matmul", grad_check(lambda t: T.tsum(T.matmul(t, m2)), x)))
    checks.append(("linear", grad_check(lambda t: T.tsum(T.linear(t, w)), x)))
    checks.append(("sigmoid", grad_check(lambda t: T.tsum(T.sigmoid(t)), x)))
    checks.append(("gelu", grad_check(lambda t: T.tsum(T.gelu(t)), x)))
    probe = Tensor(rng.normal(size=(3, 4)))
    checks.append(("softmax", grad_check(lambda t: T.tsum(T.softmax(t, -1) * probe), x)))
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    checks.append(("layer_norm", grad_check(lambda t: T.tsum(T.layer_norm(t, g, b) * probe), x)))
    img = Tensor(rng.normal(size=(2, 5, 5)))
    kern = Tensor(rng.normal(size=(3, 2, 3, 3)))
    checks.append(("conv2d", grad_check(lambda t: T.tsum(T.conv2d(t, kern, 1, 1)), img)))
    feat = Tensor(rng.normal(size=(4, 3, 3)))
    cam = ChannelAttentionParams.init(4, 2, rng)
    checks.append(("channel_attention",
                   grad_check(lambda t: T.tsum(channel_attention_map(t, cam)), feat)))

    worst = 0.0
    for name, err in checks:
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{name:>20}: rel err {err:.3e}  [{status}]")
        worst = max(worst, err)
    return 0 if worst < 1e-4 else 2


def cmd_ablate(args):
    text = run_ablation(load_train_config(args.config), seeds=args.seeds).to_csv()
    write_text(os.path.join(_ensure_out(args), "ablation.csv"), text)
    print(text, end="")
    return 0


def cmd_bench(args):
    timing = bench(load_train_config(args.config), args.iters)
    write_text(os.path.join(_ensure_out(args), "timing.csv"), timing.to_csv())
    print(f"{timing.mean():.4f}s ± {timing.std():.4f}s per iteration "
          f"({len(timing.retained())} measured after {WARMUP_ITERS} warmup)")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InvalidParam, like any other validation error."""

    def error(self, message):
        raise InvalidParam(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="railswin", description="Rail-surface defect detection toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stats", help="per-category size statistics of a COCO-style file")
    s.add_argument("annotations")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("preprocess", help="enhance, split, and balance a dataset")
    s.add_argument("annotations")
    s.add_argument("--enhance", choices=list(METHODS))
    s.add_argument("--augment-plan", required=True,
                   help="JSON: {fraction, train: {category: count}, val: {...}}")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_preprocess)

    s = sub.add_parser("train", help="train from a config JSON")
    s.add_argument("--config", required=True)
    s.add_argument("--resume")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("eval", help="score detections against ground truth")
    s.add_argument("--checkpoint")
    s.add_argument("--dets")
    s.add_argument("--dataset", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("gradcheck", help="finite-difference check of the core ops")
    s.add_argument("--seed", type=_seed, default=0)
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("ablate", help="train/evaluate all four placement variants")
    s.add_argument("--config", required=True)
    s.add_argument("--seeds", type=_seeds, default=[0])
    s.add_argument("--out")
    s.set_defaults(fn=cmd_ablate)

    s = sub.add_parser("bench", help="time training iterations")
    s.add_argument("--config", required=True)
    s.add_argument("--iters", type=int, default=30)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_bench)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (InvalidParam, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RailswinError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
