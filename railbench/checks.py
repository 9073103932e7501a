"""Output checks.  Each raises CheckFailed with the reason on a wrong output.

The checks take plain values (numbers, tuples, parsed JSON) so that the
benchmark's tests can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import math

from oracle import stretch


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check_directional_derivative(analytic, numerics, rtol=1e-4, atol=1e-9):
    """``analytic`` is sum(grad * d) from backward; ``numerics`` central differences.

    The differences are taken at decreasing steps, since one step can
    straddle a ReLU or max kink; one of them must agree.
    """
    require(math.isfinite(analytic), f"non-finite directional derivative {analytic}")
    for numeric in numerics:
        if abs(analytic - numeric) <= atol + rtol * max(abs(analytic), abs(numeric)):
            return
    raise CheckFailed(f"directional derivative {analytic!r} from backward differs from "
                      f"central differences {numerics!r}")


def check_first_loss(loss, num_classes):
    """A zero-initialised head gives flat logits, so the first loss is ln K."""
    require(abs(loss - math.log(num_classes)) <= 1e-12,
            f"first loss {loss!r} != ln {num_classes} = {math.log(num_classes)!r}")


def check_loss_decrease(losses, window=50):
    require(len(losses) >= 2 * window, f"{len(losses)} losses, need {2 * window}")
    require(all(math.isfinite(v) for v in losses), "non-finite loss")
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    require(last < 0.5 * first,
            f"mean of last {window} losses {last:.4f} is not below half the first {first:.4f}")


def expected_stage_shapes(batch, embed_dim, patch, input_hw):
    """Stem divides by the patch size; each later stage halves H, W and doubles D."""
    h, w = input_hw[0] // patch, input_hw[1] // patch
    shapes = []
    for s in range(4):
        if s:
            h, w = h // 2, w // 2
        shapes.append((batch, embed_dim * 2**s, h, w))
    return shapes


def check_stage_shapes(shapes, batch, embed_dim, patch, input_hw):
    want = expected_stage_shapes(batch, embed_dim, patch, input_hw)
    require([tuple(s) for s in shapes] == want, f"stage shapes {shapes} != {want}")


def check_detections(dets, sizes, max_dets):
    """dets: [(image_id, category_id, (x, y, w, h), score)]; sizes: id -> (W, H)."""
    per_image = {}
    for image_id, _, (x, y, w, h), score in dets:
        require(image_id in sizes, f"detection on unknown image {image_id}")
        W, H = sizes[image_id]
        require(w > 0 and h > 0, f"empty box {(x, y, w, h)} on image {image_id}")
        require(x >= 0 and y >= 0 and x + w <= W + 1e-9 and y + h <= H + 1e-9,
                f"box {(x, y, w, h)} leaves the {W}x{H} image {image_id}")
        require(0.0 <= score <= 1.0, f"score {score} outside [0, 1]")
        per_image[image_id] = per_image.get(image_id, 0) + 1
    for image_id, n in per_image.items():
        require(n <= max_dets, f"image {image_id} has {n} detections > {max_dets}")


def check_map(got, want, tol=1e-9):
    """got/want: (mAP.50, mAP.75, AR@100)."""
    for name, g, w in zip(("mAP.50", "mAP.75", "AR@100"), got, want):
        require(abs(g - w) <= tol, f"{name} {g!r} != oracle {w!r}")


# -- preprocess outputs -------------------------------------------------------


def coco_index(doc):
    """(images id -> (W, H, file_name), ground truth id -> [(box, category)])."""
    images = {}
    gt = {}
    for im in doc["images"]:
        require(im["id"] not in images, f"duplicate image id {im['id']}")
        images[im["id"]] = (im["width"], im["height"], im["file_name"])
        gt[im["id"]] = []
    for ann in doc["annotations"]:
        require(ann["image_id"] in gt, f"annotation on missing image {ann['image_id']}")
        gt[ann["image_id"]].append((tuple(ann["bbox"]), ann["category_id"]))
    return images, gt


def check_targets(doc, targets):
    """targets: category name -> minimum number of images holding it."""
    names = {c["id"]: c["name"] for c in doc["categories"]}
    _, gt = coco_index(doc)
    for name, want in targets.items():
        have = sum(1 for inst in gt.values() if any(names[c] == name for _, c in inst))
        require(have >= want, f"category {name!r}: {have} images < target {want}")


def check_partition(source_files, splits, plans):
    """Every source image lands in exactly one split, unchanged in id and name,
    and each synthesized image comes from a source image of its own split.

    source_files: file name -> source image id; splits: name -> COCO doc;
    plans: name -> plan records ``[{new_image_id, source_image_id}]``.
    Source images are recognised by file name: synthesized images get new
    ids, which may coincide with ids in the other split.
    """
    seen = set()
    for name, doc in splits.items():
        ids = [im["id"] for im in doc["images"]]
        require(len(ids) == len(set(ids)), f"{name}: duplicate image ids")
        originals = set()
        synthesized = set()
        for im in doc["images"]:
            if im["file_name"] in source_files:
                require(source_files[im["file_name"]] == im["id"],
                        f"{name}: source image {im['file_name']} changed id")
                originals.add(im["id"])
            else:
                synthesized.add(im["id"])
        require(not originals & seen, f"{name}: source images also in another split")
        seen |= originals
        records = {r["new_image_id"]: r["source_image_id"] for r in plans[name]}
        require(synthesized == set(records),
                f"{name}: {len(synthesized)} synthesized images but {len(records)} plan records")
        leaked = [s for s in records.values() if s not in originals]
        require(not leaked, f"{name}: synthesized from images of another split: {leaked[:5]}")
    missing = set(source_files.values()) - seen
    require(not missing, f"{len(missing)} source images missing from the splits")


def check_boxes(doc, min_area=4.0):
    images, gt = coco_index(doc)
    for image_id, inst in gt.items():
        W, H, _ = images[image_id]
        for (x, y, w, h), _ in inst:
            require(x >= 0 and y >= 0 and x + w <= W and y + h <= H,
                    f"box {(x, y, w, h)} leaves the {W}x{H} image {image_id}")
            require(w * h >= min_area, f"box {(x, y, w, h)} on image {image_id} below {min_area} px^2")


def check_stretch(source, output, image_id):
    """source/output: flat pixel bytes of one image before and after preprocess."""
    require(len(source) == len(output), f"image {image_id}: size changed")
    require(list(output) == stretch(source),
            f"image {image_id}: pixels differ from a 2-98 percentile stretch of the source")
