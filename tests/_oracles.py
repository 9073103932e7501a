"""Independent reference implementations used to check the real code.

Everything here is deliberately written as plain loops over scalars so it
shares no code paths with the package, except where a docstring says so.
"""

import math

import numpy as np

from railswin import swin as S
from railswin import tensor as T
from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage, Dataset
from railswin.metrics import (RECALL_GRID, Detection, MetricsReport, PerCategory,
                              average_precision)
from railswin.swin import relative_position_index


def oracle_iou(a, b):
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def oracle_match(dets, gts, thresh):
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    used = [False] * len(gts)
    labels = [False] * len(dets)
    for i in order:
        best_j, best_ov = -1, 0.0
        for j, (gbox, gcat) in enumerate(gts):
            if used[j] or gcat != dets[i].category_id:
                continue
            ov = oracle_iou(dets[i].box, gbox)
            if ov >= thresh and ov > best_ov:
                best_j, best_ov = j, ov
        if best_j >= 0:
            used[best_j] = True
            labels[i] = True
    return labels


def oracle_ap(scored, num_gt):
    """101-point interpolated AP from first principles."""
    if num_gt == 0:
        return 0.0 if scored else None
    ranked = sorted(range(len(scored)), key=lambda i: -scored[i][0])
    points = []
    tp = fp = 0
    for i in ranked:
        if scored[i][1]:
            tp += 1
        else:
            fp += 1
        points.append((tp / num_gt, tp / (tp + fp)))
    total = 0.0
    for k in range(101):
        r = k / 100.0
        precisions = [p for rec, p in points if rec >= r - 1e-12]
        total += max(precisions) if precisions else 0.0
    return total / 101.0


def oracle_evaluate(dets, dataset, thresholds, max_dets):
    kept = []
    for im in dataset.images:
        mine = sorted([d for d in dets if d.image_id == im.id],
                      key=lambda d: -d.score)[:max_dets]
        kept.extend(mine)
    cats = sorted({cat for im in dataset.images for _, cat in im.instances})
    ap = {}
    recall = {}
    for t in thresholds:
        for c in cats:
            scored = []
            num_gt = 0
            for im in sorted(dataset.images, key=lambda im: im.id):
                gts_c = [(b, cat) for b, cat in im.instances if cat == c]
                dets_c = [d for d in kept if d.image_id == im.id and d.category_id == c]
                labels = oracle_match(dets_c, gts_c, t)
                scored.extend((d.score, tp) for d, tp in zip(dets_c, labels))
                num_gt += len(gts_c)
            ap[(t, c)] = oracle_ap(scored, num_gt) or 0.0
            recall[(t, c)] = sum(1 for _, x in scored if x) / num_gt if num_gt else 0.0
    t_lo, t_hi = min(thresholds), max(thresholds)
    map_lo = sum(ap[(t_lo, c)] for c in cats) / len(cats) if cats else 0.0
    map_hi = sum(ap[(t_hi, c)] for c in cats) / len(cats) if cats else 0.0
    ar = [sum(recall[(t, c)] for t in thresholds) / len(thresholds) for c in cats]
    mar = sum(ar) / len(cats) if cats else 0.0
    return map_lo, map_hi, mar


def loop_evaluate(dets, dataset, thresholds=(0.5, 0.75), max_dets=100):
    """The original quadratic ``evaluate``: every (threshold, category, image)
    triple rescans the whole detection list.  Matching goes through
    ``oracle_match``; AP through the package's ``average_precision`` so that
    reports can be compared with ``==``.
    """
    by_image = {}
    for i, d in enumerate(dets):
        by_image.setdefault(d.image_id, []).append((i, d))
    kept = []
    for _, items in sorted(by_image.items()):
        items.sort(key=lambda t: (-t[1].score, t[0]))
        kept.extend(i for i, _ in items[:max_dets])
    dets = [dets[i] for i in sorted(kept)]
    gt_by_image = {im.id: im.instances for im in dataset.images}
    categories = sorted(c for c in dataset.categories
                        if any(cat == c for inst in gt_by_image.values() for _, cat in inst))

    ap = {t: {} for t in thresholds}
    recall = {t: {} for t in thresholds}
    for t in thresholds:
        for c in categories:
            scored = []
            num_gt = 0
            for image_id, gts in sorted(gt_by_image.items()):
                gts_c = [(b, cat) for b, cat in gts if cat == c]
                num_gt += len(gts_c)
                dets_c = [d for d in dets if d.image_id == image_id and d.category_id == c]
                labels = oracle_match(dets_c, gts_c, t)
                scored.extend((d.score, tp) for d, tp in zip(dets_c, labels))
            ap[t][c] = average_precision(scored, num_gt) or 0.0
            tp_total = sum(1 for _, is_tp in scored if is_tp)
            recall[t][c] = tp_total / num_gt if num_gt else 0.0

    t_lo, t_hi = min(thresholds), max(thresholds)
    per_category = []
    for c in categories:
        ar = float(np.mean([recall[t][c] for t in thresholds]))
        per_category.append(PerCategory(
            category_id=c, name=dataset.categories[c],
            ap50=ap[t_lo][c], ap75=ap[t_hi][c], ar100=ar))
    if categories:
        map_lo = float(np.mean([ap[t_lo][c] for c in categories]))
        map_hi = float(np.mean([ap[t_hi][c] for c in categories]))
        mar = float(np.mean([pc.ar100 for pc in per_category]))
    else:
        map_lo = map_hi = mar = 0.0
    return MetricsReport(map50=map_lo, map75=map_hi, mar100=mar,
                         per_category=per_category, thresholds=tuple(thresholds),
                         max_dets=max_dets)


def random_fixture(rng, max_gt=3, max_dets=5, categories=(1, 2)):
    images = []
    dets = []
    for image_id in (1, 2, 3):
        instances = []
        for _ in range(int(rng.integers(0, max_gt + 1))):
            instances.append((BBox(float(rng.integers(0, 50)), float(rng.integers(0, 50)),
                                   float(rng.integers(5, 30)), float(rng.integers(5, 30))),
                              int(rng.choice(categories))))
        images.append(AnnotatedImage(id=image_id, width=100, height=100,
                                     instances=instances))
        for _ in range(int(rng.integers(0, max_dets + 1))):
            dets.append(Detection(image_id=image_id,
                                  box=BBox(float(rng.integers(0, 50)), float(rng.integers(0, 50)),
                                           float(rng.integers(5, 30)), float(rng.integers(5, 30))),
                                  category_id=int(rng.choice(categories)),
                                  score=float(rng.random())))
    return dets, Dataset(images=images, categories={c: f"cat{c}" for c in categories})


def dense_fixture(rng, num_images, dets_per_image=20, categories=(1, 2, 3), tie_grid=None):
    """``num_images`` 100x100 images with 0-3 boxes each and exactly
    ``dets_per_image`` detections per image: jittered copies of four in five
    boxes (some match at both thresholds, some at 0.5 only, some at neither)
    topped up with random boxes.  ``tie_grid`` rounds scores to multiples of 1/tie_grid so
    that many of them tie.
    """
    images, dets = [], []
    for image_id in range(1, num_images + 1):
        instances = []
        for _ in range(int(rng.integers(0, 4))):
            w, h = float(rng.uniform(5, 40)), float(rng.uniform(5, 40))
            instances.append((BBox(float(rng.uniform(0, 100 - w)), float(rng.uniform(0, 100 - h)),
                                   w, h), int(rng.choice(categories))))
        images.append(AnnotatedImage(id=image_id, width=100, height=100, instances=instances))
        mine = []
        for box, cat in instances:
            if rng.random() < 0.2:
                continue
            for spread in (0.05, 0.15, 0.3):
                if len(mine) < dets_per_image:
                    dx, dy, sw, sh = rng.normal(0.0, spread, 4)
                    mine.append((BBox(box.x + dx * box.w, box.y + dy * box.h,
                                      box.w * float(np.exp(sw)), box.h * float(np.exp(sh))), cat))
        while len(mine) < dets_per_image:
            mine.append((BBox(float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
                              float(rng.uniform(4, 40)), float(rng.uniform(4, 40))),
                         int(rng.choice(categories))))
        for box, cat in mine:
            score = float(rng.random())
            if tie_grid:
                score = round(score * tie_grid) / tie_grid
            dets.append(Detection(image_id=image_id, box=box, category_id=cat, score=score))
    order = rng.permutation(len(dets))  # detections arrive in no particular image order
    return ([dets[i] for i in order],
            Dataset(images=images, categories={c: f"cat{c}" for c in categories}))


def oracle_stats(dataset, cid):
    """Naive per-instance loop for the mean pixel/relative sizes."""
    areas, ratios, ws, hs = [], [], [], []
    for im in dataset.images:
        for box, cat in im.instances:
            if cat == cid:
                areas.append(box.w * box.h)
                ratios.append(box.w * box.h / (im.width * im.height))
                ws.append(box.w)
                hs.append(box.h)
    n = len(areas)
    return (sum(areas) / n, sum(ratios) / n, sum(ws) / n, sum(hs) / n, n)


# ---------------------------------------------------------------------------
# The functions below are the package's earlier implementations, kept
# verbatim so the rewritten hot path can be held to them with ``==``.


def oracle_accum(t, g):
    """``tensor._accum`` before copy-free accumulation: zeros, then ``+=``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def oracle_adamw_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One AdamW step over a list of tensors as ``optim`` took it before the
    in-place rewrite: one temporary per operation."""
    b1, b2 = betas
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state


def oracle_average_precision(scored_labels, num_gt):
    """``metrics.average_precision`` before it ranked with ``argsort``: Python
    ``sorted`` and one list comprehension each for tp and fp."""
    if num_gt == 0:
        return None if not scored_labels else 0.0
    ranked = sorted(range(len(scored_labels)), key=lambda i: -scored_labels[i][0])
    tp = np.cumsum([1.0 if scored_labels[i][1] else 0.0 for i in ranked])
    fp = np.cumsum([0.0 if scored_labels[i][1] else 1.0 for i in ranked])
    if len(ranked) == 0:
        return 0.0
    recall = tp / num_gt
    precision = tp / (tp + fp)
    best = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    interp = np.where(idx < len(best), best[np.minimum(idx, len(best) - 1)], 0.0)
    return float(np.mean(interp))


def oracle_gelu(xd):
    """GELU and its derivative in the earlier ``xd**3`` / ``xd**2`` / ``t**2`` form."""
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh(c * (xd + a * xd**3))
    y = 0.5 * xd * (1.0 + t)
    dy = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * (c * (1.0 + 3.0 * a * xd**2))
    return y, dy


# Tape ops as ``tensor`` wrote them before they reused the buffers they
# allocate: one fresh array per numpy call.  They record on the package's
# tape through ``T._make`` and ``T._accum``.


def oracle_linear(x, w, bias=None, batch_axes=None):
    """``tensor.linear`` with the bias added out of place."""
    xd = x.data
    if batch_axes is not None:
        xd = xd.reshape(x.shape[:batch_axes] + (math.prod(x.shape[batch_axes:-1]), x.shape[-1]))
    data = (xd @ w.data.T).reshape(x.shape[:-1] + (w.shape[0],))
    if bias is not None:
        data = data + bias.data

    def backward(out):
        g = out.grad
        g2 = g.reshape(-1, w.data.shape[0])
        if x.requires_grad:
            gx = g.reshape(xd.shape[:-1] + (w.shape[0],)) @ w.data
            T._accum(x, gx.reshape(x.data.shape))
        if w.requires_grad:
            T._accum(w, g2.T @ xd.reshape(-1, w.data.shape[1]))
        if bias is not None and bias.requires_grad:
            T._accum(bias, g2.sum(axis=0))

    return T._make(data, (x, w) if bias is None else (x, w, bias), backward)


def oracle_layer_norm(x, gamma, beta, eps=1e-5):
    D = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = gamma.data * xhat + beta.data

    def backward(out):
        g = out.grad
        gxhat = g * gamma.data
        if x.requires_grad:
            gx = (inv / D) * (
                D * gxhat
                - gxhat.sum(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True)
            )
            T._accum(x, gx)
        T._accum(gamma, (g * xhat).reshape(-1, D).sum(axis=0))
        T._accum(beta, g.reshape(-1, D).sum(axis=0))

    return T._make(y, (x, gamma, beta), backward)


def oracle_gelu_op(x):
    """``tensor.gelu`` in the products form, before it reused its buffers."""
    xd = x.data
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    inner = c * (xd + a * (xd * xd * xd))
    t = np.tanh(inner)
    y = 0.5 * xd * (1.0 + t)

    def backward(out):
        dinner = c * (1.0 + 3.0 * a * (xd * xd))
        dy = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        T._accum(x, out.grad * dy)

    return T._make(y, (x,), backward)


def oracle_softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(out):
        g = out.grad
        T._accum(x, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return T._make(y, (x,), backward)


# Shifted-window attention composed from single tape ops, as ``swin`` built it
# before the windowing, attention core and un-windowing became one node each.


def oracle_window_partition(tokens, window):
    """[..., H, W, D] -> [..., num_windows, window^2, D] as reshape/transpose/reshape."""
    H, W, D = tokens.shape[-3:]
    lead = tokens.shape[:-3]
    n = len(lead)
    x = T.reshape(tokens, lead + (H // window, window, W // window, window, D))
    x = T.transpose(x, tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
    return T.reshape(x, lead + ((H // window) * (W // window), window * window, D))


def oracle_window_reverse(windows, H, W):
    nW, Tsz, D = windows.shape[-3:]
    window = math.isqrt(Tsz)
    lead = windows.shape[:-3]
    n = len(lead)
    x = T.reshape(windows, lead + (H // window, W // window, window, window, D))
    x = T.transpose(x, tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4))
    return T.reshape(x, lead + (H, W, D))


def oracle_window_msa(x, params, mask=None):
    """Window attention as qkv slices, scale, matmuls, bias gather, adds and softmax."""
    heads = params.num_heads
    D = x.shape[-1]
    Tsz = x.shape[-2]
    hd = D // heads
    lead = x.shape[:-2]
    n = len(lead)

    qkv = T.linear(x, params.qkv_w, params.qkv_b)
    parts = []
    for i in range(3):
        part = T.slice_axis(qkv, -1, i * D, (i + 1) * D)
        part = T.reshape(part, lead + (Tsz, heads, hd))
        part = T.transpose(part, tuple(range(n)) + (n + 1, n, n + 2))
        parts.append(part)
    q, k, v = parts

    q = q * (1.0 / math.sqrt(hd))
    scores = T.matmul(q, T.transpose(k, tuple(range(n)) + (n, n + 2, n + 1)))
    if params.bias_table is not None:
        bias = T.take(params.bias_table, relative_position_index(params.window))
        scores = scores + T.transpose(bias, (2, 0, 1))
    if mask is not None:
        scores = scores + T.Tensor(mask.reshape((mask.shape[0], 1, Tsz, Tsz)))

    attn = T.softmax(scores, axis=-1)
    out = T.matmul(attn, v)
    out = T.transpose(out, tuple(range(n)) + (n + 1, n, n + 2))
    out = T.reshape(out, lead + (Tsz, D))
    return T.linear(out, params.proj_w, params.proj_b)


def oracle_swin_block_forward(x, params, shift):
    """One block on a grid with the pad -> roll -> partition and reverse -> roll -> crop chain."""
    H, W = x.shape[-3:-1]
    window = params.window
    n = x.ndim - 3

    shortcut = x
    grid = S._gate(T.layer_norm(x, params.norm1_g, params.norm1_b), params.cbam)

    pad_h = (-H) % window
    pad_w = (-W) % window
    if pad_h or pad_w:
        grid = T.zero_pad(grid, [(0, 0)] * n + [(0, pad_h), (0, pad_w), (0, 0)])
    Hp, Wp = H + pad_h, W + pad_w
    mask = None
    if shift:
        grid = T.roll(grid, (-shift, -shift), axes=(n, n + 1))
        mask = S.build_shift_mask(Hp, Wp, window, shift)

    windows = oracle_window_partition(grid, window)
    attended = oracle_window_msa(windows, params, mask=mask)
    grid = oracle_window_reverse(attended, Hp, Wp)

    if shift:
        grid = T.roll(grid, (shift, shift), axes=(n, n + 1))
    if pad_h or pad_w:
        grid = T.slice_axis(grid, n, 0, H)
        grid = T.slice_axis(grid, n + 1, 0, W)

    x = grid + shortcut
    y = T.layer_norm(x, params.norm2_g, params.norm2_b)
    y = T.linear(y, params.mlp_w1, params.mlp_b1)
    y = T.gelu(y)
    y = T.linear(y, params.mlp_w2, params.mlp_b2)
    return x + y


def oracle_bilinear_sample(pixels, inv):
    """The resampler as first written: 2-D fancy-index gathers and a ``where``.

    ``railswin.data.augment._bilinear_sample`` must return the same bytes.
    """
    H, W = pixels.shape[:2]
    ys, xs = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    px, py = xs + 0.5, ys + 0.5
    sx = inv[0, 0] * px + inv[0, 1] * py + inv[0, 2]
    sy = inv[1, 0] * px + inv[1, 1] * py + inv[1, 2]
    fx, fy = sx - 0.5, sy - 0.5
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    wx, wy = fx - x0, fy - y0

    img = pixels.astype(np.float64)
    color = img.ndim == 3
    out = np.zeros_like(img)
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        weight = (wx if dx else 1.0 - wx) * (wy if dy else 1.0 - wy)
        xi, yi = x0 + dx, y0 + dy
        valid = (xi >= 0) & (xi < W) & (yi >= 0) & (yi < H)
        v = img[np.clip(yi, 0, H - 1), np.clip(xi, 0, W - 1)]
        if color:
            weight, valid = weight[..., None], valid[..., None]
        out += weight * np.where(valid, v, 0.0)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def oracle_contrast_stretch(pixels, p_low=2.0, p_high=98.0):
    """The percentile stretch as first written: ``np.percentile``, then a float map per pixel.

    ``railswin.data.enhance.contrast_stretch`` must return the same bytes.
    """
    lo, hi = np.percentile(pixels, [p_low, p_high])
    if hi <= lo:
        return pixels.copy()
    out = (pixels.astype(np.float64) - lo) * (255.0 / (hi - lo))
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)
