"""Training harness: head, loop mechanics, checkpoints, timing, ablation."""

import gc
import hashlib
import json
import os
import queue
import re
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import oracle_adamw_step
from railswin import tensor as T
from railswin.config import from_dict, to_dict
from railswin.data.boxes import BBox
from railswin.data.coco import AnnotatedImage, Dataset, save_dataset
from railswin.data.stats import category_stats
from railswin.cli import main
from railswin.errors import InvalidParam, NonFiniteLoss, ParseError, ShapeMismatch
from railswin.metrics import evaluate
from railswin.optim import CHUNK, AdamState
from railswin.swin import CbamPlacement, SwinBackbone, nano_config, tiny_config
from railswin.synth import SyntheticSpec, generate_synthetic
from railswin.tensor import Tensor, no_grad
from railswin.train import (
    IterTimingLog,
    TrainConfig,
    _class_label,
    _image_tensor,
    _localization_targets,
    bench,
    decode_detections,
    head_forward,
    PREDICT_CHUNK,
    init_head_params,
    load_checkpoint,
    load_train_config,
    localization_loss,
    predict_detections,
    run_ablation,
    train,
)


def quick_cfg(task="classification", seed=0, iters=6, n=24, placement=CbamPlacement.NONE):
    return TrainConfig(swin=nano_config(placement=placement, seed=seed), seed=seed,
                       max_iterations=iters, epochs=50, batch_size=8, task=task,
                       synthetic=SyntheticSpec(num_images=n, seed=seed))


class TestHead:
    def test_zero_weights_uniform_softmax(self):
        cfg = nano_config()
        model = SwinBackbone(cfg, in_channels=1)
        head = init_head_params(cfg, 4, "classification")
        with no_grad():
            feats = model.forward(Tensor(np.random.default_rng(0).normal(size=(1, 32, 32))))
            logits = head_forward(feats, head)
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_single_cell_hand_matmul(self):
        cfg = nano_config()
        head = init_head_params(cfg, 3, "classification")
        rng = np.random.default_rng(1)
        head.w = Tensor(rng.normal(size=(3, 128)), requires_grad=True)
        head.b = Tensor(rng.normal(size=3), requires_grad=True)
        cell = rng.normal(size=(128, 1, 1))
        feats = [None, None, None, Tensor(cell)]
        logits = head_forward(feats, head)
        assert np.allclose(logits.data, head.w.data @ cell[:, 0, 0] + head.b.data, atol=1e-12)

    def test_decoded_boxes_clamped(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(4, 9)) * 5  # wild offsets
        dets = decode_detections(raw, (2, 2), 16, image_id=1, image_size=(32, 32),
                                 cat_ids=[1, 2, 3, 4], score_thresh=0.0)
        for d in dets:
            assert d.box.x >= 0 and d.box.y >= 0
            assert d.box.x2 <= 32 and d.box.y2 <= 32

    def test_localization_loss_runs_and_differentiates(self):
        img = AnnotatedImage(id=1, width=32, height=32,
                             instances=[(BBox(4, 4, 8, 8), 1), (BBox(20, 18, 6, 6), 2)])
        raw = Tensor(np.random.default_rng(3).normal(size=(1, 4, 9)), requires_grad=True)
        loss = localization_loss(raw, [img], (2, 2), 16, {1: 0, 2: 1, 3: 2, 4: 3})
        T.backward(loss)
        assert raw.grad is not None and np.isfinite(loss.item())

    @pytest.mark.parametrize("box,cell", [(BBox(-12, 20, 8, 8), 2),    # centre x = -8
                                          (BBox(4, -14, 8, 8), 0),     # centre y = -10
                                          (BBox(-30, -30, 4, 4), 0),
                                          (BBox(40, 36, 8, 8), 3)],
                             ids=["left", "above", "above-left", "below-right"])
    def test_box_centred_outside_trains_the_nearest_cell_of_its_image(self, box, cell):
        """``parse_coco`` accepts negative coordinates; such a centre clamps to
        the grid on both sides, in the second image of the batch."""
        other = AnnotatedImage(id=1, width=32, height=32, instances=[(BBox(4, 4, 8, 8), 1)])
        img = AnnotatedImage(id=2, width=32, height=32, instances=[(box, 2)])
        raw = Tensor(np.random.default_rng(3).normal(size=(2, 4, 9)), requires_grad=True)
        loss = localization_loss(raw, [other, img], (2, 2), 16, {1: 0, 2: 1})
        T.backward(loss)
        # offsets and classes train at the positive cells alone: cell 0 of the
        # first image and the clamped cell of the second
        trained = np.flatnonzero(np.abs(raw.grad[..., 1:]).sum(axis=-1).reshape(-1))
        assert trained.tolist() == [0, 4 + cell]
        objectness = (raw.grad[..., 0] < 0).reshape(-1)  # a positive pulls its logit up
        assert np.flatnonzero(objectness).tolist() == [0, 4 + cell]

    def test_decode_gives_back_the_boxes_the_targets_encode(self):
        """Raw outputs built from the training targets decode to every
        in-image box, one box per cell, on a 2x3 grid of 16-px cells."""
        rng = np.random.default_rng(5)
        (gh, gw), stride, H, W = (2, 3), 16, 32, 48
        images = []
        for k in range(600):
            instances = []
            for cell in rng.permutation(gh * gw)[:rng.integers(1, gh * gw + 1)]:
                i, j = divmod(int(cell), gw)
                cx = (j + rng.uniform(0.05, 0.95)) * stride
                cy = (i + rng.uniform(0.05, 0.95)) * stride
                w = 2 * rng.uniform(0.01, 1.0) * min(cx, W - cx)
                h = 2 * rng.uniform(0.01, 1.0) * min(cy, H - cy)
                instances.append((BBox(cx - w / 2, cy - h / 2, w, h), int(rng.integers(1, 4))))
            images.append(AnnotatedImage(id=k, width=W, height=H, instances=instances))
        cat_index = {1: 0, 2: 1, 3: 2}
        obj, pos_idx, pos_cls, pos_off = _localization_targets(images, (gh, gw), stride,
                                                               cat_index)
        raw = np.zeros((len(images) * gh * gw, 5 + len(cat_index)))
        raw[:, 0] = np.where(obj.reshape(-1) > 0, 50.0, -50.0)
        raw[pos_idx, 1:5] = pos_off
        raw[pos_idx, 5 + pos_cls] = 20.0
        raw = raw.reshape(len(images), gh * gw, -1)

        def cell_of(b):
            return int((b.y + b.h / 2) // stride), int((b.x + b.w / 2) // stride)

        worst, boxes = 0.0, 0
        for im, r in zip(images, raw):
            dets = decode_detections(r, (gh, gw), stride, im.id, (H, W), [1, 2, 3])
            assert len(dets) == len(im.instances)
            want = sorted(im.instances, key=lambda bc: cell_of(bc[0]))
            got = sorted(dets, key=lambda d: cell_of(d.box))
            for (box, cat), d in zip(want, got):
                assert d.category_id == cat
                worst = max(worst, np.abs(np.array([d.box.x - box.x, d.box.y - box.y,
                                                    d.box.w - box.w, d.box.h - box.h])).max())
                boxes += 1
        assert boxes > 1500 and worst <= 1e-9


class TestConfig:
    def test_roundtrip(self):
        cfg = quick_cfg(task="localization", seed=3)
        doc = json.loads(json.dumps(to_dict(cfg)))
        back = from_dict(TrainConfig, doc)
        assert to_dict(back) == to_dict(cfg)

    def test_unknown_key_rejected(self):
        doc = to_dict(quick_cfg())
        doc["momentum"] = 0.9
        with pytest.raises(ParseError):
            from_dict(TrainConfig, doc)

    def test_str_keyed_dict(self):
        assert from_dict(dict[str, int], {"a": 1, "b": 2}) == {"a": 1, "b": 2}
        with pytest.raises(ParseError, match=r"^config\.b: expected int, got \"2\"$"):
            from_dict(dict[str, int], {"a": 1, "b": "2"})
        with pytest.raises(ParseError, match="expected object"):
            from_dict(dict[str, int], [1])

    def test_validation(self):
        swin = nano_config()
        with pytest.raises(InvalidParam):
            TrainConfig(swin=swin, lr=0.0)
        with pytest.raises(InvalidParam):
            TrainConfig(swin=swin, betas=(0.9, 1.0))
        with pytest.raises(InvalidParam):
            TrainConfig(swin=swin, epochs=0)
        with pytest.raises(InvalidParam):
            TrainConfig(swin=swin, task="segmentation")
        with pytest.raises(InvalidParam):
            TrainConfig(swin=swin, max_iterations=0)

    @pytest.mark.parametrize("key,value,path", [
        ("lr", float("nan"), "config.lr"),
        ("weight_decay", float("inf"), "config.weight_decay"),
        ("betas", [0.9, float("-inf")], "config.betas[1]"),
    ], ids=["lr-nan", "weight_decay-inf", "betas-inf"])
    def test_non_finite_number_rejected(self, key, value, path):
        doc = json.loads(json.dumps(to_dict(quick_cfg())))
        doc[key] = value
        with pytest.raises(ParseError, match=re.escape(path)):
            from_dict(TrainConfig, json.loads(json.dumps(doc)))

    def test_load_from_file(self, tmp_path):
        cfg = quick_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(to_dict(cfg)))
        assert to_dict(load_train_config(path)) == to_dict(cfg)

    def test_omitted_keys_take_dataclass_defaults(self):
        cfg = from_dict(TrainConfig, {"swin": to_dict(nano_config())})
        assert cfg == TrainConfig(swin=nano_config())
        assert (cfg.epochs, cfg.batch_size) == (16, 16)

    def test_readme_example_roundtrips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        doc = json.loads(next(b for b in blocks if '"swin"' in b))
        assert to_dict(from_dict(TrainConfig, doc)) == doc


# (count, sha256 of the newline-joined names) of backbone + head named_parameters().
# Checkpoints store parameters under these names in this order, so a change here
# breaks loading every checkpoint already written.
PARAMETER_NAMES = {
    ("nano", "none"): (117, "bbf0ee37bd83b720073eecf6a26c300792fcc803b764666ee85b780707b43f4d"),
    ("nano", "model"): (120, "847ccb97fb7cad7bf731af22376b4b6281a2a223891f1298f273893cee270319"),
    ("nano", "stage"): (129, "16802c410bd213e3747ebb5a44948c28fff1cc952046664f965416dcebf05520"),
    ("nano", "block"): (129, "9431bea1467c0c89ad534512aa9cc116635940a13cc6343c0e56a1ded7db3d6d"),
    ("tiny", "none"): (169, "a5fb64214a8d53579951e803b3b0ec863b9d14c10cf8d177a8009eb740849ec4"),
    ("tiny", "model"): (172, "af846968152444ebf1b5161b3fe78e8f58bfc19a180dbbfebd2741e4ef923731"),
    ("tiny", "stage"): (181, "6082ec48785c55ca7ef946e065b27dd66fcd5c9211142c2fc603dfd13130b410"),
    ("tiny", "block"): (187, "8bd444e860585beb508fab90f33d178a789809e85c69de22be491f0ed03d4c90"),
}


@pytest.mark.parametrize("size,placement", list(PARAMETER_NAMES))
def test_parameter_names_and_order_pinned(size, placement):
    cfg = {"nano": nano_config, "tiny": tiny_config}[size](CbamPlacement(placement))
    named = (SwinBackbone(cfg, in_channels=1).named_parameters()
             + init_head_params(cfg, 4, "localization").named_parameters())
    names = [name for name, _ in named]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert (len(names), digest) == PARAMETER_NAMES[size, placement]


class TestLoop:
    def test_deterministic_loss_curve(self):
        r1 = train(quick_cfg())
        r2 = train(quick_cfg())
        assert r1.losses == r2.losses

    def test_seed_changes_curve(self):
        r1 = train(quick_cfg(seed=0))
        r2 = train(quick_cfg(seed=1))
        assert r1.losses != r2.losses

    def test_nan_parameter_aborts(self):
        cfg = quick_cfg()
        model = SwinBackbone(cfg.swin, in_channels=1)
        model.params.embed_w.data[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            _train_with_model(cfg, model)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        cfg = quick_cfg()
        res = train(cfg, out_dir=tmp_path)
        x = _image_tensor([res.data.images[0]])
        with no_grad():
            before = head_forward(res.backbone.forward(x), res.head).data.copy()
        _, backbone, head, _, meta = load_checkpoint(res.checkpoint_path)
        with no_grad():
            after = head_forward(backbone.forward(x), head).data
        assert np.array_equal(before, after)
        assert meta["iteration"] == 6
        assert meta["category_ids"] == sorted(res.data.categories)

    def test_resume_reproduces_straight_run(self, tmp_path):
        _assert_resume_reproduces_straight_run(tmp_path)

    def test_localization_task_trains(self):
        res = train(quick_cfg(task="localization"))
        assert len(res.losses) == 6
        assert all(np.isfinite(v) for v in res.losses)

    def test_localization_grid_comes_from_the_map(self, tmp_path):
        """64x64 images under a 32x32 input_size: the stage-3 map sets the 4x4 cell grid."""
        data = generate_synthetic(SyntheticSpec(num_images=8, image_size=(64, 64), seed=4))
        cfg = replace(quick_cfg(task="localization", iters=2),
                      dataset=str(save_dataset(data, tmp_path / "data")))
        assert cfg.swin.input_size == (32, 32)
        res = train(cfg)
        assert len(res.losses) == 2 and all(np.isfinite(v) for v in res.losses)
        with no_grad():
            raw = head_forward(res.backbone.forward(_image_tensor(res.data.images[:1])),
                               res.head)
        assert raw.shape == (1, 16, 5 + len(res.data.categories))

    def test_output_files(self, tmp_path):
        train(quick_cfg(), out_dir=tmp_path)
        assert (tmp_path / "loss_curve.csv").exists()
        assert (tmp_path / "timing.csv").exists()
        assert (tmp_path / "checkpoint.npz").exists()
        header = (tmp_path / "loss_curve.csv").read_text().splitlines()[0]
        assert header == "iteration,loss"

    @pytest.mark.parametrize("drop", ["meta", "param.embed_w", "adam_m.head.w",
                                      "adam_v.stage0.block1.mlp_b2"])
    def test_checkpoint_missing_entry_is_parse_error(self, tmp_path, drop):
        res = train(quick_cfg(iters=1), out_dir=tmp_path)
        with np.load(res.checkpoint_path) as blob:
            assert drop in blob.files
            arrays = {k: blob[k] for k in blob.files if k != drop}
        np.savez(tmp_path / "cut.npz", **arrays)
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "cut.npz")

    def test_truncated_checkpoint_is_parse_error(self, tmp_path):
        res = train(quick_cfg(iters=1), out_dir=tmp_path)
        data = Path(res.checkpoint_path).read_bytes()
        (tmp_path / "cut.npz").write_bytes(data[:len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError):
                load_checkpoint(tmp_path / "cut.npz")
            gc.collect()  # an unclosed file warns when it is collected
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        first = train(quick_cfg(iters=1), out_dir=tmp_path)
        before = Path(first.checkpoint_path).read_bytes()

        def interrupted(fh, **arrays):
            fh.write(b"partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train(quick_cfg(iters=2), out_dir=tmp_path)
        assert Path(first.checkpoint_path).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.npz", "loss_curve.csv", "timing.csv"]

    @pytest.mark.parametrize("task,placement", [("classification", CbamPlacement.NONE),
                                                ("localization", CbamPlacement.BLOCK)])
    def test_no_tape_is_alive_at_an_optimizer_step(self, monkeypatch, task, placement):
        """With gc off, no recorded node's data outlives the backward that walked it:
        none is alive when the next iteration builds its batch, or after ``train``."""
        from railswin import train as train_mod

        make, batch, refs, alive = T._make, train_mod._image_tensor, [], []

        def recording(data, inputs, backward_fn):
            out = make(data, inputs, backward_fn)
            if out._backward is not None:
                refs.append(weakref.ref(out.data))
            return out

        def counting(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            return batch(*args, **kwargs)

        monkeypatch.setattr(T, "_make", recording)
        monkeypatch.setattr(train_mod, "_image_tensor", counting)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train(quick_cfg(task=task, iters=3, placement=placement))
            alive.append(sum(r() is not None for r in refs))
        finally:
            if enabled:
                gc.enable()
        assert len(refs) > 3 * 90
        assert alive == [0, 0, 0, 0]


def _assert_resume_reproduces_straight_run(tmp_path):
    full = train(quick_cfg(iters=8))
    train(quick_cfg(iters=4), out_dir=tmp_path)
    resumed = train(quick_cfg(iters=8), resume=os.path.join(tmp_path, "checkpoint.npz"))
    assert resumed.losses == full.losses[4:]


def _plain_loop(cfg):
    """``train``'s loop as it was before any tensor stepped inside the walk:
    a plain ``backward``, then one AdamW step over every tensor, taken by the
    expression-form oracle."""
    data = generate_synthetic(cfg.synthetic)
    cat_index = {c: i for i, c in enumerate(sorted(data.categories))}
    backbone = SwinBackbone(cfg.swin, in_channels=1)
    head = init_head_params(cfg.swin, len(cat_index), cfg.task)
    named = backbone.named_parameters() + head.named_parameters()
    params = [t for _, t in named]
    state = AdamState.init(params)
    n = len(data.images)
    per_epoch = -(-n // cfg.batch_size)
    losses = []
    for it in range(cfg.max_iterations):
        order = np.random.default_rng([cfg.seed + 1, it // per_epoch]).permutation(n)
        lo = (it % per_epoch) * cfg.batch_size
        batch = [data.images[k] for k in order[lo:lo + cfg.batch_size]]
        features = backbone.forward(_image_tensor(batch), head.stage + 1)
        out = head_forward(features, head)
        if cfg.task == "classification":
            loss = T.cross_entropy(out, np.array([_class_label(im, cat_index) for im in batch]))
        else:
            loss = localization_loss(out, batch, features[head.stage].shape[-2:],
                                     cfg.swin.stage_stride(head.stage), cat_index)
        losses.append(loss.item())
        T.backward(loss)
        oracle_adamw_step(params, [p.grad for p in params], state, cfg.lr, cfg.betas, 1e-8,
                          cfg.weight_decay)
    return losses, named, state


SPLIT_CASES = [("classification", CbamPlacement.NONE), ("localization", CbamPlacement.BLOCK)]


def _on_worker():
    return threading.current_thread() is not threading.main_thread()


def _record_trees(monkeypatch):
    """The backbones and heads ``train`` builds, in build order."""
    from railswin import train as train_mod

    trees = []
    for name in ("SwinBackbone", "init_head_params"):
        make = getattr(train_mod, name)
        monkeypatch.setattr(train_mod, name,
                            lambda *a, _make=make, **k: trees.append(_make(*a, **k))
                            or trees[-1])
    return trees


@pytest.fixture
def quarter_block(monkeypatch):
    """Every tensor of at least a quarter CHUNK block (4096 values) goes to
    the optimizer worker.  Nano's tensors of a block or more are all in
    stage 4, which a localization walk never reaches; a quarter block takes
    in stage 3's too."""
    from railswin import train as train_mod

    monkeypatch.setattr(train_mod, "WORKER_BLOCKS", 0.25)
    return CHUNK // 4


# tensors of at least a quarter block that one walk hands to the worker
ON_WORKER = {"classification": 18, "localization": 9}


class TestStepInsideTheWalk:
    """``train`` steps each tensor as soon as ``backward`` has finished its
    gradient, the large ones on the optimizer worker; the tensors the walk
    never reaches only decay after it."""

    def _same_bytes_as_the_plain_loop(self, tmp_path, monkeypatch, task, placement,
                                      delay=0.0):
        from railswin import train as train_mod

        updates, on_worker, scratch = [], [], {False: set(), True: set()}
        update = train_mod.adamw_update

        def recording(p, *args, **kwargs):
            worker = _on_worker()
            if worker:
                # a late update shows any closure that writes an array it did not allocate
                time.sleep(delay)
                on_worker.append(p)
            scratch[worker].update(id(a) for a in args[-1])
            updates.append(p)
            return update(p, *args, **kwargs)

        monkeypatch.setattr(train_mod, "adamw_update", recording)
        cfg = quick_cfg(task=task, iters=3, placement=placement)
        res = train(cfg, out_dir=tmp_path)
        losses, named, state = _plain_loop(cfg)

        assert np.array(res.losses).tobytes() == np.array(losses).tobytes()
        with np.load(res.checkpoint_path) as blob:
            assert json.loads(str(blob["meta"]))["adam_t"] == state.t == 3
            for (name, p), m, v in zip(named, state.m, state.v):
                assert blob[f"param.{name}"].tobytes() == p.data.tobytes(), name
                assert blob[f"adam_m.{name}"].tobytes() == m.tobytes(), name
                assert blob[f"adam_v.{name}"].tobytes() == v.tobytes(), name
        # each iteration updates every tensor once
        params = {id(t) for _, t in res.backbone.named_parameters() + res.head.named_parameters()}
        assert len(updates) == 3 * len(named) == 3 * len(params)
        for i in range(0, len(updates), len(named)):
            assert {id(p) for p in updates[i:i + len(named)]} == params
        return on_worker, scratch

    @pytest.mark.parametrize("task,placement", SPLIT_CASES)
    def test_same_bytes_as_the_plain_loop(self, tmp_path, monkeypatch, task, placement):
        on_worker, scratch = self._same_bytes_as_the_plain_loop(tmp_path, monkeypatch, task,
                                                                placement)
        assert on_worker == [] and len(scratch[False]) == 2

    @pytest.mark.parametrize("task,placement", SPLIT_CASES)
    def test_same_bytes_with_a_delayed_worker(self, tmp_path, monkeypatch, quarter_block,
                                              task, placement):
        # a short switch interval interleaves the two threads' bytecode finely too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            on_worker, scratch = self._same_bytes_as_the_plain_loop(
                tmp_path, monkeypatch, task, placement, delay=0.005)
        finally:
            sys.setswitchinterval(interval)
        assert len(on_worker) == 3 * ON_WORKER[task]
        # the worker steps with a scratch pair of its own
        assert len(scratch[True]) == 2 and not scratch[True] & scratch[False]

    @pytest.mark.parametrize("task,placement", SPLIT_CASES)
    def test_only_handed_over_gradients_are_alive_at_a_worker_update(
            self, monkeypatch, quarter_block, task, placement):
        """The worker is held one large tensor behind the walk: it checks
        tensor k while the walk waits just after handing over tensor k + 1.
        Every other large gradient then alive was handed over and not yet
        stepped."""
        from railswin import train as train_mod

        trees = _record_trees(monkeypatch)
        pending, alive = [], []  # handed over, not yet stepped; live others per check
        go, checked = queue.SimpleQueue(), queue.SimpleQueue()
        walk = train_mod.backward

        def lagging(loss, release, on_final):
            def final(p):
                on_final(p)
                if p.data.size >= quarter_block:
                    pending.append(p)
                    if len(pending) > 1:
                        go.put(None)
                        checked.get(timeout=30)

            walk(loss, release=release, on_final=final)
            if pending:
                go.put(None)
                checked.get(timeout=30)

        update = train_mod.adamw_update

        def checking(p, *args, **kwargs):
            if _on_worker():
                go.get(timeout=30)
                try:
                    assert pending.pop(0) is p
                    live = [q for tree in trees for _, q in tree.named_parameters()
                            if q is not p and q.data.size >= quarter_block and q.grad is not None]
                    assert all(any(q is h for h in pending) for q in live)
                    alive.append(len(live))
                finally:
                    checked.put(None)
            return update(p, *args, **kwargs)

        monkeypatch.setattr(train_mod, "backward", lagging)
        monkeypatch.setattr(train_mod, "adamw_update", checking)
        train(quick_cfg(task=task, iters=3, placement=placement))
        assert alive == 3 * ([1] * (ON_WORKER[task] - 1) + [0])

    @pytest.mark.parametrize("task,placement", SPLIT_CASES)
    def test_no_gradient_is_alive_at_the_next_batch_or_after_train(
            self, monkeypatch, quarter_block, task, placement):
        from railswin import train as train_mod

        trees = _record_trees(monkeypatch)
        batch, update, alive = train_mod._image_tensor, train_mod.adamw_update, []

        def count_live():
            alive.append(sum(q.grad is not None for tree in trees
                             for _, q in tree.named_parameters()))

        def counting(*args, **kwargs):
            count_live()
            return batch(*args, **kwargs)

        def late(p, *args, **kwargs):
            if _on_worker():
                time.sleep(0.002)
            return update(p, *args, **kwargs)

        monkeypatch.setattr(train_mod, "_image_tensor", counting)
        monkeypatch.setattr(train_mod, "adamw_update", late)
        train(quick_cfg(task=task, iters=3, placement=placement))
        count_live()
        assert alive == [0, 0, 0, 0]

    def test_resume_reproduces_straight_run(self, tmp_path, quarter_block):
        _assert_resume_reproduces_straight_run(tmp_path)


class TestOptimizerWorker:
    """No thread outlives ``train``, however it ends, and an update that
    fails on the worker fails ``train`` with the same error."""

    def _ending(self, monkeypatch, how, large=CHUNK // 4, iters=3):
        """``how`` ends ``train``: "raises" fails the worker's second update,
        "raises_last" the last update of the last of ``iters`` iterations,
        and "raises_twice" the second with one error and the third with
        another; "non_finite" poisons the first tensor it steps, and
        "interrupted" stops the walk at its first inline update after a
        hand-over."""
        from railswin import train as train_mod

        update, walk, started, handed = train_mod.adamw_update, train_mod.backward, [], []
        first = {"raises": 2, "raises_twice": 2,
                 "raises_last": iters * ON_WORKER["classification"]}

        def failing(p, *args, **kwargs):
            if not _on_worker():
                if how == "interrupted" and handed:
                    raise KeyboardInterrupt
                return update(p, *args, **kwargs)
            started.append(p)
            if len(started) == first.get(how):
                raise ShapeMismatch("adamw_update: injected on the worker")
            if how == "raises_twice" and len(started) == 3:
                raise InvalidParam("adamw_update: injected again")
            update(p, *args, **kwargs)
            if how == "non_finite":
                p.data.flat[0] = np.nan

        def recording(loss, release, on_final):
            def final(p):
                on_final(p)
                if p.data.size >= large:
                    handed.append(p)

            walk(loss, release=release, on_final=final)

        monkeypatch.setattr(train_mod, "adamw_update", failing)
        monkeypatch.setattr(train_mod, "backward", recording)
        return handed

    @pytest.mark.parametrize("how,error", [("returns", None), ("non_finite", NonFiniteLoss),
                                           ("raises", ShapeMismatch),
                                           ("raises_last", ShapeMismatch),
                                           ("raises_twice", ShapeMismatch),
                                           ("interrupted", KeyboardInterrupt)])
    def test_no_thread_outlives_train(self, monkeypatch, quarter_block, how, error):
        handed = self._ending(monkeypatch, how)
        before = threading.enumerate()
        cfg = quick_cfg(iters=3)
        if error is None:
            _train_with_model(cfg, SwinBackbone(cfg.swin, in_channels=1))
        else:
            with pytest.raises(error) as e:
                _train_with_model(cfg, SwinBackbone(cfg.swin, in_channels=1))
        assert threading.enumerate() == before
        assert handed  # the worker was started
        if how == "non_finite":
            assert "at iteration 2" in str(e.value)
        if how.startswith("raises"):
            assert str(e.value) == "adamw_update: injected on the worker"
        if how == "raises_last":  # the failed update was the last hand-over
            assert len(handed) == 3 * ON_WORKER["classification"]

    def test_cli_exits_2_and_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch,
                                                           quarter_block, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(to_dict(quick_cfg(iters=2))))
        out = tmp_path / "t"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = (out / "checkpoint.npz").read_bytes()
        capsys.readouterr()

        self._ending(monkeypatch, "raises")
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["runtime failure: adamw_update: injected on the worker"]
        assert (out / "checkpoint.npz").read_bytes() == before


def _train_with_model(cfg, model):
    """Drive train() against the given backbone."""
    from railswin import train as train_mod

    orig = train_mod.SwinBackbone
    train_mod.SwinBackbone = lambda *a, **k: model
    try:
        return train(cfg)
    finally:
        train_mod.SwinBackbone = orig


class TestCbamCounter:
    def test_training_iteration_matches_static_count(self, refine_calls):
        expected = {CbamPlacement.MODEL: 1, CbamPlacement.STAGE: 4, CbamPlacement.BLOCK: 8}
        for placement, want in expected.items():
            refine_calls.clear()
            train(quick_cfg(iters=1, placement=placement))
            # one batched forward pass: one application per gate
            assert len(refine_calls) == want

    def test_localization_iteration_skips_stage_4_gates(self, refine_calls):
        # the head reads the stage-3 map, so stage 4's gates never run
        expected = {CbamPlacement.MODEL: 1, CbamPlacement.STAGE: 3, CbamPlacement.BLOCK: 6}
        for placement, want in expected.items():
            refine_calls.clear()
            train(quick_cfg(task="localization", iters=1, placement=placement))
            assert len(refine_calls) == want


class TestTiming:
    def test_warmup_exclusion_and_moments(self):
        log = IterTimingLog(seconds=[9.0] * 5 + [1.0, 2.0, 3.0])
        assert log.mean() == 2.0
        assert log.std() == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_csv_shape(self):
        log = IterTimingLog(seconds=[0.5, 0.25])
        lines = log.to_csv().splitlines()
        assert lines[0] == "iteration,seconds"
        assert len(lines) == 3

    def test_bench_counts(self):
        log = bench(quick_cfg(), 7)
        assert len(log.seconds) == 7
        assert len(log.retained()) == 2


class TestAblation:
    def test_structure_counts(self):
        base = quick_cfg(task="localization", iters=3, n=16)
        result = run_ablation(base, seeds=(0, 1, 2), val_images=8)
        assert len(result.runs) == 12  # 4 variants x 3 seeds
        assert len(result.summary) == 4
        csv_lines = result.to_csv().splitlines()
        assert csv_lines[0] == ("variant,map50,map75,ar100,iter_time_mean,"
                                "iter_time_std,map50_small,map50_regular")
        assert len(csv_lines) == 5

    def test_identical_data_across_variants(self):
        base = quick_cfg(task="localization", iters=2, n=12)
        result = run_ablation(base, variants=[CbamPlacement.NONE, CbamPlacement.BLOCK],
                              seeds=(5,), val_images=6)
        # both runs trained on the same seeded dataset: loss curves differ only
        # through the model, and the reports cover the same categories
        r0, r1 = result.runs
        assert {pc.category_id for pc in r0.report.per_category} == \
            {pc.category_id for pc in r1.report.per_category}

    def test_needs_seeds(self):
        with pytest.raises(InvalidParam):
            run_ablation(quick_cfg(task="localization"), seeds=())

    def test_unmeasured_size_class_is_an_empty_cell(self):
        base = quick_cfg(task="localization", iters=6, n=12)
        result = run_ablation(base, variants=[CbamPlacement.NONE], seeds=(5,), val_images=6)
        val = generate_synthetic(replace(base.synthetic, seed=5 + 100_000, num_images=6))
        assert {s.size_class for s in category_stats(val)} == {"regular"}
        row = result.summary[0]
        assert row["map50_small"] is None and row["map50_regular"] is not None
        assert row["iter_time_mean"] is not None  # one iteration after the warmup
        header, line = result.to_csv().splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["map50_small"] == ""
        assert float(cells["map50_regular"]) == row["map50_regular"]

    def test_always_small_category_fills_both_size_columns(self):
        base = quick_cfg(task="localization", iters=6, n=16)
        base = replace(base, synthetic=replace(base.synthetic, small_categories=("dark-blob",)))
        result = run_ablation(base, variants=[CbamPlacement.NONE], seeds=(5,), val_images=12)
        val = generate_synthetic(replace(base.synthetic, seed=5 + 100_000, num_images=12))
        classes = {s.category_id: s.size_class for s in category_stats(val)}
        blob = [cid for cid, name in val.categories.items() if name == "dark-blob"]
        assert [classes[cid] for cid in blob] == ["small"]
        assert "regular" in classes.values()
        row = result.summary[0]
        assert row["map50_small"] is not None and row["map50_regular"] is not None


class TestPrediction:
    def test_predicts_and_evaluates(self):
        res = train(quick_cfg(task="localization", iters=4, n=16))
        dets = predict_detections(res.backbone, res.head, res.data)
        report = evaluate(dets, res.data)
        assert 0.0 <= report.map50 <= 1.0
        for d in dets:
            assert d.category_id in res.data.categories

    def test_classification_head_rejected(self):
        res = train(quick_cfg(iters=2, n=12))
        with pytest.raises(InvalidParam):
            predict_detections(res.backbone, res.head, res.data)

    def per_image(self, backbone, head, dataset):
        """One forward per image: what predict_detections did before batching."""
        stride = backbone.cfg.patch_size * 4
        out = []
        with no_grad():
            for im in dataset.images:
                raw = head_forward(backbone.forward(_image_tensor([im])), head)
                out.extend(decode_detections(raw.data[0], (im.height // stride, im.width // stride),
                                             stride, im.id, (im.height, im.width),
                                             sorted(dataset.categories)))
        return out

    def mixed_sizes(self):
        # runs of 32x32 and 64x64 images; the 32x32 runs are longer than a chunk
        rng = np.random.default_rng(11)
        sizes = [32] * 19 + [64] * 3 + [32] * 2 + [64] * 18 + [32]
        assert max(sizes.count(32), sizes.count(64)) > PREDICT_CHUNK
        images = [AnnotatedImage(id=100 - i, width=s, height=s,
                                 pixels=rng.integers(0, 256, (s, s), dtype=np.uint8))
                  for i, s in enumerate(sizes)]
        return Dataset(images=images, categories={1: "a", 2: "b", 3: "c"})

    def model(self, placement):
        backbone = SwinBackbone(nano_config(placement=placement, seed=2))
        head = init_head_params(backbone.cfg, 3, "localization")
        rng = np.random.default_rng(12)
        head.w.data = rng.normal(0.0, 0.5, head.w.shape)
        head.b.data = rng.normal(0.0, 0.5, head.b.shape)
        return backbone, head

    def test_batched_equals_per_image_without_gates(self):
        data = self.mixed_sizes()
        backbone, head = self.model(CbamPlacement.NONE)
        want = self.per_image(backbone, head, data)
        assert len({d.image_id for d in want}) > 2 * PREDICT_CHUNK
        assert predict_detections(backbone, head, data) == want

    def test_batched_matches_per_image_with_block_gates(self):
        # a BLAS product over 16 rows may sum in another order than over one
        data = self.mixed_sizes()
        backbone, head = self.model(CbamPlacement.BLOCK)
        want = self.per_image(backbone, head, data)
        got = predict_detections(backbone, head, data)
        assert [(d.image_id, d.category_id) for d in got] == \
            [(d.image_id, d.category_id) for d in want]
        for g, w in zip(got, want):
            assert g.score == pytest.approx(w.score, rel=0, abs=1e-12)
            for a, b in zip((g.box.x, g.box.y, g.box.w, g.box.h),
                            (w.box.x, w.box.y, w.box.w, w.box.h)):
                assert a == pytest.approx(b, rel=0, abs=1e-12)


class TestAtomicArtifacts:
    def test_failed_write_keeps_previous_file_and_leaves_no_tmp(self, tmp_path):
        from railswin.files import atomic_open

        for mode, old, part in (("w", "a,b\n1,2\n", "a,b\n9"), ("wb", b"\x00old", b"\x01")):
            path = tmp_path / f"artifact{mode}"
            with atomic_open(path, mode) as fh:
                fh.write(old)
            with pytest.raises(RuntimeError):
                with atomic_open(path, mode) as fh:
                    fh.write(part)
                    raise RuntimeError("interrupted")
            assert path.read_bytes() == (old.encode() if mode == "w" else old)
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "new.csv") as fh:
                fh.write("x")
                raise RuntimeError("interrupted")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifactw", "artifactwb"]

    def test_train_timing_failure_keeps_previous_timing_csv(self, tmp_path, monkeypatch):
        from railswin.train import IterTimingLog

        train(quick_cfg(iters=1), out_dir=tmp_path)
        before = (tmp_path / "timing.csv").read_bytes()

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(IterTimingLog, "to_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train(quick_cfg(iters=2), out_dir=tmp_path)
        assert (tmp_path / "timing.csv").read_bytes() == before
        assert len((tmp_path / "loss_curve.csv").read_text().splitlines()) == 3
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.npz", "loss_curve.csv", "timing.csv"]
