"""Command-line surface: commands, artifacts, exit codes."""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from railswin.cli import main
from railswin.config import to_dict
from railswin.data import coco
from railswin.data.coco import load_coco, save_dataset
from railswin.errors import ParseError
from railswin.swin import nano_config
from railswin.synth import DEFECT_KINDS, SyntheticSpec, generate_synthetic
from railswin.train import TrainConfig


@pytest.fixture
def workspace(tmp_path):
    data = generate_synthetic(SyntheticSpec(num_images=24, seed=3,
                                            instances_per_image=(1, 2)))
    ann = save_dataset(data, tmp_path / "data")
    cfg = TrainConfig(swin=nano_config(seed=0), seed=0, max_iterations=4, epochs=50,
                      batch_size=8, synthetic=SyntheticSpec(num_images=16, seed=0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(to_dict(cfg)))
    return tmp_path, ann, cfg_path


def test_stats_command(workspace, capsys):
    tmp, ann, _ = workspace
    assert main(["stats", str(ann), "--out", str(tmp / "o")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("category,count,")
    assert (tmp / "o" / "stats.csv").exists()


def test_stats_missing_file():
    assert main(["stats", "/nonexistent/x.json"]) == 1


def test_preprocess_command(workspace):
    tmp, ann, _ = workspace
    targets = tmp / "targets.json"
    targets.write_text(json.dumps({"fraction": 0.75,
                                   "train": {"dark-blob": 12}, "val": {}}))
    rc = main(["preprocess", str(ann), "--enhance", "he",
               "--augment-plan", str(targets), "--seed", "5", "--out", str(tmp / "p")])
    assert rc == 0
    assert (tmp / "p" / "plan.json").exists()
    train_ds = load_coco(tmp / "p" / "train" / "annotations.json")
    assert train_ds.image_count(2) >= 12  # dark-blob is category id 2


def test_preprocess_bad_targets(workspace):
    tmp, ann, _ = workspace
    targets = tmp / "targets.json"
    targets.write_text(json.dumps({"train": {"no-such-category": 5}, "val": {}}))
    rc = main(["preprocess", str(ann), "--augment-plan", str(targets),
               "--out", str(tmp / "p2")])
    assert rc == 1


def test_preprocess_ids_unique_across_splits(workspace):
    tmp, ann, _ = workspace
    targets = tmp / "targets.json"
    targets.write_text(json.dumps({"fraction": 0.75, "train": {"dark-blob": 12},
                                   "val": {"dark-blob": 5}}))
    assert main(["preprocess", str(ann), "--augment-plan", str(targets),
                 "--seed", "5", "--out", str(tmp / "p")]) == 0
    ids = {name: {im["id"] for im in
                  json.loads((tmp / "p" / name / "annotations.json").read_text())["images"]}
           for name in ("train", "val")}
    assert ids["train"].isdisjoint(ids["val"])
    plan = json.loads((tmp / "p" / "plan.json").read_text())
    new = {name: [r["new_image_id"] for r in plan[name]["records"]] for name in ("train", "val")}
    assert new["train"] and new["val"]
    assert set(new["train"]).isdisjoint(new["val"])
    # synthesized images follow every source id: train's first, then val's
    assert min(new["train"]) == 25 and min(new["val"]) == max(new["train"]) + 1


def preprocess_both(ann, targets, out):
    """``preprocess --enhance cet`` with synthesized images in both splits."""
    targets.write_text(json.dumps({"fraction": 0.75, "train": {"dark-blob": 12},
                                   "val": {"dark-blob": 5}}))
    return main(["preprocess", str(ann), "--enhance", "cet", "--augment-plan", str(targets),
                 "--seed", "5", "--out", str(out)])


def written(out):
    """plan.json, each split's annotations.json and every file it names: path -> bytes."""
    files = {"plan.json": (out / "plan.json").read_bytes()}
    for split in ("train", "val"):
        doc = (out / split / "annotations.json").read_bytes()
        files[f"{split}/annotations.json"] = doc
        for im in json.loads(doc)["images"]:
            name = f"{split}/{im['file_name']}"
            files[name] = (out / name).read_bytes()
    return files


@pytest.mark.parametrize("previous", ["larger", "smaller", "colour"])
def test_preprocess_rerun_rewrites_every_file_as_a_fresh_run(workspace, previous):
    """A run into an --out that holds an earlier run's images (same names,
    other sizes or channels) writes the bytes a run into an empty one does."""
    tmp, ann, _ = workspace
    assert preprocess_both(ann, tmp / "t.json", tmp / "fresh") == 0
    if previous == "colour":
        data = load_coco(ann)
        for im in data.images:
            im.pixels = np.repeat(im.pixels[..., None], 3, axis=2)
            im.channels = 3
    else:
        size = (48, 40) if previous == "larger" else (24, 16)
        data = generate_synthetic(SyntheticSpec(num_images=24, seed=3, image_size=size,
                                                instances_per_image=(1, 2)))
        for im in data.images:
            im.file_name = f"img_{im.id:06d}.pgm"
    old = save_dataset(data, tmp / previous)
    assert preprocess_both(old, tmp / "t.json", tmp / "rerun") == 0
    before = written(tmp / "rerun")
    assert preprocess_both(ann, tmp / "t.json", tmp / "rerun") == 0
    after, fresh = written(tmp / "rerun"), written(tmp / "fresh")
    assert after == fresh
    overwritten = [n for n in after if n in before and before[n] != after[n]]
    assert sum(n.endswith(".pgm") for n in overwritten) >= 20


@pytest.mark.parametrize("k,whole", [(0, []), (7, []), (30, ["train"])],
                         ids=["first", "train", "val"])
def test_preprocess_interrupted_leaves_no_partial_split_loadable(workspace, monkeypatch,
                                                                capsys, k, whole):
    """A write failing after k images (train holds 26, val 8) over an earlier
    run: exit 2 with one line and no plan.json. A split whose images were
    not all written has no annotations.json, so it does not load; a clean
    rerun then gives the fresh run's bytes."""
    tmp, ann, _ = workspace
    assert preprocess_both(ann, tmp / "t.json", tmp / "fresh") == 0
    assert preprocess_both(ann, tmp / "t.json", tmp / "p") == 0
    capsys.readouterr()
    real, calls = coco.write_pnm, []

    def failing(path, pixels):
        if len(calls) == k:
            raise OSError(28, "No space left on device")
        calls.append(path)
        real(path, pixels)

    monkeypatch.setattr(coco, "write_pnm", failing)
    assert preprocess_both(ann, tmp / "t.json", tmp / "p") == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime failure: [Errno 28] No space left on device"]
    assert not (tmp / "p" / "plan.json").exists()
    for split in ("train", "val"):
        path = tmp / "p" / split / "annotations.json"
        if split in whole:
            assert path.read_bytes() == (tmp / "fresh" / split / "annotations.json").read_bytes()
            continue
        assert not path.exists()
        with pytest.raises(ParseError):
            load_coco(path)
    monkeypatch.undo()
    assert preprocess_both(ann, tmp / "t.json", tmp / "p") == 0
    assert written(tmp / "p") == written(tmp / "fresh")


def test_preprocess_plans_both_splits_before_writing(tmp_path, capsys):
    """Val planning failing (category b is in one train image only) writes no split."""
    doc = {"images": [], "annotations": [], "categories": [{"id": 1, "name": "a"},
                                                           {"id": 2, "name": "b"}]}
    src = tmp_path / "src"
    src.mkdir()
    for i in range(1, 11):
        doc["images"].append({"id": i, "width": 16, "height": 16, "file_name": f"s{i}.pgm"})
        (src / f"s{i}.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        doc["annotations"].append({"id": i, "image_id": i, "category_id": 2 if i == 1 else 1,
                                   "bbox": [2, 2, 5, 5]})
    (src / "ann.json").write_text(json.dumps(doc))
    (tmp_path / "t.json").write_text(json.dumps({"train": {"b": 1}, "val": {"b": 1}}))
    for seed in "1234":
        rc = main(["preprocess", str(src / "ann.json"), "--augment-plan", str(tmp_path / "t.json"),
                   "--seed", seed, "--out", str(tmp_path / "p")])
        assert rc == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "category 2 has no source images to augment" in err
        assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("name", ["absolute", "../a.pgm", "sub/a.pgm"])
def test_preprocess_output_names_stay_inside_the_split(workspace, name):
    """An image named by a path is written as img_<id>.pgm in its split; the
    source file it was read from keeps its bytes."""
    tmp, ann, _ = workspace
    out = tmp / "p"
    doc = json.loads(Path(ann).read_text())
    if name == "absolute":
        name = str(tmp / "abs" / "a.pgm")
    src_dir = out / "x"  # '../a.pgm' from here and from out/train is out/a.pgm
    src_dir.mkdir(parents=True)
    source = src_dir / name
    source.parent.mkdir(parents=True, exist_ok=True)
    source.write_bytes((Path(ann).parent / doc["images"][0]["file_name"]).read_bytes())
    doc["images"][0]["file_name"] = name
    (src_dir / "ann.json").write_text(json.dumps(doc))
    before = source.read_bytes()
    assert preprocess_both(src_dir / "ann.json", tmp / "t.json", out) == 0
    assert source.read_bytes() == before
    split = [s for s in ("train", "val")
             if 1 in {im.id for im in load_coco(out / s / "annotations.json").images}]
    assert len(split) == 1
    entry = next(im for im in load_coco(out / split[0] / "annotations.json").images if im.id == 1)
    assert entry.file_name == "img_000001.pgm" and entry.pixels is not None


def test_preprocess_rejects_box_outside_its_image(workspace, capsys):
    tmp, ann, _ = workspace
    doc = json.loads(Path(ann).read_text())
    doc["annotations"][0]["bbox"] = [40.0, 2.0, 4.0, 4.0]  # the image is 32 wide
    Path(ann).write_text(json.dumps(doc))
    assert preprocess_both(ann, tmp / "t.json", tmp / "p") == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"annotation {doc['annotations'][0]['id']}:" in err
    assert f"image {doc['annotations'][0]['image_id']} (32x32)" in err
    assert not (tmp / "p").exists()


@pytest.mark.parametrize("content", [
    None,
    '{"fraction": 0.75, "train": {',
    '{"fraction": "abc"}',
    '{"fraction": NaN}',
    '{"fraction": [0.5]}',
    '{"train": {"dark-blob": "x"}}',
    '{"train": {"dark-blob": Infinity}}',
    '{"train": {"dark-blob": null}}',
    '{"train": ["dark-blob"]}',
    '{"fraction": "0.5"}',
    '{"fraction": true}',
    '{"train": {"dark-blob": "12"}}',
    '{"train": {"dark-blob": 2.7}}',
    '{"train": {"dark-blob": true}}',
    '{"trian": {"dark-blob": 12}}',
    '{"train": {"dark-blob": -5}}',
    '{"val": {"dark-blob": -1}}',
], ids=["missing-file", "truncated", "fraction-str", "fraction-nan", "fraction-list",
        "count-str", "count-inf", "count-null", "side-list", "fraction-str-number",
        "fraction-bool", "count-str-digit", "count-fraction", "count-bool", "side-typo",
        "count-negative-train", "count-negative-val"])
def test_preprocess_rejects_bad_targets_file(workspace, capsys, content):
    tmp, ann, _ = workspace
    targets = tmp / "targets.json"
    if content is not None:
        targets.write_text(content)
    rc = main(["preprocess", str(ann), "--augment-plan", str(targets), "--out", str(tmp / "p3")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "p3").exists()


@pytest.mark.parametrize("header", [b"P5 0 4 255\n", b"P5 4 5 255\n", b"P5 5 3 255\n"],
                         ids=["zero-width", "transposed", "short"])
@pytest.mark.parametrize("enhance", ["cet", "he", None])
def test_preprocess_rejects_pixels_of_another_size(workspace, capsys, header, enhance):
    """An entry of 5x4 whose PGM header says otherwise: exit 1, one line, no output."""
    tmp, ann, _ = workspace
    doc = json.loads(Path(ann).read_text())
    doc["images"][0].update(width=5, height=4, file_name="a.pgm")
    doc["annotations"] = [a for a in doc["annotations"] if a["image_id"] != doc["images"][0]["id"]]
    Path(ann).write_text(json.dumps(doc))
    w, h = (int(v) for v in header.split()[1:3])
    (Path(ann).parent / "a.pgm").write_bytes(header + bytes(w * h))
    targets = tmp / "targets.json"
    targets.write_text(json.dumps({"fraction": 0.75, "train": {"dark-blob": 12}, "val": {}}))
    argv = ["preprocess", str(ann), "--augment-plan", str(targets), "--out", str(tmp / "p")]
    assert main(argv + (["--enhance", enhance] if enhance else [])) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "a.pgm" in err and f"{w}x{h}" in err and "5x4" in err
    assert not (tmp / "p").exists()


@pytest.mark.parametrize("where", ["ground-truth", "detection"])
def test_eval_rejects_nan_box(workspace, capsys, where):
    tmp, ann, _ = workspace
    dets = [{"image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5], "score": 0.7}]
    if where == "detection":
        dets[0]["bbox"][2] = float("nan")
    else:
        doc = json.loads(Path(ann).read_text())
        doc["annotations"][0]["bbox"][0] = float("nan")
        Path(ann).write_text(json.dumps(doc))
    dets_path = tmp / "dets.json"
    dets_path.write_text(json.dumps(dets))
    rc = main(["eval", "--dets", str(dets_path), "--dataset", str(ann), "--out", str(tmp / "e")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "e").exists()


def test_train_eval_roundtrip(workspace, capsys):
    tmp, ann, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "t")]) == 0
    assert (tmp / "t" / "loss_curve.csv").exists()
    assert (tmp / "t" / "timing.csv").exists()
    capsys.readouterr()

    # evaluate stored detections against the dataset
    dets = [{"image_id": im_id, "category_id": 1, "bbox": [1, 1, 5, 5], "score": 0.7}
            for im_id in (1, 2)]
    dets_path = tmp / "dets.json"
    dets_path.write_text(json.dumps(dets))
    rc = main(["eval", "--dets", str(dets_path), "--dataset", str(ann),
               "--out", str(tmp / "e")])
    assert rc == 0
    assert (tmp / "e" / "metrics.json").exists()
    assert (tmp / "e" / "metrics.csv").exists()
    assert (tmp / "e" / "size_ordered.csv").exists()
    doc = json.loads((tmp / "e" / "metrics.json").read_text())
    assert set(doc) >= {"map50", "map75", "mar100", "per_category"}


def test_csv_cells_keep_names_with_commas_quotes_and_line_breaks(workspace, capsys):
    """Every row of every CSV has the header's width, and each name reads back intact."""
    tmp, ann, _ = workspace
    doc = json.loads(Path(ann).read_text())
    names = {1: "squat, light", 2: 'say "when"', 3: "two\r\nlines"}
    for cat in doc["categories"]:
        cat["name"] = names.get(cat["id"], cat["name"])
    renamed = Path(ann).parent / "renamed.json"
    renamed.write_text(json.dumps(doc))
    dets = [{"image_id": a["image_id"], "category_id": a["category_id"], "bbox": a["bbox"],
             "score": 0.9} for a in doc["annotations"]]
    dets_path = tmp / "dets.json"
    dets_path.write_text(json.dumps(dets))
    assert main(["stats", str(renamed), "--out", str(tmp / "s")]) == 0
    assert main(["eval", "--dets", str(dets_path), "--dataset", str(renamed),
                 "--out", str(tmp / "e")]) == 0
    capsys.readouterr()
    for path in (tmp / "s" / "stats.csv", tmp / "e" / "metrics.csv",
                 tmp / "e" / "size_ordered.csv"):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path
        assert set(names.values()) <= {row[0] for row in rows}, path


def test_eval_needs_a_source(workspace):
    tmp, ann, _ = workspace
    assert main(["eval", "--dataset", str(ann), "--out", str(tmp / "e2")]) == 1


@pytest.mark.parametrize("sources,words", [
    ((), "eval needs --dets or --checkpoint"),
    (("--dets", "dets.json", "--checkpoint", "checkpoint.npz"), "not both"),
], ids=["neither", "both"])
def test_eval_source_flags_checked_before_reading_anything(tmp_path, capsys, sources, words):
    """Neither or both of --dets and --checkpoint: exit 1 with one line naming that,
    before the dataset or either source is read (none of them exists here)."""
    argv = ["eval", "--dataset", str(tmp_path / "missing.json"), "--out", str(tmp_path / "e")]
    argv += [str(tmp_path / a) if not a.startswith("--") else a for a in sources]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert words in err
    assert not (tmp_path / "e").exists()


def test_eval_dets_reads_no_pixels(workspace, capsys):
    """eval --dets scores boxes alone: with every image file deleted or overwritten
    it writes the same three artifacts as with the images in place."""
    tmp, ann, _ = workspace
    doc = json.loads(Path(ann).read_text())
    dets = [{"image_id": a["image_id"], "category_id": a["category_id"],
             "bbox": [v + 1 for v in a["bbox"]], "score": 1.0 / (1 + a["id"] % 5)}
            for a in doc["annotations"]]
    dets_path = tmp / "dets.json"
    dets_path.write_text(json.dumps(dets))
    args = ["eval", "--dets", str(dets_path), "--dataset", str(ann), "--out"]
    assert main(args + [str(tmp / "before")]) == 0
    images = sorted(Path(ann).parent.glob("*.pgm"))
    assert len(images) == len(doc["images"])
    for k, image in enumerate(images):
        if k % 2:
            image.unlink()
        else:
            image.write_bytes(b"not an image")
    with pytest.raises(ParseError):
        load_coco(ann)  # reading the pixels would fail now
    assert main(args + [str(tmp / "after")]) == 0
    names = ("metrics.json", "metrics.csv", "size_ordered.csv")
    assert sorted(p.name for p in (tmp / "after").iterdir()) == sorted(names)
    for name in names:
        assert (tmp / "after" / name).read_bytes() == (tmp / "before" / name).read_bytes()


def _localization_checkpoint(tmp, cfg_path):
    """Train the workspace config with the localization head; its checkpoint path."""
    cfg = json.loads(cfg_path.read_text())
    cfg["task"] = "localization"
    loc_path = tmp / "loc.json"
    loc_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(loc_path), "--out", str(tmp / "tl")]) == 0
    return tmp / "tl" / "checkpoint.npz"


def test_eval_with_localization_checkpoint(workspace):
    tmp, ann, cfg_path = workspace
    rc = main(["eval", "--checkpoint", str(_localization_checkpoint(tmp, cfg_path)),
               "--dataset", str(ann), "--out", str(tmp / "el")])
    assert rc == 0
    assert (tmp / "el" / "metrics.json").exists()


def test_eval_checkpoint_rejects_missing_image_file(workspace, capsys):
    tmp, ann, cfg_path = workspace
    ckpt = _localization_checkpoint(tmp, cfg_path)
    capsys.readouterr()
    sorted(Path(ann).parent.glob("*.pgm"))[3].unlink()
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--dataset", str(ann), "--out", str(tmp / "el")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "el").exists()


def test_eval_checkpoint_rejects_dataset_with_other_category_count(workspace, capsys):
    tmp, _, cfg_path = workspace
    ckpt = _localization_checkpoint(tmp, cfg_path)
    capsys.readouterr()
    two = generate_synthetic(SyntheticSpec(num_images=6, seed=5,
                                           categories=DEFECT_KINDS[:2]))
    ann = save_dataset(two, tmp / "two")
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--dataset", str(ann), "--out", str(tmp / "el")])
    assert rc == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "4 classes" in err and "2 categories" in err
    assert not (tmp / "el").exists()


def renumbered(ann, offset):
    """A copy of a COCO file, next to its images, with every category id moved by ``offset``."""
    doc = json.loads(Path(ann).read_text())
    for cat in doc["categories"]:
        cat["id"] += offset
    for a in doc["annotations"]:
        a["category_id"] += offset
    path = Path(ann).parent / "renumbered.json"
    path.write_text(json.dumps(doc))
    return path


def test_eval_checkpoint_rejects_dataset_with_other_category_ids(workspace, capsys):
    tmp, ann, cfg_path = workspace
    ckpt = _localization_checkpoint(tmp, cfg_path)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--dataset", str(renumbered(ann, 10)), "--out", str(tmp / "el")])
    assert rc == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "[1, 2, 3, 4]" in err and "[11, 12, 13, 14]" in err
    assert not (tmp / "el").exists()


def test_train_resume_rejects_dataset_with_other_category_ids(workspace, capsys):
    """Also another task, either way, and another backbone config.  Each
    config asks for more iterations than the checkpoint holds."""
    tmp, ann, cfg_path = workspace
    doc = json.loads(cfg_path.read_text())
    loc = tmp / "loc.json"
    loc.write_text(json.dumps({**doc, "task": "localization"}))
    for path in (cfg_path, loc):
        assert main(["train", "--config", str(path), "--out", str(tmp / path.stem)]) == 0
    cases = [(cfg_path, {"dataset": str(renumbered(ann, 10))}),
             (cfg_path, {"task": "localization"}),
             (loc, {"task": "classification"}),
             (cfg_path, {"swin": {**doc["swin"], "depths": [1, 1, 1, 1]}})]
    for k, (trained, change) in enumerate(cases):
        other = tmp / f"other{k}.json"
        other.write_text(json.dumps({**doc, "max_iterations": 6, **change}))
        capsys.readouterr()
        assert main(["train", "--config", str(other), "--out", str(tmp / f"r{k}"),
                     "--resume", str(tmp / trained.stem / "checkpoint.npz")]) == 1, change
        assert_one_error_line(capsys.readouterr().err)
        assert list((tmp / f"r{k}").iterdir()) == []


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "conv2d" in out and "FAIL" not in out


def test_bench_command(workspace, capsys):
    tmp, _, cfg_path = workspace
    assert main(["bench", "--config", str(cfg_path), "--iters", "6",
                 "--out", str(tmp / "b")]) == 0
    lines = (tmp / "b" / "timing.csv").read_text().splitlines()
    assert lines[0] == "iteration,seconds"
    assert len(lines) == 7


def test_ablate_command(workspace, tmp_path):
    tmp, _, _ = workspace
    cfg = TrainConfig(swin=nano_config(seed=0), seed=0, max_iterations=2, epochs=50,
                      batch_size=8, task="localization",
                      synthetic=SyntheticSpec(num_images=8, seed=0))
    cfg_path = tmp_path / "ab.json"
    cfg_path.write_text(json.dumps(to_dict(cfg)))
    assert main(["ablate", "--config", str(cfg_path), "--seeds", "0",
                 "--out", str(tmp / "a")]) == 0
    lines = (tmp / "a" / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("variant,map50,")
    assert len(lines) == 5
    assert [ln.split(",")[0] for ln in lines[1:]] == ["none", "model", "stage", "block"]
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), line.split(",")))
        # both iterations fall within the warmup: no time is made up
        assert row["iter_time_mean"] == row["iter_time_std"] == ""
        assert 0.0 <= float(row["map50"]) <= 1.0


def test_train_reports_iteration_time_only_after_warmup(workspace, capsys):
    """4 iterations all fall within the warmup, so no time is made up; 7 leave 2 timed."""
    tmp, _, cfg_path = workspace
    assert json.loads(cfg_path.read_text())["max_iterations"] == 4
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "w")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("trained 4 iterations; final loss ")
    assert first.endswith("; no iteration timed: all fall within the 5-iteration warmup")
    assert "iter time" not in first and "0.0000s" not in first

    doc = json.loads(cfg_path.read_text())
    doc["max_iterations"] = 7
    longer = tmp / "longer.json"
    longer.write_text(json.dumps(doc))
    assert main(["train", "--config", str(longer), "--out", str(tmp / "l")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("trained 7 iterations; final loss ") and "; iter time " in first
    assert "0.0000s ±" not in first


def test_train_resume_flag(workspace):
    tmp, _, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "r1")]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "r2"),
                 "--resume", str(tmp / "r1" / "checkpoint.npz")]) == 0
    # resumed run had nothing left to do: the curve is empty beyond iteration 4
    lines = (tmp / "r2" / "loss_curve.csv").read_text().splitlines()
    assert lines == ["iteration,loss"]


def test_loss_curves_bit_identical_across_runs(workspace):
    tmp, _, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "d1")]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "d2")]) == 0
    a = (tmp / "d1" / "loss_curve.csv").read_bytes()
    b = (tmp / "d2" / "loss_curve.csv").read_bytes()
    assert a == b


def test_checkpoint_forward_preserved(workspace):
    from railswin.train import _image_tensor, head_forward, load_checkpoint
    from railswin.tensor import no_grad
    from railswin.train import load_train_config, train

    tmp, _, cfg_path = workspace
    cfg = load_train_config(cfg_path)
    res = train(cfg, out_dir=tmp / "c")
    x = _image_tensor([res.data.images[0]])
    with no_grad():
        want = head_forward(res.backbone.forward(x), res.head).data
    _, backbone, head, _, _ = load_checkpoint(str(tmp / "c" / "checkpoint.npz"))
    with no_grad():
        got = head_forward(backbone.forward(x), head).data
    assert np.array_equal(want, got)


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


DELETE = object()


def edit(doc, path, value):
    """Set the key at ``path`` in a config document, or remove it for DELETE."""
    *parents, key = path
    for k in parents:
        doc = doc[k]
    if value is DELETE:
        del doc[key]
    else:
        doc[key] = value


@pytest.mark.parametrize("path,value", [
    (("max_iterations",), "5"),
    (("synthetic", "num_images"), "x"),
    (("swin", "embed_dim"), "16"),
    (("swin", "embed_dim"), 16.7),
    (("max_iterations",), -3),
    (("swin", "input_size"), [30, 30]),
    (("swin",), DELETE),
    (("swin", "seed"), DELETE),
    (("lr",), float("nan")),
    (("betas",), [0.9, float("inf")]),
    (("seed",), -1),
    (("swin", "seed"), -1),
    (("synthetic", "seed"), -1),
], ids=["max_iterations-str", "num_images-str", "embed_dim-str", "embed_dim-float",
        "max_iterations-negative", "input_size-30", "no-swin", "no-swin-seed", "lr-nan",
        "betas-inf", "seed-negative", "swin-seed-negative", "synthetic-seed-negative"])
def test_train_rejects_bad_config(workspace, capsys, path, value):
    tmp, _, cfg_path = workspace
    doc = json.loads(cfg_path.read_text())
    edit(doc, path, value)
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", "--config", str(bad), "--out", str(tmp / "bad")]) == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "bad").exists()


@pytest.mark.parametrize("command", [
    ["preprocess", "{ann}", "--augment-plan", "{targets}", "--seed", "-1", "--out", "{out}"],
    ["gradcheck", "--seed", "-1"],
    ["ablate", "--config", "{cfg}", "--seeds", "x", "--out", "{out}"],
    ["ablate", "--config", "{cfg}", "--seeds", "0,-1", "--out", "{out}"],
], ids=["preprocess-seed-negative", "gradcheck-seed-negative", "ablate-seeds-x",
        "ablate-seeds-negative"])
def test_bad_seed_flag_exits_1_with_one_line(workspace, capsys, command):
    tmp, ann, cfg_path = workspace
    targets = tmp / "targets.json"
    targets.write_text(json.dumps({"train": {}, "val": {}}))
    argv = [a.format(ann=ann, targets=targets, cfg=cfg_path, out=tmp / "out") for a in command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == ""
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--config", "{cfg}", "--iters", "x", "--out", "{out}"],
    ["bench", "--iters", "6", "--out", "{out}"],
    [],
    ["frobnicate", "--out", "{out}"],
], ids=["malformed-int", "missing-config", "missing-command", "unknown-command"])
def test_usage_error_exits_1_with_one_line(workspace, capsys, argv):
    tmp, _, cfg_path = workspace
    assert main([a.format(cfg=cfg_path, out=tmp / "out") for a in argv]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == ""
    assert not (tmp / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert "--iters" in capsys.readouterr().out


@pytest.mark.parametrize("iters", ["3", "5"])
def test_bench_rejects_iters_within_warmup(workspace, capsys, iters):
    tmp, _, cfg_path = workspace
    assert main(["bench", "--config", str(cfg_path), "--iters", iters,
                 "--out", str(tmp / "b")]) == 1
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert captured.out == ""
    assert not (tmp / "b").exists()


def test_train_rejects_garbage_resume(workspace, capsys):
    tmp, _, cfg_path = workspace
    garbage = tmp / "garbage.npz"
    garbage.write_bytes(b"not a checkpoint\n" * 8)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "g"),
                 "--resume", str(garbage)]) == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "g" / "checkpoint.npz").exists()


@pytest.mark.parametrize("entry, edit", [
    ("adam_m.head.w", lambda a: np.zeros(3)),
    ("adam_v.head.w", lambda a: a.astype(np.int64)),
    ("iteration", lambda v: "1"),
    ("adam_t", lambda v: -1),
    ("num_classes", str),
    (None, lambda meta: [1, 2]),  # the whole meta entry
    ("category_ids", lambda ids: ids[:-1]),
    ("category_ids", lambda ids: [ids[0]] * len(ids)),
    ("category_ids", lambda ids: [-1] + ids[1:]),
    ("category_ids", lambda ids: [str(c) for c in ids]),
    (None, lambda meta: {k: v for k, v in meta.items() if k != "category_ids"}),
], ids=["moment-shape", "moment-dtype", "iteration-str", "adam-t-negative",
        "num-classes-str", "meta-list", "category-ids-short", "category-ids-repeated",
        "category-ids-negative", "category-ids-str", "no-category-ids"])
def test_train_rejects_malformed_resume(workspace, capsys, entry, edit):
    tmp, _, cfg_path = workspace
    short = json.loads(cfg_path.read_text())
    short["max_iterations"] = 1
    short_path = tmp / "short.json"
    short_path.write_text(json.dumps(short))
    assert main(["train", "--config", str(short_path), "--out", str(tmp / "r1")]) == 0
    capsys.readouterr()
    with np.load(tmp / "r1" / "checkpoint.npz") as blob:
        arrays = dict(blob)
    meta = json.loads(str(arrays["meta"]))
    if entry is None:
        meta = edit(meta)
    elif entry in arrays:
        arrays[entry] = edit(arrays[entry])
    else:
        meta[entry] = edit(meta[entry])
    arrays["meta"] = np.array(json.dumps(meta))
    bad = tmp / "bad.npz"
    np.savez(bad, **arrays)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "r2"),
                 "--resume", str(bad)]) == 1
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp / "r2" / "checkpoint.npz").exists()


# JSON kinds each train-config field accepts; the property below feeds it any other
ACCEPTED_KINDS = {
    ("swin",): {"object"},
    ("swin", "embed_dim"): {"int"},
    ("swin", "depths"): {"list"},
    ("swin", "mlp_ratio"): {"int", "float"},
    ("swin", "placement"): {"str"},
    ("swin", "input_size"): {"list"},
    ("swin", "seed"): {"int"},
    ("lr",): {"int", "float"},
    ("betas",): {"list"},
    ("epochs",): {"int"},
    ("dataset",): {"str"},
    ("timing_log_path",): {"str", "null"},
    ("max_iterations",): {"int", "null"},
    ("synthetic",): {"object", "null"},
    ("synthetic", "num_images"): {"int"},
    ("synthetic", "categories"): {"list"},
    ("synthetic", "noise_level"): {"int", "float"},
}
JSON_KINDS = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str",
              list: "list", dict: "object"}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


@settings(max_examples=50, deadline=None)
@given(path=st.sampled_from(list(ACCEPTED_KINDS)), value=json_values)
def test_wrong_json_type_exits_1_with_one_line(tmp_path_factory, path, value):
    assume(JSON_KINDS[type(value)] not in ACCEPTED_KINDS[path])
    doc = to_dict(TrainConfig(swin=nano_config(), max_iterations=1,
                              synthetic=SyntheticSpec(num_images=8)))
    edit(doc, path, value)
    tmp = tmp_path_factory.mktemp("wrong-type")
    (tmp / "cfg.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")])
    assert rc == 1
    assert_one_error_line(err.getvalue())
    assert not (tmp / "out").exists()


# JSON kinds each field of the other input documents accepts, "absent" when the key
# may be missing; a numeric field takes anything int() or float() converts
NUMBER = {"int", "float", "bool", "str"}
DOCUMENT_KINDS = {
    "coco": {
        (): {"object", "absent"},  # an empty file is a cut
        ("images",): {"list"},
        ("annotations",): {"list"},
        ("categories",): {"list"},
        ("images", 0): {"object", "absent"},
        ("images", 0, "id"): NUMBER,
        ("images", 0, "width"): NUMBER,
        ("images", 0, "height"): NUMBER,
        ("images", 0, "file_name"): {"str", "null", "absent"},
        ("annotations", 0): {"object", "absent"},
        ("annotations", 0, "image_id"): NUMBER,
        ("annotations", 0, "category_id"): NUMBER,
        ("annotations", 0, "bbox"): {"list", "str", "object"},
        ("categories", 0): {"object", "absent"},
        ("categories", 0, "id"): NUMBER,
    },
    "dets": {
        (): {"list", "absent"},
        (0,): {"object", "absent"},
        (0, "image_id"): NUMBER,
        (0, "category_id"): NUMBER,
        (0, "bbox"): {"list", "str", "object"},
        (0, "score"): NUMBER,
    },
    "targets": {
        (): {"object", "absent"},
        ("fraction",): {"int", "float", "absent"},
        ("train",): {"object", "absent"},
        ("val",): {"object", "absent"},
        ("train", "dark-blob"): {"int", "absent"},
    },
}
# (command, the document it reads that gets mutated)
DOCUMENT_READERS = [("eval", "coco"), ("preprocess", "coco"), ("eval", "dets"),
                    ("preprocess", "targets")]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A four-image dataset on disk and one valid document of each kind."""
    root = tmp_path_factory.mktemp("documents")
    ann = save_dataset(generate_synthetic(SyntheticSpec(num_images=4, seed=3)), root)
    valid = {
        "coco": json.loads(Path(ann).read_text()),
        "dets": [{"image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5], "score": 0.7}],
        "targets": {"fraction": 0.5, "train": {"dark-blob": 2}, "val": {}},
    }
    for name, doc in valid.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root, valid


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_document_exits_with_one_line(documents, tmp_path_factory, data):
    """A mutated COCO, detections or augment-targets file: exit 1 or 2, one stderr line,
    nothing written.  A mutation is a value of a kind its field rejects, a missing
    required key, or the text cut short."""
    _, valid = documents
    command, kind = data.draw(st.sampled_from(DOCUMENT_READERS))
    text = json.dumps(valid[kind])
    if data.draw(st.booleans(), label="cut"):
        text = text[:data.draw(st.integers(0, len(text) - 1), label="at")]
    else:
        path = data.draw(st.sampled_from(list(DOCUMENT_KINDS[kind])), label="path")
        value = data.draw(json_values | st.just(DELETE), label="value")
        got = "absent" if value is DELETE else JSON_KINDS[type(value)]
        assume(got not in DOCUMENT_KINDS[kind][path])
        doc = json.loads(text)
        if path:
            edit(doc, path, value)
        else:
            doc = value
        text = json.dumps(doc)
    rc, err, out = run_with_document(documents, tmp_path_factory, command, kind, text)
    lines = err.splitlines()
    assert rc in (1, 2), text
    assert len(lines) == 1, err
    assert lines[0].startswith("error: " if rc == 1 else "runtime failure: ")
    assert list(out.iterdir()) == []


def run_with_document(documents, tmp_path_factory, command, kind, text):
    """Run ``command`` with ``text`` as its ``kind`` document: exit code, stderr, out dir."""
    root, valid = documents
    files = {name: root / f"{name}.json" for name in valid}
    files[kind] = root / f"mutated-{kind}.json"  # next to the images: file names resolve
    files[kind].write_text(text)
    out = tmp_path_factory.mktemp("out")
    if command == "eval":
        argv = ["eval", "--dets", files["dets"], "--dataset", files["coco"]]
    else:
        argv = ["preprocess", files["coco"], "--augment-plan", files["targets"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv] + ["--out", str(out)])
    return rc, err.getvalue(), out


# (command, document, path, a value of an accepted kind but out of range, the
# words the error names it by)
OUT_OF_RANGE = (
    [("preprocess", "targets", ("fraction",), f, "split fraction") for f in (0, 1, 1.5, -0.5)]
    + [("preprocess", "targets", ("train", "dark-blob"), -1, "count must be >= 0"),
       ("eval", "dets", (0, "score"), 1.5, "score must be in [0, 1]"),
       ("eval", "dets", (0, "bbox"), [1, 1, -5, 5], "extents must be >= 0")]
    + [(command, "coco", path, value, words) for command in ("eval", "preprocess")
       for path, value, words in ((("images", 0, "width"), 0, "positive width"),
                                  (("annotations", 0, "bbox"), [1, 1, 5, -5],
                                   "extents must be >= 0"),
                                  (("categories", 0, "id"), -1, "negative id"))])


@pytest.mark.parametrize("command,kind,path,value,words", OUT_OF_RANGE)
def test_out_of_range_value_exits_1_with_one_line(documents, tmp_path_factory,
                                                  command, kind, path, value, words):
    """A value of a kind its field accepts, but out of range: exit 1, one stderr line
    that names the check, nothing written."""
    doc = json.loads(json.dumps(documents[1][kind]))
    edit(doc, path, value)
    rc, err, out = run_with_document(documents, tmp_path_factory, command, kind,
                                     json.dumps(doc))
    assert rc == 1, err
    assert_one_error_line(err)
    assert words in err
    assert list(out.iterdir()) == []


BAD_DETECTION_ENTRIES = {
    "negative-w": {"image_id": 1, "category_id": 1, "bbox": [1, 1, -5, 5], "score": 0.7},
    "score-1.5": {"image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5], "score": 1.5},
    "not-an-object": [1, 1, [1, 1, 5, 5], 0.7],
    "five-values": {"image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5, 5], "score": 0.7},
    "id-beyond-int64": {"image_id": -2**63 - 1, "category_id": 1, "bbox": [1, 1, 5, 5],
                        "score": 0.7},
}


@pytest.mark.parametrize("case", list(BAD_DETECTION_ENTRIES))
def test_bad_detection_entry_exits_1_naming_the_first(documents, tmp_path_factory, case):
    """A good entry, then a bad one, then another bad one: exit 1 with one line that
    names the first bad entry, nothing written."""
    good = documents[1]["dets"][0]
    bad = BAD_DETECTION_ENTRIES[case]
    later = {"category_id": 1, "bbox": [1, 1, 5, 5], "score": 0.7}  # no image_id
    rc, err, out = run_with_document(documents, tmp_path_factory, "eval", "dets",
                                     json.dumps([good, bad, later]))
    assert rc == 1, err
    assert_one_error_line(err)
    assert f"error: bad detection entry {bad!r}: " in err
    assert list(out.iterdir()) == []


def test_non_string_file_name_exits_1(workspace, capsys):
    tmp, ann, _ = workspace
    doc = json.loads(Path(ann).read_text())
    doc["images"][0]["file_name"] = 5
    bad = Path(ann).parent / "bad.json"
    bad.write_text(json.dumps(doc))
    dets = tmp / "dets.json"
    dets.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [1, 1, 5, 5],
                                 "score": 0.7}]))
    rc = main(["eval", "--dataset", str(bad), "--dets", str(dets), "--out", str(tmp / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "bad image entry" in err and "file_name" in err
    assert not (tmp / "e" / "metrics.json").exists()


def test_eval_write_failing_partway_keeps_previous_artifacts(workspace, monkeypatch, capsys):
    """A disk-full error in the middle of metrics.json leaves the last run's files intact."""
    tmp, ann, _ = workspace
    dets_path = tmp / "dets.json"
    dets_path.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                      "bbox": [1, 1, 5, 5], "score": 0.7}]))
    args = ["eval", "--dets", str(dets_path), "--dataset", str(ann), "--out", str(tmp / "e")]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in (tmp / "e").iterdir()}
    assert set(before) == {"metrics.json", "metrics.csv", "size_ordered.csv"}

    def disk_full(obj, fh, **kwargs):
        fh.write('{\n "map50": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", disk_full)
    dets_path.write_text(json.dumps([{"image_id": 2, "category_id": 2,
                                      "bbox": [2, 2, 9, 9], "score": 0.4}]))
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime failure: [Errno 28] No space left on device"]
    assert {p.name: p.read_bytes() for p in (tmp / "e").iterdir()} == before
