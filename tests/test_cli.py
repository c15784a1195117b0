"""CLI surface: dispatch, JSON outputs, exit codes, determinism."""
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cpt
from cpt import DenseGrid, EncoderConfig, read_grid, write_grid
from cpt.cli import run
from cpt.dataset import dataset_to_json
from cpt.synthetic import generator, inject_center_collisions, make_dataset
from cpt.targets import _HEADS

from oracles import reference_focal_loss, reference_splats


@pytest.fixture()
def small_dataset(tmp_path):
    ds = make_dataset(seed=31, num_images=3, max_objects=8, num_classes=2)
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(dataset_to_json(ds)), encoding="utf-8")
    return ds, path


def run_ok(capsys, argv):
    status = run(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return captured.out


def test_unknown_subcommand_exit_1(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exit_1(capsys):
    # decode has no --joint-candidates-all-cells: parsing must fail before any file is read
    for argv in (
        ["collisions", "--warp", "x.json"],
        ["decode", "--heatmap", "h", "--offset", "o", "--size", "s", "--joint-candidates-all-cells"],
    ):
        assert run(argv) == 1, argv
        assert "usage" in capsys.readouterr().err.lower(), argv


def test_missing_file_exit_1(capsys):
    assert run(["collisions", "/nonexistent/ds.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_no_subcommand_exit_1(capsys):
    assert run([]) == 1


def test_collisions_report(small_dataset, capsys):
    ds, path = small_dataset
    out = run_ok(capsys, ["collisions", "--stride", "4", "--thresholds", "0.5,0.7", str(path)])
    report = json.loads(out)
    assert report["n_center"] == 0
    assert set(report["n_iou"]) == {"0.5", "0.7"}
    assert report["total_objects"] == len(ds.annotations)


def test_collisions_deterministic_bytes(small_dataset, capsys):
    _, path = small_dataset
    a = run_ok(capsys, ["collisions", str(path)])
    b = run_ok(capsys, ["collisions", str(path)])
    assert a == b


def test_anchors_report(small_dataset, capsys):
    _, path = small_dataset
    out = run_ok(capsys, ["anchors", str(path), "--oracle"])
    report = json.loads(out)
    assert set(report["buckets"]) == {"small", "medium", "large"}
    assert report["n_anchor"] == len(report["forced_annotations"])
    assert run_ok(capsys, ["anchors", str(path)]) == out


def test_encode_decode_roundtrip_via_files(small_dataset, tmp_path, capsys):
    ds, path = small_dataset
    out_dir = tmp_path / "targets"
    manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(out_dir)]))
    assert (out_dir / "manifest.json").exists()

    entry = manifest["images"][0]
    image_id = entry["id"]
    tensors = {k: str(out_dir / v) for k, v in entry["tensors"].items()}
    grid = read_grid(tensors["heatmap"])
    assert grid.channels == manifest["config"]["classes"]

    out = run_ok(
        capsys,
        [
            "decode",
            "--heatmap", tensors["heatmap"],
            "--offset", tensors["offset"],
            "--size", tensors["size"],
            "--min-score", "0.5",
            "--to-pixels",
            "--image-id", str(image_id),
        ],
    )
    lines = [json.loads(line) for line in out.splitlines()]
    anns = [a for a in ds.annotations if a.image_id == image_id]
    assert len(lines) == len(anns)
    assert all(line["units"] == "pixels" for line in lines)
    got = np.array(sorted(tuple(line["box"]) for line in lines))
    want = np.array(sorted(a.bbox for a in anns))
    assert np.allclose(got, want, atol=1e-6)


def test_loss_on_ground_truth_predictions(small_dataset, tmp_path, capsys):
    _, path = small_dataset
    out_dir = tmp_path / "targets"
    manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(out_dir)]))
    entry = manifest["images"][0]
    tensors = {k: str(out_dir / v) for k, v in entry["tensors"].items()}
    out = run_ok(
        capsys,
        [
            "loss",
            "--manifest", str(out_dir / "manifest.json"),
            "--image", str(entry["id"]),
            "--pred-heatmap", tensors["heatmap"],
            "--pred-offset", tensors["offset"],
            "--pred-size", tensors["size"],
            "--grad-out", str(tmp_path / "grads"),
        ],
    )
    report = json.loads(out)
    assert report["offset"] == 0.0
    assert report["size"] == 0.0
    assert report["keypoint"] < 1e-2  # clamp keeps perfect focal slightly above zero
    assert report["total"] == report["keypoint"]
    assert (tmp_path / "grads" / "grad_heatmap.cpt").exists()


@pytest.mark.parametrize(
    "head, shape",
    [
        ("depth", (3, 12, 16)),
        ("dims", (8, 12, 16)),
        ("orientation", (3, 12, 16)),
        ("size", (2, 24, 32)),
        ("depth", (1, 6, 8)),
    ],
)
def test_loss_prediction_of_wrong_shape_exit_1(tmp_path, capsys, head, shape):
    ds = make_dataset(seed=31, num_images=1, max_objects=6, num_classes=2, image_w=64, image_h=48, with_3d=True)
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(dataset_to_json(ds)), encoding="utf-8")
    manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(tmp_path / "out")]))
    entry = manifest["images"][0]
    assert (entry["grid_h"], entry["grid_w"]) == (12, 16)
    argv = ["loss", "--manifest", str(tmp_path / "out" / "manifest.json"), "--image", str(entry["id"])]
    for name in ("heatmap", "offset", "size"):
        argv += [f"--pred-{name}", str(tmp_path / "out" / entry["tensors"][name])]
    bad = tmp_path / f"pred_{head}.cpt"
    write_grid(bad, DenseGrid(np.zeros(shape)))
    argv += [f"--pred-{head}", str(bad)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{head} head expects shape" in captured.err


def test_gradcheck_command(capsys):
    out = run_ok(capsys, ["gradcheck", "--seed", "7"])
    report = json.loads(out)
    assert report["pass"] is True
    assert set(report["losses"]) == {"focal", "offset", "size", "depth", "dims", "orientation"}
    for entry in report["losses"].values():
        assert entry["max_rel_error"] < report["tolerance"]


def test_gradcheck_failure_is_internal_error(capsys):
    # an unreachable tolerance turns FD noise into a reported invariant breach
    assert run(["gradcheck", "--seed", "7", "--tolerance", "1e-30"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] is False
    assert "internal error" in captured.err


def test_roundtrip_collision_free(small_dataset, capsys):
    _, path = small_dataset
    report = json.loads(run_ok(capsys, ["roundtrip", str(path)]))
    assert report["map"] == 1.0
    assert report["missed"] == 0
    assert report["center_collisions"] == 0
    assert report["detections"] == report["annotations"]


def test_top_k_above_cell_count_keeps_every_peak(small_dataset, tmp_path, capsys):
    # a cap beyond a C long gives the bytes of a cap at the cell count of one group; --min-score=-1 keeps zero peaks
    ds, path = small_dataset
    huge = str(10**23)
    configs = [EncoderConfig.for_image(img.width, img.height, ds.num_classes) for img in ds.images]
    cells = max(cfg.grid_w * cfg.grid_h * ds.num_classes for cfg in configs)
    argv = ["roundtrip", str(path), "--min-score=-1"]
    assert run_ok(capsys, argv + ["--top-k", huge]) == run_ok(capsys, argv + ["--top-k", str(cells)])
    heatmap = generator(3).uniform(0.0, 1.0, size=(2, 8, 8))
    grids = _unit_grids(tmp_path)
    write_grid(grids["heatmap"], DenseGrid(heatmap))
    argv = ["decode", "--heatmap", grids["heatmap"], "--offset", grids["offset"], "--size", grids["size"], "--min-score=-1"]
    assert run_ok(capsys, argv + ["--top-k", huge]) == run_ok(capsys, argv + ["--top-k", "128"])
    per_class = argv + ["--per-class-top-k", "--top-k"]
    assert run_ok(capsys, per_class + [huge]) == run_ok(capsys, per_class + ["64"])


def test_roundtrip_reports_collisions(tmp_path, capsys):
    ds = make_dataset(seed=8, num_images=4, max_objects=10, num_classes=2)
    spiked = inject_center_collisions(ds, seed=9, num_pairs=3)
    path = tmp_path / "spiked.json"
    path.write_text(json.dumps(dataset_to_json(spiked)), encoding="utf-8")
    report = json.loads(run_ok(capsys, ["roundtrip", str(path)]))
    assert report["center_collisions"] == 3
    assert report["missed"] == 3
    assert report["detections"] == report["annotations"] - 3


def test_edge_center_cell_collision_reported_by_roundtrip_and_collisions(tmp_path, capsys):
    # a zero-width box on the far edge of a 64-px side: its floored center cell 16 clamps to 15, onto the other box
    doc = {
        "images": [{"id": 1, "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "a"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [64, 10, 0, 4]},
            {"id": 2, "image_id": 1, "category_id": 1, "bbox": [60, 10, 2, 4]},
        ],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = json.loads(run_ok(capsys, ["roundtrip", str(path)]))
    assert report["missed"] == report["center_collisions"] == 1
    for extra in ([], ["--oracle"]):
        assert json.loads(run_ok(capsys, ["collisions", str(path)] + extra))["n_center"] == 1


def test_nms_and_eval_pipeline(small_dataset, tmp_path, capsys):
    ds, path = small_dataset
    lines = []
    for ann in ds.annotations:
        lines.append(
            json.dumps(
                {
                    "image_id": ann.image_id,
                    "category": ann.category,
                    "score": 0.9,
                    "box": list(ann.bbox),
                    "units": "pixels",
                }
            )
        )
    # an exact duplicate of the first detection, lower score: NMS must drop it
    first = json.loads(lines[0])
    first["score"] = 0.4
    dets_path = tmp_path / "dets.jsonl"
    dets_path.write_text("\n".join(lines + [json.dumps(first)]) + "\n", encoding="utf-8")

    kept = run_ok(capsys, ["nms", str(dets_path), "--iou-thresh", "0.5"])
    assert len(kept.splitlines()) == len(lines)

    kept_path = tmp_path / "kept.jsonl"
    kept_path.write_text(kept, encoding="utf-8")
    report = json.loads(run_ok(capsys, ["eval", str(kept_path), str(path)]))
    assert report["map"] == 1.0
    assert report["num_gt"] == len(ds.annotations)


def test_roundtrip_non_finite_bbox_exit_1(tmp_path, capsys):
    doc = {
        "images": [{"id": 1, "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "a"}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [float("nan"), 4, 8, 8]}],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["roundtrip", str(path)]) == 1
    assert "bbox entry must be finite" in capsys.readouterr().err


def test_decode_non_finite_heatmap_exit_1(tmp_path, capsys):
    hm = np.zeros((1, 8, 8))
    hm[0, 3, 3] = 0.9
    hm[0, 4, 3] = float("nan")
    paths = {}
    for name, data in (("heatmap", hm), ("offset", np.zeros((2, 8, 8))), ("size", np.ones((2, 8, 8)))):
        paths[name] = tmp_path / f"{name}.cpt"
        cpt.write_grid(paths[name], cpt.DenseGrid(data))
    argv = ["decode", "--heatmap", str(paths["heatmap"]), "--offset", str(paths["offset"]), "--size", str(paths["size"])]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {paths['heatmap']}: tensor holds NaN or infinite values" in captured.err


def test_unexpected_exception_is_internal_error(small_dataset, monkeypatch, capsys):
    _, path = small_dataset

    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr("cpt.cli._cmd_collisions", broken)
    assert run(["collisions", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: collisions: ValueError: boom\n"
    assert "Traceback" not in captured.err


def test_help_exits_through_system_exit(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--help"])
    assert info.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("command", ["eval", "nms"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ({"category": "x"}, "field 'category' must be int"),
        ({"category": 1.5}, "field 'category' must be int"),
        ({"image_id": "1"}, "field 'image_id' must be int"),
        ({"score": float("nan")}, "field 'score' must be finite"),
        ({"box": [0, 0, float("inf"), 4]}, "box entry must be finite"),
        ({"center": 5}, "field 'center' must be list"),
        ({"box": [4, 0, 0, 4]}, "box corners out of order"),
        ({"box": [0, 4, 4, 0]}, "box corners out of order"),
    ],
)
def test_bad_detection_line_exit_1(small_dataset, tmp_path, capsys, command, bad, message):
    _, path = small_dataset
    good = {"image_id": 1, "category": 0, "score": 0.9, "box": [0, 0, 4, 4], "units": "pixels"}
    dets_path = tmp_path / "dets.jsonl"
    dets_path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **bad}) + "\n", encoding="utf-8")
    argv = ["eval", str(dets_path), str(path)] if command == "eval" else ["nms", str(dets_path)]
    assert run(argv) == 1
    assert f"detections line 2: {message}" in capsys.readouterr().err



def test_nms_on_overflowing_areas_keeps_both_and_warns_nothing(tmp_path, capsys):
    # areas of 1e400 overflow float64, so by the IoU rule the two identical boxes have IoU 0
    line = json.dumps({"category": 0, "score": 0.9, "box": [0, 0, 1e200, 1e200]})
    dets_path = tmp_path / "dets.jsonl"
    dets_path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would exit 2
        assert run(["nms", str(dets_path)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert captured.err == ""


def test_bad_detection_named_by_its_line_in_the_file(tmp_path, capsys):
    dets_path = tmp_path / "dets.jsonl"
    good = json.dumps({"category": 0, "score": 0.9, "box": [0, 0, 4, 4]})
    dets_path.write_text(good + "\n\n" + json.dumps({"category": "x"}) + "\n", encoding="utf-8")
    assert run(["nms", str(dets_path)]) == 1
    assert "detections line 3: field 'category' must be int" in capsys.readouterr().err

def test_eval_accepts_cell_units(small_dataset, tmp_path, capsys):
    ds, path = small_dataset
    lines = [
        json.dumps(
            {
                "image_id": ann.image_id,
                "category": ann.category,
                "score": 1.0,
                "box": [v / 4.0 for v in ann.bbox],
                "units": "cells",
            }
        )
        for ann in ds.annotations
    ]
    dets_path = tmp_path / "dets.jsonl"
    dets_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = json.loads(run_ok(capsys, ["eval", str(dets_path), str(path), "--stride", "4"]))
    assert report["map"] == 1.0


def test_eval_rejects_a_category_outside_the_dataset(tmp_path, capsys):
    """A stray class index would otherwise be reported under the real class id it equals."""
    ds = make_dataset(seed=31, num_images=1, max_objects=3, num_classes=2)
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(dataset_to_json(ds)), encoding="utf-8")
    ann = ds.annotations[0]
    dets_path = tmp_path / "dets.jsonl"
    for category in (2, -1, 10**30):
        lines = [
            json.dumps({"image_id": ann.image_id, "category": c, "score": 1.0, "box": list(ann.bbox)})
            for c in (1, category)
        ]
        dets_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["eval", str(dets_path), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"detections line 2: category {category} is not a class index of the dataset [0, 2)" in captured.err


def test_pose_encode_decode_via_cli(tmp_path, capsys):
    doc = {
        "images": [{"id": 1, "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "person"}],
        "annotations": [
            {
                "id": 1,
                "image_id": 1,
                "category_id": 1,
                "bbox": [10, 10, 40, 40],
                "keypoints": [20, 20, 2, 30, 44, 2],
            }
        ],
    }
    path = tmp_path / "pose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "targets"
    manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(out_dir), "--joints", "2", "--pose"]))
    tensors = {k: str(out_dir / v) for k, v in manifest["images"][0]["tensors"].items()}
    assert "joint_heatmap" in tensors

    # joint regression map is a prediction head; write the targets as predictions
    from cpt import DenseGrid, write_grid

    entry = manifest["images"][0]
    joints = DenseGrid.zeros(entry["grid_w"], entry["grid_h"], 4)
    obj = entry["objects"][0]
    for j, (dx, dy) in enumerate(obj["joint_offsets"]):
        joints.data[2 * j, obj["cell"][1], obj["cell"][0]] = dx
        joints.data[2 * j + 1, obj["cell"][1], obj["cell"][0]] = dy
    joints_path = tmp_path / "joints.cpt"
    write_grid(joints_path, joints)

    out = run_ok(
        capsys,
        [
            "decode",
            "--heatmap", tensors["heatmap"],
            "--offset", tensors["offset"],
            "--size", tensors["size"],
            "--joints-map", str(joints_path),
            "--joint-heatmap", tensors["joint_heatmap"],
            "--joint-local-offset", tensors["joint_local_offset"],
            "--min-score", "0.5",
        ],
    )
    (line,) = [json.loads(l) for l in out.splitlines()]
    assert [j["source"] for j in line["joints"]] == ["snapped", "snapped"]
    assert line["joints"][0]["x"] == pytest.approx(20 / 4)
    assert line["joints"][1]["y"] == pytest.approx(44 / 4)


def test_console_entry_point(small_dataset):
    _, path = small_dataset
    proc = subprocess.run(
        [sys.executable, "-m", "cpt.cli", "collisions", str(path)],
        cwd=Path(cpt.__file__).parents[1],  # `-m` finds the package under test without an install
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_center"] == 0


def _pose_dataset(path, seed, joints):
    """Seeded 80x64 images with same-cell same-class pairs and keypoints, some hidden or off the image."""
    rng = generator(seed)
    base = make_dataset(seed, num_images=3, max_objects=15, num_classes=3, image_w=80, image_h=64)
    ds = inject_center_collisions(base, seed, 4)
    anns = []
    for ann in ds.annotations:
        xy = rng.uniform(-8.0, 88.0, size=(joints, 2))
        anns.append(replace(ann, keypoints=[(float(x), float(y), bool(rng.random() < 0.8)) for x, y in xy]))
    path.write_text(json.dumps(dataset_to_json(replace(ds, annotations=anns))), encoding="utf-8")


def _predictions(work, entry, targets_dir, seed):
    """float32 predictions near the targets, with heatmap cells at and beyond the focal clamp edges."""
    rng = generator(seed)
    paths = {}
    for head in ("heatmap", "offset", "size"):
        target = read_grid(targets_dir / entry["tensors"][head]).data
        noise = rng.random(target.shape) if head == "heatmap" else rng.normal(0.0, 0.5, target.shape)
        pred = (0.9 * target + 0.1 * noise if head == "heatmap" else target + noise).astype(np.float32)
        if head == "heatmap":
            edges = np.array([0.0, 1e-4, 1.0 - 1e-4, 1.0, np.nextafter(1e-4, 0.0)], dtype=np.float32)
            cells = rng.choice(pred.size, size=40, replace=False)
            pred.ravel()[cells] = edges[cells % edges.size]
        paths[head] = work / f"pred_{entry['id']}_{head}.cpt"
        write_grid(paths[head], DenseGrid(pred))
    return paths


def _encode_and_loss(capsys, work, dataset):
    """stdout of cpt encode, cpt encode --pose and cpt loss --grad-out per image, and every file written."""
    out = [
        run_ok(capsys, ["encode", str(dataset), "--out", str(work / "det"), "--joints", "3"]),
        run_ok(capsys, ["encode", str(dataset), "--out", str(work / "pose"), "--joints", "3", "--pose"]),
    ]
    for entry in json.loads(out[0])["images"]:
        preds = _predictions(work, entry, work / "det", entry["id"])
        argv = ["loss", "--manifest", str(work / "det" / "manifest.json"), "--image", str(entry["id"])]
        for head, path in preds.items():
            argv += [f"--pred-{head}", str(path)]
        out.append(run_ok(capsys, argv + ["--grad-out", str(work / f"grads_{entry['id']}")]))
    files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    return out, files


def _reference_focal_result(pred, target, params):
    """reference_focal_loss's pair as focal_loss returns it, with the positive-cell count that total_loss reads."""
    positives = int(np.count_nonzero(target.data == 1.0))
    return cpt.losses._FocalResult(*reference_focal_loss(pred, target, params), positives)


def test_encode_and_loss_bytes_equal_reference_splat_and_focal(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "ds.json"
    _pose_dataset(dataset, 17, 3)
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    out, files = _encode_and_loss(capsys, tmp_path / "new", dataset)
    monkeypatch.setattr(cpt.targets, "_splat", reference_splats)
    monkeypatch.setattr(cpt.losses, "focal_loss", _reference_focal_result)
    ref_out, ref_files = _encode_and_loss(capsys, tmp_path / "ref", dataset)
    assert out == ref_out
    assert files.keys() == ref_files.keys()
    assert all(files[name] == ref_files[name] for name in files)
    manifest = json.loads(out[0])
    assert sum(len(entry["collisions"]) for entry in manifest["images"]) >= 1
    assert sum(name.endswith("joint_heatmap.cpt") for name in files) == 3
    assert sum(name.endswith("grad_heatmap.cpt") for name in files) == 3


@pytest.mark.parametrize(
    "doc",
    [
        [1],
        {"images": [{"id": 1}]},
        {"config": {}, "images": [{"id": 1, "objects": "x"}]},
    ],
)
def test_malformed_manifest_exit_1(tmp_path, capsys, doc):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["loss", "--manifest", str(manifest), "--pred-heatmap", "h", "--pred-offset", "o", "--pred-size", "s"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"manifest {manifest}" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"input_w": 0}, "input_w and input_h must be >= 1"),
        ({"input_h": -128}, "input_w and input_h must be >= 1"),
        ({"grid_w": 33}, "grid_w is 33, but the input size and stride give 32"),
        ({"grid_h": 1}, "grid_h is 1, but the input size and stride give 32"),
        ({"input_w": 256, "grid_w": 64}, "tensors heatmap: grid is 32x32, the manifest gives 64x32"),
    ],
)
def test_manifest_geometry_mismatch_exit_1(small_dataset, tmp_path, capsys, edit, message):
    _, path = small_dataset
    manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(tmp_path / "out")]))
    entry = manifest["images"][0]
    tensors = {k: str(tmp_path / "out" / v) for k, v in entry["tensors"].items()}
    entry.update(edit)
    edited = tmp_path / "out" / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    argv = ["loss", "--manifest", str(edited), "--image", str(entry["id"]),
            "--pred-heatmap", tensors["heatmap"], "--pred-offset", tensors["offset"], "--pred-size", tensors["size"]]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: manifest {edited} images[0]") and message in captured.err


def _unit_grids(tmp_path):
    """A 2x8x8 heatmap with one peak, zero offsets and unit sizes, as .cpt files."""
    hm = np.zeros((2, 8, 8))
    hm[1, 3, 4] = 0.9
    paths = {}
    for name, data in (("heatmap", hm), ("offset", np.zeros((2, 8, 8))), ("size", np.ones((2, 8, 8)))):
        paths[name] = str(tmp_path / f"{name}.cpt")
        write_grid(paths[name], DenseGrid(data))
    return paths


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("encode", ["--stride", "0"], "output_stride must be >= 1"),
        ("roundtrip", ["--stride", "0"], "output_stride must be >= 1"),
        ("decode", ["--stride", "0"], "stride must be >= 1"),
        ("gradcheck", ["--step", "0"], "step must be a finite number > 0"),
        ("gradcheck", ["--tolerance", "nan"], "--tolerance must be > 0"),
        ("anchors", ["--resize-shorter", "0"], "resize_shorter must be finite and > 0"),
        ("anchors", ["--resize-shorter", "-3"], "resize_shorter must be finite and > 0"),
        ("anchors", ["--ratios", "1,0"], "anchor ratios must be finite and > 0"),
        ("collisions", ["--thresholds", "nan"], "IoU thresholds must be finite"),
        ("loss", ["--beta", "nan"], "beta must be >= 0"),
        ("loss", ["--lambda-size", "nan"], "loss weight size must be >= 0"),
        ("decode", ["--min-score", "nan"], "--min-score must be finite"),
        ("decode", ["--min-score=-inf"], "--min-score must be finite"),
        ("roundtrip", ["--min-score", "nan"], "--min-score must be finite"),
        ("decode_pose", ["--joint-thresh", "nan"], "joint_thresh must be finite"),
        ("decode_pose", ["--joint-thresh", "inf"], "joint_thresh must be finite"),
        ("anchors", ["--resize-shorter", "4"], "resizes to 4x4, which holds no anchor center at stride 16"),
        ("anchors", ["--resize-shorter", "4", "--oracle"], "resizes to 4x4, which holds no anchor center at stride 16"),
        ("anchors", ["--resize-shorter", "1e300"], "x1e+300: each side must be < 2**52 for exact anchor centers"),
        ("anchors", ["--resize-shorter", "1e300", "--oracle"], "x1e+300: each side must be < 2**52 for exact anchor centers"),
        ("gradcheck", ["--seed", "-1"], "seed must be in [0, 2**128), got -1"),
        ("gradcheck", ["--seed", str(2**128)], f"seed must be in [0, 2**128), got {2**128}"),
        ("loss", ["--beta", "inf"], "beta must be >= 0 and finite"),
        ("loss", ["--alpha", "inf"], "alpha must be > 0 and finite"),
        ("loss", ["--alpha", "0"], "alpha must be > 0 and finite"),
        ("loss", ["--lambda-size", "inf"], "loss weight size must be >= 0 and finite"),
        ("loss", ["--lambda-off", "inf"], "loss weight offset must be >= 0 and finite"),
        ("loss", ["--lambda-dep", "inf"], "loss weight depth must be >= 0 and finite"),
        ("loss", ["--lambda-dim", "inf"], "loss weight dims must be >= 0 and finite"),
        ("loss", ["--lambda-ori", "inf"], "loss weight orientation must be >= 0 and finite"),
        ("loss", ["--lambda-ori=-1"], "loss weight orientation must be >= 0 and finite"),
        ("anchors", ["--sizes", "1e308"], "anchor size 1e+308 at ratio 0.5: its area overflows to inf"),
        ("encode", ["--classes", str(2**70)], f"a {2**70}x32x32 float64 heatmap is larger than numpy can index"),
        ("gradcheck", ["--step", "1e300"], "gradcheck step 1e+300 leaves no coordinate to check"),
        ("gradcheck", ["--step", "1e-300"], "gradcheck step 1e-300 is lost in rounding"),
        ("gradcheck", ["--step", "5e-324"], "gradcheck step 5e-324 is lost in rounding"),
        ("gradcheck", ["--step", "1e-12"], "gradcheck step 1e-12 is too small at 0.7099366940804387"),
        ("encode_no_images", ["--stride", "0"], "output_stride must be >= 1, got 0"),
        ("roundtrip_no_images", ["--stride", "0"], "output_stride must be >= 1, got 0"),
        ("eval", ["--stride=-1"], "stride must be >= 1, got -1"),
        ("eval", ["--stride", "0"], "stride must be >= 1, got 0"),
        ("decode", ["--joint-thresh", "nan"], "joint_thresh must be finite, got nan"),
        ("decode", ["--joint-thresh=-inf"], "joint_thresh must be finite, got -inf"),
    ],
)
def test_bad_numeric_flag_exit_1(small_dataset, tmp_path, capsys, command, flags, message):
    _, path = small_dataset
    if command.endswith("_no_images"):
        command = command.removesuffix("_no_images")
        path.write_text(json.dumps({"images": [], "annotations": [], "categories": [{"id": 1, "name": "a"}]}))
    if command in ("decode", "decode_pose"):
        grids = _unit_grids(tmp_path)
        argv = ["decode", "--heatmap", grids["heatmap"], "--offset", grids["offset"], "--size", grids["size"]]
        if command == "decode_pose":
            # one person channel and one joint type on the same 8x8 grid
            for name, channels in (("person", 1), ("joints", 2), ("joint_heatmap", 1), ("joint_local", 2)):
                grids[name] = str(tmp_path / f"{name}.cpt")
                write_grid(grids[name], DenseGrid(np.zeros((channels, 8, 8))))
            argv[2] = grids["person"]
            argv += ["--joints-map", grids["joints"], "--joint-heatmap", grids["joint_heatmap"],
                     "--joint-local-offset", grids["joint_local"]]
    elif command == "encode":
        argv = ["encode", str(path), "--out", str(tmp_path / "out")]
    elif command == "gradcheck":
        argv = ["gradcheck"]
    elif command == "eval":  # one detection in pixels, which no stride converts
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"image_id": 0, "category": 0, "score": 0.5, "box": [1, 2, 3, 4], "units": "pixels"}\n')
        argv = ["eval", str(dets), str(path)]
    elif command == "loss":
        manifest = json.loads(run_ok(capsys, ["encode", str(path), "--out", str(tmp_path / "out")]))
        tensors = {k: str(tmp_path / "out" / v) for k, v in manifest["images"][0]["tensors"].items()}
        argv = ["loss", "--manifest", str(tmp_path / "out" / "manifest.json"), "--image", str(manifest["images"][0]["id"]),
                "--pred-heatmap", tensors["heatmap"], "--pred-offset", tensors["offset"], "--pred-size", tensors["size"]]
    else:
        argv = [command, str(path)]
    assert run(argv + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    if command == "encode":  # with images and without, a bad flag leaves no output directory
        assert not (tmp_path / "out").exists()



def test_pred_channel_table_in_formats_doc_matches_heads():
    """docs/formats.md's `--pred-*` table lists every head of targets._HEADS, in order, with its channels."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `--pred-(\w+)` \| (\w+) \|$", doc, flags=re.MULTILINE)
    assert [(head, 0 if channels == "classes" else int(channels)) for head, channels in rows] == list(_HEADS.items())


# decode flags and (channels, side) of 8x8 pose maps with one joint type
POSE_SHAPES = {"--heatmap": (1, 8), "--offset": (2, 8), "--size": (2, 8), "--joints-map": (2, 8),
               "--joint-heatmap": (1, 8), "--joint-local-offset": (2, 8)}


def _decode_argv(tmp_path, shapes):
    """decode arguments for maps of the given (channels, side), each with a peak in its last cell."""
    argv = ["decode"]
    for name, (c, s) in shapes.items():
        data = np.zeros((c, s, s))
        data[:, -1, -1] = 1.0
        write_grid(tmp_path / f"{name[2:]}.cpt", DenseGrid(data))
        argv += [name, str(tmp_path / f"{name[2:]}.cpt")]
    return argv


@pytest.mark.parametrize(
    "flag, channels, side, message",
    [
        ("--offset", 3, 8, "offset map must have 2 channels, got 3"),
        ("--joint-heatmap", 1, 16, "joint heatmap is 16x16, heatmap is 8x8"),
        ("--depth", 3, 8, "depth map must have 1 channels, got 3"),
    ],
)
def test_pose_decode_bad_map_exit_1(tmp_path, capsys, flag, channels, side, message):
    """One pose input of the wrong shape among 8x8 maps with one joint type, each with a peak in its last cell."""
    assert run(_decode_argv(tmp_path, {**POSE_SHAPES, flag: (channels, side)})) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "left_out, name",
    [("--joints-map", "joint regression map"), ("--joint-heatmap", "joint heatmap"),
     ("--joint-local-offset", "joint local offset map")],
)
def test_pose_decode_missing_joint_map_exit_1(tmp_path, capsys, left_out, name):
    shapes = {flag: shape for flag, shape in POSE_SHAPES.items() if flag != left_out}
    assert run(_decode_argv(tmp_path, shapes)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pose decoding requires the {name} with the other joint maps\n"


def test_pose_decode_with_3d_maps_and_per_class_top_k(tmp_path, capsys):
    """Joint maps, 3D maps and --per-class-top-k act together in one decode."""
    shapes = {**POSE_SHAPES, "--depth": (1, 8), "--dims": (3, 8), "--orientation": (8, 8)}
    out = run_ok(capsys, _decode_argv(tmp_path, shapes) + ["--per-class-top-k", "--top-k", "2", "--min-score", "0.5"])
    (line,) = [json.loads(text) for text in out.splitlines()]
    assert line["center"] == [8.0, 8.0] and line["depth"] == pytest.approx(math.exp(-1.0))
    assert line["dims3d"] == [1.0, 1.0, 1.0] and "yaw" in line
    assert line["joints"] == [{"x": 8.0, "y": 8.0, "source": "snapped"}]


def test_encode_names_the_image_and_annotation_of_a_bad_category(tmp_path, capsys):
    """A category-1 annotation only in image 2, under --classes 1, stops the run before manifest.json is written."""
    doc = {
        "images": [{"id": 1, "width": 16, "height": 16}, {"id": 2, "width": 16, "height": 16}],
        "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [2, 2, 8, 8]},
            {"id": 7, "image_id": 2, "category_id": 2, "bbox": [2, 2, 8, 8]},
        ],
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["encode", str(path), "--out", str(tmp_path / "out"), "--classes", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: image 2 annotation 7: category 1 out of range [0, 1)\n"
    assert not (tmp_path / "out" / "manifest.json").exists()
