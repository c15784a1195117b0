"""CLI surface: dispatch, JSON outputs, exit codes, determinism."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpt
from cpt import read_grid
from cpt.cli import run
from cpt.dataset import dataset_to_json
from cpt.synthetic import inject_center_collisions, make_dataset


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
    assert run(["collisions", "--warp", "x.json"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


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


def test_roundtrip_reports_collisions(tmp_path, capsys):
    ds = make_dataset(seed=8, num_images=4, max_objects=10, num_classes=2)
    spiked = inject_center_collisions(ds, seed=9, num_pairs=3)
    path = tmp_path / "spiked.json"
    path.write_text(json.dumps(dataset_to_json(spiked)), encoding="utf-8")
    report = json.loads(run_ok(capsys, ["roundtrip", str(path)]))
    assert report["center_collisions"] == 3
    assert report["missed"] == 3
    assert report["detections"] == report["annotations"] - 3


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
