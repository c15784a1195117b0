"""Tests of the benchmark itself: inputs are reproducible and every check rejects a corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cpt  # noqa: E402
from cpt import synthetic  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _scene(seed=3, images=2, objects=8, classes=3, w=64, h=64):
    return synthetic.make_dataset(seed, num_images=images, max_objects=objects, num_classes=classes, image_w=w, image_h=h)


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", ["coco-roundtrip", "coco-train", "coco-analysis"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = [p.read_bytes() for p in inputs.write_inputs(workload, 5, tmp_path / "a")]
    second = [p.read_bytes() for p in inputs.write_inputs(workload, 5, tmp_path / "b")]
    other = [p.read_bytes() for p in inputs.write_inputs(workload, 6, tmp_path / "c")]
    assert first == second
    assert first[0] != other[0]


def test_analysis_inputs_record_every_injected_pair():
    doc, meta = inputs.make_inputs("coco-analysis", 1)
    assert sum(meta["injected_by_image"].values()) == inputs.INJECTED_PAIRS
    assert len(doc["images"]) == inputs.ANALYSIS_ROUNDS * inputs.ANALYSIS["max_objects"]


def test_every_round_holds_each_object_count_once():
    ds = inputs.rounds_dataset(9, 3, **inputs.COCO)
    top = inputs.COCO["max_objects"]
    counts = [len(anns) for _, anns in sorted(ds.annotations_by_image().items())]
    for r in range(3):
        assert sorted(counts[r * top : (r + 1) * top]) == list(range(1, top + 1))
    assert [a.id for a in ds.annotations] == list(range(1, len(ds.annotations) + 1))


# ------------------------------------------------------------------ roundtrip

def _roundtrip_image(seed=3):
    ds = _scene(seed)
    img = ds.images[0]
    anns = ds.annotations_by_image()[img.id]
    cfg = cpt.EncoderConfig.for_image(img.width, img.height, ds.num_classes)
    ts = cpt.encode_detection(anns, cfg)
    raw = cpt.decode_boxes(ts.heatmap, ts.offset, ts.size, top_k=20, size_units="pixels", stride=4)
    kept = [cpt.to_input_space(d, 4) for d in raw if d.score > 0.0]
    return ds, anns, ts, raw, kept


def test_reference_peaks_equal_extract_peaks_on_plateau_grids():
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        grid = rng.integers(0, 3, size=(3, 7, 9)).astype(np.float64)
        want = [(p.channel, p.y, p.x, p.score) for p in cpt.extract_peaks(cpt.DenseGrid(grid), 15)]
        assert checks.top_peaks(grid, 15) == want
        assert checks.count_peak_cells(grid) == len(cpt.extract_peaks(cpt.DenseGrid(grid), grid.size))


def test_decoded_peak_check_rejects_corruption():
    _, _, ts, raw, _ = _roundtrip_image()
    hm, off = ts.heatmap.data, ts.offset.data
    assert checks.check_decoded_peaks(raw, hm, off, 20) == []
    swapped = list(raw)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    corrupt = [
        raw[:-1],
        swapped,
        [replace(raw[0], score=raw[0].score * 0.5)] + raw[1:],
        [replace(raw[0], center=(raw[0].center[0] + 1e-6, raw[0].center[1]))] + raw[1:],
        [replace(raw[-1], category=(raw[-1].category + 1) % 3)] + raw[:-1],
    ]
    for dets in corrupt:
        assert checks.check_decoded_peaks(dets, hm, off, 20)


def test_kept_box_check_rejects_corruption():
    _, anns, _, _, kept = _roundtrip_image()
    assert checks.check_kept_boxes(kept, anns) == []
    box = kept[0].box
    for dets in (
        kept[1:],
        [replace(kept[0], box=(box[0] + 1e-6,) + box[1:])] + kept[1:],
        [replace(kept[0], category=(kept[0].category + 1) % 3)] + kept[1:],
        kept + [kept[0]],
    ):
        assert checks.check_kept_boxes(dets, anns)


def test_roundtrip_eval_check_rejects_corruption():
    ds = _scene(4, images=3)
    wl = workloads.Roundtrip(cpt, ds, {})
    for img in ds.images:
        wl.step(img, None)
        assert wl.inspect(img, True) == []
    wl.finish()
    assert wl.final_checks() == []
    report = wl.report
    assert checks.check_roundtrip_eval(replace(report, mean_ap=report.mean_ap - 1e-12), 0)
    assert checks.check_roundtrip_eval(replace(report, true_positives=report.true_positives - 1), 0)
    assert checks.check_roundtrip_eval(report, 1)
    # a real collision is caught end to end
    dup = synthetic.inject_center_collisions(ds, 1, 1)
    wl = workloads.Roundtrip(cpt, dup, {})
    for img in dup.images:
        wl.step(img, None)
    wl.finish()
    assert wl.final_checks()


# ------------------------------------------------------------------ train

def _train_step(seed=5):
    ds = _scene(seed, images=1, objects=10, classes=4)
    wl = workloads.Train(cpt, ds, {"seed": seed})
    img = ds.images[0]
    wl.step(img, wl.prepare(img))
    ts, report, preds = wl.last
    return wl, img, ds.annotations_by_image()[img.id], ts, report, preds


def test_train_checks_accept_the_program_and_reject_corruption():
    wl, img, anns, ts, report, preds = _train_step()
    assert wl.inspect(img, True) == []
    hm = ts.heatmap.data
    assert checks.check_positive_cells(hm, len(anns) + 1)
    for term in ("keypoint", "offset", "size", "total"):
        bad = replace(report, **{term: getattr(report, term) * (1 + 1e-6)})
        assert checks.check_train_sample(bad, preds, hm, anns, 4), term
    grads = copy.deepcopy(report.gradients)
    c, y, x = np.unravel_index(np.argmax(np.abs(grads["heatmap"].data)), hm.shape)
    grads["heatmap"].data[c, y, x] *= 1 + 1e-6
    assert checks.check_train_sample(replace(report, gradients=grads), preds, hm, anns, 4)


# ------------------------------------------------------------------ analysis

def _analysis_image():
    base = synthetic.make_dataset(7, num_images=4, max_objects=30, num_classes=2, image_w=640, image_h=480)
    ds = synthetic.inject_center_collisions(base, 8, 6)
    injected = {}
    for a in ds.annotations[len(base.annotations):]:
        injected[a.image_id] = injected.get(a.image_id, 0) + 1
    wl = workloads.Analysis(cpt, ds, {"injected_by_image": injected})
    img = max(ds.images, key=lambda m: injected.get(m.id, 0))
    wl.step(img, None)
    return wl, img


def test_analysis_checks_accept_the_program_and_reject_corruption():
    wl, img = _analysis_image()
    assert wl.inspect(img, True) == []
    n_center, n_iou, forced = wl.last
    anns = wl.by_image[img.id]
    injected = wl.injected.get(img.id, 0)
    assert injected > 0 and forced
    assert checks.check_analysis_image(img, anns, injected, n_center + 1, n_iou, forced, False)
    assert checks.check_analysis_image(img, anns, injected, n_center, {**n_iou, 0.5: n_iou[0.5] + 1}, forced, False)
    assert checks.check_analysis_image(img, anns, injected, n_center, n_iou, forced[1:], True)


def test_reference_anchor_grid_matches_retinanet_definition():
    ours = checks.retinanet_anchors(1066.0, 800.0)
    theirs = cpt.anchor_grid(1066.0, 800.0, cpt.AnchorConfig())
    assert ours.shape == theirs.shape == (67 * 50 * 15, 4)
    assert np.array_equal(np.unique(ours, axis=0), np.unique(theirs, axis=0))


# ------------------------------------------------------------------ tracing and run.py

def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        {"name": "a", "image": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "image": 0, "parent": 0, "start": 2.0, "end": 5.0, "counts": {"n": 2}},
        {"name": "b", "image": 0, "parent": 0, "start": 6.0, "end": 7.0},
        {"name": "a", "image": None, "parent": None, "start": 20.0, "end": 21.0},
    ]
    assert tracer.self_times() == [6.0, 3.0, 1.0, 1.0]
    images, loose = tracer.per_image()
    assert dict(images[0]) == {"a": 6.0, "b": 4.0, "n": 2}
    assert dict(loose) == {"a": 1.0}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coco-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
