"""JSON records: write -> read returns every field, and readers reject malformed records.

Records with array fields are compared through to_json, because dataclass
equality is ambiguous on numpy arrays.
"""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import Detection, InputError, Joint, JointCell, ObjectTarget, encode_detection, encode_orientation, encode_pose
from cpt.records import detection_from_json, joint_cell_from_json, object_from_json, read_targets, to_json, write_targets
from cpt.synthetic import generator, make_dataset
from cpt.targets import EncoderConfig

FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
INTS = st.integers(-(2**40), 2**40)


def _floats(n):
    return st.tuples(*[FLOATS] * n)


def _json_trip(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


@st.composite
def object_targets(draw):
    obj = ObjectTarget(
        index=draw(st.integers(0, 10**6)),
        category=draw(st.integers(0, 90)),
        cell=draw(st.tuples(INTS, INTS)),
        offset=draw(_floats(2)),
        size=draw(_floats(2)),
    )
    if draw(st.booleans()):
        obj.depth, obj.dims3d, obj.yaw = draw(FLOATS), draw(_floats(3)), draw(FLOATS)
        obj.orientation = np.array(draw(_floats(8)))
    if draw(st.booleans()):
        k = draw(st.integers(0, 5))
        obj.joint_offsets = np.array(draw(st.lists(_floats(2), min_size=k, max_size=k))).reshape(-1, 2)
        obj.joint_mask = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k, max_size=k)))
    return obj


@st.composite
def detections(draw):
    det = Detection(
        category=draw(st.integers(0, 90)),
        score=draw(FLOATS),
        box=draw(_floats(4).map(lambda b: (min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])))),
        center=draw(_floats(2)),
        units=draw(st.sampled_from(["cells", "pixels"])),
    )
    if draw(st.booleans()):
        det.depth, det.dims3d, det.yaw = draw(FLOATS), draw(_floats(3)), draw(FLOATS)
    if draw(st.booleans()):
        det.joints = draw(st.lists(st.builds(Joint, FLOATS, FLOATS, st.sampled_from(["snapped", "regressed"])), max_size=4))
    return det


@given(obj=object_targets(), annotation_id=st.integers())
@settings(max_examples=200, deadline=None)
def test_object_target_roundtrip(obj, annotation_id):
    written = {"annotation_id": annotation_id, **to_json(obj)}
    back = object_from_json(_json_trip(written), "objects[0]")
    assert to_json(back) == to_json(obj)
    for name in ("orientation", "joint_offsets", "joint_mask"):
        want, got = getattr(obj, name), getattr(back, name)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == np.float64 and got.shape == want.shape


@given(jc=st.builds(JointCell, st.integers(0, 30), st.tuples(INTS, INTS), _floats(2)))
@settings(max_examples=100, deadline=None)
def test_joint_cell_roundtrip(jc):
    assert joint_cell_from_json(_json_trip(to_json(jc)), "joint_cells[0]") == jc


@given(det=detections(), image_id=st.integers())
@settings(max_examples=200, deadline=None)
def test_detection_roundtrip(det, image_id):
    assert detection_from_json(_json_trip({"image_id": image_id, **to_json(det)}), "line 1") == (image_id, det)


def test_to_json_leaves_out_none_and_maps_named_tuples():
    det = Detection(category=1, score=0.5, box=(0.0, 1.0, 2.0, 3.0), center=(1.0, 2.0), joints=[Joint(1.0, 2.0, "snapped")])
    assert to_json(det) == {
        "category": 1,
        "score": 0.5,
        "box": [0.0, 1.0, 2.0, 3.0],
        "center": [1.0, 2.0],
        "joints": [{"x": 1.0, "y": 2.0, "source": "snapped"}],
        "units": "cells",
    }


def _targets(seed, pose, units):
    """An encoded image of a seeded 64x48 dataset with 3D fields, and keypoints when pose is set."""
    rng = generator(seed)
    ds = make_dataset(seed, num_images=1, max_objects=6, num_classes=2, image_w=64, image_h=48, with_3d=True)
    anns = [
        replace(a, keypoints=[(float(x), float(y), bool(rng.random() < 0.7)) for x, y in rng.uniform(-4, 68, (3, 2))])
        for a in ds.annotations
    ]
    cfg = EncoderConfig.for_image(64, 48, 2, num_joints=3, size_units=units)
    return (encode_pose if pose else encode_detection)(anns, cfg), [a.id for a in anns]


def _same_targets(got, want):
    assert got.config == want.config
    for name in ("heatmap", "size", "offset", "center_mask", "joint_heatmap", "joint_local_offset"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a.data, b.data), name
    assert [to_json(o) for o in got.objects] == [to_json(o) for o in want.objects]
    assert got.collisions == want.collisions
    assert got.clamped_centers == want.clamped_centers
    assert got.joint_cells == want.joint_cells


@given(seed=st.integers(0, 2**32), pose=st.booleans(), units=st.sampled_from(["pixels", "cells"]))
@settings(max_examples=25, deadline=None)
def test_manifest_roundtrip(tmp_path_factory, seed, pose, units):
    out = tmp_path_factory.mktemp("manifest")
    ts, ids = _targets(seed, pose, units)
    cfg = ts.config
    doc = {
        "config": {"stride": cfg.output_stride, "classes": cfg.num_classes, "joints": cfg.num_joints,
                   "units": cfg.size_units, "min_overlap": cfg.min_overlap},
        "images": [write_targets(ts, out / "image_7", 7, ids)],
    }
    (out / "manifest.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    _same_targets(read_targets(out / "manifest.json", 7), ts)
    _same_targets(read_targets(out / "manifest.json", None), ts)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"cell": [1.5, 2]}, "cell entries must be integers"),
        ({"offset": [0.5]}, "offset must be a list of 2 numbers"),
        ({"depth": "far"}, "field 'depth' must be a number"),
        ({"dims3d": [1.0, 2.0, math.inf]}, "dims3d entry must be finite"),
        ({"orientation": [0.0] * 7}, "orientation must be a list of 8 numbers"),
        ({"joint_offsets": [[0.0, 1.0]]}, "missing field 'joint_mask'"),
        ({"joint_offsets": [[0.0, 1.0]], "joint_mask": [1.0, 0.0]}, "joint_mask must be a list of 1 numbers"),
        ({"joint_offsets": [[0.0]], "joint_mask": [1.0]}, "joint_offsets row must be a list of 2 numbers"),
    ],
)
def test_object_reader_rejects(patch, message):
    raw = {"index": 0, "category": 0, "cell": [1, 2], "offset": [0.5, 0.5], "size": [3.0, 4.0], **patch}
    with pytest.raises(InputError, match=f"^objects\\[0\\]: {message}"):
        object_from_json(raw, "objects[0]")


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"units": "inches"}, "unknown units 'inches'"),
        ({"units": 4}, "field 'units' must be str"),
        ({"depth": None}, "field 'depth' must be a number"),
        ({"dims3d": [1.0, 2.0]}, "dims3d must be a list of 3 numbers"),
        ({"yaw": math.nan}, "field 'yaw' must be finite"),
        ({"joints": {"x": 1}}, "field 'joints' must be list"),
        ({"joints": [{"x": 1.0, "y": 2.0}]}, "joints\\[0\\]: missing field 'source'"),
        ({"joints": [{"x": 1.0, "y": 2.0, "source": "guessed"}]}, "joints\\[0\\]: unknown joint source 'guessed'"),
    ],
)
def test_detection_reader_rejects_malformed_optional_fields(patch, message):
    raw = {"category": 0, "score": 0.5, "box": [0, 0, 4, 4], **patch}
    with pytest.raises(InputError, match=f"^line 3.*{message}"):
        detection_from_json(raw, "line 3")


@pytest.mark.parametrize("box", [[4, 0, 0, 4], [0, 4, 4, 0], [0.0, 0.0, -1e-300, 4.0]])
def test_detection_reader_rejects_inverted_box(box):
    raw = {"category": 0, "score": 0.5, "box": box}
    with pytest.raises(InputError, match="^line 3: box corners out of order"):
        detection_from_json(raw, "line 3")


def test_detection_reader_accepts_zero_area_box():
    raw = {"category": 0, "score": 0.5, "box": [2.0, 3.0, 2.0, 3.0]}
    assert detection_from_json(raw, "line 3")[1].box == (2.0, 3.0, 2.0, 3.0)


def test_docs_manifest_example_reads_back():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    start = text.index("```json", text.index("## Target manifest")) + len("```json")
    entry = json.loads(text[start : text.index("```", start)])["images"][0]
    obj = object_from_json(entry["objects"][0], "objects[0]")
    assert obj.orientation.tolist() == pytest.approx(encode_orientation(obj.yaw).tolist(), abs=1e-4)
    assert obj.joint_offsets.shape == (2, 2)
    assert joint_cell_from_json(entry["joint_cells"][0], "joint_cells[0]") == JointCell(0, (38, 26), (0.5, 0.0))
