"""JSON records: write -> read returns every field, and readers reject malformed records.

Records with array fields are compared through to_json, because dataclass
equality is ambiguous on numpy arrays; target tables column by column.
"""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import Detection, InputError, Joint, encode_detection, encode_orientation, encode_pose
from cpt.records import detection_from_json, read_targets, tables_from_json, tables_to_json, to_json, write_targets
from cpt.synthetic import generator, make_dataset
from cpt.targets import EncoderConfig, TargetSet

from oracles import assert_same_table, assert_same_targets

FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
# a 64x48 grid, 3 classes and 2 joints
CONFIG = EncoderConfig(input_w=256, input_h=192, num_classes=3, num_joints=2)


def _floats(n):
    return st.tuples(*[FLOATS] * n)


def _json_trip(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def _column(draw, n, shape, elements, dtype=np.float64):
    return np.array(draw(st.lists(st.lists(elements, min_size=math.prod(shape), max_size=math.prod(shape)),
                                  min_size=n, max_size=n)), dtype=dtype).reshape(n, *shape)


def _targets_of(objects, joint_cells=None, collisions=None):
    """A TargetSet of the tables; one with pose columns has joint cells, as encode_pose gives it."""
    grids = dict.fromkeys(("heatmap", "size", "offset", "center_mask"))
    if joint_cells is None and objects["joint_offsets"] is not None:
        joint_cells = {"joint": np.empty(0, np.intp), "cell": np.empty((0, 2), np.intp), "offset": np.empty((0, 2))}
    empty = np.empty((0, 2), np.intp)
    return TargetSet(CONFIG, **grids, objects=objects, collisions=empty if collisions is None else collisions,
                     joint_cells=joint_cells)


def _cells(draw, n, width=64, height=48):
    return np.column_stack([_column(draw, n, (), st.integers(0, width - 1), np.intp),
                            _column(draw, n, (), st.integers(0, height - 1), np.intp)]).reshape(n, 2)


@st.composite
def object_tables(draw, width=64, height=48):
    """An object table under CONFIG: each 3D column absent, or present with NaN rows; pose columns or none."""
    n = draw(st.integers(0, 5))
    table = {
        "category": _column(draw, n, (), st.integers(0, 2), np.intp),
        "cell": _cells(draw, n, width, height),
        "offset": _column(draw, n, (2,), FLOATS),
        "size": _column(draw, n, (2,), FLOATS),
    }
    for name, shape in (("depth", ()), ("dims3d", (3,)), ("yaw", ()), ("orientation", (8,))):
        if n and draw(st.booleans()):
            column = _column(draw, n, shape, FLOATS)
            missing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            missing[draw(st.integers(0, n - 1))] = False  # a column is None when no object has the field
            column[np.array(missing)] = np.nan
            table[name] = column
        else:
            table[name] = None
    pose = draw(st.booleans())
    table["joint_offsets"] = _column(draw, n, (2, 2), FLOATS) if pose else None
    table["joint_mask"] = _column(draw, n, (2,), st.sampled_from([0.0, 1.0])) if pose else None
    return table


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


@given(objects=object_tables(), ids=st.lists(st.integers(), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_object_target_roundtrip(objects, ids):
    written = _json_trip(tables_to_json(_targets_of(objects), ids))
    assert [o["annotation_id"] for o in written["objects"]] == ids[: len(objects["cell"])]
    assert_same_table(tables_from_json(written, CONFIG, "m")["objects"], objects)


@st.composite
def joint_tables(draw):
    m = draw(st.integers(0, 6))
    return {
        "joint": _column(draw, m, (), st.integers(0, 1), np.intp),
        "cell": _cells(draw, m),
        "offset": _column(draw, m, (2,), FLOATS),
    }


@given(joint_cells=joint_tables(), objects=object_tables(width=2, height=1))
@settings(max_examples=100, deadline=None)
def test_joint_cell_roundtrip(joint_cells, objects):
    n = len(objects["cell"])
    objects["joint_offsets"], objects["joint_mask"] = np.zeros((n, 2, 2)), np.zeros((n, 2))
    # every pair of two objects that share a cell and class is a collision, by second, then first
    cell, category = objects["cell"], objects["category"]
    pairs = [(i, j) for j in range(len(cell)) for i in range(j) if category[i] == category[j] and (cell[i] == cell[j]).all()]
    collisions = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    back = tables_from_json(_json_trip(tables_to_json(_targets_of(objects, joint_cells, collisions), [0] * 5)), CONFIG, "m")
    assert_same_table(back["joint_cells"], joint_cells)
    assert back["collisions"].dtype == np.intp and back["collisions"].tolist() == collisions.tolist()


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
    assert_same_targets(read_targets(out / "manifest.json", 7), ts)
    assert_same_targets(read_targets(out / "manifest.json", None), ts)


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
        ({"index": 1}, "index 1 is not the record's position 0"),
        ({"category": 3}, "category 3 out of range \\[0, 3\\)"),
        ({"cell": [64, 2]}, "cell \\[64, 2\\] out of range \\[0, 64\\) x \\[0, 48\\)"),
        ({"cell": [1, 2**70]}, "cell \\[1, 1180591620717411303424\\] out of range"),
        ({"joint_offsets": [[0.0, 1.0], [0.0, 1.0]], "joint_mask": [1.0, 0.0]}, "joint_offsets must be a list of 1 rows"),
    ],
)
def test_object_reader_rejects(patch, message):
    raw = {"index": 0, "category": 0, "cell": [1, 2], "offset": [0.5, 0.5], "size": [3.0, 4.0], **patch}
    with pytest.raises(InputError, match=f"^m objects\\[0\\]: {message}"):
        tables_from_json({"objects": [raw]}, replace(CONFIG, num_joints=1), "m")


def test_object_reader_fills_nan_rows_and_needs_pose_fields_in_every_record():
    rows = [{"index": 0, "category": 0, "cell": [1, 2], "offset": [0.5, 0.5], "size": [3.0, 4.0], "depth": 2.0},
            {"index": 1, "category": 1, "cell": [1, 2], "offset": [0.5, 0.5], "size": [3.0, 4.0]}]
    objects = tables_from_json({"objects": rows}, CONFIG, "m")["objects"]
    assert objects["depth"].tolist()[0] == 2.0 and math.isnan(objects["depth"][1])
    assert objects["yaw"] is None and objects["joint_mask"] is None
    rows[0].update(joint_offsets=[[0.0, 0.0], [1.0, 1.0]], joint_mask=[1.0, 1.0])
    with pytest.raises(InputError, match="^m objects\\[1\\]: missing field 'joint_offsets'"):
        tables_from_json({"objects": rows}, CONFIG, "m")


@pytest.mark.parametrize(
    "key, record, message",
    [
        ("collisions", {"cell": [1, 2], "category": 0, "first": 0}, "missing field 'second'"),
        ("collisions", {"cell": [1, 2], "category": 0, "first": 0, "second": 2}, "second 2 out of range \\[0, 2\\)"),
        ("collisions", {"cell": [1, 48], "category": 0, "first": 0, "second": 1}, "cell \\[1, 48\\] out of range"),
        ("collisions", {"cell": [1, 2], "category": -1, "first": 0, "second": 1}, "category -1 out of range"),
        ("joint_cells", {"joint": 2, "cell": [1, 2], "offset": [0.5, 0.5]}, "joint 2 out of range \\[0, 2\\)"),
        ("joint_cells", {"joint": 0, "cell": [-1, 2], "offset": [0.5, 0.5]}, "cell \\[-1, 2\\] out of range"),
        ("joint_cells", {"joint": 0, "cell": [1, 2], "offset": [0.5, math.inf]}, "offset entry must be finite"),
    ],
)
def test_collision_and_joint_cell_readers_reject(key, record, message):
    objects = [{"index": k, "category": 0, "cell": [1, 2], "offset": [0.5, 0.5], "size": [3.0, 4.0],
                "joint_offsets": [[0.0, 0.0], [0.0, 0.0]], "joint_mask": [0.0, 0.0]} for k in (0, 1)]
    with pytest.raises(InputError, match=f"^m {key}\\[0\\]: {message}"):
        tables_from_json({"objects": objects, key: [record]}, CONFIG, "m")


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
    doc = json.loads(text[start : text.index("```", start)])
    entry, config = doc["images"][0], doc["config"]
    cfg = EncoderConfig(entry["input_w"], entry["input_h"], config["classes"], config["stride"], config["joints"])
    tables = tables_from_json(entry, cfg, "docs")
    objects = tables["objects"]
    assert objects["orientation"][0].tolist() == pytest.approx(encode_orientation(objects["yaw"][0]).tolist(), abs=1e-4)
    assert np.isnan(objects["yaw"][1]) and objects["joint_offsets"].shape == (2, 2, 2)
    assert tables["collisions"].tolist() == [[0, 1]]
    assert tables["joint_cells"]["cell"].tolist() == [[38, 26]]
    # the example is what the writer writes for these tables
    written = tables_to_json(TargetSet(cfg, None, None, None, None, **tables), [1, 2])
    assert _json_trip(written) == {key: entry[key] for key in written}
