"""Input boundaries under arbitrary input: only InputError may escape.

Covers the .cpt tensor header, the dataset JSON, the detection JSON-lines
read by `cpt nms` and `cpt eval`, and the target manifest read by `cpt
loss`. The CLI maps any other exception to exit 2, so for the JSON-lines
reader and the manifest the assertion is that the exit status is 0 or 1.
"""
import copy
import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import DenseGrid, InputError, load_dataset, read_grid, write_grid
from cpt.cli import run
from cpt.dataset import dataset_to_json
from cpt.synthetic import generator, make_dataset
from cpt.tensorio import MAGIC

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["f32", "f64", "row-major-channel-outer", "pixels", "cells"])
    | st.text(max_size=6)
)
KEYS = st.sampled_from(["dims", "dtype", "order", "images", "id", "bbox", "box"]) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=24,
)
FILE_BYTES = st.binary(max_size=48) | JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8"))
HEADERS = FILE_BYTES | st.dictionaries(st.sampled_from(["dims", "dtype", "order"]), JSON_VALUES).map(
    lambda d: json.dumps(d).encode("utf-8")
)
NUM = st.integers(-5, 100) | st.floats(-10.0, 120.0)
SIDE = st.integers(1, 100) | st.floats(1.0, 120.0)


def _numbers(n):
    return st.lists(NUM, min_size=n, max_size=n)


def _corrupt(draw, records):
    """Drop up to two fields of the records, or replace them by arbitrary JSON, in place.

    The records start out valid, so the readers get past their first checks
    and the later ones meet the arbitrary values too.
    """
    for _ in range(draw(st.integers(0, 2))):
        rec = draw(st.sampled_from(records))
        key = draw(st.sampled_from(sorted(rec)))
        if draw(st.booleans()):
            del rec[key]
        else:
            rec[key] = draw(JSON_VALUES)


@st.composite
def datasets(draw):
    images = [{"id": i, "width": draw(SIDE), "height": draw(SIDE)} for i in range(draw(st.integers(1, 3)))]
    categories = [{"id": 7 + i, "name": draw(st.text(max_size=3))} for i in range(draw(st.integers(1, 3)))]
    optional = {
        "keypoints": st.integers(0, 3).flatmap(lambda k: _numbers(3 * k)),
        "depth": NUM,
        "dims3d": _numbers(3),
        "yaw": NUM,
    }
    annotations = []
    for i in range(draw(st.integers(0, 4))):
        ann = {
            "id": i,
            "image_id": draw(st.integers(0, len(images) - 1)),
            "category_id": draw(st.sampled_from([c["id"] for c in categories])),
            "bbox": draw(_numbers(4)),
        }
        for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
            ann[key] = draw(optional[key])
        annotations.append(ann)
    _corrupt(draw, images + categories + annotations)
    return {"images": images, "annotations": annotations, "categories": categories}


@st.composite
def detection_lines(draw):
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        det = {
            "image_id": draw(st.integers(0, 2)),
            "category": draw(st.integers(0, 2)),
            "score": draw(st.floats(0.0, 1.0)),
            "box": draw(_numbers(4)),
            "units": draw(st.sampled_from(["pixels", "cells", "inches"])),
        }
        if draw(st.booleans()):
            det["center"] = draw(_numbers(2))
        lines.append(det)
    _corrupt(draw, lines)
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(JSON_VALUES)
    return lines


def _returns_or_input_error(fn, *args):
    try:
        fn(*args)
    except InputError:
        pass


@given(header=HEADERS, payload=st.binary(max_size=40))
@settings(max_examples=200, deadline=None)
def test_read_grid_header(header, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.cpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + payload)
        _returns_or_input_error(read_grid, path)


@given(doc=datasets(), raw=st.none() | FILE_BYTES)
@settings(max_examples=200, deadline=None)
def test_load_dataset(doc, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.json"
        path.write_bytes(json.dumps(doc).encode("utf-8") if raw is None else raw)
        _returns_or_input_error(load_dataset, path)


@given(lines=detection_lines(), junk=st.none() | st.binary(max_size=24))
@settings(max_examples=100, deadline=None)
def test_detection_lines(lines, junk):
    dataset = {
        "images": [{"id": 1, "width": 64, "height": 48}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 0, "bbox": [10, 10, 20, 15]}],
        "categories": [{"id": 0, "name": "a"}, {"id": 1, "name": "b"}],
    }
    with tempfile.TemporaryDirectory() as tmp:
        ds_path = Path(tmp) / "ds.json"
        ds_path.write_text(json.dumps(dataset), encoding="utf-8")
        dets = Path(tmp) / "dets.jsonl"
        body = "\n".join(json.dumps(line) for line in lines).encode("utf-8")
        dets.write_bytes(body if junk is None else body + b"\n" + junk)
        assert run(["nms", str(dets)]) in (0, 1)
        assert run(["eval", str(dets), str(ds_path)]) in (0, 1)


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """An `encode --pose` manifest with 3D fields, and prediction files for every head `cpt loss` reads."""
    work = tmp_path_factory.mktemp("manifest")
    rng = generator(41)
    ds = make_dataset(41, num_images=2, max_objects=5, num_classes=2, image_w=32, image_h=32, with_3d=True)
    anns = [replace(a, keypoints=[(float(x), float(y), True) for x, y in rng.uniform(0, 32, (2, 2))]) for a in ds.annotations]
    (work / "ds.json").write_text(json.dumps(dataset_to_json(replace(ds, annotations=anns))), encoding="utf-8")
    assert run(["encode", str(work / "ds.json"), "--out", str(work), "--joints", "2", "--pose"]) == 0
    preds = []
    for head, channels in (("heatmap", 2), ("offset", 2), ("size", 2), ("depth", 1), ("dims", 3), ("orientation", 8)):
        write_grid(work / f"pred_{head}.cpt", DenseGrid(rng.random((channels, 8, 8))))
        preds += [f"--pred-{head}", str(work / f"pred_{head}.cpt")]
    return work, json.loads((work / "manifest.json").read_text(encoding="utf-8")), preds


@st.composite
def manifest_edits(draw, doc):
    doc = copy.deepcopy(doc)
    records = [doc, doc["config"]]
    for entry in doc["images"]:
        records += [entry, entry["tensors"], *entry["objects"], *entry["collisions"], *entry["joint_cells"]]
    _corrupt(draw, records)
    return draw(JSON_VALUES) if draw(st.integers(0, 9)) == 0 else doc


@given(data=st.data(), image=st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_manifest(encoded, data, image):
    work, doc, preds = encoded
    (work / "fuzz.json").write_text(json.dumps(data.draw(manifest_edits(doc))), encoding="utf-8")
    image_flag = [] if image is None else ["--image", str(image)]
    assert run(["loss", "--manifest", str(work / "fuzz.json"), *image_flag, *preds]) in (0, 1)
