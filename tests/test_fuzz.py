"""Input boundaries under arbitrary input: only InputError may escape.

Covers the .cpt tensor header, the dataset JSON, the detection JSON-lines
read by `cpt nms` and `cpt eval`, the target manifest read by `cpt loss`,
and every numeric and number-list flag of every subcommand. The CLI maps
any other exception to exit 2, so for the JSON-lines reader, the manifest
and the flags the assertion is that the exit status is 0 or 1.
"""
import argparse
import copy
import io
import json
import struct
import tempfile
import warnings
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import DenseGrid, InputError, load_dataset, read_grid, write_grid
from cpt.cli import _build_parser, run
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


# ---------------------------------------------------------------- numeric flags

# small values only: no draw sizes an allocation, so every run stays as cheap as the tiny inputs
FLAG_VALUES = ("0", "-1", "1e-300", "nan", "inf")
# a tolerance below every harness's rounding error is a failed check, not a bad flag: exit 2, as
# test_cli.py::test_gradcheck_failure_is_internal_error pins
FAILED_CHECK = {("gradcheck", "--tolerance", "1e-300")}


# the comma-separated number lists: empty, empty items, one bad number, a bad number after a good one
LIST_VALUES = ("", ",", *FLAG_VALUES, "0.5,nan")


def _flags(selects):
    """(command, flag) for every option of every subcommand that selects(action), read off the parser."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return [
        (command, max(action.option_strings, key=len))
        for command, sub in commands.items()
        for action in sub._actions
        if selects(action)
    ]


def _numeric(action):
    return action.type in (int, float)


def _number_list(action):
    """A string option whose default is a comma-separated list."""
    return action.type is None and isinstance(action.default, str) and "," in action.default


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """Base argv per command and input: a one-image dataset, and one with no images where the command reads one."""
    work = tmp_path_factory.mktemp("flags")
    tiny = make_dataset(3, num_images=1, max_objects=3, num_classes=2, image_w=32, image_h=32)
    (work / "tiny.json").write_text(json.dumps(dataset_to_json(tiny)), encoding="utf-8")
    empty = {"images": [], "annotations": [], "categories": [{"id": 1, "name": "a"}]}
    (work / "empty.json").write_text(json.dumps(empty), encoding="utf-8")
    for name in ("tiny", "empty"):
        assert run(["encode", str(work / f"{name}.json"), "--out", str(work / f"enc_{name}")]) == 0
    maps, preds = [], []
    for head in ("heatmap", "offset", "size"):
        path = str(work / "enc_tiny" / "image_1" / f"{head}.cpt")
        maps += [f"--{head}", path]
        preds += [f"--pred-{head}", path]
    dets = io.StringIO()
    with redirect_stdout(dets):
        assert run(["decode", *maps, "--image-id", "1", "--to-pixels"]) == 0
    (work / "dets_tiny.jsonl").write_text(dets.getvalue(), encoding="utf-8")
    (work / "dets_empty.jsonl").write_text("", encoding="utf-8")

    def argv(command, name):
        ds, dets = str(work / f"{name}.json"), str(work / f"dets_{name}.jsonl")
        return {
            "encode": ["encode", ds, "--out", str(work / f"out_{name}")],
            "decode": ["decode", *maps] if name == "tiny" else None,
            "loss": ["loss", "--manifest", str(work / f"enc_{name}" / "manifest.json"), *preds],
            "gradcheck": ["gradcheck"] if name == "tiny" else None,
            "collisions": ["collisions", ds],
            "anchors": ["anchors", ds],
            "nms": ["nms", dets],
            "eval": ["eval", dets, ds],
            "roundtrip": ["roundtrip", ds],
        }[command]

    return argv


def _run_quietly(capsys, argv):
    """(status, stdout, stderr, warning messages) of one in-process command line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = run(argv)
    out, err = capsys.readouterr()
    return status, out, err, [str(w.message) for w in caught]


@pytest.mark.parametrize("value", FLAG_VALUES)
@pytest.mark.parametrize("command, flag", _flags(_numeric))
def test_numeric_flag(flag_inputs, capsys, command, flag, value):
    """Every value exits 0 with JSON or 1 with a message and warns nothing.

    A value rejected on the one-image dataset must be rejected without images
    too, unless the message is about that image's data ("image 1 ...").
    """
    _check_flag_value(flag_inputs, capsys, command, flag, value)


@pytest.mark.parametrize("value", LIST_VALUES)
@pytest.mark.parametrize("command, flag", _flags(_number_list))
def test_list_flag(flag_inputs, capsys, command, flag, value):
    """The number-list flags under the rules of test_numeric_flag."""
    _check_flag_value(flag_inputs, capsys, command, flag, value)


def _check_flag_value(flag_inputs, capsys, command, flag, value):
    statuses = {}
    for name in ("tiny", "empty"):
        argv = flag_inputs(command, name)
        if argv is None:
            continue
        status, out, err, caught = _run_quietly(capsys, [*argv, f"{flag}={value}"])
        assert caught == [], (name, caught)
        if (command, flag, value) in FAILED_CHECK:
            assert status == 2 and "analytic gradients disagree" in err
            continue
        assert status in (0, 1) and "internal error" not in err, (name, status, err)
        if status == 0:
            for line in out.splitlines():
                json.loads(line)
        statuses[name] = status, err
    if "empty" in statuses and statuses["tiny"][0] == 1 and not statuses["tiny"][1].startswith("error: image "):
        assert statuses["empty"][0] == 1, statuses["tiny"][1]
