"""JSON records the CLI writes and reads back: one writer, and one validating reader per record.

to_json writes a dataclass and tables_to_json a TargetSet's tables, one
record per row. Each reader checks shape and types and raises InputError
naming the bad location, and returns every field its writer wrote, so
read(write(x)) == x field for field. See docs/formats.md.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import finite_numbers, require_field
from .decode import REGRESSED, SNAPPED, Detection, Joint
from .errors import InputError
from .targets import SIZE_UNITS, EncoderConfig, TargetSet
from .tensorio import read_grid, write_grid

# TargetSet grids a manifest lists, in write order; the joint_* grids are optional.
TENSORS = ("heatmap", "size", "offset", "center_mask", "joint_heatmap", "joint_local_offset")
# A manifest's config object: (manifest key, EncoderConfig field, JSON type), in the order the reader checks them.
_CONFIG = (
    ("classes", "num_classes", int),
    ("stride", "output_stride", int),
    ("joints", "num_joints", int),
    ("min_overlap", "min_overlap", float),
    ("units", "size_units", str),
)
# The TargetSet tables as manifest records: (table, its fields in the order the reader checks them). A field
# is (name, entries per row, JSON type); "joints" is the config's joint count, and () marks a scalar.
_TABLES = {
    "objects": (
        ("category", (), int), ("cell", (2,), int), ("offset", (2,), float), ("size", (2,), float),
        ("depth", (), float), ("dims3d", (3,), float), ("yaw", (), float), ("orientation", (8,), float),
        ("joint_offsets", ("joints", 2), float), ("joint_mask", ("joints",), float),
    ),
    "collisions": (("cell", (2,), int), ("category", (), int), ("first", (), int), ("second", (), int)),
    "joint_cells": (("joint", (), int), ("cell", (2,), int), ("offset", (2,), float)),
}
# object fields a record may leave out (NaN in the table), and fields that every object record has or none
_NAN_ROWS = ("depth", "dims3d", "yaw", "orientation")
_POSE = ("joint_offsets", "joint_mask")


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a named tuple such as Joint
        return {name: _plain(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def to_json(record) -> dict:
    """A dataclass as a JSON object: one key per field, fields that are None left out."""
    fields = ((f.name, getattr(record, f.name)) for f in dataclasses.fields(record))
    return {name: _plain(value) for name, value in fields if value is not None}


def _numbers(values, n: int, where: str, what: str, kind=float) -> tuple:
    if not isinstance(values, list) or len(values) != n:
        raise InputError(f"{where}: {what} must be a list of {n} numbers")
    if kind is int and any(type(v) is not int for v in values):
        raise InputError(f"{where}: {what} entries must be integers")
    return tuple(values) if kind is int else tuple(finite_numbers(values, where, f"{what} entry"))


def _field(raw, key: str, n: int, where: str, kind=float) -> tuple:
    return _numbers(require_field(raw, key, list, where), n, where, key, kind)


def _records(raw, key: str, read, where: str) -> list:
    return [read(item, f"{where} {key}[{k}]") for k, item in enumerate(require_field(raw, key, list, where))]


def _read_3d(raw, record, where: str) -> None:
    """Set a detection's optional 3D fields."""
    for key in ("depth", "dims3d", "yaw"):
        if key in raw:
            setattr(record, key, _field(raw, key, 3, where) if key == "dims3d" else require_field(raw, key, float, where))


def _config_to_json(cfg: EncoderConfig) -> dict:
    """A manifest's config object: the encoder settings every image shares."""
    return {key: getattr(cfg, field) for key, field, _ in _CONFIG}


def _rows(table: dict) -> list[dict]:
    """A column table as JSON records, one per row: a key per column that is not None, left out where the row is NaN."""
    rows = [{} for _ in table["cell"]]
    for name, column in table.items():
        if column is not None:
            nan = np.isnan(column).any(axis=tuple(range(1, column.ndim))).tolist()
            for row, value, missing in zip(rows, column.tolist(), nan):
                if not missing:
                    row[name] = value
    return rows


def tables_to_json(ts: TargetSet, annotation_ids: list[int]) -> dict:
    """The manifest records of a TargetSet's tables: objects (with annotation ids), collisions and joint cells."""
    first, second = ts.collisions.T
    pairs = dict(cell=ts.objects["cell"][first], category=ts.objects["category"][first], first=first, second=second)
    objects = [{"annotation_id": annotation_ids[k], "index": k, **row} for k, row in enumerate(_rows(ts.objects))]
    out = {"objects": objects, "collisions": _rows(pairs), "clamped_centers": ts.clamped_centers}
    if ts.joint_cells is not None:
        out["joint_cells"] = _rows(ts.joint_cells)
    return out


def _entry(raw, name: str, shape: tuple, kind, where: str):
    """One field of a record: a scalar when shape is (), else a list of that shape, every entry checked."""
    if not shape:
        return require_field(raw, name, kind, where)
    if len(shape) == 1:
        return list(_field(raw, name, shape[0], where, kind))
    rows = require_field(raw, name, list, where)
    if len(rows) != shape[0]:
        raise InputError(f"{where}: {name} must be a list of {shape[0]} rows")
    return [list(_numbers(r, shape[1], where, f"{name} row", kind)) for r in rows]


def _table(raw, key: str, where: str, bounds: dict, joints: int = 0, pose: bool = False) -> dict:
    """The column table of the records raw[key], each checked; a field no record has is None.

    Any record may leave out a _NAN_ROWS field (NaN in its row); every
    record has the _POSE fields when pose is set or one record has one, and
    every other field. Each integer entry lies in [0, b) for its bound b in
    bounds[field].
    """
    items = require_field(raw, key, list, where)
    has = {name for item in items if isinstance(item, dict) for name in item}
    pose = pose or not has.isdisjoint(_POSE)
    fields = [
        (name, tuple(joints if n == "joints" else n for n in shape), kind)
        for name, shape, kind in _TABLES[key]
        if name in has or name not in _NAN_ROWS + _POSE or (pose and name in _POSE)
    ]
    columns = {name: [] for name, _, _ in fields}
    for k, item in enumerate(items):
        at = f"{where} {key}[{k}]"
        for name, shape, kind in fields:
            if name in _NAN_ROWS and isinstance(item, dict) and name not in item:
                value = np.full(shape, np.nan)
            else:
                value = _entry(item, name, shape, kind, at)
            bound = bounds.get(name)
            if bound and not all(0 <= v < b for v, b in zip(np.ravel(value).tolist(), bound)):
                raise InputError(f"{at}: {name} {value} out of range {' x '.join(f'[0, {b})' for b in bound)}")
            columns[name].append(value)
    table = dict.fromkeys(name for name, _, _ in _TABLES[key])
    for name, shape, kind in fields:
        table[name] = np.array(columns[name], dtype=np.intp if kind is int else np.float64).reshape(len(items), *shape)
    return table


def tables_from_json(entry, config: EncoderConfig, where: str) -> dict:
    """The tables of a manifest image entry as TargetSet fields, every record checked against config."""
    for k, item in enumerate(require_field(entry, "objects", list, where)):
        if require_field(item, "index", int, f"{where} objects[{k}]") != k:
            raise InputError(f"{where} objects[{k}]: index {item['index']} is not the record's position {k}")
    pose = "joint_cells" in entry  # then every object record has joint offsets
    grid = (config.grid_w, config.grid_h)
    bounds = {"category": (config.num_classes,), "cell": grid, "joint": (config.num_joints,)}
    out = {"objects": _table(entry, "objects", where, bounds, config.num_joints, pose)}
    n = len(out["objects"]["cell"])
    out["collisions"] = np.empty((0, 2), np.intp)
    if "collisions" in entry:
        c = _table(entry, "collisions", where, {**bounds, "first": (n,), "second": (n,)})
        out["collisions"] = np.column_stack([c["first"], c["second"]]).reshape(-1, 2)
    if "clamped_centers" in entry:
        out["clamped_centers"] = require_field(entry, "clamped_centers", int, where)
    if pose:
        out["joint_cells"] = _table(entry, "joint_cells", where, bounds)
    return out


def write_targets(ts: TargetSet, image_dir: Path, image_id: int, annotation_ids: list[int]) -> dict:
    """Write an image's grids into image_dir and return its manifest entry."""
    image_dir.mkdir(parents=True, exist_ok=True)
    tensors = {}
    for name in TENSORS:
        if getattr(ts, name) is not None:
            write_grid(image_dir / f"{name}.cpt", getattr(ts, name))
            tensors[name] = f"{image_dir.name}/{name}.cpt"
    cfg = ts.config
    return {
        "id": image_id,
        "input_w": cfg.input_w,
        "input_h": cfg.input_h,
        "grid_w": cfg.grid_w,
        "grid_h": cfg.grid_h,
        "tensors": tensors,
        **tables_to_json(ts, annotation_ids),
    }


def read_targets(manifest_path, image_id: int | None) -> TargetSet:
    """The TargetSet of one manifest image (of the only one when image_id is None), grids read from disk."""
    manifest_path = Path(manifest_path)
    where = f"manifest {manifest_path}"
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as e:  # bad UTF-8 or JSON, an overlong int, deep nesting
        raise InputError(f"cannot read {where}: {e}") from e
    entries = require_field(doc, "images", list, where)
    ids = [require_field(e, "id", int, f"{where} images[{k}]") for k, e in enumerate(entries)]
    if image_id is None and len(ids) != 1:
        raise InputError(f"{where} has {len(ids)} images; pick one with --image")
    if image_id is not None and image_id not in ids:
        raise InputError(f"image {image_id} not present in {where}")
    k = 0 if image_id is None else ids.index(image_id)
    cfg, at = require_field(doc, "config", dict, where), f"{where} config"
    entry, where = entries[k], f"{where} images[{k}]"
    fields = dict(
        input_w=require_field(entry, "input_w", int, where),
        input_h=require_field(entry, "input_h", int, where),
        **{field: require_field(cfg, key, kind, at) for key, field, kind in _CONFIG},
    )
    try:
        config = EncoderConfig(**fields)
    except InputError as e:
        raise InputError(f"{where}: {e}") from e
    for key, derived in (("grid_w", config.grid_w), ("grid_h", config.grid_h)):
        if require_field(entry, key, int, where) != derived:
            raise InputError(f"{where}: {key} is {entry[key]}, but the input size and stride give {derived}")
    tensors = require_field(entry, "tensors", dict, where)
    grids = {
        name: read_grid(manifest_path.parent / require_field(tensors, name, str, f"{where} tensors"))
        for name in TENSORS
        if name in tensors or not name.startswith("joint_")
    }
    for name, grid in grids.items():
        if (grid.width, grid.height) != (config.grid_w, config.grid_h):
            raise InputError(
                f"{where} tensors {name}: grid is {grid.width}x{grid.height}, the manifest gives "
                f"{config.grid_w}x{config.grid_h}"
            )
    return TargetSet(config=config, **grids, **tables_from_json(entry, config, where))


def _joint_from_json(raw, where: str) -> Joint:
    x, y = (require_field(raw, key, float, where) for key in ("x", "y"))
    source = require_field(raw, "source", str, where)
    if source not in (REGRESSED, SNAPPED):
        raise InputError(f"{where}: unknown joint source {source!r}")
    return Joint(x, y, source)


def detection_from_json(raw, where: str, num_classes: int | None = None) -> tuple[int, Detection]:
    """(image id, detection) of one record; image_id defaults to 0, center to (0, 0), units to pixels.

    With num_classes given, the category must be a class index below it.
    """
    det = Detection(
        category=require_field(raw, "category", int, where),
        score=require_field(raw, "score", float, where),
        box=_field(raw, "box", 4, where),
        center=_field(raw, "center", 2, where) if "center" in raw else (0.0, 0.0),
        units=require_field(raw, "units", str, where) if "units" in raw else "pixels",
    )
    if num_classes is not None and not 0 <= det.category < num_classes:
        raise InputError(f"{where}: category {det.category} is not a class index of the dataset [0, {num_classes})")
    if det.units not in SIZE_UNITS:
        raise InputError(f"{where}: unknown units {det.units!r}")
    x1, y1, x2, y2 = det.box
    if x2 < x1 or y2 < y1:
        raise InputError(f"{where}: box corners out of order: {list(det.box)}")
    _read_3d(raw, det, where)
    if "joints" in raw:
        det.joints = _records(raw, "joints", _joint_from_json, where)
    return (require_field(raw, "image_id", int, where) if "image_id" in raw else 0), det


def read_detections(path, num_classes: int | None = None) -> list[tuple[dict, int, Detection]]:
    """(record, image id, detection) for each non-blank line of a JSON-lines file, or of stdin for "-".

    With num_classes given, every category must be a class index below it.
    """
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read detections {path}: {e}") from e
    lines = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            lines.append((n, json.loads(line)))
        except json.JSONDecodeError as e:
            raise InputError(f"detections line {n}: {e.msg}") from e
        except (ValueError, RecursionError) as e:  # an overlong int, deep nesting
            raise InputError(f"detections line {n}: {e}") from e
    return [(raw, *detection_from_json(raw, f"detections line {n}", num_classes)) for n, raw in lines]
