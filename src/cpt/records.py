"""JSON records the CLI writes and reads back: one writer, and one validating reader per record.

to_json is the only writer. Each reader checks shape and types and raises
InputError naming the bad location, and returns every field its writer
wrote, so read(write(x)) == x field for field. See docs/formats.md.
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
from .targets import SIZE_UNITS, CollisionRecord, EncoderConfig, JointCell, ObjectTarget, TargetSet
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
    """Set the optional 3D fields that objects and detections share."""
    for key in ("depth", "dims3d", "yaw"):
        if key in raw:
            setattr(record, key, _field(raw, key, 3, where) if key == "dims3d" else require_field(raw, key, float, where))


def object_from_json(raw, where: str) -> ObjectTarget:
    obj = ObjectTarget(
        index=require_field(raw, "index", int, where),
        category=require_field(raw, "category", int, where),
        cell=_field(raw, "cell", 2, where, int),
        offset=_field(raw, "offset", 2, where),
        size=_field(raw, "size", 2, where),
    )
    _read_3d(raw, obj, where)
    if "orientation" in raw:
        obj.orientation = np.array(_field(raw, "orientation", 8, where))
    if "joint_offsets" in raw or "joint_mask" in raw:
        rows = require_field(raw, "joint_offsets", list, where)
        obj.joint_offsets = np.array([_numbers(r, 2, where, "joint_offsets row") for r in rows]).reshape(-1, 2)
        obj.joint_mask = np.array(_field(raw, "joint_mask", len(rows), where))
    return obj


def joint_cell_from_json(raw, where: str) -> JointCell:
    return JointCell(
        joint=require_field(raw, "joint", int, where),
        cell=_field(raw, "cell", 2, where, int),
        offset=_field(raw, "offset", 2, where),
    )


def _collision_from_json(raw, where: str) -> CollisionRecord:
    return CollisionRecord(
        cell=_field(raw, "cell", 2, where, int),
        category=require_field(raw, "category", int, where),
        first=require_field(raw, "first", int, where),
        second=require_field(raw, "second", int, where),
    )


def _config_to_json(cfg: EncoderConfig) -> dict:
    """A manifest's config object: the encoder settings every image shares."""
    return {key: getattr(cfg, field) for key, field, _ in _CONFIG}


def write_targets(ts: TargetSet, image_dir: Path, image_id: int, annotation_ids: list[int]) -> dict:
    """Write an image's grids into image_dir and return its manifest entry."""
    image_dir.mkdir(parents=True, exist_ok=True)
    tensors = {}
    for name in TENSORS:
        if getattr(ts, name) is not None:
            write_grid(image_dir / f"{name}.cpt", getattr(ts, name))
            tensors[name] = f"{image_dir.name}/{name}.cpt"
    cfg = ts.config
    entry = {
        "id": image_id,
        "input_w": cfg.input_w,
        "input_h": cfg.input_h,
        "grid_w": cfg.grid_w,
        "grid_h": cfg.grid_h,
        "tensors": tensors,
        "objects": [{"annotation_id": annotation_ids[o.index], **to_json(o)} for o in ts.objects],
        "collisions": [to_json(c) for c in ts.collisions],
        "clamped_centers": ts.clamped_centers,
    }
    if ts.joint_cells is not None:
        entry["joint_cells"] = [to_json(jc) for jc in ts.joint_cells]
    return entry


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
    ts = TargetSet(config=config, **grids, objects=_records(entry, "objects", object_from_json, where))
    if "collisions" in entry:
        ts.collisions = _records(entry, "collisions", _collision_from_json, where)
    if "clamped_centers" in entry:
        ts.clamped_centers = require_field(entry, "clamped_centers", int, where)
    if "joint_cells" in entry:
        ts.joint_cells = _records(entry, "joint_cells", joint_cell_from_json, where)
    return ts


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
