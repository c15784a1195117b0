"""COCO-compatible dataset ingestion.

Input is a JSON file with "images", "annotations" and "categories" arrays;
annotation boxes are [x, y, w, h] and are converted to corners and clamped
to the image on load. Category ids are remapped to dense indices following
ascending id order. See docs/formats.md for the full schema.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError
from .targets import ObjectAnnotation, principal_angle


@dataclass
class ImageInfo:
    id: int
    width: float
    height: float


@dataclass
class CategoryInfo:
    id: int
    name: str
    index: int  # dense index assigned on load


@dataclass
class Dataset:
    """Validated images, annotations and categories, ordered by id."""

    images: list[ImageInfo] = field(default_factory=list)
    annotations: list[ObjectAnnotation] = field(default_factory=list)
    categories: list[CategoryInfo] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.categories)

    def annotations_by_image(self) -> dict[int, list[ObjectAnnotation]]:
        out: dict[int, list[ObjectAnnotation]] = {img.id: [] for img in self.images}
        for ann in self.annotations:
            out[ann.image_id].append(ann)
        return out


def finite_numbers(values: list, where: str, what: str) -> list[float]:
    """JSON numbers as floats; a non-number (bools included) or a non-finite value is an InputError."""
    numbers = []
    for value in values:
        if type(value) not in (int, float):
            raise InputError(f"{where}: {what} must be a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise InputError(f"{where}: {what} must be finite, got {value}")
        numbers.append(number)
    return numbers


def require_field(mapping: dict, key: str, kind, where: str):
    if not isinstance(mapping, dict):
        raise InputError(f"{where}: must be an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise InputError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if kind is float:
        return finite_numbers([value], where, f"field {key!r}")[0]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_keypoints(raw, where: str) -> list[tuple[float, float, bool]]:
    if not isinstance(raw, list) or len(raw) % 3 != 0:
        raise InputError(f"{where}: keypoints must be a flat [x, y, v, ...] list with length divisible by 3")
    values = finite_numbers(raw, where, "keypoints entry")
    return [(values[j], values[j + 1], values[j + 2] > 0) for j in range(0, len(values), 3)]


def load_dataset(path) -> Dataset:
    """Load and validate a dataset file; clamps boxes and records warnings."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read dataset {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: JSON parse error at line {e.lineno}, column {e.colno} (offset {e.pos}): {e.msg}") from e
    except (ValueError, RecursionError) as e:  # an overlong int, deep nesting
        raise InputError(f"{path}: cannot parse JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level value must be an object")
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise InputError(f"{path}: missing or non-array field {key!r}")

    ds = Dataset()

    seen_cat: set[int] = set()
    cats = []
    for i, raw in enumerate(doc["categories"]):
        where = f"categories[{i}]"
        cid = require_field(raw, "id", int, where)
        name = require_field(raw, "name", str, where)
        if cid in seen_cat:
            raise InputError(f"{where}: duplicate category id {cid}")
        seen_cat.add(cid)
        cats.append((cid, name))
    cats.sort(key=lambda c: c[0])
    ds.categories = [CategoryInfo(id=cid, name=name, index=k) for k, (cid, name) in enumerate(cats)]
    cat_index = {c.id: c.index for c in ds.categories}

    seen_img: set[int] = set()
    for i, raw in enumerate(doc["images"]):
        where = f"images[{i}]"
        iid = require_field(raw, "id", int, where)
        w = require_field(raw, "width", float, where)
        h = require_field(raw, "height", float, where)
        if iid in seen_img:
            raise InputError(f"{where}: duplicate image id {iid}")
        if w <= 0 or h <= 0:
            raise InputError(f"{where}: image dimensions must be positive, got ({w}, {h})")
        seen_img.add(iid)
        ds.images.append(ImageInfo(id=iid, width=w, height=h))
    ds.images.sort(key=lambda m: m.id)
    dims = {m.id: (m.width, m.height) for m in ds.images}

    seen_ann: set[int] = set()
    anns = []
    for i, raw in enumerate(doc["annotations"]):
        where = f"annotations[{i}]"
        aid = require_field(raw, "id", int, where)
        img_id = require_field(raw, "image_id", int, where)
        cat_id = require_field(raw, "category_id", int, where)
        bbox = raw.get("bbox")
        if aid in seen_ann:
            raise InputError(f"{where}: duplicate annotation id {aid}")
        seen_ann.add(aid)
        if img_id not in dims:
            raise InputError(f"{where}: image_id {img_id} does not exist")
        if cat_id not in cat_index:
            raise InputError(f"{where}: category_id {cat_id} does not exist")
        if not (isinstance(bbox, list) and len(bbox) == 4):
            raise InputError(f"{where}: field 'bbox' must be [x, y, w, h]")
        x, y, w, h = finite_numbers(bbox, where, "bbox entry")
        if w < 0 or h < 0:
            raise InputError(f"{where}: bbox width/height must be >= 0, got ({w}, {h})")

        img_w, img_h = dims[img_id]
        x1, y1, x2, y2 = x, y, x + w, y + h
        cx1 = min(max(x1, 0.0), img_w)
        cy1 = min(max(y1, 0.0), img_h)
        cx2 = min(max(x2, 0.0), img_w)
        cy2 = min(max(y2, 0.0), img_h)
        if (cx1, cy1, cx2, cy2) != (x1, y1, x2, y2):
            ds.warnings.append(f"{where}: bbox {bbox} exceeds image {img_id} bounds; clamped")

        keypoints = _parse_keypoints(raw["keypoints"], where) if "keypoints" in raw else None
        depth = require_field(raw, "depth", float, where) if "depth" in raw else None
        dims3d = None
        if "dims3d" in raw:
            v = raw["dims3d"]
            if not (isinstance(v, list) and len(v) == 3):
                raise InputError(f"{where}: field 'dims3d' must be [h, w, l]")
            dims3d = tuple(finite_numbers(v, where, "dims3d entry"))
        yaw = None
        if "yaw" in raw:
            yaw = principal_angle(require_field(raw, "yaw", float, where))

        try:
            ann = ObjectAnnotation(
                bbox=(cx1, cy1, cx2, cy2),
                category=cat_index[cat_id],
                keypoints=keypoints,
                depth=depth,
                dims3d=dims3d,
                yaw=yaw,
                id=aid,
                image_id=img_id,
            )
        except InputError as e:
            raise InputError(f"{where}: {e}") from e
        anns.append(ann)
    anns.sort(key=lambda a: a.id)
    ds.annotations = anns
    return ds


def dataset_to_json(ds: Dataset) -> dict:
    """Serialize a dataset back to the on-disk schema (boxes as [x, y, w, h])."""
    out = {
        "images": [{"id": m.id, "width": m.width, "height": m.height} for m in ds.images],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
        "annotations": [],
    }
    index_to_id = {c.index: c.id for c in ds.categories}
    for ann in ds.annotations:
        x1, y1, x2, y2 = ann.bbox
        raw = {
            "id": ann.id,
            "image_id": ann.image_id,
            "category_id": index_to_id[ann.category],
            "bbox": [x1, y1, x2 - x1, y2 - y1],
        }
        if ann.keypoints is not None:
            flat = []
            for x, y, v in ann.keypoints:
                flat.extend([x, y, 2 if v else 0])
            raw["keypoints"] = flat
        if ann.depth is not None:
            raw["depth"] = ann.depth
        if ann.dims3d is not None:
            raw["dims3d"] = list(ann.dims3d)
        if ann.yaw is not None:
            raw["yaw"] = ann.yaw
        out["annotations"].append(raw)
    return out
