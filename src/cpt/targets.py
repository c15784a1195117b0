"""Encode ground-truth annotations into dense training targets.

Covers the detection heads (center heatmap, size, sub-cell offset), the 3D
heads (depth, dimensions, multibin orientation) and the pose heads (joint
offsets from the center, joint heatmaps, joint local offsets).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grid import DenseGrid, _splat, gaussian_sigma, render_gaussian  # noqa: F401 (bench/tracing.py wraps it here)

TWO_PI = 2.0 * math.pi

# Orientation bins and their midpoints. Angles in the overlap of the two
# bins carry both classification labels.
BIN_1 = (-7.0 * math.pi / 6.0, math.pi / 6.0)
BIN_2 = (-math.pi / 6.0, 7.0 * math.pi / 6.0)
BIN_MIDPOINTS = (-math.pi / 2.0, math.pi / 2.0)

SIZE_UNITS = ("pixels", "cells")

# every prediction head, in `cpt loss` flag order, and its channels (0: one per class)
_HEADS = {"heatmap": 0, "offset": 2, "size": 2, "depth": 1, "dims": 3, "orientation": 8}
_REQUIRED_HEADS = ("heatmap", "offset", "size")


def principal_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.fmod(theta, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


@dataclass
class EncoderConfig:
    """Geometry and head configuration shared by encoding and decoding."""

    input_w: int
    input_h: int
    num_classes: int
    output_stride: int = 4
    num_joints: int = 17
    min_overlap: float = 0.7
    size_units: str = "pixels"

    def __post_init__(self):
        if self.output_stride < 1:
            raise InputError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.num_classes < 1:
            raise InputError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.num_joints < 1:
            raise InputError(f"num_joints must be >= 1, got {self.num_joints}")
        if self.input_w < 1 or self.input_h < 1:
            raise InputError(f"input_w and input_h must be >= 1, got ({self.input_w}, {self.input_h})")
        if self.input_w % self.output_stride or self.input_h % self.output_stride:
            raise InputError(
                f"input size ({self.input_w}, {self.input_h}) not divisible by stride "
                f"{self.output_stride}; pad at ingestion (EncoderConfig.for_image does)"
            )
        if self.num_classes * self.grid_h * self.grid_w * 8 > np.iinfo(np.intp).max:
            raise InputError(
                f"a {self.num_classes}x{self.grid_h}x{self.grid_w} float64 heatmap is larger than numpy can index"
            )
        if not 0 < self.min_overlap < 1:
            raise InputError(f"min_overlap must be in (0, 1), got {self.min_overlap}")
        if self.size_units not in SIZE_UNITS:
            raise InputError(f"size_units must be one of {SIZE_UNITS}, got {self.size_units!r}")

    @classmethod
    def for_image(cls, width: int, height: int, num_classes: int, **kwargs) -> "EncoderConfig":
        """Build a config for an image, zero-extending width/height up to stride multiples."""
        stride = kwargs.get("output_stride", 4)
        if stride < 1:  # before the padding divides by it
            raise InputError(f"output_stride must be >= 1, got {stride}")
        pad = lambda v: _grid_side(v, stride) * stride
        return cls(input_w=pad(width), input_h=pad(height), num_classes=num_classes, **kwargs)

    @property
    def grid_w(self) -> int:
        return int(self.input_w) // self.output_stride

    @property
    def grid_h(self) -> int:
        return int(self.input_h) // self.output_stride


@dataclass
class ObjectAnnotation:
    """One annotated object: 2D box, category, optional keypoints and 3D fields.

    bbox is (x1, y1, x2, y2) in input-space pixels. keypoints entries are
    (x, y, visible). id and image_id are set when loaded from a dataset file.
    """

    bbox: tuple[float, float, float, float]
    category: int
    keypoints: list[tuple[float, float, bool]] | None = None
    depth: float | None = None
    dims3d: tuple[float, float, float] | None = None
    yaw: float | None = None
    id: int | None = None
    image_id: int | None = None

    def __post_init__(self):
        x1, y1, x2, y2 = self.bbox
        if x2 < x1 or y2 < y1:
            raise InputError(f"bbox corners out of order: {self.bbox}")
        if self.category < 0:
            raise InputError(f"category must be >= 0, got {self.category}")
        if self.depth is not None and not self.depth > 0:
            raise InputError(f"depth must be > 0, got {self.depth}")
        if self.dims3d is not None and not all(v > 0 for v in self.dims3d):
            raise InputError(f"dims3d components must be > 0, got {self.dims3d}")
        if self.yaw is not None and not (-math.pi < self.yaw <= math.pi):
            raise InputError(f"yaw must lie in (-pi, pi], got {self.yaw}; normalize first")

    @property
    def width(self) -> float:
        return self.bbox[2] - self.bbox[0]

    @property
    def height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    @property
    def center(self) -> tuple[float, float]:
        return ((self.bbox[0] + self.bbox[2]) / 2.0, (self.bbox[1] + self.bbox[3]) / 2.0)

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class TargetSet:
    """Dense target grids plus the column tables the masked losses read.

    objects: one row per annotation, in annotation order: "category" (N,),
    "cell" (N, 2) intp, "offset" and "size" (N, 2); "depth", "dims3d" (N, 3),
    "yaw" and "orientation" (N, 8), None when no object has one and NaN in
    the rows of those that lack it; "joint_offsets" (N, K, 2) and
    "joint_mask" (N, K) from encode_pose. collisions: (first, second) rows,
    each later object against every earlier one on its cell and class, by
    second. joint_cells: per visible joint on the grid, in (person, joint)
    order, "joint" (M,), "cell" (M, 2) intp and "offset" (M, 2).
    """

    config: EncoderConfig
    heatmap: DenseGrid
    size: DenseGrid
    offset: DenseGrid
    center_mask: DenseGrid
    objects: dict[str, np.ndarray | None]
    collisions: np.ndarray
    clamped_centers: int = 0
    joint_heatmap: DenseGrid | None = None
    joint_local_offset: DenseGrid | None = None
    joint_cells: dict[str, np.ndarray] | None = None

    @property
    def collision_count(self) -> int:
        return len(self.collisions)


def encode_orientation(yaw: float) -> np.ndarray:
    """Encode a yaw angle as the 8-scalar two-bin target [b1, a1, b2, a2].

    Each bin contributes a one-hot classification pair (index 1 = angle in
    bin) and (sin, cos) of the angle relative to the bin midpoint.
    """
    if not (-math.pi < yaw <= math.pi):
        raise InputError(f"yaw must lie in (-pi, pi], got {yaw}; normalize first")
    out = np.zeros(8, dtype=np.float64)
    for i, (lo, hi) in enumerate((BIN_1, BIN_2)):
        base = 4 * i
        in_bin = lo <= yaw <= hi
        out[base + (1 if in_bin else 0)] = 1.0
        rel = yaw - BIN_MIDPOINTS[i]
        out[base + 2] = math.sin(rel)
        out[base + 3] = math.cos(rel)
    return out


def encode_depth(depth: float) -> float:
    """Raw network value whose sigmoidal decode recovers the given depth in meters."""
    if not depth > 0:
        raise InputError(f"depth must be > 0, got {depth}")
    return -math.log(depth)


def _object_sigma(box: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Gaussian sigma of each (x1, y1, x2, y2) row's heatmap peak, from its box in output cells."""
    r = cfg.output_stride
    w, h = box[:, 2] - box[:, 0], box[:, 3] - box[:, 1]
    return gaussian_sigma(np.maximum(w / r, 1e-12), np.maximum(h / r, 1e-12), cfg.min_overlap)


def _grid_side(side: float, stride: int) -> int:
    """Grid cells along an image side of `side` px, zero-extended up to a stride multiple."""
    return int(math.ceil(side / stride))


def _center_cell(ann: ObjectAnnotation, r: int, gw: int, gh: int) -> tuple[int, int, float, float, bool]:
    """The one center-cell rule: the floored strided center, clamped into the gw x gh grid, and its offset."""
    px, py = ann.center
    cx, cy = int(math.floor(px / r)), int(math.floor(py / r))
    clamped = False
    if not (0 <= cx < gw and 0 <= cy < gh):
        cx = min(max(cx, 0), gw - 1)
        cy = min(max(cy, 0), gh - 1)
        clamped = True
    return cx, cy, px / r - cx, py / r - cy, clamped


def _named(i: int, ann: ObjectAnnotation) -> str:
    """An annotation as errors name it: by image and annotation id when it has them, else by list index."""
    return f"annotation {i}" if ann.id is None else f"image {ann.image_id} annotation {ann.id}"


def _check(annotations: list[ObjectAnnotation], checks) -> None:
    """Raise the InputError of the first annotation failing a (mask, message of annotation i) check, in order."""
    bad = np.array([mask for mask, _ in checks], dtype=bool).reshape(len(checks), len(annotations))
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        raise InputError(f"{_named(i, annotations[i])}: {checks[int(np.argmax(bad[:, i]))][1](i)}")


def _floor(v: np.ndarray) -> np.ndarray:
    """int(math.floor(v)) as floats: + 0.0 makes a -0.0 floor the 0.0 of int 0, so v minus it keeps its sign."""
    return np.floor(v) + 0.0


def _write_at_cells(cell: np.ndarray, *pairs: tuple[np.ndarray, np.ndarray]) -> None:
    """data[:, y, x] = row for each (data, rows) pair, (x, y) cell and row: of rows on one cell, the last stays."""
    flat = cell[:, 1] * pairs[0][0].shape[2] + cell[:, 0]
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    for data, rows in pairs:
        data[:, cell[last, 1], cell[last, 0]] = rows[last].T


def _collisions(key: np.ndarray) -> np.ndarray:
    """(first, second) rows of the objects with equal keys: each later one against every earlier one, by second."""
    order = np.argsort(key, kind="stable")  # each key's objects in row order
    repeat = key[order][1:] == key[order][:-1]
    if not repeat.any():
        return np.empty((0, 2), np.intp)
    start = np.flatnonzero(np.append(True, ~repeat))
    count = np.append(start[1:], len(key)) - start
    shared = count > 1  # the colliding cells, each looped over once
    pairs = [order[s : s + c][np.column_stack(np.triu_indices(c, 1))] for s, c in zip(start[shared], count[shared])]
    pairs = np.concatenate(pairs)
    return pairs[np.lexsort(pairs.T)]


def encode_detection(annotations: list[ObjectAnnotation], cfg: EncoderConfig) -> TargetSet:
    """Build detection targets: splat center Gaussians, write size/offset at center cells.

    Centers share the class-agnostic size and offset maps; when two objects
    land on one cell the later one overwrites those values, the heatmap takes
    the element-wise max, and same-class pairs are recorded as collisions.
    3D targets go into the object table when an annotation carries them.
    Every step is an array pass over the objects, but for one
    encode_orientation call per object with a yaw.
    """
    gw, gh, r, n = cfg.grid_w, cfg.grid_h, cfg.output_stride, len(annotations)
    category = np.array([a.category for a in annotations]).reshape(n)
    # every float field, a None one as NaN: bbox, depth, dims3d and yaw
    fields = np.array([(*a.bbox, a.depth, *(a.dims3d or (None,) * 3), a.yaw) for a in annotations], np.float64)
    fields = fields.reshape(n, 9)
    box, depth, dims3d, yaw = fields[:, :4], fields[:, 4], fields[:, 5:8], fields[:, 8]
    x1, y1, x2, y2 = box.T
    with np.errstate(over="ignore", invalid="ignore"):  # a size past the float range is inf, rejected below
        size = np.column_stack([x2 - x1, y2 - y1])
    _check(annotations, [
        ((category < 0) | (category >= cfg.num_classes),
         lambda i: f"category {annotations[i].category} out of range [0, {cfg.num_classes})"),
        ((x1 > cfg.input_w) | (y1 > cfg.input_h) | (x2 < 0) | (y2 < 0),
         lambda i: f"bbox {annotations[i].bbox} lies outside the image; clamp at ingestion"),
        (~np.isfinite(size).all(axis=1), lambda i: f"bbox {annotations[i].bbox} is not finite, or its size is not"),
        (np.isinf(depth), lambda i: f"depth {annotations[i].depth} is not finite"),
        (np.isinf(dims3d).any(axis=1), lambda i: f"dims3d {annotations[i].dims3d} is not finite"),
    ])
    category = category.astype(np.intp)

    # the center cell rule of _center_cell: the floored strided center, clamped into the grid
    gx, gy = (x1 + x2) / 2.0 / r, (y1 + y2) / 2.0 / r
    fx, fy = _floor(gx), _floor(gy)
    cx, cy = np.clip(fx, 0, gw - 1), np.clip(fy, 0, gh - 1)
    if cfg.size_units == "cells":
        size = size / r
    orientation = np.full((n, 8), np.nan)
    for i in np.flatnonzero(~np.isnan(yaw)).tolist():
        orientation[i] = encode_orientation(float(yaw[i]))
    cell = np.column_stack([cx, cy]).astype(np.intp).reshape(n, 2)
    optional = {"depth": depth, "dims3d": dims3d, "yaw": yaw, "orientation": orientation}
    objects = dict(category=category, cell=cell, offset=np.column_stack([gx - cx, gy - cy]), size=size,
                   **{name: None if np.isnan(col).all() else col for name, col in optional.items()},
                   joint_offsets=None, joint_mask=None)
    ix, iy = cell.T
    ts = TargetSet(
        config=cfg,
        heatmap=DenseGrid.zeros(gw, gh, cfg.num_classes),
        size=DenseGrid.zeros(gw, gh, 2),
        offset=DenseGrid.zeros(gw, gh, 2),
        center_mask=DenseGrid.zeros(gw, gh, 1),
        objects=objects,
        collisions=_collisions((category * gh + iy) * gw + ix),
        clamped_centers=int(np.count_nonzero((fx != cx) | (fy != cy))),
    )
    _write_at_cells(cell, (ts.size.data, objects["size"]), (ts.offset.data, objects["offset"]))
    ts.center_mask.data[0, iy, ix] = 1.0
    _splat(ts.heatmap.data, np.column_stack([category, cx, cy, _object_sigma(box, cfg)]))
    return ts


def encode_pose(annotations: list[ObjectAnnotation], cfg: EncoderConfig) -> TargetSet:
    """Detection targets plus pose heads: per-joint center offsets, joint heatmaps, local offsets.

    Invisible joints get mask 0 and a zero offset; joints whose cell falls
    outside the grid are likewise masked out. Joint heatmaps reuse the
    object's size-adaptive sigma.
    """
    gw, gh, r, k, n = cfg.grid_w, cfg.grid_h, cfg.output_stride, cfg.num_joints, len(annotations)
    count = np.array([-1 if a.keypoints is None else len(a.keypoints) for a in annotations]).reshape(n)
    # (x, y, visible) of every joint; the annotations that fail a check below get zeros
    xyv = np.array(
        [a.keypoints if c == k else [(0.0, 0.0, 0.0)] * k for a, c in zip(annotations, count.tolist())], np.float64
    ).reshape(n, k, 3)
    _check(annotations, [
        (count < 0, lambda i: "keypoints required for pose encoding"),
        (count != k, lambda i: f"{count[i]} joints, config expects {k}"),
        (~np.isfinite(xyv).all(axis=(1, 2)), lambda i: f"keypoints {annotations[i].keypoints} are not finite"),
    ])
    ts = encode_detection(annotations, cfg)
    jx, jy = xyv[:, :, 0] / r, xyv[:, :, 1] / r
    fx, fy = _floor(jx), _floor(jy)
    on = (xyv[:, :, 2] != 0) & (fx >= 0) & (fx < gw) & (fy >= 0) & (fy < gh)
    cell = ts.objects["cell"]
    offsets = np.stack([jx - cell[:, :1], jy - cell[:, 1:]], axis=2)
    ts.objects["joint_offsets"] = np.where(on[:, :, None], offsets, 0.0)
    ts.objects["joint_mask"] = on.astype(np.float64)

    person, joint = np.nonzero(on)
    jcx, jcy = fx[person, joint], fy[person, joint]
    ts.joint_cells = {
        "joint": joint.astype(np.intp),
        "cell": np.column_stack([jcx, jcy]).astype(np.intp).reshape(-1, 2),
        "offset": np.column_stack([jx[person, joint] - jcx, jy[person, joint] - jcy]),
    }
    ts.joint_local_offset = DenseGrid.zeros(gw, gh, 2)
    _write_at_cells(ts.joint_cells["cell"], (ts.joint_local_offset.data, ts.joint_cells["offset"]))
    ts.joint_heatmap = DenseGrid.zeros(gw, gh, k)
    box = np.array([a.bbox for a in annotations], dtype=np.float64).reshape(n, 4)
    _splat(ts.joint_heatmap.data, np.column_stack([joint, jcx, jcy, _object_sigma(box, cfg)[person]]))
    return ts
