"""Encode ground-truth annotations into dense training targets.

Covers the detection heads (center heatmap, size, sub-cell offset), the 3D
heads (depth, dimensions, multibin orientation) and the pose heads (joint
offsets from the center, joint heatmaps, joint local offsets).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
class ObjectTarget:
    """Per-object supervision record: where to read predictions and what they should be."""

    index: int
    category: int
    cell: tuple[int, int]
    offset: tuple[float, float]
    size: tuple[float, float]
    depth: float | None = None
    dims3d: tuple[float, float, float] | None = None
    yaw: float | None = None
    orientation: np.ndarray | None = None
    joint_offsets: np.ndarray | None = None  # (k, 2), cells, relative to the center cell
    joint_mask: np.ndarray | None = None  # (k,), 1 where the joint is supervised


@dataclass
class CollisionRecord:
    """Two same-class objects whose centers landed on the same output cell."""

    cell: tuple[int, int]
    category: int
    first: int
    second: int


@dataclass
class JointCell:
    """Supervision for the joint local-offset head at one visible joint's cell."""

    joint: int
    cell: tuple[int, int]
    offset: tuple[float, float]


@dataclass
class TargetSet:
    """Dense target grids plus the per-object records needed by the masked losses."""

    config: EncoderConfig
    heatmap: DenseGrid
    size: DenseGrid
    offset: DenseGrid
    center_mask: DenseGrid
    objects: list[ObjectTarget] = field(default_factory=list)
    collisions: list[CollisionRecord] = field(default_factory=list)
    clamped_centers: int = 0
    joint_heatmap: DenseGrid | None = None
    joint_local_offset: DenseGrid | None = None
    joint_cells: list[JointCell] | None = None

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


def _object_sigma(ann: ObjectAnnotation, cfg: EncoderConfig) -> float:
    """Gaussian radius sigma of an object's heatmap peak, from its box in output cells."""
    r = cfg.output_stride
    return gaussian_sigma(max(ann.width / r, 1e-12), max(ann.height / r, 1e-12), cfg.min_overlap)


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


def encode_detection(annotations: list[ObjectAnnotation], cfg: EncoderConfig) -> TargetSet:
    """Build detection targets: splat center Gaussians, write size/offset at center cells.

    Centers share the class-agnostic size and offset maps; when two objects
    land on one cell the later one overwrites those values, the heatmap takes
    the element-wise max, and same-class pairs are recorded as collisions.
    3D targets are attached to the records when the annotation carries them.
    """
    gw, gh, r = cfg.grid_w, cfg.grid_h, cfg.output_stride
    ts = TargetSet(
        config=cfg,
        heatmap=DenseGrid.zeros(gw, gh, cfg.num_classes),
        size=DenseGrid.zeros(gw, gh, 2),
        offset=DenseGrid.zeros(gw, gh, 2),
        center_mask=DenseGrid.zeros(gw, gh, 1),
    )
    occupants: dict[tuple[int, int, int], list[int]] = {}
    splats = []
    for i, ann in enumerate(annotations):
        if not 0 <= ann.category < cfg.num_classes:
            raise InputError(f"{_named(i, ann)}: category {ann.category} out of range [0, {cfg.num_classes})")
        x1, y1, x2, y2 = ann.bbox
        if x1 > cfg.input_w or y1 > cfg.input_h or x2 < 0 or y2 < 0:
            raise InputError(f"{_named(i, ann)}: bbox {ann.bbox} lies outside the image; clamp at ingestion")
        cx, cy, ox, oy, clamped = _center_cell(ann, r, gw, gh)
        if clamped:
            ts.clamped_centers += 1

        splats.append((ann.category, float(cx), float(cy), _object_sigma(ann, cfg)))

        sw, sh = (ann.width, ann.height) if cfg.size_units == "pixels" else (ann.width / r, ann.height / r)
        ts.size.data[0, cy, cx] = sw
        ts.size.data[1, cy, cx] = sh
        ts.offset.data[0, cy, cx] = ox
        ts.offset.data[1, cy, cx] = oy
        ts.center_mask.data[0, cy, cx] = 1.0

        key = (cx, cy, ann.category)
        for prev in occupants.get(key, ()):
            ts.collisions.append(CollisionRecord(cell=(cx, cy), category=ann.category, first=prev, second=i))
        occupants.setdefault(key, []).append(i)

        ts.objects.append(
            ObjectTarget(
                index=i,
                category=ann.category,
                cell=(cx, cy),
                offset=(ox, oy),
                size=(sw, sh),
                depth=ann.depth,
                dims3d=ann.dims3d,
                yaw=ann.yaw,
                orientation=encode_orientation(ann.yaw) if ann.yaw is not None else None,
            )
        )
    _splat(ts.heatmap.data, splats)
    return ts


def encode_pose(annotations: list[ObjectAnnotation], cfg: EncoderConfig) -> TargetSet:
    """Detection targets plus pose heads: per-joint center offsets, joint heatmaps, local offsets.

    Invisible joints get mask 0 and a zero offset; joints whose cell falls
    outside the grid are likewise masked out. Joint heatmaps reuse the
    object's size-adaptive sigma.
    """
    for i, ann in enumerate(annotations):
        if ann.keypoints is None:
            raise InputError(f"{_named(i, ann)}: keypoints required for pose encoding")
        if len(ann.keypoints) != cfg.num_joints:
            raise InputError(
                f"{_named(i, ann)}: {len(ann.keypoints)} joints, config expects {cfg.num_joints}"
            )
    ts = encode_detection(annotations, cfg)
    gw, gh, r, k = cfg.grid_w, cfg.grid_h, cfg.output_stride, cfg.num_joints
    ts.joint_heatmap = DenseGrid.zeros(gw, gh, k)
    ts.joint_local_offset = DenseGrid.zeros(gw, gh, 2)
    ts.joint_cells = []

    splats = []
    for ann, tgt in zip(annotations, ts.objects):
        cx, cy = tgt.cell
        offs = np.zeros((k, 2), dtype=np.float64)
        mask = np.zeros(k, dtype=np.float64)
        sigma = _object_sigma(ann, cfg)
        for j, (jx, jy, visible) in enumerate(ann.keypoints):
            if not visible:
                continue
            jcx, jcy = int(math.floor(jx / r)), int(math.floor(jy / r))
            if not (0 <= jcx < gw and 0 <= jcy < gh):
                continue
            offs[j] = (jx / r - cx, jy / r - cy)
            mask[j] = 1.0
            splats.append((j, float(jcx), float(jcy), sigma))
            local = (jx / r - jcx, jy / r - jcy)
            ts.joint_local_offset.data[0, jcy, jcx] = local[0]
            ts.joint_local_offset.data[1, jcy, jcx] = local[1]
            ts.joint_cells.append(JointCell(joint=j, cell=(jcx, jcy), offset=local))
        tgt.joint_offsets = offs
        tgt.joint_mask = mask
    _splat(ts.joint_heatmap.data, splats)
    return ts
