"""Axis-aligned box arithmetic: IoU, greedy NMS, and the reference anchor grid."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .decode import Detection


def _iou(ox, oy, area_a, area_b):
    """IoU from the per-axis overlaps, clamped at 0, and the two areas.

    0 unless both overlaps and the union are positive. The only place in
    the package that divides an intersection by a union.
    """
    inter = ox * oy
    union = area_a + area_b - inter
    return np.where((inter > 0.0) & (union > 0.0), inter / np.where(union > 0.0, union, 1.0), 0.0)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed area or union gives IoU 0, not a warning
def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) corner arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ox = np.maximum(np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0]), 0.0)
    oy = np.maximum(np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1]), 0.0)
    areas_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    areas_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return _iou(ox, oy, areas_a[:, None], areas_b[None, :])


def greedy_nms(dets: Sequence["Detection"], iou_thresh: float) -> list["Detection"]:
    """Standard per-class greedy suppression; ties in score keep input order.

    Repeatedly keeps the highest-scoring remaining detection and discards
    same-class detections overlapping it with IoU strictly above the
    threshold. Each kept detection forms one iou_matrix row against the
    later live detections of its class, so memory stays O(N).
    """
    if not 0 < iou_thresh < 1:
        raise InputError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    boxes = np.array([dets[i].box for i in order], dtype=np.float64).reshape(-1, 4)
    classes: dict[int, int] = {}  # dense codes: numpy would round a mix of huge and negative ints to float64
    categories = np.array([classes.setdefault(dets[i].category, len(classes)) for i in order], dtype=np.intp)
    live = np.ones(len(order), dtype=bool)
    keep: list[int] = []
    for pos, i in enumerate(order):
        if not live[pos]:
            continue
        keep.append(i)
        later = pos + 1 + np.flatnonzero(live[pos + 1 :] & (categories[pos + 1 :] == categories[pos]))
        live[later[iou_matrix(boxes[pos], boxes[later])[0] > iou_thresh]] = False
    return [dets[i] for i in keep]


@dataclass(frozen=True)
class AnchorConfig:
    """RetinaNet-style single-level anchor grid parameters."""

    sizes: tuple[float, ...] = (32.0, 64.0, 128.0, 256.0, 512.0)
    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    stride: int = 16
    resize_shorter: float = 800.0

    def __post_init__(self):
        # tuples whatever sequence was given: a list would make the config unhashable, an ndarray ambiguous in `not`
        for name in ("sizes", "ratios"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.sizes or not self.ratios:
            raise InputError("anchor sizes and ratios must be non-empty")
        for name in ("sizes", "ratios"):
            if not all(0 < v < math.inf for v in getattr(self, name)):
                raise InputError(f"anchor {name} must be finite and > 0, got {getattr(self, name)}")
        for k, (w, h) in enumerate(anchor_shapes(self).tolist()):
            if not math.isfinite(w * h):  # both anchor paths multiply each anchor's sides
                size, ratio = self.sizes[k // len(self.ratios)], self.ratios[k % len(self.ratios)]
                raise InputError(f"anchor size {size} at ratio {ratio}: its area overflows to inf")
        if not 0 < self.resize_shorter < math.inf:
            raise InputError(f"resize_shorter must be finite and > 0, got {self.resize_shorter}")
        if self.stride < 1:
            raise InputError(f"anchor stride must be >= 1, got {self.stride}")


def resize_shorter(width: float, height: float, target: float) -> tuple[float, float, float]:
    """Scale so the shorter edge equals target, preserving aspect. Returns (W, H, scale)."""
    if width <= 0 or height <= 0:
        raise InputError(f"image dimensions must be positive, got ({width}, {height})")
    scale = target / min(width, height)
    return width * scale, height * scale, scale


def anchor_positions(extent: float, stride: int) -> np.ndarray:
    """Anchor center coordinates along one axis: S/2 + i*S for i in [0, floor((extent - S/2)/S)]."""
    count = int(math.floor((extent - stride / 2.0) / stride)) + 1
    return stride / 2.0 + stride * np.arange(max(count, 0), dtype=np.float64)


def anchor_shapes(cfg: AnchorConfig) -> np.ndarray:
    """(len(sizes)*len(ratios), 2) array of (w, h); area-preserving with ratio = h/w."""
    shapes = []
    for size in cfg.sizes:
        for ratio in cfg.ratios:
            root = math.sqrt(ratio)
            shapes.append((size / root, size * root))
    return np.array(shapes, dtype=np.float64)


def anchor_grid(image_w: float, image_h: float, cfg: AnchorConfig = AnchorConfig()) -> np.ndarray:
    """All anchors for an already-resized image as an (N, 4) corner array, unclipped."""
    xs = anchor_positions(image_w, cfg.stride)
    ys = anchor_positions(image_h, cfg.stride)
    shapes = anchor_shapes(cfg)
    cx, cy = np.meshgrid(xs, ys)  # row-major over y then x
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
    half = shapes / 2.0
    corners = np.empty((centers.shape[0] * shapes.shape[0], 4), dtype=np.float64)
    corners[:, 0] = (centers[:, None, 0] - half[None, :, 0]).ravel()
    corners[:, 1] = (centers[:, None, 1] - half[None, :, 1]).ravel()
    corners[:, 2] = (centers[:, None, 0] + half[None, :, 0]).ravel()
    corners[:, 3] = (centers[:, None, 1] + half[None, :, 1]).ravel()
    return corners
