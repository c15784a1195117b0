"""Axis-aligned box arithmetic: IoU, greedy NMS, and the reference anchor grid."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .decode import Detection


def iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when the union is empty."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) corner arrays."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    areas_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    areas_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = areas_a[:, None] + areas_b[None, :] - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def greedy_nms(dets: Sequence["Detection"], iou_thresh: float) -> list["Detection"]:
    """Standard per-class greedy suppression; ties in score keep input order.

    Repeatedly keeps the highest-scoring remaining detection and discards
    same-class detections overlapping it with IoU strictly above the
    threshold.
    """
    if not 0 < iou_thresh < 1:
        raise InputError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    suppressed = [False] * len(dets)
    keep: list[int] = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(i)
        for j in order[pos + 1 :]:
            if suppressed[j] or dets[j].category != dets[i].category:
                continue
            if iou(dets[i].box, dets[j].box) > iou_thresh:
                suppressed[j] = True
    return [dets[i] for i in keep]


@dataclass(frozen=True)
class AnchorConfig:
    """RetinaNet-style single-level anchor grid parameters."""

    sizes: tuple[float, ...] = (32.0, 64.0, 128.0, 256.0, 512.0)
    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    stride: int = 16
    resize_shorter: float = 800.0

    def __post_init__(self):
        if not self.sizes or not self.ratios:
            raise InputError("anchor sizes and ratios must be non-empty")
        for name in ("sizes", "ratios"):
            if not all(0 < v < math.inf for v in getattr(self, name)):
                raise InputError(f"anchor {name} must be finite and > 0, got {getattr(self, name)}")
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
