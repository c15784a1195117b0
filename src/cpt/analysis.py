"""Dataset annotation analyses: center collisions, IoU collisions, forced anchor assignments.

Each counter has a fast path and an independently implemented oracle path
(--oracle in the CLI); both must agree exactly. Collision pairs are counted
per image and category; anchor assignment follows the single-level grid with
the image resized so its shorter edge hits the configured length. The
forced-anchor fast path factors each anchor shape's overlaps over the two
axes; its oracle is the dense IoU matrix of every box against all anchors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .geometry import AnchorConfig, anchor_grid, anchor_positions, anchor_shapes, iou, iou_matrix, resize_shorter
from .targets import ObjectAnnotation

# COCO size convention, on box area in original-image pixels
SMALL_MAX_AREA = 32.0**2
MEDIUM_MAX_AREA = 96.0**2
BUCKETS = ("small", "medium", "large")


def area_bucket(area: float) -> str:
    if area < SMALL_MAX_AREA:
        return "small"
    if area <= MEDIUM_MAX_AREA:
        return "medium"
    return "large"


@dataclass
class CollisionPair:
    """One colliding pair of same-class objects within one image."""

    image_id: int
    category_id: int
    first: int  # annotation ids, first < second in dataset order
    second: int


@dataclass
class CollisionReport:
    total_objects: int
    bucket_totals: dict[str, int]
    warnings: int
    n_center: int | None = None
    center_pairs: list[CollisionPair] = field(default_factory=list)
    n_iou: dict[float, int] | None = None
    iou_pairs: dict[float, list[CollisionPair]] = field(default_factory=dict)


@dataclass
class AnchorReport:
    n_anchor: int
    total_objects: int
    buckets: dict[str, dict]
    forced_annotations: list[int]
    warnings: int


def _bucket_totals(ds: Dataset) -> dict[str, int]:
    totals = {name: 0 for name in BUCKETS}
    for ann in ds.annotations:
        totals[area_bucket(ann.area)] += 1
    return totals


def _groups(ds: Dataset) -> list[tuple[int, int, list[ObjectAnnotation]]]:
    """Annotations grouped by (image id, original category id), deterministically ordered."""
    index_to_id = {c.index: c.id for c in ds.categories}
    grouped: dict[tuple[int, int], list[ObjectAnnotation]] = {}
    for ann in ds.annotations:
        grouped.setdefault((ann.image_id, index_to_id[ann.category]), []).append(ann)
    return [(img, cat, grouped[(img, cat)]) for img, cat in sorted(grouped)]


def _quantized_center(ann: ObjectAnnotation, stride: int) -> tuple[int, int]:
    x1, y1, x2, y2 = ann.bbox
    return (
        int(math.floor((x1 + x2) / 2.0 / stride)),
        int(math.floor((y1 + y2) / 2.0 / stride)),
    )


def count_center_collisions(ds: Dataset, stride: int = 4, oracle: bool = False) -> CollisionReport:
    """Pairs of same-class objects in one image whose strided, floored centers coincide.

    The fast path hashes quantized centers; the oracle path compares every
    pair directly. Both produce identical pair listings.
    """
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")

    pairs: list[CollisionPair] = []
    for image_id, category_id, anns in _groups(ds):
        if oracle:
            centers = [_quantized_center(a, stride) for a in anns]
            for i in range(len(anns)):
                for j in range(i + 1, len(anns)):
                    if centers[i] == centers[j]:
                        pairs.append(CollisionPair(image_id, category_id, anns[i].id, anns[j].id))
        else:
            by_center: dict[tuple[int, int], list[int]] = {}
            for a in anns:
                by_center.setdefault(_quantized_center(a, stride), []).append(a.id)
            for ids in by_center.values():
                for i in range(len(ids)):
                    for j in range(i + 1, len(ids)):
                        pairs.append(CollisionPair(image_id, category_id, ids[i], ids[j]))
    pairs.sort(key=lambda p: (p.image_id, p.category_id, p.first, p.second))
    return CollisionReport(
        total_objects=len(ds.annotations),
        bucket_totals=_bucket_totals(ds),
        warnings=len(ds.warnings),
        n_center=len(pairs),
        center_pairs=pairs,
    )


def count_iou_collisions(ds: Dataset, thresholds=(0.5, 0.7), oracle: bool = False) -> CollisionReport:
    """Pairs of same-class objects in one image with box IoU strictly above each threshold."""
    thresholds = sorted({float(t) for t in thresholds})
    if not thresholds:
        raise InputError("at least one IoU threshold required")
    if not all(math.isfinite(t) for t in thresholds):
        raise InputError(f"IoU thresholds must be finite, got {thresholds}")

    merged: dict[float, list[CollisionPair]] = {t: [] for t in thresholds}
    for image_id, category_id, anns in _groups(ds):
        if oracle:
            for i in range(len(anns)):
                for j in range(i + 1, len(anns)):
                    v = iou(anns[i].bbox, anns[j].bbox)
                    for t in thresholds:
                        if v > t:
                            merged[t].append(CollisionPair(image_id, category_id, anns[i].id, anns[j].id))
        elif len(anns) > 1:
            boxes = np.array([a.bbox for a in anns], dtype=np.float64)
            k = np.arange(len(anns))
            first, second = np.nonzero(k[:, None] < k)  # the np.triu_indices pairs, without its fixed cost
            ious = iou_matrix(boxes, boxes)[first, second]
            for t in thresholds:
                hit = ious > t
                merged[t].extend(
                    CollisionPair(image_id, category_id, anns[i].id, anns[j].id) for i, j in zip(first[hit], second[hit])
                )
    for t in thresholds:
        merged[t].sort(key=lambda p: (p.image_id, p.category_id, p.first, p.second))
    return CollisionReport(
        total_objects=len(ds.annotations),
        bucket_totals=_bucket_totals(ds),
        warnings=len(ds.warnings),
        n_iou={t: len(merged[t]) for t in thresholds},
        iou_pairs=merged,
    )


def _max_anchor_ious_fast(boxes: np.ndarray, image_w: float, image_h: float, cfg: AnchorConfig) -> np.ndarray:
    """Max IoU over all anchors: per anchor shape, overlaps factor over the two axes.

    Exact over all anchors (no pruning); anchor extents per axis depend only
    on that axis's grid position, so the intersection is the outer product of
    per-axis overlap lengths. Corners, intersection and union use the same
    arithmetic as iou_matrix, so the result equals the dense oracle bit for bit.
    """
    xs = anchor_positions(image_w, cfg.stride)
    ys = anchor_positions(image_h, cfg.stride)
    bx1, by1, bx2, by2 = (boxes[:, k, None] for k in range(4))
    box_area = ((bx2 - bx1) * (by2 - by1))[:, :, None]
    best = np.zeros(boxes.shape[0])
    for w, h in anchor_shapes(cfg):
        ax1, ax2 = xs - w / 2.0, xs + w / 2.0
        ay1, ay2 = ys - h / 2.0, ys + h / 2.0
        ox = np.maximum(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0.0)
        oy = np.maximum(np.minimum(ay2, by2) - np.maximum(ay1, by1), 0.0)
        inter = ox[:, None, :] * oy[:, :, None]
        anchor_area = (ax2 - ax1)[None, :] * (ay2 - ay1)[:, None]
        union = box_area + anchor_area - inter
        ious = np.where((inter > 0.0) & (union > 0.0), inter / np.where(union > 0.0, union, 1.0), 0.0)
        best = np.maximum(best, ious.max(axis=(1, 2)))
    return best


def _max_anchor_ious_oracle(boxes: np.ndarray, image_w: float, image_h: float, cfg: AnchorConfig) -> np.ndarray:
    """Dense max-IoU: the IoU matrix of boxes against every anchor of the grid."""
    return iou_matrix(boxes, anchor_grid(image_w, image_h, cfg)).max(axis=1)


def count_forced_assignments(
    ds: Dataset,
    cfg: AnchorConfig = AnchorConfig(),
    iou_thresh: float = 0.5,
    oracle: bool = False,
) -> AnchorReport:
    """Objects whose best anchor IoU falls below the threshold after shorter-edge resize.

    Size buckets use the COCO area convention in original-image pixels.
    """
    if not 0 < iou_thresh < 1:
        raise InputError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    by_image = ds.annotations_by_image()
    forced_ids = []
    max_anchor_ious = _max_anchor_ious_oracle if oracle else _max_anchor_ious_fast
    for img in ds.images:
        anns = by_image[img.id]
        if not anns:
            continue
        w, h, scale = resize_shorter(img.width, img.height, cfg.resize_shorter)
        boxes = np.array([a.bbox for a in anns], dtype=np.float64) * scale
        max_ious = max_anchor_ious(boxes, w, h, cfg)
        forced_ids.extend(anns[i].id for i in range(len(anns)) if max_ious[i] < iou_thresh)
    forced_ids.sort()
    forced_set = set(forced_ids)
    buckets = {}
    totals = _bucket_totals(ds)
    for name in BUCKETS:
        count = sum(1 for a in ds.annotations if a.id in forced_set and area_bucket(a.area) == name)
        buckets[name] = {
            "forced": count,
            "total": totals[name],
            "fraction": count / totals[name] if totals[name] else None,
        }
    return AnchorReport(
        n_anchor=len(forced_ids),
        total_objects=len(ds.annotations),
        buckets=buckets,
        forced_annotations=forced_ids,
        warnings=len(ds.warnings),
    )
