"""Dataset annotation analyses: center collisions, IoU collisions, forced anchor assignments.

Each counter has a fast path and an independently implemented oracle path
(--oracle in the CLI); both must agree exactly. Collision pairs are counted
per image and category; anchor assignment follows the single-level grid with
the image resized so its shorter edge hits the configured length.

The forced-anchor fast path factors each anchor shape's overlaps over the two
axes and evaluates a box only on the anchors that can hold its best IoU: the
positions within DELTA of each axis's overlap maximum, in the shapes whose
IoU upper bound reaches an IoU some anchor attains. That costs O(B·(W + H))
per shape for B boxes on W×H anchor positions, plus the surviving windows,
which hold about 0.05% of all box-anchor pairs on synthetic 640×480 scenes.
Its oracle is the dense IoU matrix of every box against all anchors.
"""
from __future__ import annotations

import math
from collections import Counter
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

# relative slack of the forced-anchor window and shape tests. It must exceed the
# change of an anchor's area with its position (a few ulp); beyond that a larger
# value only evaluates more anchors.
DELTA = 1e-9

# box-anchor pairs per chunk of the dense oracle: 8 MB per float64 temporary, unless one box has more anchors
_ORACLE_PAIRS = 1 << 20


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


def _anchor_iou(inter: np.ndarray, box_area: np.ndarray, anchor_area: np.ndarray) -> np.ndarray:
    """IoU from intersection and areas with the arithmetic of iou_matrix: 0 unless both are positive."""
    union = box_area + anchor_area - inter
    return np.where((inter > 0.0) & (union > 0.0), inter / np.where(union > 0.0, union, 1.0), 0.0)


def _window(overlap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, length, max) along the last axis of the span of overlaps within DELTA of their max.

    Overlap is concave in anchor position, so the near-max positions form one
    run; spanning from the first to the last of them keeps the window whole
    even where rounding breaks that run.
    """
    best = overlap.max(axis=-1)
    near = overlap >= (best * (1.0 - DELTA))[..., None]
    first = near.argmax(axis=-1)
    return first, overlap.shape[-1] - near[..., ::-1].argmax(axis=-1) - first, best


def _max_anchor_ious_fast(boxes: np.ndarray, image_w: float, image_h: float, cfg: AnchorConfig) -> np.ndarray:
    """Max IoU over all anchors, evaluated only on the anchors that can hold it.

    Within one anchor shape the intersection is ox[x]·oy[y], the product of
    per-axis overlap lengths, and IoU grows with it: anchor sides change with
    position by at most an ulp of the image extent, far below DELTA of any
    anchor long enough to overlap a box at two positions. An anchor whose ox
    (or oy) is below (1 − DELTA) times its maximum therefore cannot hold the
    best IoU, and each (box, shape) needs only the window of positions near
    both axis maxima. A shape is skipped when its bound
    imax / (box area + smallest anchor area − imax), with imax the largest
    intersection, falls short of an IoU that some anchor attains. The
    surviving windows are evaluated with the arithmetic of iou_matrix, so the
    result equals the dense oracle bit for bit. Cost per shape: O(B·(W + H))
    for the windows, plus the anchors in the surviving windows.
    """
    xs = anchor_positions(image_w, cfg.stride)
    ys = anchor_positions(image_h, cfg.stride)
    bx1, by1, bx2, by2 = (boxes[:, k, None] for k in range(4))
    box_area = ((bx2 - bx1) * (by2 - by1))[:, 0]
    shapes = anchor_shapes(cfg)
    ox = np.empty((len(shapes), boxes.shape[0], len(xs)))
    oy = np.empty((len(shapes), boxes.shape[0], len(ys)))
    aw = np.empty((len(shapes), len(xs)))
    ah = np.empty((len(shapes), len(ys)))
    for s, (w, h) in enumerate(shapes):
        ax1, ax2 = xs - w / 2.0, xs + w / 2.0
        ay1, ay2 = ys - h / 2.0, ys + h / 2.0
        aw[s], ah[s] = ax2 - ax1, ay2 - ay1
        ox[s] = np.maximum(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0.0)
        oy[s] = np.maximum(np.minimum(ay2, by2) - np.maximum(ay1, by1), 0.0)
    # (shape, box) arrays from here on
    x0, nx, mx = _window(ox)
    y0, ny, my = _window(oy)
    # the IoU at each window's first anchor, attained by that anchor, bounds the best one from below
    inter = np.take_along_axis(ox, x0[..., None], 2)[..., 0] * np.take_along_axis(oy, y0[..., None], 2)[..., 0]
    area = np.take_along_axis(aw, x0, 1) * np.take_along_axis(ah, y0, 1)
    lower = _anchor_iou(inter, box_area, area).max(axis=0)
    imax = mx * my
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = imax / (box_area + (aw.min(axis=1) * ah.min(axis=1))[:, None] - imax)
    # a NaN or inf bound (zero union) never skips its shape
    keep = (mx > 0.0) & (my > 0.0) & ~(upper * (1.0 + DELTA) < lower)
    shape_of, box_of = np.nonzero(keep)
    best = np.zeros(boxes.shape[0])
    if not len(box_of):
        return best
    x0, nx, y0, ny = x0[keep], nx[keep], y0[keep], ny[keep]
    sizes = nx * ny
    starts = np.cumsum(sizes) - sizes
    pair = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(starts[-1] + sizes[-1]) - starts[pair]
    ix = x0[pair] + local // ny[pair]
    iy = y0[pair] + local % ny[pair]
    s, b = shape_of[pair], box_of[pair]
    ious = _anchor_iou(ox[s, b, ix] * oy[s, b, iy], box_area[b], aw[s, ix] * ah[s, iy])
    np.maximum.at(best, box_of, np.maximum.reduceat(ious, starts))
    return best


def _max_anchor_ious_oracle(boxes: np.ndarray, image_w: float, image_h: float, cfg: AnchorConfig) -> np.ndarray:
    """Dense max-IoU: the IoU matrix of boxes against every anchor of the grid.

    The matrix is formed for chunks of at most _ORACLE_PAIRS box-anchor pairs
    (one box at least), so its temporaries do not grow with the box count.
    Each row's max depends on that row alone, so chunking changes no bit.
    """
    anchors = anchor_grid(image_w, image_h, cfg)
    rows = max(1, _ORACLE_PAIRS // len(anchors))
    best = np.empty(len(boxes))
    for i in range(0, len(boxes), rows):
        best[i : i + rows] = iou_matrix(boxes[i : i + rows], anchors).max(axis=1)
    return best


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
    forced: list[ObjectAnnotation] = []
    max_anchor_ious = _max_anchor_ious_oracle if oracle else _max_anchor_ious_fast
    for img in ds.images:
        anns = by_image[img.id]
        if not anns:
            continue
        w, h, scale = resize_shorter(img.width, img.height, cfg.resize_shorter)
        if min(w, h) < cfg.stride / 2.0:  # anchor_positions would be empty along that axis
            raise InputError(
                f"image {img.id} resizes to {w:g}x{h:g}, which holds no anchor center at stride {cfg.stride}: "
                f"each side must be >= stride / 2"
            )
        boxes = np.array([a.bbox for a in anns], dtype=np.float64) * scale
        max_ious = max_anchor_ious(boxes, w, h, cfg)
        forced.extend(a for a, v in zip(anns, max_ious) if v < iou_thresh)
    forced_ids = sorted(a.id for a in forced)
    forced_counts = Counter(area_bucket(a.area) for a in forced)
    totals = _bucket_totals(ds)
    buckets = {
        name: {
            "forced": forced_counts[name],
            "total": totals[name],
            "fraction": forced_counts[name] / totals[name] if totals[name] else None,
        }
        for name in BUCKETS
    }
    return AnchorReport(
        n_anchor=len(forced_ids),
        total_objects=len(ds.annotations),
        buckets=buckets,
        forced_annotations=forced_ids,
        warnings=len(ds.warnings),
    )
