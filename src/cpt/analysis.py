"""Dataset annotation analyses: center collisions, IoU collisions, forced anchor assignments.

Each counter has a fast path and an independently implemented oracle path
(--oracle in the CLI); both must agree exactly. Collision pairs are counted
per image and category; anchor assignment follows the single-level grid with
the image resized so its shorter edge hits the configured length.

The forced-anchor fast path factors each anchor shape's overlaps over the two
axes and evaluates a box only on the anchors that can hold its best IoU: a
closed-form window per axis around the plateau where the overlap peaks, in the
shapes whose IoU bound reaches an attained IoU. For K shapes, B boxes and W×H
positions that costs O(K·B) for the windows and the anchors in the windows
kept: about 1,330 per image, 0.1% of all box-anchor pairs, on the synthetic
640×480 benchmark scenes. The O(K·(W + H)) anchor-edge table is paid once per
distinct (resized size, AnchorConfig): a memo keeps the last _ANCHOR_TABLES =
128 tables, 43,232 bytes (≈42 KB) each for the default 15 shapes on a 1066×800
resize.
Its oracle is the dense IoU matrix of every box against all anchors.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .geometry import AnchorConfig, _iou, anchor_grid, anchor_positions, anchor_shapes, iou_matrix, resize_shorter
from .targets import ObjectAnnotation, _center_cell, _grid_side

# COCO size convention, on box area in original-image pixels
SMALL_MAX_AREA = 32.0**2
MEDIUM_MAX_AREA = 96.0**2
BUCKETS = ("small", "medium", "large")

# relative slack of the forced-anchor windows, which widen each plateau by DELTA·(last center + half anchor side). It
# must exceed the rounding of edges, widths and indices (72 ulp, see _max_anchor_ious_fast); more only costs anchors.
DELTA = 1e-9

# box-anchor pairs per chunk of the dense oracle: 8 MB per float64 temporary, unless one box has more anchors
_ORACLE_PAIRS = 1 << 20

# (resized size, AnchorConfig) anchor tables _anchor_table keeps, least recently used first out. One holds
# 3·K·(W + H)/S float64 edges and widths: 43,232 bytes (≈42 KB) for the default 15 shapes on a 1066×800 resize.
_ANCHOR_TABLES = 128


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


def count_center_collisions(ds: Dataset, stride: int = 4, oracle: bool = False) -> CollisionReport:
    """Pairs of same-class objects in one image that the encoder puts on one grid cell.

    Cells follow the encoder's rule (targets._center_cell) on the grid that
    EncoderConfig.for_image gives each image. The fast path hashes cells; the
    oracle path compares every pair directly. Both produce identical pair
    listings.
    """
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")

    grids = {m.id: (_grid_side(m.width, stride), _grid_side(m.height, stride)) for m in ds.images}
    pairs: list[CollisionPair] = []
    for image_id, category_id, anns in _groups(ds):
        gw, gh = grids[image_id]
        cells = [_center_cell(a, stride, gw, gh)[:2] for a in anns]
        if oracle:
            for i in range(len(anns)):
                for j in range(i + 1, len(anns)):
                    if cells[i] == cells[j]:
                        pairs.append(CollisionPair(image_id, category_id, anns[i].id, anns[j].id))
        else:
            by_cell: dict[tuple[int, int], list[int]] = {}
            for a, cell in zip(anns, cells):
                by_cell.setdefault(cell, []).append(a.id)
            for ids in by_cell.values():
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
            ious = iou_matrix([a.bbox for a in anns], [a.bbox for a in anns]).tolist()
            for i in range(len(anns)):
                for j in range(i + 1, len(anns)):
                    v = ious[i][j]
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


@functools.lru_cache(maxsize=_ANCHOR_TABLES)
def _anchor_table(image_w: float, image_h: float, cfg: AnchorConfig) -> tuple[np.ndarray, ...]:
    """The arrays _max_anchor_ious_fast derives from the resized size and cfg alone, read-only.

    a1, a2 and widths: one (shape, position) table of anchor edges for both
    axes, the x positions, then the y positions. Per (axis, shape): the half
    side, the cap c_max + S on a plateau's low end, the window slack, the
    last index n, the offset row of the shape's positions in the flattened
    table and the largest width w_max. Per shape: a_min, the smallest anchor
    area.
    """
    shapes, s = anchor_shapes(cfg), cfg.stride
    xs, ys = anchor_positions(image_w, s), anchor_positions(image_h, s)
    centers, half = np.concatenate((xs, ys)), np.repeat(shapes / 2.0, (len(xs), len(ys)), axis=1)
    a1, a2 = centers - half, centers + half
    widths = a2 - a1
    half = (shapes / 2.0).T[:, :, None]
    c_max = np.array((xs[-1], ys[-1]))[:, None, None]
    slack, n = DELTA * (c_max + half), np.array((len(xs) - 1, len(ys) - 1))[:, None, None]
    row = np.arange(len(shapes))[:, None] * a1.shape[1] + np.array((0, len(xs)))[:, None, None]
    w_max = np.maximum.reduceat(widths, (0, len(xs)), axis=1).T[:, :, None]
    a_min = np.minimum.reduceat(widths, (0, len(xs)), axis=1).prod(axis=1)[:, None]
    table = (a1, a2, widths, half, c_max + s, slack, n, row, w_max, a_min)
    for array in table:
        array.setflags(write=False)  # shared by every later call with this size and cfg
    return table


def _max_anchor_ious_fast(boxes: np.ndarray, image_w: float, image_h: float, cfg: AnchorConfig) -> np.ndarray:
    """Max IoU over all anchors, evaluated only on the anchors that can hold it.

    Per axis and shape: stride S, exact centers c = S/2 + S·i (sides < 2**52),
    anchor_grid's half side h, edges a1 = fl(c − h), a2 = fl(c + h), width
    aw = fl(a2 − a1), box edges b1 ≤ b2 (else no overlap), T = c_max + h,
    u = 2**-53, overlap ox = max(fl(min(a2, b2) − max(a1, b1)), 0) and IoU
    fl(I / fl(fl(Ab + A) − I)), I = fl(ox·oy), A = fl(aw·ah), all monotone.

    Windows. The exact overlap peaks on the plateau of centers lo..hi between
    b1 + h and b2 − h. Below lo, a2 ≤ b2 and a1 ≤ b1, so ox = fl(a2 − b1),
    exactly c + h − b1, rising by S per step; above hi it falls likewise. With
    lo clamped to ≤ c_max + S, hi to ≥ c_0 − S and D = DELTA·T, the window is
    floor((lo − D − S/2)/S) to ceil((hi + D − S/2)/S), clipped to the grid.
    Let i lie left of it with IoU(i, j) > 0, k be the last center below lo (or
    the last center): the window holds k, c_k ≥ lo − S. A left part needs
    lo ≥ 0, so lo ≤ 3T and lo, D and the index err by < 12u·T: c_k − c_i ≥
    D − 12u·T ≥ 60u·T, as DELTA = 1e-9 is 1e5 times 72u. Edges, overlaps and
    widths are within 4u·T of exact, so from i to k ox grows by ≥ c_k − c_i −
    8u·T while aw moves by ≤ 8u·T, a small part of aw > c_k − c_i. That beats
    the 14u·aw that IoU's roundings can hide: IoU(k, j) ≥ IoU(i, j) for every
    j, unless an area or union at k overflows (those at i are finite). The
    right side and the y axis (x fixed) repeat this, so the windows hold an
    anchor attaining each shape's maximum.

    Shapes. lower, the largest IoU at a window's middle anchor, is attained.
    As fl(min(a2, b2) − max(a1, b1)) ≤ min(fl(a2 − a1), fl(b2 − b1)), a shape's
    IoUs are ≤ upper = imax / (Ab + A_min − imax), imax = fl(min(max aw, bw)·
    min(max ah, bh)). Shapes with imax = 0 or upper < lower are skipped (a NaN
    bound never is); the rest get iou_matrix's arithmetic, as in the oracle.
    """
    a1, a2, widths, half, lo_cap, slack, n, row, w_max, a_min = _anchor_table(image_w, image_h, cfg)
    s = cfg.stride
    # (axis, shape, box) arrays from here on; windows index the flattened table
    b1, b2 = np.ascontiguousarray(boxes.T).reshape(2, 2, -1)  # rows (x1, y1) and (x2, y2)
    rise, fall = b1[:, None] + half, b2[:, None] - half
    lo = np.minimum(np.minimum(rise, fall), lo_cap)
    hi = np.maximum(np.maximum(rise, fall), -s / 2.0)
    first = (np.minimum(np.maximum(np.floor((lo - slack - s / 2.0) / s), 0.0), n) + row).astype(np.intp)
    last = (np.minimum(np.maximum(np.ceil((hi + slack - s / 2.0) / s), 0.0), n) + row).astype(np.intp)
    sides = b2 - b1
    box_area = sides.prod(axis=0)
    mid = (first + last) // 2
    o = np.maximum(np.minimum(a2.take(mid), b2[:, None]) - np.maximum(a1.take(mid), b1[:, None]), 0.0)
    lower = _iou(o[0], o[1], box_area, widths.take(mid).prod(axis=0)).max(axis=0)
    imax = np.minimum(w_max, sides[:, None]).prod(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = imax / (box_area + a_min - imax)
    keep = (imax > 0.0) & ~(upper < lower)
    # the anchors of each kept (shape, box) window, x-major
    box_of, first = np.nonzero(keep)[1], first[:, keep]
    ny = last[1][keep] - first[1] + 1
    sizes = (last[0][keep] - first[0] + 1) * ny
    starts = np.cumsum(sizes) - sizes
    pair = np.repeat(np.arange(len(sizes)), sizes)
    at = first.take(pair, axis=1) + np.divmod(np.arange(len(pair)) - starts.take(pair), ny.take(pair))
    b = box_of.take(pair)
    o = np.maximum(np.minimum(a2.take(at), b2.take(b, axis=1)) - np.maximum(a1.take(at), b1.take(b, axis=1)), 0.0)
    ious = _iou(o[0], o[1], box_area.take(b), widths.take(at).prod(axis=0))
    best = np.zeros(boxes.shape[0])
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
        if max(w, h) >= 2.0**52:  # anchor centers S/2 + S·i are exact below 2**52
            raise InputError(f"image {img.id} resizes to {w:g}x{h:g}: each side must be < 2**52 for exact anchor centers")
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
