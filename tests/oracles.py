"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops and direct
definitions, kept simple enough to be obviously correct.
"""
from __future__ import annotations

import math

import numpy as np

from cpt import DenseGrid, FocalParams, MatchResult, extract_peaks
from cpt.decode import REGRESSED, SNAPPED, Detection, Joint, decode_depth, decode_orientation


def shift_case_ious(w: float, h: float, r: float) -> tuple[float, float, float]:
    """IoU with the original box under the three corner-displacement cases."""
    # box translated diagonally by r
    inter = max(w - r, 0.0) * max(h - r, 0.0)
    union = 2.0 * w * h - inter
    translated = inter / union if union > 0 else 0.0
    # both corners pulled inward by r
    inward = (max(w - 2 * r, 0.0) * max(h - 2 * r, 0.0)) / (w * h)
    # both corners pushed outward by r
    outward = (w * h) / ((w + 2 * r) * (h + 2 * r))
    return translated, inward, outward


def search_displacement_radius(w: float, h: float, min_overlap: float) -> float:
    """Largest r keeping all three shift-case IoUs >= min_overlap, by scan + bisection."""

    def ok(r: float) -> bool:
        return min(shift_case_ious(w, h, r)) >= min_overlap

    assert ok(0.0)
    step = 1e-4
    r = 0.0
    while ok(r + step):
        r += step
    lo, hi = r, r + step
    for _ in range(60):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def naive_max_pool_3x3(data: np.ndarray) -> np.ndarray:
    """Double-loop 3x3 max pool with border clipping; data is (C, H, W)."""
    c, h, w = data.shape
    out = np.empty_like(data)
    for ch in range(c):
        for y in range(h):
            for x in range(w):
                best = -math.inf
                for yy in range(max(y - 1, 0), min(y + 2, h)):
                    for xx in range(max(x - 1, 0), min(x + 2, w)):
                        best = max(best, data[ch, yy, xx])
                out[ch, y, x] = best
    return out


def shifted_max_pool_3x3(data: np.ndarray) -> np.ndarray:
    """3x3 max pool with border clipping: the max of the nine shifted windows of a -inf-padded copy."""
    padded = np.pad(data, ((0, 0), (1, 1), (1, 1)), mode="constant", constant_values=-np.inf)
    h, w = data.shape[1], data.shape[2]
    return np.max([padded[:, dy : dy + h, dx : dx + w] for dy in (0, 1, 2) for dx in (0, 1, 2)], axis=0)


def eight_neighbor_peak_mask(data: np.ndarray) -> np.ndarray:
    """Cells >= all 8-connected in-grid neighbors, via shifted comparisons."""
    padded = np.pad(data, ((0, 0), (1, 1), (1, 1)), mode="constant", constant_values=-np.inf)
    h, w = data.shape[1], data.shape[2]
    mask = np.ones(data.shape, dtype=bool)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            if dy == 1 and dx == 1:
                continue
            mask &= data >= padded[:, dy : dy + h, dx : dx + w]
    return mask


def reference_peaks(data: np.ndarray, k: int, per_channel: bool = False) -> list[tuple[int, int, int, float]]:
    """(x, y, channel, score) of the 8-neighbor peaks by (-score, channel, y, x), capped at k.

    The cap is joint, or per channel when per_channel is set.
    """
    mask = eight_neighbor_peak_mask(data)
    c, h, w = data.shape
    cells = [(ch, y, x) for ch in range(c) for y in range(h) for x in range(w) if mask[ch, y, x]]
    cells.sort(key=lambda cell: (-float(data[cell]), cell))
    peaks: list[tuple[int, int, int, float]] = []
    taken = [0] * c
    for ch, y, x in cells:
        if per_channel:
            if taken[ch] == k:
                continue
        elif len(peaks) == k:
            break
        taken[ch] += 1
        peaks.append((x, y, ch, float(data[ch, y, x])))
    return peaks


def naive_iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def reference_nms(items: list[tuple[int, float, tuple]], iou_thresh: float) -> list[int]:
    """Greedy per-class NMS over (category, score, box); returns kept input indices.

    Highest score first, input order on ties; discards same-class boxes with
    IoU strictly above the threshold against a kept box.
    """
    order = sorted(range(len(items)), key=lambda i: (-items[i][1], i))
    kept: list[int] = []
    removed = set()
    for i in order:
        if i in removed:
            continue
        kept.append(i)
        for j in order:
            if j == i or j in removed or j in kept:
                continue
            if items[j][0] == items[i][0] and naive_iou(items[i][2], items[j][2]) > iou_thresh:
                removed.add(j)
    return kept


def reference_match(dets, gts, iou_thresh: float) -> MatchResult:
    """Greedy matching by descending score, input order on ties, every pair's IoU from naive_iou.

    Each detection claims the unmatched same-class ground truth of highest
    IoU at or above the threshold, the first one on ties.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    gt_matched = [False] * len(gts)
    is_tp: list[bool] = []
    matched: list[int | None] = []
    for i in order:
        det = dets[i]
        best_iou = 0.0
        best_j = None
        for j, gt in enumerate(gts):
            if gt_matched[j] or gt.category != det.category:
                continue
            v = naive_iou(det.box, gt.bbox)
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_j = j
        if best_j is None:
            is_tp.append(False)
            matched.append(None)
        else:
            gt_matched[best_j] = True
            is_tp.append(True)
            matched.append(best_j)
    return MatchResult(detections=order, is_tp=is_tp, matched_gt=matched, gt_matched=gt_matched)


def reference_average_precision(matches: list[tuple[float, bool]], num_gt: int, points: int) -> float | None:
    """Interpolated AP evaluated directly from the definition, prefix by prefix."""
    if num_gt == 0:
        return None
    order = sorted(range(len(matches)), key=lambda i: (-matches[i][0], i))
    operating = []
    tp = 0
    for rank, i in enumerate(order, start=1):
        if matches[i][1]:
            tp += 1
        operating.append((tp / num_gt, tp / rank))
    total = 0.0
    for k in range(points):
        r = k / (points - 1)
        candidates = [p for rec, p in operating if rec >= r]
        total += max(candidates) if candidates else 0.0
    return total / points


def reference_focal_loss(
    pred: DenseGrid, target: DenseGrid, params: FocalParams = FocalParams()
) -> tuple[float, DenseGrid]:
    """Penalty-reduced focal loss evaluated densely: both branches and the penalty on every cell."""
    y = target.data.astype(np.float64, copy=False)
    raw = pred.data.astype(np.float64, copy=False)
    a, b, eps = params.alpha, params.beta, params.eps

    yhat = np.clip(raw, eps, 1.0 - eps)
    pos = y == 1.0
    n = max(int(pos.sum()), 1)

    log_yhat = np.log(yhat)
    log_1m = np.log1p(-yhat)
    one_m = 1.0 - yhat
    pos_terms = one_m**a * log_yhat
    neg_terms = (1.0 - y) ** b * yhat**a * log_1m
    value = -(pos_terms[pos].sum() + neg_terms[~pos].sum()) / n

    grad = np.where(
        pos,
        (a * one_m ** (a - 1.0) * log_yhat - one_m**a / yhat) / n,
        (1.0 - y) ** b * (yhat**a / one_m - a * yhat ** (a - 1.0) * log_1m) / n,
    )
    grad[(raw < eps) | (raw > 1.0 - eps)] = 0.0
    return float(value), DenseGrid(grad)


def reference_splat(grid: DenseGrid, center: tuple[float, float], channel: int, sigma: float) -> DenseGrid:
    """Gaussian splat into a fresh copy of the whole grid, combining by max; the argument is untouched."""
    out = grid.copy()
    px, py = float(center[0]), float(center[1])
    radius = int(math.ceil(3.0 * sigma))
    x0 = max(int(math.ceil(px - radius)), 0)
    x1 = min(int(math.floor(px + radius)), grid.width - 1)
    y0 = max(int(math.ceil(py - radius)), 0)
    y1 = min(int(math.floor(py + radius)), grid.height - 1)
    if x0 > x1 or y0 > y1:
        return out
    xs = np.arange(x0, x1 + 1, dtype=np.float64) - px
    ys = np.arange(y0, y1 + 1, dtype=np.float64) - py
    kernel = np.exp(-(xs[None, :] ** 2 + ys[:, None] ** 2) / (2.0 * sigma * sigma))
    region = out.data[channel, y0 : y1 + 1, x0 : x1 + 1]
    np.maximum(region, kernel, out=region)
    return out


def reference_splats(data: np.ndarray, splats) -> None:
    """Each (channel, px, py, sigma) through reference_splat in turn, the result written back into data."""
    grid = DenseGrid(data)
    for channel, px, py, sigma in splats:
        grid = reference_splat(grid, (px, py), channel, sigma)
    data[...] = grid.data


def reference_l1_at_cells(pred: DenseGrid, entries, n: int) -> tuple[float, DenseGrid]:
    """Sum of weighted absolute residuals at supervised cells, averaged over n records.

    entries yields (channel0, cell, target_vector, weight), one record at a
    time, summed and accumulated in that order. Gradients from records sharing
    a cell accumulate; sign(0) is 0.
    """
    grad = np.zeros_like(pred.data, dtype=np.float64)
    if n == 0:
        return 0.0, DenseGrid(grad)
    total = 0.0
    for ch0, (cx, cy), tgt, w in entries:
        tgt = np.asarray(tgt, dtype=np.float64)
        p = pred.data[ch0 : ch0 + tgt.size, cy, cx].astype(np.float64)
        diff = p - tgt
        total += w * np.abs(diff).sum()
        grad[ch0 : ch0 + tgt.size, cy, cx] += w * np.sign(diff) / n
    return float(total / n), DenseGrid(grad)


def _box_from_peak(peak, offset_map: DenseGrid, size_map: DenseGrid, size_units: str, stride: int):
    dx = float(offset_map.data[0, peak.y, peak.x])
    dy = float(offset_map.data[1, peak.y, peak.x])
    w = float(size_map.data[0, peak.y, peak.x])
    h = float(size_map.data[1, peak.y, peak.x])
    if size_units == "pixels":
        w /= stride
        h /= stride
    # negative size predictions would invert the box; clamp to degenerate
    w = max(w, 0.0)
    h = max(h, 0.0)
    cx, cy = peak.x + dx, peak.y + dy
    return (cx, cy), (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def reference_decode_boxes(
    heatmap: DenseGrid,
    offset_map: DenseGrid,
    size_map: DenseGrid,
    top_k: int = 100,
    size_units: str = "cells",
    stride: int = 4,
    per_class_top_k: bool = False,
    depth_map: DenseGrid | None = None,
    dims_map: DenseGrid | None = None,
    orientation_map: DenseGrid | None = None,
) -> list[Detection]:
    """decode_boxes read one peak at a time: scalar reads of every map at the peak cell, Python arithmetic."""
    dets = []
    for peak in extract_peaks(heatmap, top_k, per_channel=per_class_top_k):
        center, box = _box_from_peak(peak, offset_map, size_map, size_units, stride)
        det = Detection(category=peak.channel, score=peak.score, box=box, center=center)
        if depth_map is not None:
            det.depth = decode_depth(float(depth_map.data[0, peak.y, peak.x]))
        if dims_map is not None:
            det.dims3d = tuple(float(v) for v in dims_map.data[:, peak.y, peak.x])
        if orientation_map is not None:
            det.yaw = decode_orientation(orientation_map.data[:, peak.y, peak.x])
        dets.append(det)
    return dets


def reference_decode_pose(
    heatmap: DenseGrid,
    offset_map: DenseGrid,
    size_map: DenseGrid,
    joints_map: DenseGrid,
    joint_heatmap: DenseGrid,
    joint_local_offset: DenseGrid,
    top_k: int = 100,
    joint_thresh: float = 0.1,
    size_units: str = "cells",
    stride: int = 4,
) -> list[Detection]:
    """decode_boxes' joint snapping as a scalar scan: every peak, every joint type, every candidate in peak order.

    A joint keeps the first candidate inside the box (boundary inclusive)
    whose squared distance is strictly below the best so far, starting from
    inf, so a NaN or infinite distance never snaps. The square is a product:
    Python's `** 2` raises OverflowError where a product gives inf.
    """
    candidates: list[list[tuple[float, float]]] = [[] for _ in range(joint_heatmap.channels)]
    for p in extract_peaks(joint_heatmap, top_k, per_channel=True):
        if p.score > joint_thresh:
            px = p.x + float(joint_local_offset.data[0, p.y, p.x])
            py = p.y + float(joint_local_offset.data[1, p.y, p.x])
            candidates[p.channel].append((px, py))
    dets = []
    for peak in extract_peaks(heatmap, top_k):
        center, box = _box_from_peak(peak, offset_map, size_map, size_units, stride)
        x1, y1, x2, y2 = box
        joints: list[Joint] = []
        for j in range(joint_heatmap.channels):
            lx = peak.x + float(joints_map.data[2 * j, peak.y, peak.x])
            ly = peak.y + float(joints_map.data[2 * j + 1, peak.y, peak.x])
            best = None
            best_d2 = math.inf
            for px, py in candidates[j]:
                if not (x1 <= px <= x2 and y1 <= py <= y2):
                    continue
                d2 = (px - lx) * (px - lx) + (py - ly) * (py - ly)
                if d2 < best_d2:
                    best_d2 = d2
                    best = Joint(px, py, SNAPPED)
            joints.append(Joint(lx, ly, REGRESSED) if best is None else best)
        dets.append(Detection(category=peak.channel, score=peak.score, box=box, center=center, joints=joints))
    return dets
