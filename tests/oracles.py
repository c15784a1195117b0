"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops and direct
definitions, kept simple enough to be obviously correct.
"""
from __future__ import annotations

import math

import numpy as np


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
