"""Turn dense output grids into detections without IoU-based NMS.

Peak extraction on the heatmap replaces suppression; boxes, 3D attributes
and poses are read off the regression maps at each peak cell. All decoded
coordinates are in output-cell space until to_input_space is applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .grid import DenseGrid, Peak, extract_peaks
from .targets import _HEADS, BIN_MIDPOINTS, SIZE_UNITS, principal_angle

REGRESSED = "regressed"
SNAPPED = "snapped"


class Joint(NamedTuple):
    """One decoded joint with its provenance (heatmap-snapped or center-regressed)."""

    x: float
    y: float
    source: str


@dataclass
class Detection:
    """One decoded object. Score is the heatmap value at the peak."""

    category: int
    score: float
    box: tuple[float, float, float, float]
    center: tuple[float, float]
    depth: float | None = None
    dims3d: tuple[float, float, float] | None = None
    yaw: float | None = None
    joints: list[Joint] | None = None
    units: str = "cells"


def decode_depth(raw):
    """Absolute depth in meters from the raw head value.

    1/sigmoid(x) - 1 simplifies to exp(-x) exactly; strictly positive and
    decreasing in the raw value.
    """
    return np.exp(-np.asarray(raw)) if isinstance(raw, np.ndarray) else math.exp(-raw)


def decode_orientation(alpha: np.ndarray) -> float:
    """Yaw in (-pi, pi] from the 8-scalar two-bin encoding.

    The bin with the larger in-bin classification score wins (bin 1 on a
    tie); the in-bin angle is arctan2(sin, cos) shifted by the bin midpoint.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (8,):
        raise InputError(f"orientation encoding must have 8 scalars, got shape {alpha.shape}")
    # softmax in-bin score order matches the in-minus-out logit difference
    margin1 = alpha[1] - alpha[0]
    margin2 = alpha[5] - alpha[4]
    j = 0 if margin1 >= margin2 else 1
    base = 4 * j
    return principal_angle(math.atan2(alpha[base + 2], alpha[base + 3]) + BIN_MIDPOINTS[j])


def _check_spatial(name: str, grid: DenseGrid, heatmap: DenseGrid, channels: int) -> None:
    if grid.width != heatmap.width or grid.height != heatmap.height:
        raise InputError(f"{name} map is {grid.width}x{grid.height}, heatmap is {heatmap.width}x{heatmap.height}")
    if grid.channels != channels:
        raise InputError(f"{name} map must have {channels} channels, got {grid.channels}")


def _boxes(
    peaks: list[Peak], offset_map: DenseGrid, size_map: DenseGrid, size_units: str, stride: int
) -> tuple[list[int], list[int], list[tuple[float, float]], list[tuple[float, float, float, float]]]:
    """(ys, xs, centers, boxes) of the peaks, each map read with one gather.

    The arithmetic is the scalar float64 arithmetic per peak, elementwise.
    """
    xs, ys = [p.x for p in peaks], [p.y for p in peaks]
    dx, dy = offset_map.data[:, ys, xs].astype(np.float64, copy=False)
    w, h = size_map.data[:, ys, xs].astype(np.float64, copy=False)
    with np.errstate(all="ignore"):  # inf - inf is NaN here as in Python, without a warning
        if size_units == "pixels":
            w, h = w / stride, h / stride
        # negative size predictions would invert the box; clamp to degenerate, keeping NaN and -0.0
        w, h = np.where(0.0 > w, 0.0, w), np.where(0.0 > h, 0.0, h)
        cx, cy = xs + dx, ys + dy
        box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    return ys, xs, list(zip(cx.tolist(), cy.tolist())), list(zip(*(v.tolist() for v in box)))


def decode_boxes(
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
    """Detections from heatmap peaks plus the size/offset maps, score-descending.

    size_units says how the size map stores extents; "pixels" values are
    divided by the stride so boxes always come out in output cells. Optional
    3D maps populate depth, dims3d and yaw at each peak. No score filtering
    is applied; that is the caller's choice.
    """
    if size_units not in SIZE_UNITS:
        raise InputError(f"size_units must be one of {SIZE_UNITS}, got {size_units!r}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    # the maps come in _HEADS order, the heatmap first
    for head, grid in zip(_HEADS, (heatmap, offset_map, size_map, depth_map, dims_map, orientation_map)):
        if grid is not None:
            _check_spatial(head, grid, heatmap, _HEADS[head] or heatmap.channels)

    peaks = extract_peaks(heatmap, top_k, per_channel=per_class_top_k)
    ys, xs, centers, boxes = _boxes(peaks, offset_map, size_map, size_units, stride)
    dets = [Detection(p.channel, p.score, box, center) for p, box, center in zip(peaks, boxes, centers)]
    if depth_map is not None:
        for det, raw in zip(dets, depth_map.data[0, ys, xs].tolist()):
            det.depth = decode_depth(raw)
    if dims_map is not None:
        for det, dims in zip(dets, dims_map.data[:, ys, xs].T.tolist()):
            det.dims3d = tuple(dims)
    if orientation_map is not None:
        for det, alpha in zip(dets, orientation_map.data[:, ys, xs].T):
            det.yaw = decode_orientation(alpha)
    return dets


def to_input_space(det: Detection, stride: int) -> Detection:
    """Scale a detection's coordinates (box, center, joints) back by the output stride."""
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    r = float(stride)
    joints = None
    if det.joints is not None:
        joints = [Joint(j.x * r, j.y * r, j.source) for j in det.joints]
    return replace(
        det,
        box=tuple(v * r for v in det.box),
        center=(det.center[0] * r, det.center[1] * r),
        joints=joints,
        units="pixels",
    )


def _joint_candidates(
    joint_heatmap: DenseGrid, local_offset: DenseGrid, top_k: int, joint_thresh: float
) -> list[list[tuple[float, float]]]:
    """Per joint type: its peaks above joint_thresh, score-ordered, each refined by the local offset."""
    candidates: list[list[tuple[float, float]]] = [[] for _ in range(joint_heatmap.channels)]
    for p in extract_peaks(joint_heatmap, top_k, per_channel=True):
        if p.score > joint_thresh:
            px = p.x + float(local_offset.data[0, p.y, p.x])
            py = p.y + float(local_offset.data[1, p.y, p.x])
            candidates[p.channel].append((px, py))
    return candidates


def decode_pose(
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
    """Person detections with joints: center-regressed, then snapped to heatmap joints.

    Each regressed joint snaps to the nearest candidate of its type lying
    inside the person's box (boundary inclusive); with no such candidate the
    regressed location is kept and tagged. Candidates are each joint
    channel's heatmap peaks above the confidence threshold, refined by the
    local offset before the distance test.
    """
    if heatmap.channels != 1:
        raise InputError(f"pose decoding expects the 1-channel person heatmap, got {heatmap.channels}")
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")
    if not math.isfinite(joint_thresh):
        raise InputError(f"joint_thresh must be finite, got {joint_thresh}")
    k = joint_heatmap.channels
    _check_spatial("joint regression", joints_map, heatmap, 2 * k)
    _check_spatial("joint local offset", joint_local_offset, heatmap, 2)

    peaks = extract_peaks(heatmap, top_k)
    candidates = _joint_candidates(joint_heatmap, joint_local_offset, top_k, joint_thresh)

    dets = []
    for peak, center, box in zip(peaks, *_boxes(peaks, offset_map, size_map, size_units, stride)[2:]):
        x1, y1, x2, y2 = box
        joints: list[Joint] = []
        for j in range(k):
            lx = peak.x + float(joints_map.data[2 * j, peak.y, peak.x])
            ly = peak.y + float(joints_map.data[2 * j + 1, peak.y, peak.x])
            best = None
            best_d2 = math.inf
            for px, py in candidates[j]:
                if not (x1 <= px <= x2 and y1 <= py <= y2):
                    continue
                d2 = (px - lx) ** 2 + (py - ly) ** 2
                if d2 < best_d2:
                    best_d2 = d2
                    best = Joint(px, py, SNAPPED)
            joints.append(Joint(lx, ly, REGRESSED) if best is None else best)
        dets.append(Detection(category=peak.channel, score=peak.score, box=box, center=center, joints=joints))
    return dets
