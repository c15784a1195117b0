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
from .grid import DenseGrid, extract_peaks
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


def _check_stride(stride: int) -> None:
    if stride < 1:
        raise InputError(f"stride must be >= 1, got {stride}")


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
    joints_map: DenseGrid | None = None,
    joint_heatmap: DenseGrid | None = None,
    joint_local_offset: DenseGrid | None = None,
    joint_thresh: float = 0.1,
) -> list[Detection]:
    """Detections from heatmap peaks plus the size/offset maps, score-descending.

    size_units says how the size map stores extents; "pixels" values are
    divided by the stride so boxes always come out in output cells. Optional
    3D maps populate depth, dims3d and yaw at each peak. The three joint maps
    go together, with the 1-channel person heatmap, and populate joints:
    each regressed joint snaps to the nearest candidate of its type inside
    the person's box (boundary inclusive), the earlier one in peak order on
    a tie, and keeps its regressed location, tagged, when no candidate lies
    there at a finite distance. Candidates are each joint channel's peaks
    scoring above joint_thresh, moved by the local offset. Every map given
    is checked before any value is read. No score filtering is applied;
    that is the caller's choice.
    """
    if size_units not in SIZE_UNITS:
        raise InputError(f"size_units must be one of {SIZE_UNITS}, got {size_units!r}")
    _check_stride(stride)
    if not math.isfinite(joint_thresh):
        raise InputError(f"joint_thresh must be finite, got {joint_thresh}")
    k = joints_map.channels // 2 if joints_map is not None else 0  # an odd count fails the channel check
    pose = [("joint regression map", joints_map, 2 * k), ("joint heatmap", joint_heatmap, k),
            ("joint local offset map", joint_local_offset, 2)]
    given = [grid is not None for _, grid, _ in pose]
    if any(given) and not all(given):
        raise InputError(f"pose decoding requires the {pose[given.index(False)][0]} with the other joint maps")
    if any(given) and heatmap.channels != 1:
        raise InputError(f"pose decoding expects the 1-channel person heatmap, got {heatmap.channels}")
    maps = [("offset map", offset_map, _HEADS["offset"]), ("size map", size_map, _HEADS["size"])]
    maps += [(f"{head} map", grid, _HEADS[head]) for head, grid in
             (("depth", depth_map), ("dims", dims_map), ("orientation", orientation_map))]
    for name, grid, channels in maps + pose:
        if grid is None:
            continue
        if grid.width != heatmap.width or grid.height != heatmap.height:
            raise InputError(f"{name} is {grid.width}x{grid.height}, heatmap is {heatmap.width}x{heatmap.height}")
        if grid.channels != channels:
            raise InputError(f"{name} must have {channels} channels, got {grid.channels}")

    peaks = extract_peaks(heatmap, top_k, per_channel=per_class_top_k)
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
    centers, boxes = zip(cx.tolist(), cy.tolist()), zip(*(v.tolist() for v in box))
    dets = [Detection(p.channel, p.score, b, c) for p, b, c in zip(peaks, boxes, centers)]
    if depth_map is not None:
        for det, raw in zip(dets, depth_map.data[0, ys, xs].tolist()):
            det.depth = decode_depth(raw)
    if dims_map is not None:
        for det, dims in zip(dets, dims_map.data[:, ys, xs].T.tolist()):
            det.dims3d = tuple(dims)
    if orientation_map is not None:
        for det, alpha in zip(dets, orientation_map.data[:, ys, xs].T):
            det.yaw = decode_orientation(alpha)
    if joints_map is not None:
        _snap_joints(dets, xs, ys, box, joints_map, joint_heatmap, joint_local_offset, top_k, joint_thresh)
    return dets


def _snap_joints(dets, xs, ys, box, joints_map, joint_heatmap, joint_local_offset, top_k, joint_thresh) -> None:
    """Set each detection's joints, snapping per joint type with one (peaks x candidates) distance matrix."""
    kept = [p for p in extract_peaks(joint_heatmap, top_k, per_channel=True) if p.score > joint_thresh]
    kind, cy, cx = np.array([(p.channel, p.y, p.x) for p in kept], dtype=np.intp).reshape(-1, 3).T
    local = joint_local_offset.data[:, cy, cx].astype(np.float64, copy=False)
    regressed = joints_map.data[:, ys, xs].astype(np.float64, copy=False)
    x1, y1, x2, y2 = (v[:, None] for v in box)
    with np.errstate(all="ignore"):  # overflow and inf - inf give inf and NaN distances, which never snap
        px, py = cx + local[0], cy + local[1]
        jx, jy = xs + regressed[0::2], ys + regressed[1::2]  # (joint type, peak)
        snapped = np.zeros(jx.shape, bool)
        for j in range(joint_heatmap.channels):
            qx, qy = px[kind == j], py[kind == j]
            if not qx.size:
                continue
            # one (peaks x candidates) matrix of squared distances; argmin takes the first of equal minima
            d2 = (qx - jx[j, :, None]) ** 2 + (qy - jy[j, :, None]) ** 2
            d2[~((x1 <= qx) & (qx <= x2) & (y1 <= qy) & (qy <= y2) & (d2 < np.inf))] = np.inf
            best = np.argmin(d2, axis=1)
            snapped[j] = d2.min(axis=1) < np.inf
            jx[j], jy[j] = np.where(snapped[j], (qx[best], qy[best]), (jx[j], jy[j]))
    sources = np.where(snapped, SNAPPED, REGRESSED).T.tolist()
    for det, x, y, source in zip(dets, jx.T.tolist(), jy.T.tolist(), sources):
        det.joints = list(map(Joint, x, y, source))


def to_input_space(det: Detection, stride: int) -> Detection:
    """Scale a detection's coordinates (box, center, joints) back by the output stride."""
    _check_stride(stride)
    r = float(stride)
    joints = None if det.joints is None else [Joint(j.x * r, j.y * r, j.source) for j in det.joints]
    return replace(
        det,
        box=tuple(v * r for v in det.box),
        center=(det.center[0] * r, det.center[1] * r),
        joints=joints,
        units="pixels",
    )
