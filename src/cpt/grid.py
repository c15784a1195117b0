"""Dense multi-channel grids: Gaussian splatting, max pooling, peak extraction.

All functions are pure except render_gaussian, which splats into the grid it
is given and returns that same grid; the others never mutate their inputs
and return fresh grids.
Grid data is stored as a numpy array of shape (channels, height, width),
row-major with the channel axis outermost.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError

# Gaussian radii below this are lifted to it before dividing by 3, so a
# degenerate box still produces a (numerically) one-cell splat.
MIN_RADIUS = 1e-6


class DenseGrid:
    """Multi-channel 2D float grid.

    Wraps an ndarray of shape (channels, height, width). Tests run at 64-bit;
    32-bit data is accepted for production paths and preserved by all ops.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise InputError(f"grid data must be 3-dimensional (C,H,W), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise InputError(f"grid dimensions must all be >= 1, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr

    @classmethod
    def zeros(cls, width: int, height: int, channels: int = 1, dtype=np.float64) -> "DenseGrid":
        return cls(np.zeros((channels, height, width), dtype=dtype))

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self):
        return self.data.dtype

    def copy(self) -> "DenseGrid":
        return DenseGrid(self.data.copy())

    def __repr__(self) -> str:
        return f"DenseGrid(width={self.width}, height={self.height}, channels={self.channels}, dtype={self.data.dtype})"


class Peak(NamedTuple):
    """A cell whose value is >= all of its 8-connected in-grid neighbors."""

    x: int
    y: int
    channel: int
    score: float


def render_gaussian(grid: DenseGrid, center: tuple[float, float], channel: int, sigma: float) -> DenseGrid:
    """Splat exp(-((x-px)^2+(y-py)^2)/(2 sigma^2)) onto one channel, combining by max.

    In place: the window is written into grid.data and grid itself is
    returned, so a splat costs its window, not a copy of the grid. The kernel
    is evaluated on a window of radius ceil(3*sigma) around the center;
    beyond that the kernel is below 1.2e-4 and is dropped. The center may lie
    outside the grid; only the overlapping part is written.
    """
    if not 0 <= channel < grid.channels:
        raise InputError(f"channel {channel} out of range [0, {grid.channels})")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InputError(f"sigma must be positive and finite, got {sigma}")

    px, py = float(center[0]), float(center[1])
    radius = int(math.ceil(3.0 * sigma))
    x0 = max(int(math.ceil(px - radius)), 0)
    x1 = min(int(math.floor(px + radius)), grid.width - 1)
    y0 = max(int(math.ceil(py - radius)), 0)
    y1 = min(int(math.floor(py + radius)), grid.height - 1)
    if x0 > x1 or y0 > y1:
        return grid

    xs = np.arange(x0, x1 + 1, dtype=np.float64) - px
    ys = np.arange(y0, y1 + 1, dtype=np.float64) - py
    kernel = np.exp(-(xs[None, :] ** 2 + ys[:, None] ** 2) / (2.0 * sigma * sigma))
    region = grid.data[channel, y0 : y1 + 1, x0 : x1 + 1]
    np.maximum(region, kernel, out=region)
    return grid


def gaussian_radius(box_w: float, box_h: float, min_overlap: float = 0.7) -> float:
    """Largest corner displacement r keeping IoU >= min_overlap with the original box.

    Minimum over the three shift cases (box translated; both corners pulled
    inward; both pushed outward), each solved in closed form. Dimensions are
    in output cells.
    """
    if not (box_w > 0 and box_h > 0):
        raise InputError(f"box dimensions must be positive, got ({box_w}, {box_h})")
    if not 0 < min_overlap < 1:
        raise InputError(f"min_overlap must be in (0, 1), got {min_overlap}")
    w, h, t = float(box_w), float(box_h), float(min_overlap)

    # translation by (r, r): (w-r)(h-r) >= 2t*wh/(1+t)
    b1 = w + h
    c1 = w * h * (1 - t) / (1 + t)
    r1 = (b1 - math.sqrt(max(b1 * b1 - 4 * c1, 0.0))) / 2

    # both corners inward: (w-2r)(h-2r) >= t*wh
    a2 = 4.0
    b2 = 2 * (w + h)
    c2 = (1 - t) * w * h
    r2 = (b2 - math.sqrt(max(b2 * b2 - 4 * a2 * c2, 0.0))) / (2 * a2)

    # both corners outward: wh >= t*(w+2r)(h+2r)
    a3 = 4.0 * t
    b3 = -2 * t * (w + h)
    c3 = (t - 1) * w * h
    r3 = (b3 + math.sqrt(max(b3 * b3 - 4 * a3 * c3, 0.0))) / (2 * a3)

    return max(0.0, min(r1, r2, r3))


def gaussian_sigma(box_w: float, box_h: float, min_overlap: float = 0.7) -> float:
    """Size-adaptive standard deviation: displacement radius / 3, floored at MIN_RADIUS / 3."""
    return max(gaussian_radius(box_w, box_h, min_overlap), MIN_RADIUS) / 3.0


def max_pool_3x3(grid: DenseGrid) -> DenseGrid:
    """Per-channel 3x3 max pool with the neighborhood clipped at grid borders.

    Separable: a 3-max along each row, then a 3-max along each column of
    that. NaN propagates to every cell whose neighborhood holds one.
    """
    d = grid.data
    rows = d.copy()
    np.maximum(rows[:, :, 1:], d[:, :, :-1], out=rows[:, :, 1:])
    np.maximum(rows[:, :, :-1], d[:, :, 1:], out=rows[:, :, :-1])
    out = rows.copy()
    np.maximum(out[:, 1:, :], rows[:, :-1, :], out=out[:, 1:, :])
    np.maximum(out[:, :-1, :], rows[:, 1:, :], out=out[:, :-1, :])
    return DenseGrid(out)


def _top_peak_indices(data: np.ndarray, mask: np.ndarray, top_k: int) -> np.ndarray:
    """Flat indices of the top_k peaks of a (C, H, W) block, by (-score, flat index).

    C-order flat index order is (channel, y, x) order. Only the peaks above
    the k-th largest row maximum v are sorted; they lie in fewer than top_k
    rows. The rest are peaks equal to v, taken in flat order.
    """
    scores = np.where(mask, data, -np.inf)
    row_max = scores.max(axis=2).ravel()
    if row_max.size < top_k:
        v = -np.inf
    else:
        v = np.partition(row_max, row_max.size - top_k)[row_max.size - top_k]
    above = np.flatnonzero(scores > v)
    taken = [above[np.argsort(-scores.ravel()[above], kind="stable")][:top_k]]
    need = top_k - taken[0].size
    plane = data.shape[1] * data.shape[2]
    for c in range(data.shape[0]):
        if need <= 0:
            break
        equal = np.flatnonzero(mask[c] & (data[c] == v))[:need]
        taken.append(equal + c * plane)
        need -= equal.size
    return np.concatenate(taken)


def extract_peaks(grid: DenseGrid, top_k: int, per_channel: bool = False) -> list[Peak]:
    """Cells >= all 8-connected in-grid neighbors, sorted by score descending.

    Ties break by (channel, y, x) ascending. The cap is applied jointly
    across channels by default (detection decoding) or per channel when
    per_channel is set (joint candidates). Plateaus qualify under the >=
    comparison and are kept, subject to the cap. NaN cells, and cells next
    to one, are never peaks.

    Cost: a few passes over the grid plus sorting the peaks of at most
    top_k rows (per channel when per_channel is set).
    """
    if top_k < 1:
        raise InputError(f"top_k must be >= 1, got {top_k}")
    data = grid.data
    mask = data == max_pool_3x3(grid).data
    if per_channel:
        plane = data.shape[1] * data.shape[2]
        idx = np.concatenate(
            [_top_peak_indices(data[c : c + 1], mask[c : c + 1], top_k) + c * plane for c in range(data.shape[0])]
        )
        # channel blocks are concatenated in channel order, so a stable sort keeps flat order on ties
        idx = idx[np.argsort(-data.ravel()[idx], kind="stable")]
    else:
        idx = _top_peak_indices(data, mask, top_k)
    scores = data.ravel()[idx].astype(np.float64).tolist()
    cs, ys, xs = (a.tolist() for a in np.unravel_index(idx, data.shape))
    return [Peak(x, y, c, s) for x, y, c, s in zip(xs, ys, cs, scores)]
