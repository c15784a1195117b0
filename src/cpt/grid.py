"""Dense multi-channel grids: Gaussian splatting and peak extraction.

All functions are pure except render_gaussian, which splats into the grid it
is given and returns that same grid.
Grid data is stored as a numpy array of shape (channels, height, width),
row-major with the channel axis outermost.

Peak extraction costs one pass for the row maxima (one fmax.reduceat over
the flat grid), then a peak mask only on the rows whose maximum can still
reach the top-k, kept in buffers the size of the rows visited so far, so
beyond that pass its cost follows the rows that can hold a kept peak, not
the grid size.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError

# Gaussian radii below this are lifted to it before dividing by 3, so a
# degenerate box still produces a (numerically) one-cell splat.
MIN_RADIUS = 1e-6
# extract_peaks visits at least this many rows per batch, so that numpy's
# fixed cost per call stays small next to the work on the rows.
MIN_BATCH_ROWS = 32


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
    _splat(grid.data, [(channel, center[0], center[1], sigma)])
    return grid


def _splat(data: np.ndarray, splats: list[tuple[int, float, float, float]]) -> None:
    """render_gaussian for each (channel, px, py, sigma) in turn, on a (C, H, W) array.

    The kernels of all windows are evaluated in one array pass over their
    cells, with the arithmetic of one splat per cell; the windows are then
    combined into data by max one at a time, in order.
    """
    _, h, w = data.shape
    windows, corners, scales = [], [], []
    for channel, px, py, sigma in splats:
        if not (sigma > 0 and math.isfinite(sigma)):
            raise InputError(f"sigma must be positive and finite, got {sigma}")
        px, py = float(px), float(py)
        radius = int(math.ceil(3.0 * sigma))
        x0 = max(int(math.ceil(px - radius)), 0)
        x1 = min(int(math.floor(px + radius)), w - 1)
        y0 = max(int(math.ceil(py - radius)), 0)
        y1 = min(int(math.floor(py + radius)), h - 1)
        if x0 <= x1 and y0 <= y1:
            windows.append((channel, slice(y0, y1 + 1), slice(x0, x1 + 1), y1 + 1 - y0, x1 + 1 - x0))
            corners.append((x0, y0, px, py))
            scales.append(2.0 * sigma * sigma)
    if not windows:
        return
    x0, y0, px, py = np.array(corners).T
    ny, nx = np.array([win[3:] for win in windows]).T
    # every window's cells in row-major order: each cell's window, and its row and column in it
    ends = np.cumsum(ny * nx)
    win = np.repeat(np.arange(len(windows)), ny * nx)
    row, col = np.divmod(np.arange(ends[-1]) - (ends - ny * nx)[win], nx[win])
    dx, dy = (x0[win] + col) - px[win], (y0[win] + row) - py[win]
    kernel = np.exp(-(dx**2 + dy**2) / np.array(scales)[win])
    for (channel, rows, cols, a, b), k in zip(windows, np.split(kernel, ends[:-1])):
        region = data[channel, rows, cols]
        np.maximum(region, k.reshape(a, b), out=region)


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


def _row_peaks(rows: np.ndarray, height: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and peak mask of rows r of a (C*H, W) view.

    A row's 3x3 neighborhood is rows y-1, y and y+1 of its own channel,
    clipped at the borders: a border row or column stands in for its
    missing neighbor. A peak equals the maximum of its neighborhood, which
    is NaN wherever the neighborhood holds a NaN.
    """
    w = rows.shape[1]
    y = r % height
    mid = rows.take(r, axis=0)
    cols = np.maximum(rows.take(r - (y > 0), axis=0), mid)
    np.maximum(cols, rows.take(r + (y < height - 1), axis=0), out=cols)
    # over the flat buffer each border cell meets a cell of the next row, so the border columns are redone
    box = cols.copy()
    b, c = box.ravel(), cols.ravel()
    np.maximum(b[1:], c[:-1], out=b[1:])
    np.maximum(b[:-1], c[1:], out=b[:-1])
    box[:, 0] = np.maximum(cols[:, 0], cols[:, min(1, w - 1)])
    box[:, -1] = np.maximum(cols[:, -1], cols[:, max(w - 2, 0)])
    return mid, mid == box


def _top_peak_indices(data: np.ndarray, top_k: int, per_channel: bool) -> np.ndarray:
    """Flat indices of the top_k peaks of a (C, H, W) grid, by (-score, flat index).

    C-order flat index order is (channel, y, x) order. The cap covers a
    group of rows: the whole grid, or each channel when per_channel is set.
    The maximum R of a row bounds the score of every peak in it, so each
    group visits its rows in descending R (flat order on ties), all groups
    in the same batches, which double, and only visited rows get a peak mask.
    With T the largest R a group has not visited, every one of its peaks
    above T has been found. Its cut is final once top_k of those are found,
    or once top_k - a of its peaks equal to T lie in visited rows before the
    next unvisited one (a being the count above T): an unvisited row holding
    a peak equal to T comes after every visited row with R == T. All-NaN rows
    sort last and hold no peak, so a group whose next row is one is done.
    """
    c, h, w = data.shape
    groups = c if per_channel else 1
    n = c * h // groups  # rows per group
    rows = data.reshape(c * h, w)
    # NaN only for an all-NaN row, which holds no peak and sorts last
    bound = np.fmax.reduceat(data.ravel(), np.arange(0, data.size, w)).reshape(groups, n)
    order = np.argsort(-bound, axis=1, kind="stable")  # row within the group, by visiting position
    values = np.empty((groups, 0, w), data.dtype)  # visited rows by visiting position
    peaks = np.empty((groups, 0, w), bool)
    cut = np.full(groups, np.nan)  # a closed group keeps its peaks that score >= cut
    visited, batch = 0, max(-(-top_k // w), MIN_BATCH_ROWS)  # at least enough rows to hold top_k peaks
    while np.isnan(cut).any():
        o = np.flatnonzero(np.isnan(cut))
        size = min(batch, n - visited)
        v, pk = _row_peaks(rows, h, (order[o, visited : visited + size] + o[:, None] * n).ravel())
        shape = (groups, size, w)
        if o.size < groups:  # closed groups get rows without peaks
            part = v.reshape(o.size, size, w), pk.reshape(o.size, size, w)
            v, pk = np.empty(shape, data.dtype), np.zeros(shape, bool)
            v[o], pk[o] = part
        values = np.concatenate([values, v.reshape(shape)], axis=1)
        peaks = np.concatenate([peaks, pk.reshape(shape)], axis=1)
        visited += size
        batch *= 2
        sel = o if o.size < groups else slice(None)  # a slice copies nothing
        nxt = order[o, min(visited, n - 1)]
        t = bound[o, nxt]
        done = np.isnan(t) | (visited >= n)  # every row that can hold a peak is visited
        t[done] = -np.inf
        # a peak counts above T, or at T in a row before the next one in flat order, since the
        # unvisited rows with R == T come after it; above T means at least the next value up
        up = np.where(t < np.inf, np.nextafter(t, np.inf), np.nan)
        level = np.where(order[sel, :visited] < nxt[:, None], t[:, None], up[:, None])
        found = np.count_nonzero((values[sel] >= level[:, :, None]) & peaks[sel], axis=(1, 2))
        close = (found >= top_k) | done
        cut[o[close]] = t[close]
    row_ids = order[:, :visited] + np.arange(0, c * h, n)[:, None]
    return _select(values, peaks, row_ids, cut, top_k)


def _select(values: np.ndarray, peaks: np.ndarray, row_ids: np.ndarray, cut: np.ndarray, top_k: int) -> np.ndarray:
    """Flat indices of each group's top_k peaks, by (-score, flat index).

    values and peaks are (groups, visited, W): each group's visited rows
    by visiting position, with their row numbers in row_ids. A group's top
    peaks are those above its cut, then its ties at the cut in flat order.
    """
    groups, visited, w = values.shape
    span = visited * w
    level = cut.astype(values.dtype)[:, None, None]
    hi = np.flatnonzero((values > level) & peaks)
    top = values.ravel()[hi]
    counts = np.bincount(hi // span, minlength=groups)
    if counts.max() >= top_k:
        # a group that holds top_k peaks above its cut cuts at the top_k-th of them instead
        board = np.full((groups, counts.max()), -np.inf)
        board[hi // span, _rank_in_group(hi // span, groups)] = top
        cut = np.maximum(cut, np.partition(board, -top_k, axis=1)[:, -top_k])
        level = cut.astype(values.dtype)[:, None, None]
        keep = top > level[hi // span, 0, 0]
        hi, top = hi[keep], top[keep]
    need = top_k - np.bincount(hi // span, minlength=groups)
    tie = (values == level) & peaks
    # only the rows that come first in flat order can hold the ties kept
    per_row = np.count_nonzero(tie, axis=2)
    flat = np.argsort(row_ids, axis=1)
    per_row_flat = np.take_along_axis(per_row, flat, axis=1)
    first = np.zeros(per_row.shape, bool)
    np.put_along_axis(first, flat, np.cumsum(per_row_flat, axis=1) - per_row_flat < need[:, None], axis=1)
    lo = np.flatnonzero(tie & first[:, :, None])
    lo = lo[np.argsort(row_ids.ravel()[lo // w], kind="stable")]
    lo = lo[_rank_in_group(lo // span, groups) < need[lo // span]]
    idx = row_ids.ravel()[np.concatenate([hi, lo]) // w] * w + np.concatenate([hi, lo]) % w
    top = np.concatenate([top, values.ravel()[lo]])
    return idx[np.lexsort((idx, -top))]


def _rank_in_group(g: np.ndarray, groups: int) -> np.ndarray:
    """Position of each element among those of its group, for g sorted ascending."""
    return np.arange(g.size) - np.searchsorted(g, np.arange(groups))[g]


def extract_peaks(grid: DenseGrid, top_k: int, per_channel: bool = False) -> list[Peak]:
    """Cells >= all 8-connected in-grid neighbors, sorted by score descending.

    Ties break by (channel, y, x) ascending. The cap is applied jointly
    across channels by default (detection decoding) or per channel when
    per_channel is set (joint candidates). Plateaus qualify under the >=
    comparison and are kept, subject to the cap. NaN cells, and cells next
    to one, are never peaks.

    Cost: one pass over the grid for its row maxima, a single
    np.fmax.reduceat over the flat grid, then a peak mask on the rows that
    can hold a top_k peak, visited in descending row maximum until the cut
    is final; only peaks at or above the cut are sorted. The values and
    masks are kept for the visited rows only, so the buffers grow with the
    rows visited, not with the grid: on a sparse heatmap that is a few
    hundred of its rows. With per_channel set, every channel is its own
    group with its own cap, and the groups advance together.
    """
    if top_k < 1:
        raise InputError(f"top_k must be >= 1, got {top_k}")
    data = grid.data
    top_k = min(top_k, data.size // data.shape[0] if per_channel else data.size)  # no group holds more peaks
    idx = _top_peak_indices(data, top_k, per_channel)
    scores = data.ravel()[idx].astype(np.float64).tolist()
    cs, ys, xs = (a.tolist() for a in np.unravel_index(idx, data.shape))
    return [Peak(x, y, c, s) for x, y, c, s in zip(xs, ys, cs, scores)]
