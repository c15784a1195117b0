"""Training objectives with analytic gradients, plus a finite-difference checker.

Every loss returns (value, gradient) where the gradient is exact for the
clamped/masked expression actually evaluated. The gradcheck harness compares
those gradients against central finite differences, skipping coordinates in
documented non-smooth neighborhoods (clamp edges, L1 kinks, softmax ties).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import InputError
from .grid import DenseGrid
from .synthetic import distinct_cells, generator
from .targets import _HEADS, _REQUIRED_HEADS, TargetSet, encode_orientation

L1_HEADS = ("offset", "size", "joint_offset")


@dataclass
class FocalParams:
    """Penalty-reduced focal loss hyperparameters."""

    alpha: float = 2.0
    beta: float = 4.0
    eps: float = 1e-4  # probability clamp applied to predictions before the log terms

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise InputError(f"alpha must be > 0 and finite, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise InputError(f"beta must be >= 0 and finite, got {self.beta}")
        if not 0 < self.eps < 0.5:
            raise InputError(f"eps must be in (0, 0.5), got {self.eps}")


@dataclass
class LossWeights:
    """Per-term weights for the total objective."""

    size: float = 0.1
    offset: float = 1.0
    depth: float = 1.0
    dims: float = 1.0
    orientation: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise InputError(f"loss weight {f.name} must be >= 0 and finite, got {getattr(self, f.name)}")


@dataclass
class LossReport:
    """Scalar loss terms, the weighted total, and per-head gradient grids."""

    keypoint: float
    offset: float
    size: float
    total: float
    depth: float | None = None
    dims: float | None = None
    orientation: float | None = None
    n_objects: int = 0
    n_positive_cells: int = 0
    gradients: dict[str, DenseGrid] = field(default_factory=dict)


# terms per block of focal_loss at most: its few block-sized float64 buffers stay in L2
_FOCAL_BLOCK = 1 << 15
# np.sum adds a contiguous float64 run of at most this many terms in one loop
_PAIRWISE_LEAF = 128


def _pairwise_blocks(n: int, cap: int) -> tuple[list[int], int | tuple]:
    """Cut np.sum's pairwise tree over n contiguous float64 terms into its largest nodes of at most cap terms.

    np.sum adds a run of n <= 128 terms in one loop and splits a longer run
    after its first n//2 - (n//2) % 8 terms, summing both parts the same way.
    Returns the block edges (one more than the blocks) and the tree over the
    blocks: a block's index, or a (left, right) pair of trees. The blocks'
    np.sums added along the tree (_tree_sum) give np.sum of all n terms, bit
    for bit. A run of one loop is never split, so with cap < 128 a block can
    hold more than cap terms.
    """
    edges = [0]

    def cut(n: int):
        if n <= max(cap, _PAIRWISE_LEAF):
            edges.append(edges[-1] + n)
            return len(edges) - 2
        half = n // 2 - n // 2 % 8
        return cut(half), cut(n - half)

    return edges, cut(n)


def _tree_sum(tree, sums) -> float:
    """The block sums added along a _pairwise_blocks tree."""
    if isinstance(tree, tuple):
        return _tree_sum(tree[0], sums) + _tree_sum(tree[1], sums)
    return sums[tree]


def _focal_blocks(pos: np.ndarray, size: int, cap: int) -> tuple[np.ndarray, np.ndarray, int | tuple]:
    """focal_loss's blocks over a grid of size cells whose positive cells are pos, sorted.

    The blocks are the _pairwise_blocks of the negative terms (every other
    cell, in flat order), each with the positive cells that follow its last
    negative cell. Returns the blocks' cell edges, the positive cells before
    each edge, and the tree.
    """
    edges, tree = _pairwise_blocks(size - pos.size, cap)
    edges = np.array(edges)
    # pos[i] - i negative cells come before positive cell i
    cells = edges + np.searchsorted(pos - np.arange(pos.size), edges, side="right")
    cells[0] = 0  # positives before the first negative cell open block 0
    return cells, cells - edges, tree


class _FocalResult(tuple):
    """focal_loss's (value, gradient) pair, carrying in .positives the positive-cell count its pass found.

    total_loss reads the count from here, so it still calls focal_loss, the
    one name that tracers wrap and tests swap for a reference.
    """

    def __new__(cls, value: float, grad: DenseGrid, positives: int):
        pair = super().__new__(cls, (value, grad))
        pair.positives = positives
        return pair


def focal_loss(pred: DenseGrid, target: DenseGrid, params: FocalParams = FocalParams()) -> tuple[float, DenseGrid]:
    """Penalty-reduced pixel-wise focal loss over heatmaps.

    Cells with target exactly 1 are positives; everywhere else the negative
    branch applies with its (1 - target)^beta penalty reduction. Normalized
    by the positive-cell count (1 when there are none). The gradient is taken
    through the clamp: zero where the raw prediction sits in a clamped-flat
    region.

    Cost: one pass over the grid, block by block, each block running a fixed
    number of float64 ufuncs into buffers sized to the largest block, plus
    work proportional to the nonzero target cells. Where the target is 0 the
    penalty (1 - 0)^beta is exactly 1, so it is applied only on the target's
    support, and the positive branch only at the positive cells. The one
    full-size array is the gradient. The blocks are the nodes of np.sum's
    pairwise tree over the negative terms (every cell but the positives, in
    flat order) that hold at most `_FOCAL_BLOCK` terms; each block sums its
    own terms and the sums are added along the tree. So blocking changes no
    bit: the float32 -> float64 cast is exact, every other op but the sum is
    elementwise, and the sum adds the same terms in the same order as np.sum
    of all the negative terms would.
    """
    if pred.data.shape != target.data.shape:
        raise InputError(f"shape mismatch: pred {pred.data.shape} vs target {target.data.shape}")
    y = target.data.astype(np.float64, copy=False).ravel()
    raw = pred.data.ravel()
    a, b, eps = params.alpha, params.beta, params.eps

    # every cell off the support is +-0, and NaN != 0, so checking the support checks the target
    sup = np.flatnonzero(y != 0.0)
    ys = y[sup]
    if not np.all((ys >= 0.0) & (ys <= 1.0)):
        raise InputError("target heatmap values must lie in [0, 1]")
    pen = (1.0 - ys) ** b
    pos = sup[ys == 1.0]
    n = max(pos.size, 1)

    # positive branch: (1 - yhat)^a log(yhat) and its gradient
    yp = np.clip(raw[pos], eps, 1.0 - eps, dtype=np.float64)
    log_yp = np.log(yp)
    one_mp = 1.0 - yp
    grad_pos = (a * one_mp ** (a - 1.0) * log_yp - one_mp**a / yp) / n

    cells, pos_at, tree = _focal_blocks(pos, raw.size, _FOCAL_BLOCK)
    sup_at, pos_at, cells = np.searchsorted(sup, cells).tolist(), pos_at.tolist(), cells.tolist()

    grad = np.empty(raw.size)
    width = max(c1 - c0 for c0, c1 in zip(cells, cells[1:]))
    yhat_buf, log_buf, pow_buf, t_buf, neg_buf = np.empty((5, width))
    low_buf, high_buf = np.empty((2, width), dtype=bool)
    sums = []
    for j in range(len(cells) - 1):
        start, stop = cells[j], cells[j + 1]
        k, (s0, s1), (p0, p1) = stop - start, sup_at[j : j + 2], pos_at[j : j + 2]
        bsup, bpen, bpos = sup[s0:s1] - start, pen[s0:s1], pos[p0:p1] - start

        yhat = yhat_buf[:k]
        np.copyto(yhat, raw[start:stop])
        # compared in float64, as clamped: in float32, the float32 value nearest eps
        # (just below it) would compare equal to eps and escape the mask
        clamped = np.less(yhat, eps, out=low_buf[:k])
        clamped |= np.greater(yhat, 1.0 - eps, out=high_buf[:k])
        np.clip(yhat, eps, 1.0 - eps, out=yhat)

        # negative branch without the penalty: yhat^a log(1 - yhat)
        log_1m = np.negative(yhat, out=log_buf[:k])
        np.log1p(log_1m, out=log_1m)
        if a == 2.0:  # yhat ** 2 is yhat * yhat and yhat ** 1 a copy of yhat
            yhat_a = np.multiply(yhat, yhat, out=pow_buf[:k])
            t = np.multiply(yhat, a, out=t_buf[:k])
        else:
            yhat_a = yhat**a
            t = yhat ** (a - 1.0)
            t *= a
        neg = np.multiply(yhat_a, log_1m, out=neg_buf[:k])
        neg[bsup] = bpen * yhat_a[bsup] * log_1m[bsup]
        sums.append((np.delete(neg, bpos) if p1 > p0 else neg).sum())

        # gradient: yhat^a / (1 - yhat) - a yhat^(a-1) log(1 - yhat), penalized on the support
        g = grad[start:stop]
        np.subtract(1.0, yhat, out=g)
        np.divide(yhat_a, g, out=g)
        t *= log_1m
        g -= t
        g[bsup] *= bpen
        g /= n
        g[bpos] = grad_pos[p0:p1]
        g[clamped] = 0.0
    value = -((one_mp**a * log_yp).sum() + _tree_sum(tree, sums)) / n
    return _FocalResult(float(value), DenseGrid(grad.reshape(pred.data.shape)), pos.size)


def _read_cells(pred: DenseGrid, cells: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Every channel of pred at each (x, y) row of cells as (N, channels) float64 rows, and the index of those cells.

    A cell outside the grid is an InputError. The rows are C-contiguous, so a
    loss's sum over them runs in the order it did over rows stacked one cell
    at a time.
    """
    xy = np.asarray(cells, dtype=np.intp).reshape(-1, 2)
    outside = (xy < 0).any(axis=1) | (xy[:, 0] >= pred.width) | (xy[:, 1] >= pred.height)
    if outside.any():
        k = int(np.argmax(outside))
        raise InputError(f"row {k}: cell {tuple(xy[k].tolist())} outside the {pred.width}x{pred.height} grid")
    at = (slice(None), xy[:, 1], xy[:, 0])
    return np.ascontiguousarray(pred.data[at].T, dtype=np.float64), at


def _write_cells(pred: DenseGrid, at: tuple, rows: np.ndarray) -> DenseGrid:
    """A zero float64 grid shaped like pred with each row added at its cell, in row order."""
    grad = np.zeros_like(pred.data, dtype=np.float64)
    np.add.at(grad, at, rows.T)
    return DenseGrid(grad)


def _weighted_l1(pred: DenseGrid, cells, targets, weights=None) -> tuple[float, DenseGrid]:
    """Sum of w * (|dx| + |dy|) over 2-channel residuals at the cells, averaged over the cells.

    Each cell's channels split into consecutive (x, y) pairs; targets holds
    one (x, y) target per pair and weights one weight per pair (1 when
    None), in that order. Gradients from rows sharing a cell accumulate;
    sign(0) is 0.
    """
    rows, at = _read_cells(pred, cells)
    diff = rows.reshape(-1, 2) - np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    w = np.ones(len(diff)) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    n = max(len(rows), 1)
    absd = np.abs(diff)
    # summed in pair order from 0.0, as a loop would: np.sum adds pairwise past 8 terms
    total = np.cumsum(np.append(0.0, w * (absd[:, 0] + absd[:, 1])))[-1]
    grad = w[:, None] * np.sign(diff) / n
    return float(total / n), _write_cells(pred, at, grad.reshape(rows.shape))


def masked_l1(pred: DenseGrid, objects: dict, head: str) -> tuple[float, DenseGrid]:
    """L1 loss applied only at the objects' center cells, averaged over objects.

    objects is an object table (TargetSet.objects): its "cell" column and
    the columns head reads. head selects the supervision: "offset" and
    "size" read 2-channel targets; "joint_offset" reads (2 * num_joints)
    channels from "joint_offsets" and multiplies each joint's residual by
    its "joint_mask" entry.
    """
    if head not in L1_HEADS:
        raise InputError(f"unknown masked_l1 head {head!r}; expected one of {L1_HEADS}")
    if head != "joint_offset":
        if pred.channels != 2:
            raise InputError(f"{head} head expects 2 channels, grid has {pred.channels}")
        return _weighted_l1(pred, objects["cell"], objects[head])
    offsets = objects["joint_offsets"]
    if offsets is None:
        raise InputError("no pose targets for joint_offset head")
    if pred.channels != 2 * offsets.shape[1]:
        raise InputError(f"joint_offset head expects {2 * offsets.shape[1]} channels, grid has {pred.channels}")
    return _weighted_l1(pred, objects["cell"], offsets, objects["joint_mask"])


def joint_local_offset_loss(pred: DenseGrid, joint_cells: dict) -> tuple[float, DenseGrid]:
    """Sub-cell offset L1 at visible joints' cells, averaged over the rows of a joint table (TargetSet.joint_cells)."""
    if pred.channels != 2:
        raise InputError(f"joint local offset head expects 2 channels, grid has {pred.channels}")
    return _weighted_l1(pred, joint_cells["cell"], joint_cells["offset"])


def depth_loss(pred: np.ndarray, depths: np.ndarray) -> tuple[float, np.ndarray]:
    """L1 in the decoded depth domain: |1/sigmoid(d_hat) - 1 - d| per object.

    1/sigmoid(x) - 1 equals exp(-x) exactly, which is how the transform is
    evaluated. Gradients flow through the transform.
    """
    pred = np.asarray(pred, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    if pred.shape != depths.shape:
        raise InputError(f"shape mismatch: pred {pred.shape} vs depths {depths.shape}")
    if pred.size == 0:
        return 0.0, np.zeros_like(pred)
    decoded = np.exp(-pred)
    resid = decoded - depths
    n = pred.size
    value = float(np.abs(resid).sum() / n)
    grad = -np.sign(resid) * decoded / n
    return value, grad


def dim_loss(pred: np.ndarray, dims: np.ndarray) -> tuple[float, np.ndarray]:
    """L1 on 3D dimensions in absolute meters: sum over (h, w, l), mean over objects."""
    pred = np.asarray(pred, dtype=np.float64)
    dims = np.asarray(dims, dtype=np.float64)
    if pred.shape != dims.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise InputError(f"expected matching (N, 3) arrays, got {pred.shape} and {dims.shape}")
    if pred.shape[0] == 0:
        return 0.0, np.zeros_like(pred)
    diff = pred - dims
    n = pred.shape[0]
    return float(np.abs(diff).sum() / n), np.sign(diff) / n


def orientation_loss(pred: np.ndarray, yaws: np.ndarray) -> tuple[float, np.ndarray]:
    """Two-bin orientation loss: per-bin softmax cross-entropy plus in-bin L1.

    pred rows are [b1 (2 logits), a1 (sin, cos), b2, a2]. The classification
    label of bin i is 1 when the yaw lies in that bin; only active bins
    contribute the L1 term on the (sin, cos) pair.
    """
    pred = np.asarray(pred, dtype=np.float64)
    yaws = np.asarray(yaws, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[1] != 8 or pred.shape[0] != yaws.shape[0]:
        raise InputError(f"expected (N, 8) predictions and (N,) yaws, got {pred.shape} and {yaws.shape}")
    n = pred.shape[0]
    grad = np.zeros_like(pred)
    if n == 0:
        return 0.0, grad
    total = 0.0
    for k in range(n):
        target = encode_orientation(float(yaws[k]))
        for i in range(2):
            base = 4 * i
            logits = pred[k, base : base + 2]
            label = int(target[base + 1])  # 1 when the yaw lies in bin i
            m = logits.max()
            e = np.exp(logits - m)
            s = e.sum()
            total += m + math.log(s) - logits[label]
            g = e / s
            g[label] -= 1.0
            grad[k, base : base + 2] = g / n
            if label == 1:
                diff = pred[k, base + 2 : base + 4] - target[base + 2 : base + 4]
                total += np.abs(diff).sum()
                grad[k, base + 2 : base + 4] = np.sign(diff) / n
    return float(total / n), grad


# the per-object terms read at center cells: (head, object table column, loss over the (N, channels) rows)
_OBJECT_TERMS = (
    ("depth", "depth", depth_loss),
    ("dims", "dims3d", dim_loss),
    ("orientation", "yaw", orientation_loss),
)


def total_loss(
    preds: dict[str, DenseGrid],
    targets: TargetSet,
    weights: LossWeights = LossWeights(),
    focal_params: FocalParams = FocalParams(),
) -> LossReport:
    """Weighted sum of the detection objective and any 3D terms with predictions present.

    preds maps head names to grids: "heatmap", "offset" and "size" are
    required; "depth", "dims" and "orientation" are added, weighted, when
    both the prediction and per-object targets exist.
    Every given head must be (channels, grid_h, grid_w) of the target
    heatmap, with its channels from targets._HEADS.
    """
    for name in _REQUIRED_HEADS:
        if name not in preds:
            raise InputError(f"missing required prediction head {name!r}")
    for head, c in _HEADS.items():
        shape = (c or targets.heatmap.channels, *targets.heatmap.data.shape[1:])
        if head in preds and preds[head].data.shape != shape:
            raise InputError(f"{head} head expects shape {shape}, grid has {preds[head].data.shape}")

    focal = focal_loss(preds["heatmap"], targets.heatmap, focal_params)
    lk, g_hm = focal
    objects = targets.objects
    loff, g_off = masked_l1(preds["offset"], objects, "offset")
    lsize, g_size = masked_l1(preds["size"], objects, "size")
    report = LossReport(
        keypoint=lk,
        offset=loff,
        size=lsize,
        total=lk + weights.size * lsize + weights.offset * loff,
        n_objects=len(objects["cell"]),
        n_positive_cells=focal.positives,
        gradients={"heatmap": g_hm, "offset": g_off, "size": g_size},
    )

    for head, column, loss in _OBJECT_TERMS:
        values = objects[column]
        if head not in preds or values is None:
            continue
        have = ~np.isnan(values).any(axis=tuple(range(1, values.ndim)))  # NaN rows: objects without the field
        rows, at = _read_cells(preds[head], objects["cell"][have])
        value, grad = loss(rows[:, 0] if _HEADS[head] == 1 else rows, values[have])
        setattr(report, head, value)
        report.gradients[head] = _write_cells(preds[head], at, grad.reshape(rows.shape))
        report.total += getattr(weights, head) * value
    return report


@dataclass
class GradcheckReport:
    """Result of comparing an analytic gradient against central differences."""

    max_rel_error: float
    checked: int
    excluded: int


def gradcheck(
    fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    step: float = 1e-6,
    exclude: np.ndarray | None = None,
) -> GradcheckReport:
    """Compare fn's analytic gradient to central finite differences coordinate-wise.

    fn maps an array to (value, gradient-of-same-shape). Relative error uses
    denominator max(|fd|, |analytic|, 1e-8). Coordinates flagged in exclude
    are skipped (callers flag clamp edges, L1 kinks and softmax ties). A step
    that leaves no coordinate to check, or that rounds away at a checked
    coordinate (x + step == x), is an InputError: no check would be made. So
    is a step below 2**-26 * max(1, |x|) (about sqrt(float64 eps)) at one.
    """
    if not 0 < step < math.inf:
        raise InputError(f"gradcheck step must be a finite number > 0, got {step}")
    x0 = np.asarray(x0, dtype=np.float64)
    _, grad = fn(x0)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != (x0.size,):
        raise InputError(f"gradient shape {grad.shape} does not match input size {x0.size}")
    skip = np.zeros(x0.size, dtype=bool) if exclude is None else np.asarray(exclude, dtype=bool).ravel()

    flat = x0.ravel()
    max_rel = 0.0
    checked = 0
    for i in range(flat.size):
        if skip[i]:
            continue
        if flat[i] + step == flat[i] or flat[i] - step == flat[i]:
            raise InputError(f"gradcheck step {step} is lost in rounding: {flat[i]} +/- step rounds back to {flat[i]}")
        if step < 2.0**-26 * max(1.0, abs(flat[i])):  # rounding would swamp the central difference
            raise InputError(f"gradcheck step {step} is too small at {flat[i]}: it must be >= 2**-26 * max(1, |x|)")
        x = flat.copy()
        x[i] = flat[i] + step
        vp = fn(x.reshape(x0.shape))[0]
        x[i] = flat[i] - step
        vm = fn(x.reshape(x0.shape))[0]
        fd = (vp - vm) / (2.0 * step)
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
        max_rel = max(max_rel, float(rel))
        checked += 1
    if checked == 0:
        raise InputError(f"gradcheck step {step} leaves no coordinate to check ({int(skip.sum())} of {flat.size} excluded)")
    return GradcheckReport(max_rel_error=max_rel, checked=checked, excluded=int(skip.sum()))


def gradcheck_focal(seed: int, step: float = 1e-6, shape: tuple[int, int, int] = (2, 8, 8)) -> GradcheckReport:
    """Focal loss FD check on a random heatmap pair away from the clamp edges."""
    rng = generator(seed)
    params = FocalParams()
    y = rng.uniform(0.0, 0.6, size=shape)
    c, h, w = shape
    for _ in range(4):
        y[rng.integers(c), rng.integers(h), rng.integers(w)] = 1.0
    x0 = rng.uniform(0.05, 0.95, size=shape)
    target = DenseGrid(y)
    near_clamp = (np.abs(x0 - params.eps) < 10 * step) | (np.abs(x0 - (1.0 - params.eps)) < 10 * step)

    def fn(x: np.ndarray):
        value, grad = focal_loss(DenseGrid(x), target, params)
        return value, grad.data

    return gradcheck(fn, x0, step, near_clamp)


def _gradcheck_l1_head(seed: int, step: float, head: str, low: float, high: float) -> GradcheckReport:
    rng = generator(seed)
    shape = (2, 8, 8)
    x0 = rng.uniform(low - 1.0, high + 1.0, size=shape)
    cells = np.array(distinct_cells(rng, 5, 8, 8))
    objects = {"cell": cells, head: rng.uniform(low, high, size=(5, 2))}
    cx, cy = cells.T
    exclude = np.zeros(shape, dtype=bool)
    exclude[:, cy, cx] = np.abs(x0[:, cy, cx] - objects[head].T) < 10 * step

    def fn(x: np.ndarray):
        value, grad = masked_l1(DenseGrid(x), objects, head)
        return value, grad.data

    return gradcheck(fn, x0, step, exclude)


def gradcheck_offset(seed: int, step: float = 1e-6) -> GradcheckReport:
    """Offset-head L1 FD check away from kinks."""
    return _gradcheck_l1_head(seed, step, "offset", 0.0, 1.0)


def gradcheck_size(seed: int, step: float = 1e-6) -> GradcheckReport:
    """Size-head L1 FD check away from kinks."""
    return _gradcheck_l1_head(seed, step, "size", 0.5, 20.0)


def gradcheck_depth(seed: int, step: float = 1e-6) -> GradcheckReport:
    """Depth loss FD check through the sigmoidal transform, away from kinks."""
    rng = generator(seed)
    x0 = rng.uniform(-2.5, 2.5, size=8)
    depths = rng.uniform(0.3, 30.0, size=8)
    decoded = np.exp(-x0)
    exclude = np.abs(decoded - depths) < 10 * step * np.maximum(1.0, decoded)

    def fn(x: np.ndarray):
        return depth_loss(x, depths)

    return gradcheck(fn, x0, step, exclude)


def gradcheck_dims(seed: int, step: float = 1e-6) -> GradcheckReport:
    """Dimension loss FD check away from kinks."""
    rng = generator(seed)
    x0 = rng.uniform(0.2, 6.0, size=(6, 3))
    dims = rng.uniform(0.2, 6.0, size=(6, 3))
    exclude = np.abs(x0 - dims) < 10 * step

    def fn(x: np.ndarray):
        return dim_loss(x, dims)

    return gradcheck(fn, x0, step, exclude)


def gradcheck_orientation(seed: int, step: float = 1e-6) -> GradcheckReport:
    """Orientation loss FD check away from L1 kinks and softmax ties."""
    rng = generator(seed)
    n = 6
    x0 = np.zeros((n, 8))
    x0[:, [0, 1, 4, 5]] = rng.uniform(-3.0, 3.0, size=(n, 4))
    x0[:, [2, 3, 6, 7]] = rng.uniform(-1.2, 1.2, size=(n, 4))
    yaws = rng.uniform(-math.pi + 1e-3, math.pi, size=n)
    exclude = np.zeros_like(x0, dtype=bool)
    for k in range(n):
        target = encode_orientation(float(yaws[k]))
        for i in range(2):
            base = 4 * i
            if abs(x0[k, base] - x0[k, base + 1]) < 10 * step:  # softmax tie
                exclude[k, base : base + 2] = True
            if target[base + 1] == 1.0:
                kink = np.abs(x0[k, base + 2 : base + 4] - target[base + 2 : base + 4]) < 10 * step
                exclude[k, base + 2 : base + 4] |= kink

    def fn(x: np.ndarray):
        return orientation_loss(x, yaws)

    return gradcheck(fn, x0, step, exclude)


GRADCHECKS: dict[str, Callable[[int, float], GradcheckReport]] = {
    "focal": gradcheck_focal,
    "offset": gradcheck_offset,
    "size": gradcheck_size,
    "depth": gradcheck_depth,
    "dims": gradcheck_dims,
    "orientation": gradcheck_orientation,
}


def gradcheck_all(seed: int, step: float = 1e-6) -> dict[str, GradcheckReport]:
    """Run every loss's canned FD harness with a shared seed."""
    return {name: check(seed, step) for name, check in GRADCHECKS.items()}
