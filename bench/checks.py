"""Reference computations and output checks for the benchmark workloads.

Everything here is written from the method's definitions, not from cpt's
code, and works one channel or one box at a time so that a check never
raises the worker's peak memory above what the program itself uses. Every
check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np

ALPHA, BETA, EPS = 2.0, 4.0, 1e-4  # focal-loss defaults of the paper
LAMBDA_SIZE, LAMBDA_OFF = 0.1, 1.0
BOX_TOL = 1e-9  # pixels
VALUE_RTOL = 1e-9

# RetinaNet single-level anchors, as the paper's forced-assignment comparison uses them
ANCHOR_SIZES = (32.0, 64.0, 128.0, 256.0, 512.0)
ANCHOR_RATIOS = (0.5, 1.0, 2.0)  # h / w
ANCHOR_STRIDE = 16
RESIZE_SHORTER = 800.0
FORCED_IOU = 0.5


# ------------------------------------------------------------------ peaks

def _channel_peak_mask(plane: np.ndarray) -> np.ndarray:
    """Cells >= every 8-connected neighbour inside the plane (3x3 max-pool fixed point)."""
    h, w = plane.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = plane
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    return plane >= windows.max(axis=(2, 3))


def count_peak_cells(heatmap: np.ndarray) -> int:
    """Number of cells equal to the maximum of their 3x3 neighbourhood, over all channels."""
    return sum(int(_channel_peak_mask(plane).sum()) for plane in heatmap)


def top_peaks(heatmap: np.ndarray, k: int) -> list[tuple[int, int, int, float]]:
    """The k best (channel, y, x, score) peaks ordered by (-score, channel, y, x).

    Channels are visited in order and merged into a running best-k list with
    a stable sort on score alone, so ties fall back to channel and then to
    row-major cell order.
    """
    best = np.empty((0, 4))  # rows: channel, y, x, score
    for c, plane in enumerate(heatmap):
        flat = np.flatnonzero(_channel_peak_mask(plane))
        scores = plane.ravel()[flat].astype(np.float64)
        keep = np.argsort(-scores, kind="stable")[:k]
        ys, xs = np.divmod(flat[keep], plane.shape[1])
        rows = np.column_stack([np.full(keep.size, c), ys, xs, scores[keep]])
        merged = np.concatenate([best, rows])
        best = merged[np.argsort(-merged[:, 3], kind="stable")[:k]]
    return [(int(c), int(y), int(x), float(s)) for c, y, x, s in best]


def check_decoded_peaks(raw_dets, heatmap: np.ndarray, offset: np.ndarray, top_k: int) -> list[str]:
    """decode_boxes output (cell units) against the benchmark's own peak set and offset reads."""
    expected = top_peaks(heatmap, top_k)
    if len(raw_dets) != len(expected):
        return [f"decode returned {len(raw_dets)} detections, the peak set has {len(expected)}"]
    for i, (det, (c, y, x, s)) in enumerate(zip(raw_dets, expected)):
        center = (x + float(offset[0, y, x]), y + float(offset[1, y, x]))
        if det.category != c or det.score != s:
            return [f"detection {i}: (class {det.category}, score {det.score}) != peak (class {c}, score {s})"]
        if max(abs(det.center[0] - center[0]), abs(det.center[1] - center[1])) > BOX_TOL:
            return [f"detection {i}: center {det.center} != peak cell + offset {center}"]
    return []


# ------------------------------------------------------------------ roundtrip

def check_kept_boxes(dets, anns) -> list[str]:
    """Each kept detection is one annotation's box and class, one-to-one, within BOX_TOL."""
    if len(dets) != len(anns):
        return [f"image {anns[0].image_id if anns else '?'}: {len(dets)} kept detections for {len(anns)} objects"]
    unused = list(dets)
    for ann in anns:
        for j, det in enumerate(unused):
            if det.category == ann.category and max(abs(a - b) for a, b in zip(det.box, ann.bbox)) <= BOX_TOL:
                del unused[j]
                break
        else:
            return [f"annotation {ann.id}: no kept detection within {BOX_TOL} px of {ann.bbox}"]
    return []


def check_roundtrip_eval(report, n_center: int) -> list[str]:
    problems = []
    if report.mean_ap != 1.0:
        problems.append(f"mAP {report.mean_ap!r} != 1.0 on a collision-free scene set")
    if report.true_positives != report.num_gt:
        problems.append(f"matched {report.true_positives} != annotations {report.num_gt}")
    if n_center != 0:
        problems.append(f"{n_center} center collisions on a collision-free scene set")
    return problems


# ------------------------------------------------------------------ train

def check_positive_cells(heatmap: np.ndarray, n_objects: int) -> list[str]:
    n = int(np.count_nonzero(heatmap == 1.0))
    return [] if n == n_objects else [f"{n} heatmap cells equal 1.0 for {n_objects} objects"]


def _focal_channel(p: np.ndarray, y: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Penalty-reduced focal loss of one channel, normalised by n, and its gradient."""
    q = np.clip(p, EPS, 1.0 - EPS)
    pos = y == 1.0
    w = (1.0 - y) ** BETA
    value = np.where(pos, (1.0 - q) ** ALPHA * np.log(q), w * q**ALPHA * np.log(1.0 - q)).sum()
    # d/dq of the negated terms
    d_pos = ALPHA * (1.0 - q) ** (ALPHA - 1.0) * np.log(q) - (1.0 - q) ** ALPHA / q
    d_neg = w * (q**ALPHA / (1.0 - q) - ALPHA * q ** (ALPHA - 1.0) * np.log(1.0 - q))
    grad = np.where(pos, d_pos, d_neg) / n
    grad[(p < EPS) | (p > 1.0 - EPS)] = 0.0  # flat where the clamp is active
    return -float(value) / n, grad


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=1e-12)


def check_train_sample(report, preds: dict, heatmap: np.ndarray, anns, stride: int) -> list[str]:
    """Loss terms and the heatmap gradient against a separate evaluation of the objective.

    The L1 targets are rebuilt from the annotations: center cell floor(c / stride),
    sub-cell offset c / stride - cell, size in pixels.
    """
    problems = []
    p_hm = preds["heatmap"].data
    n_pos = max(int(np.count_nonzero(heatmap == 1.0)), 1)
    g_hm = report.gradients["heatmap"].data
    focal = 0.0
    for c in range(heatmap.shape[0]):
        value, grad = _focal_channel(p_hm[c].astype(np.float64), heatmap[c], n_pos)
        focal += value
        if not np.allclose(g_hm[c], grad, rtol=VALUE_RTOL, atol=1e-15):
            problems.append(f"heatmap gradient differs from the reference in channel {c}")
            break

    l1 = {"offset": 0.0, "size": 0.0}
    for ann in anns:
        cx, cy = ann.center[0] / stride, ann.center[1] / stride
        x, y = math.floor(cx), math.floor(cy)
        want = {"offset": (cx - x, cy - y), "size": (ann.width, ann.height)}
        for head, target in want.items():
            got = preds[head].data[:, y, x].astype(np.float64)
            l1[head] += float(abs(got[0] - target[0]) + abs(got[1] - target[1]))
    n = max(len(anns), 1)
    terms = {"keypoint": focal, "offset": l1["offset"] / n, "size": l1["size"] / n}
    terms["total"] = terms["keypoint"] + LAMBDA_SIZE * terms["size"] + LAMBDA_OFF * terms["offset"]
    for name, want in terms.items():
        got = getattr(report, name)
        if not _close(got, want):
            problems.append(f"loss term {name}: {got!r} != reference {want!r}")
    return problems


# ------------------------------------------------------------------ analysis

def _iou_one_to_many(box, boxes: np.ndarray) -> np.ndarray:
    x1, y1, x2, y2 = box
    iw = np.clip(np.minimum(boxes[:, 2], x2) - np.maximum(boxes[:, 0], x1), 0.0, None)
    ih = np.clip(np.minimum(boxes[:, 3], y2) - np.maximum(boxes[:, 1], y1), 0.0, None)
    inter = iw * ih
    union = (x2 - x1) * (y2 - y1) + (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou_pair_counts(anns, thresholds) -> dict[float, int]:
    """Same-class pairs in one image with IoU strictly above each threshold, by brute force."""
    counts = {t: 0 for t in thresholds}
    for i, a in enumerate(anns):
        rest = [b for b in anns[i + 1 :] if b.category == a.category]
        if not rest:
            continue
        ious = _iou_one_to_many(a.bbox, np.array([b.bbox for b in rest], dtype=np.float64))
        for t in thresholds:
            counts[t] += int(np.count_nonzero(ious > t))
    return counts


def retinanet_anchors(width: float, height: float) -> np.ndarray:
    """(N, 4) anchors: every size x ratio shape centred on each stride cell of the resized image."""
    def centers(extent):
        n = 0
        while ANCHOR_STRIDE / 2 + n * ANCHOR_STRIDE <= extent:
            n += 1
        return ANCHOR_STRIDE / 2 + ANCHOR_STRIDE * np.arange(n, dtype=np.float64)

    xs, ys = centers(width), centers(height)
    boxes = []
    for size in ANCHOR_SIZES:
        for ratio in ANCHOR_RATIOS:
            w, h = size / math.sqrt(ratio), size * math.sqrt(ratio)
            cx, cy = np.meshgrid(xs, ys)
            boxes.append(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1).reshape(-1, 4))
    return np.concatenate(boxes)


def forced_ids(img, anns) -> tuple[set[int], set[int]]:
    """(forced ids, ids too close to the threshold to call) for one image, by brute force."""
    scale = RESIZE_SHORTER / min(img.width, img.height)
    anchors = retinanet_anchors(img.width * scale, img.height * scale)
    forced, unsure = set(), set()
    for ann in anns:
        best = float(_iou_one_to_many([v * scale for v in ann.bbox], anchors).max())
        if abs(best - FORCED_IOU) < 1e-12:
            unsure.add(ann.id)
        elif best < FORCED_IOU:
            forced.add(ann.id)
    return forced, unsure


def check_analysis_image(img, anns, injected: int, n_center: int, n_iou: dict, forced, sampled: bool) -> list[str]:
    problems = []
    if n_center != injected:
        problems.append(f"image {img.id}: {n_center} center collisions, {injected} injected")
    want = iou_pair_counts(anns, sorted(n_iou))
    if want != n_iou:
        problems.append(f"image {img.id}: IoU pair counts {n_iou} != brute force {want}")
    if sampled:
        expect, unsure = forced_ids(img, anns)
        if set(forced) - unsure != expect - unsure:
            problems.append(f"image {img.id}: forced set {sorted(forced)} != brute force {sorted(expect)}")
    return problems
