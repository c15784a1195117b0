"""Detection-to-ground-truth matching and interpolated average precision."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decode import Detection
from .errors import InputError
from .geometry import iou_matrix
from .targets import ObjectAnnotation


@dataclass
class MatchResult:
    """Greedy matching outcome for one image, in score-descending order."""

    detections: list[int]  # detection indices, sorted by (-score, input order)
    is_tp: list[bool]
    matched_gt: list[int | None]  # ground-truth index per detection, aligned with `detections`
    gt_matched: list[bool]


@dataclass
class EvalReport:
    ap: dict[int, float | None]  # per category index; None when the class has no ground truth
    mean_ap: float | None
    num_gt: int
    num_detections: int
    true_positives: int
    recall_points: int


def match_detections(
    dets: Sequence[Detection],
    gts: Sequence[ObjectAnnotation],
    iou_thresh: float = 0.5,
) -> MatchResult:
    """Greedy matching by descending score; ties keep input order.

    Each detection claims the unmatched same-class ground truth with the
    highest IoU, provided it reaches the threshold; every ground truth is
    matched at most once.
    """
    if not 0 < iou_thresh <= 1:
        raise InputError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    # one IoU matrix per image; each detection scans its same-class ground truths at or above the threshold
    ious = iou_matrix([dets[i].box for i in order], [gt.bbox for gt in gts])
    rows, cols = (ious >= iou_thresh).nonzero()
    candidates: dict[int, list[tuple[int, float]]] = {}
    for r, j, v in zip(rows.tolist(), cols.tolist(), ious[rows, cols].tolist()):
        if dets[order[r]].category == gts[j].category:
            candidates.setdefault(r, []).append((j, v))
    gt_matched = [False] * len(gts)
    matched: list[int | None] = []
    for r in range(len(order)):
        best_iou, best_j = 0.0, None
        for j, v in candidates.get(r, ()):
            if not gt_matched[j] and v > best_iou:
                best_iou, best_j = v, j
        if best_j is not None:
            gt_matched[best_j] = True
        matched.append(best_j)
    is_tp = [j is not None for j in matched]
    return MatchResult(detections=order, is_tp=is_tp, matched_gt=matched, gt_matched=gt_matched)


def average_precision(
    matches: Sequence[tuple[float, bool]],
    num_gt: int,
    recall_points: int = 11,
) -> float | None:
    """Interpolated AP over a fixed recall grid from (score, is_tp) pairs.

    Precision is interpolated as the maximum at or above each recall; the
    grid has recall_points values evenly spaced on [0, 1]. Returns None when
    there is no ground truth (AP undefined).
    """
    if recall_points < 2:
        raise InputError(f"recall_points must be >= 2, got {recall_points}")
    if num_gt < 0:
        raise InputError("num_gt must be >= 0")
    if num_gt == 0:
        return None
    order = sorted(range(len(matches)), key=lambda i: (-matches[i][0], i))
    tp = np.cumsum([bool(matches[i][1]) for i in order], dtype=np.int64)
    precisions = tp / np.arange(1, len(order) + 1)
    recalls = tp / num_gt  # never fall, so the ranks at or above a recall are the suffix searchsorted finds
    best_from = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)  # best precision from each rank on
    total = 0.0
    for best in best_from[np.searchsorted(recalls, np.arange(recall_points) / (recall_points - 1))].tolist():
        total += best  # sequential in recall order: sum() may compensate and change the bits
    return total / recall_points


def evaluate_detections(
    dets_by_image: dict[int, Sequence[Detection]],
    gts_by_image: dict[int, Sequence[ObjectAnnotation]],
    iou_thresh: float = 0.5,
    recall_points: int = 11,
) -> EvalReport:
    """Dataset-level AP per class and their mean over classes with ground truth.

    Detections are matched per image across classes, then pooled per class in
    ascending image-id order for the precision/recall sweep.
    """
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    if not image_ids:  # no image's matching would check the threshold
        match_detections([], [], iou_thresh)
    per_class: dict[int, list[tuple[float, bool]]] = {}
    gt_counts: dict[int, int] = {}
    tp_total = 0
    det_total = 0
    gt_total = 0
    for image_id in image_ids:
        dets = list(dets_by_image.get(image_id, ()))
        gts = list(gts_by_image.get(image_id, ()))
        det_total += len(dets)
        gt_total += len(gts)
        for gt in gts:
            gt_counts[gt.category] = gt_counts.get(gt.category, 0) + 1
            per_class.setdefault(gt.category, [])
        result = match_detections(dets, gts, iou_thresh)
        for i, tp in zip(result.detections, result.is_tp):
            per_class.setdefault(dets[i].category, []).append((dets[i].score, tp))
            tp_total += bool(tp)

    ap: dict[int, float | None] = {}
    for category in sorted(per_class):
        ap[category] = average_precision(per_class[category], gt_counts.get(category, 0), recall_points)
    with_gt = [v for c, v in ap.items() if gt_counts.get(c, 0) > 0]
    mean_ap = sum(with_gt) / len(with_gt) if with_gt else None
    return EvalReport(
        ap=ap,
        mean_ap=mean_ap,
        num_gt=gt_total,
        num_detections=det_total,
        true_positives=tp_total,
        recall_points=recall_points,
    )
