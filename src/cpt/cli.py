"""Command-line interface: argument parsing and subcommand dispatch.

Machine-readable JSON goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 input error (including bad flags), 2 internal invariant
violation. Outputs are byte-identical across runs for identical inputs and
seeds.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import analysis, losses
from .dataset import Dataset, load_dataset
from .decode import Detection, _check_stride, decode_boxes, to_input_space
from .errors import InputError, InternalError
from .evaluate import evaluate_detections
from .geometry import AnchorConfig, greedy_nms
from .records import _config_to_json, read_detections, read_targets, to_json, write_targets
from .targets import _HEADS, _REQUIRED_HEADS, EncoderConfig, encode_detection, encode_pose
from .tensorio import read_grid, write_grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit-1 input errors."""

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _warn(message: str) -> None:
    sys.stderr.write(f"warning: {message}\n")


def _floats_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as e:
        raise InputError(f"bad numeric list {text!r}: {e}") from e


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value}")


def _load_dataset_warned(path) -> Dataset:
    ds = load_dataset(path)
    for w in ds.warnings:
        _warn(w)
    return ds


# ---------------------------------------------------------------- encode

def _cmd_encode(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    num_classes = args.classes if args.classes is not None else max(ds.num_classes, 1)
    settings = dict(output_stride=args.stride, num_joints=args.joints, min_overlap=args.min_overlap, size_units=args.units)
    # every image's config before any image is written; with no image, a one-pixel one checks the flags
    sizes = [(img.width, img.height) for img in ds.images] or [(1, 1)]
    configs = [EncoderConfig.for_image(w, h, num_classes, **settings) for w, h in sizes]
    out_dir = Path(args.out)
    by_image = ds.annotations_by_image()

    manifest = {"config": _config_to_json(configs[0]), "images": []}
    for img, cfg in zip(ds.images, configs):
        anns = by_image[img.id]
        ts = (encode_pose if args.pose else encode_detection)(anns, cfg)
        manifest["images"].append(write_targets(ts, out_dir / f"image_{img.id}", img.id, [a.id for a in anns]))

    out_dir.mkdir(parents=True, exist_ok=True)  # after the flags are checked: a bad one leaves no directory
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    _print_json(manifest)
    return 0


# ---------------------------------------------------------------- decode

def _cmd_decode(args) -> int:
    _check_finite("--min-score", args.min_score)
    # decode_boxes' optional maps and the files their flags name
    paths = {"depth_map": args.depth, "dims_map": args.dims, "orientation_map": args.orientation,
             "joints_map": args.joints_map, "joint_heatmap": args.joint_heatmap,
             "joint_local_offset": args.joint_local_offset}
    dets = decode_boxes(
        read_grid(args.heatmap),
        read_grid(args.offset),
        read_grid(args.size),
        top_k=args.top_k,
        size_units=args.units,
        stride=args.stride,
        per_class_top_k=args.per_class_top_k,
        joint_thresh=args.joint_thresh,
        **{name: read_grid(path) for name, path in paths.items() if path},
    )
    for det in dets:
        if det.score <= args.min_score:
            continue
        if args.to_pixels:
            det = to_input_space(det, args.stride)
        _print_json({"image_id": args.image_id, **to_json(det)})
    return 0


# ---------------------------------------------------------------- loss / gradcheck

def _cmd_loss(args) -> int:
    ts = read_targets(args.manifest, args.image)
    preds = {head: read_grid(getattr(args, f"pred_{head}")) for head in _HEADS if getattr(args, f"pred_{head}")}
    weights = losses.LossWeights(
        size=args.lambda_size,
        offset=args.lambda_off,
        depth=args.lambda_dep,
        dims=args.lambda_dim,
        orientation=args.lambda_ori,
    )
    params = losses.FocalParams(alpha=args.alpha, beta=args.beta)
    report = losses.total_loss(preds, ts, weights, params)

    if args.grad_out:
        grad_dir = Path(args.grad_out)
        grad_dir.mkdir(parents=True, exist_ok=True)
        for name, grid in report.gradients.items():
            write_grid(grad_dir / f"grad_{name}.cpt", grid)

    out = to_json(report)
    del out["gradients"]
    out["weights"] = to_json(weights)
    _print_json(out)
    return 0


def _cmd_gradcheck(args) -> int:
    if not args.tolerance > 0:
        raise InputError(f"--tolerance must be > 0, got {args.tolerance}")
    reports = losses.gradcheck_all(args.seed, args.step)
    passed = {name: bool(rep.max_rel_error < args.tolerance) for name, rep in reports.items()}
    out = {
        "seed": args.seed,
        "step": args.step,
        "tolerance": args.tolerance,
        "losses": {name: {**to_json(rep), "pass": passed[name]} for name, rep in reports.items()},
        "pass": all(passed.values()),
    }
    _print_json(out)
    if not out["pass"]:
        raise InternalError("analytic gradients disagree with finite differences")
    return 0


# ---------------------------------------------------------------- analyses

def _cmd_collisions(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    center = analysis.count_center_collisions(ds, stride=args.stride, oracle=args.oracle)
    thresholds = _floats_list(args.thresholds)
    iou_rep = analysis.count_iou_collisions(ds, thresholds=thresholds, oracle=args.oracle)
    _print_json(
        {
            "stride": args.stride,
            "n_center": center.n_center,
            "center_pairs": [to_json(p) for p in center.center_pairs],
            "n_iou": {repr(t): n for t, n in iou_rep.n_iou.items()},
            "iou_pairs": {repr(t): [to_json(p) for p in pairs] for t, pairs in iou_rep.iou_pairs.items()},
            "total_objects": center.total_objects,
            "buckets": center.bucket_totals,
            "warnings": center.warnings,
        }
    )
    return 0


def _cmd_anchors(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    cfg = AnchorConfig(
        sizes=tuple(_floats_list(args.sizes)),
        ratios=tuple(_floats_list(args.ratios)),
        stride=args.anchor_stride,
        resize_shorter=args.resize_shorter,
    )
    report = analysis.count_forced_assignments(ds, cfg, iou_thresh=args.iou_thresh, oracle=args.oracle)
    _print_json(to_json(report))
    return 0


# ---------------------------------------------------------------- nms / eval / roundtrip

def _cmd_nms(args) -> int:
    groups: dict[int, list[tuple[Detection, dict]]] = {}
    for raw, image_id, det in read_detections(args.detections):
        groups.setdefault(image_id, []).append((det, raw))
    if not groups:  # no group's suppression would check the threshold
        greedy_nms([], args.iou_thresh)
    for image_id in sorted(groups):
        dets = [d for d, _ in groups[image_id]]
        kept = greedy_nms(dets, args.iou_thresh)
        kept_ids = {id(d) for d in kept}
        for det, raw in groups[image_id]:
            if id(det) in kept_ids:
                _print_json(raw)
    return 0


def _eval_json(report, ds: Dataset) -> dict:
    index_to_id = {c.index: c.id for c in ds.categories}
    return {
        "map": report.mean_ap,
        "ap": {str(index_to_id.get(c, c)): v for c, v in report.ap.items()},
        "num_gt": report.num_gt,
        "num_detections": report.num_detections,
        "true_positives": report.true_positives,
        "recall_points": report.recall_points,
    }


def _cmd_eval(args) -> int:
    _check_stride(args.stride)  # also where every detection is in pixels and none is converted
    ds = _load_dataset_warned(args.dataset)
    dets: dict[int, list[Detection]] = {}
    for _, image_id, det in read_detections(args.detections, ds.num_classes):
        dets.setdefault(image_id, []).append(to_input_space(det, args.stride) if det.units == "cells" else det)
    gts = ds.annotations_by_image()
    report = evaluate_detections(dets, gts, iou_thresh=args.iou_thresh, recall_points=args.recall_points)
    _print_json(_eval_json(report, ds))
    return 0


def _cmd_roundtrip(args) -> int:
    _check_finite("--min-score", args.min_score)
    ds = _load_dataset_warned(args.dataset)
    by_image = ds.annotations_by_image()
    num_classes = max(ds.num_classes, 1)
    settings = dict(output_stride=args.stride, size_units=args.units)
    decoding = dict(top_k=args.top_k, size_units=args.units, stride=args.stride)
    if not ds.images:  # no image would check the flags: an empty one-pixel image does
        ts = encode_detection([], EncoderConfig.for_image(1, 1, num_classes, **settings))
        decode_boxes(ts.heatmap, ts.offset, ts.size, **decoding)
    dets_by_image: dict[int, list[Detection]] = {}
    per_image = []
    collisions = 0
    for img in ds.images:
        anns = by_image[img.id]
        ts = encode_detection(anns, EncoderConfig.for_image(img.width, img.height, num_classes, **settings))
        collisions += ts.collision_count
        dets = [
            to_input_space(d, args.stride)
            for d in decode_boxes(ts.heatmap, ts.offset, ts.size, **decoding)
            if d.score > args.min_score
        ]
        dets_by_image[img.id] = dets
        per_image.append({"id": img.id, "annotations": len(anns), "detections": len(dets)})

    report = evaluate_detections(dets_by_image, by_image, iou_thresh=args.iou_thresh, recall_points=args.recall_points)
    _print_json(
        {
            "map": report.mean_ap,
            "ap": _eval_json(report, ds)["ap"],
            "annotations": report.num_gt,
            "detections": report.num_detections,
            "matched": report.true_positives,
            "missed": report.num_gt - report.true_positives,
            "center_collisions": collisions,
            "per_image": per_image,
        }
    )
    return 0


# ---------------------------------------------------------------- parser

def _add_head_flags(p: argparse.ArgumentParser, prefix: str) -> None:
    """One tensor-path flag per prediction head, in _HEADS order."""
    for head in _HEADS:
        p.add_argument(f"--{prefix}{head}", required=head in _REQUIRED_HEADS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpt", description="Center-point detection toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("encode", help="dataset JSON -> target tensors + manifest")
    p.add_argument("dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--classes", type=int, default=None, help="default: number of dataset categories")
    p.add_argument("--joints", type=int, default=17)
    p.add_argument("--units", choices=("pixels", "cells"), default="pixels")
    p.add_argument("--min-overlap", type=float, default=0.7)
    p.add_argument("--pose", action="store_true", help="also encode pose targets (requires keypoints)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="output tensors -> JSON-lines detections")
    _add_head_flags(p, "")
    p.add_argument("--joints-map", help="joint regression map (enables pose decoding)")
    p.add_argument("--joint-heatmap")
    p.add_argument("--joint-local-offset")
    p.add_argument("--joint-thresh", type=float, default=0.1)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--per-class-top-k", action="store_true", help="apply the cap per class instead of globally")
    p.add_argument("--units", choices=("pixels", "cells"), default="pixels")
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--min-score", type=float, default=0.0)
    p.add_argument("--to-pixels", action="store_true", help="emit boxes in input pixels")
    p.add_argument("--image-id", type=int, default=0)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("loss", help="targets + prediction tensors -> loss report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--image", type=int, default=None)
    _add_head_flags(p, "pred-")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=4.0)
    p.add_argument("--lambda-size", type=float, default=0.1)
    p.add_argument("--lambda-off", type=float, default=1.0)
    p.add_argument("--lambda-dep", type=float, default=1.0)
    p.add_argument("--lambda-dim", type=float, default=1.0)
    p.add_argument("--lambda-ori", type=float, default=1.0)
    p.add_argument("--grad-out", help="directory for gradient tensors")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("gradcheck", help="finite-difference check of every loss gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("collisions", help="center and IoU collision counts")
    p.add_argument("dataset")
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--thresholds", default="0.5,0.7")
    p.add_argument("--oracle", action="store_true", help="force the naive counting path")
    p.set_defaults(func=_cmd_collisions)

    p = sub.add_parser("anchors", help="forced anchor-assignment counts")
    p.add_argument("dataset")
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--sizes", default="32,64,128,256,512")
    p.add_argument("--ratios", default="0.5,1,2")
    p.add_argument("--anchor-stride", type=int, default=16)
    p.add_argument("--resize-shorter", type=float, default=800.0)
    p.add_argument("--oracle", action="store_true", help="force the dense all-anchors IoU path")
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("nms", help="greedy IoU suppression over JSON-lines detections")
    p.add_argument("detections", help="JSON-lines file, or - for stdin")
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.set_defaults(func=_cmd_nms)

    p = sub.add_parser("eval", help="average precision of detections against a dataset")
    p.add_argument("detections", help="JSON-lines file, or - for stdin")
    p.add_argument("dataset")
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--recall-points", type=int, default=11, choices=(11, 101))
    p.add_argument("--stride", type=int, default=4, help="used to convert cell-space detections")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("roundtrip", help="encode -> decode -> eval on ground truth")
    p.add_argument("dataset")
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--units", choices=("pixels", "cells"), default="pixels")
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--min-score", type=float, default=0.0)
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--recall-points", type=int, default=11, choices=(11, 101))
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def run(argv) -> int:
    """Dispatch a command line; returns the process exit status."""
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(parser.format_usage())
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write(str(e) + ("\n" if not str(e).endswith("\n") else ""))
        return 1
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except InternalError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 2
    except Exception as e:  # last resort: no raw traceback escapes the CLI
        command = getattr(args, "command", None) or "cpt"
        sys.stderr.write(f"internal error: {command}: {type(e).__name__}: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
