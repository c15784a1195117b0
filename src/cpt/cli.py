"""Command-line interface: dataset ingestion, tensor I/O, and subcommand dispatch.

Machine-readable JSON goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 input error (including bad flags), 2 internal invariant
violation. Outputs are byte-identical across runs for identical inputs and
seeds.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, losses
from .dataset import Dataset, finite_numbers, load_dataset, require_field
from .decode import Detection, decode_boxes, decode_pose, to_input_space
from .errors import InputError, InternalError
from .evaluate import evaluate_detections
from .geometry import AnchorConfig, greedy_nms
from .targets import EncoderConfig, ObjectTarget, TargetSet, encode_detection, encode_orientation, encode_pose
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


def _load_dataset_warned(path) -> Dataset:
    ds = load_dataset(path)
    for w in ds.warnings:
        _warn(w)
    return ds


# ---------------------------------------------------------------- encode

def _object_json(obj: ObjectTarget, annotation_id) -> dict:
    out = {
        "index": obj.index,
        "annotation_id": annotation_id,
        "category": obj.category,
        "cell": list(obj.cell),
        "offset": list(obj.offset),
        "size": list(obj.size),
    }
    if obj.depth is not None:
        out["depth"] = obj.depth
    if obj.dims3d is not None:
        out["dims3d"] = list(obj.dims3d)
    if obj.yaw is not None:
        out["yaw"] = obj.yaw
        out["orientation"] = [float(v) for v in obj.orientation]
    if obj.joint_offsets is not None:
        out["joint_offsets"] = [[float(a), float(b)] for a, b in obj.joint_offsets]
        out["joint_mask"] = [float(v) for v in obj.joint_mask]
    return out


def _write_targets(ts: TargetSet, image_dir: Path) -> dict[str, str]:
    image_dir.mkdir(parents=True, exist_ok=True)
    tensors = {
        "heatmap": ts.heatmap,
        "size": ts.size,
        "offset": ts.offset,
        "center_mask": ts.center_mask,
    }
    if ts.joint_heatmap is not None:
        tensors["joint_heatmap"] = ts.joint_heatmap
        tensors["joint_local_offset"] = ts.joint_local_offset
    paths = {}
    for name, grid in tensors.items():
        write_grid(image_dir / f"{name}.cpt", grid)
        paths[name] = f"{image_dir.name}/{name}.cpt"
    return paths


def _cmd_encode(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    num_classes = args.classes if args.classes is not None else max(ds.num_classes, 1)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_image = ds.annotations_by_image()

    manifest = {
        "config": {
            "stride": args.stride,
            "classes": num_classes,
            "joints": args.joints,
            "units": args.units,
            "min_overlap": args.min_overlap,
        },
        "images": [],
    }
    for img in ds.images:
        cfg = EncoderConfig.for_image(
            img.width,
            img.height,
            num_classes,
            output_stride=args.stride,
            num_joints=args.joints,
            min_overlap=args.min_overlap,
            size_units=args.units,
        )
        anns = by_image[img.id]
        encode = encode_pose if args.pose else encode_detection
        ts = encode(anns, cfg)
        paths = _write_targets(ts, out_dir / f"image_{img.id}")
        entry = {
            "id": img.id,
            "input_w": cfg.input_w,
            "input_h": cfg.input_h,
            "grid_w": cfg.grid_w,
            "grid_h": cfg.grid_h,
            "tensors": paths,
            "objects": [_object_json(o, anns[o.index].id) for o in ts.objects],
            "collisions": [
                {"cell": list(c.cell), "category": c.category, "first": c.first, "second": c.second}
                for c in ts.collisions
            ],
            "clamped_centers": ts.clamped_centers,
        }
        if ts.joint_cells is not None:
            entry["joint_cells"] = [
                {"joint": jc.joint, "cell": list(jc.cell), "offset": list(jc.offset)} for jc in ts.joint_cells
            ]
        manifest["images"].append(entry)

    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    _print_json(manifest)
    return 0


# ---------------------------------------------------------------- decode

def _det_json(det: Detection, image_id) -> dict:
    out = {
        "image_id": image_id,
        "category": det.category,
        "score": det.score,
        "box": list(det.box),
        "center": list(det.center),
        "units": det.units,
    }
    if det.depth is not None:
        out["depth"] = det.depth
    if det.dims3d is not None:
        out["dims3d"] = list(det.dims3d)
    if det.yaw is not None:
        out["yaw"] = det.yaw
    if det.joints is not None:
        out["joints"] = [{"x": j.x, "y": j.y, "source": j.source} for j in det.joints]
    return out


def _cmd_decode(args) -> int:
    heatmap = read_grid(args.heatmap)
    offset = read_grid(args.offset)
    size = read_grid(args.size)
    if args.joints_map is not None:
        for flag, name in ((args.joint_heatmap, "--joint-heatmap"), (args.joint_local_offset, "--joint-local-offset")):
            if flag is None:
                raise InputError(f"pose decoding requires {name}")
        dets = decode_pose(
            heatmap,
            offset,
            size,
            read_grid(args.joints_map),
            read_grid(args.joint_heatmap),
            read_grid(args.joint_local_offset),
            top_k=args.top_k,
            joint_thresh=args.joint_thresh,
            size_units=args.units,
            stride=args.stride,
            candidates_from_peaks=not args.joint_candidates_all_cells,
        )
    else:
        dets = decode_boxes(
            heatmap,
            offset,
            size,
            top_k=args.top_k,
            size_units=args.units,
            stride=args.stride,
            per_class_top_k=args.per_class_top_k,
            depth_map=read_grid(args.depth) if args.depth else None,
            dims_map=read_grid(args.dims) if args.dims else None,
            orientation_map=read_grid(args.orientation) if args.orientation else None,
        )
    for det in dets:
        if det.score <= args.min_score:
            continue
        if args.to_pixels:
            det = to_input_space(det, args.stride)
        _print_json(_det_json(det, args.image_id))
    return 0


# ---------------------------------------------------------------- loss / gradcheck

def _targets_from_manifest(manifest_path: Path, image_id) -> tuple[TargetSet, dict]:
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read manifest {manifest_path}: {e}") from e
    entries = manifest.get("images", [])
    if image_id is None:
        if len(entries) != 1:
            raise InputError(f"manifest has {len(entries)} images; pick one with --image")
        entry = entries[0]
    else:
        matching = [e for e in entries if e.get("id") == image_id]
        if not matching:
            raise InputError(f"image {image_id} not present in manifest")
        entry = matching[0]

    base = manifest_path.parent
    cfg = manifest["config"]
    config = EncoderConfig(
        input_w=entry["input_w"],
        input_h=entry["input_h"],
        num_classes=cfg["classes"],
        output_stride=cfg["stride"],
        num_joints=cfg["joints"],
        min_overlap=cfg["min_overlap"],
        size_units=cfg["units"],
    )
    objects = []
    for raw in entry["objects"]:
        yaw = raw.get("yaw")
        objects.append(
            ObjectTarget(
                index=raw["index"],
                category=raw["category"],
                cell=tuple(raw["cell"]),
                offset=tuple(raw["offset"]),
                size=tuple(raw["size"]),
                depth=raw.get("depth"),
                dims3d=tuple(raw["dims3d"]) if "dims3d" in raw else None,
                yaw=yaw,
                orientation=encode_orientation(yaw) if yaw is not None else None,
            )
        )
    ts = TargetSet(
        config=config,
        heatmap=read_grid(base / entry["tensors"]["heatmap"]),
        size=read_grid(base / entry["tensors"]["size"]),
        offset=read_grid(base / entry["tensors"]["offset"]),
        center_mask=read_grid(base / entry["tensors"]["center_mask"]),
        objects=objects,
    )
    return ts, entry


def _cmd_loss(args) -> int:
    ts, _ = _targets_from_manifest(Path(args.manifest), args.image)
    preds = {
        "heatmap": read_grid(args.pred_heatmap),
        "offset": read_grid(args.pred_offset),
        "size": read_grid(args.pred_size),
    }
    if args.pred_depth:
        preds["depth"] = read_grid(args.pred_depth)
    if args.pred_dims:
        preds["dims"] = read_grid(args.pred_dims)
    if args.pred_orientation:
        preds["orientation"] = read_grid(args.pred_orientation)

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

    out = {
        "keypoint": report.keypoint,
        "offset": report.offset,
        "size": report.size,
        "total": report.total,
        "n_objects": report.n_objects,
        "n_positive_cells": report.n_positive_cells,
        "weights": {
            "size": weights.size,
            "offset": weights.offset,
            "depth": weights.depth,
            "dims": weights.dims,
            "orientation": weights.orientation,
        },
    }
    for name in ("depth", "dims", "orientation"):
        value = getattr(report, name)
        if value is not None:
            out[name] = value
    _print_json(out)
    return 0


def _cmd_gradcheck(args) -> int:
    reports = losses.gradcheck_all(args.seed, args.step)
    out = {
        "seed": args.seed,
        "step": args.step,
        "tolerance": args.tolerance,
        "losses": {},
    }
    ok = True
    for name, rep in reports.items():
        passed = bool(rep.max_rel_error < args.tolerance)
        ok &= passed
        out["losses"][name] = {
            "max_rel_error": rep.max_rel_error,
            "checked": rep.checked,
            "excluded": rep.excluded,
            "pass": passed,
        }
    out["pass"] = ok
    _print_json(out)
    if not ok:
        raise InternalError("analytic gradients disagree with finite differences")
    return 0


# ---------------------------------------------------------------- analyses

def _pairs_json(pairs) -> list[dict]:
    return [
        {"image_id": p.image_id, "category_id": p.category_id, "first": p.first, "second": p.second}
        for p in pairs
    ]


def _cmd_collisions(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    center = analysis.count_center_collisions(ds, stride=args.stride, oracle=args.oracle)
    thresholds = _floats_list(args.thresholds)
    iou_rep = analysis.count_iou_collisions(ds, thresholds=thresholds, oracle=args.oracle)
    _print_json(
        {
            "stride": args.stride,
            "n_center": center.n_center,
            "center_pairs": _pairs_json(center.center_pairs),
            "n_iou": {repr(t): n for t, n in iou_rep.n_iou.items()},
            "iou_pairs": {repr(t): _pairs_json(p) for t, p in iou_rep.iou_pairs.items()},
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
    _print_json(
        {
            "n_anchor": report.n_anchor,
            "total_objects": report.total_objects,
            "buckets": report.buckets,
            "forced_annotations": report.forced_annotations,
            "warnings": report.warnings,
        }
    )
    return 0


# ---------------------------------------------------------------- nms / eval / roundtrip

def _read_jsonl(path) -> list[dict]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    records = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise InputError(f"detections line {n}: {e.msg}") from e
    return records


def _det_from_json(raw: dict, n: int) -> tuple[int, Detection, dict]:
    where = f"detections line {n}"
    category = require_field(raw, "category", int, where)
    score = require_field(raw, "score", float, where)
    box = require_field(raw, "box", list, where)
    if len(box) != 4:
        raise InputError(f"{where}: box must be [x1, y1, x2, y2]")
    center = require_field(raw, "center", list, where) if "center" in raw else [0.0, 0.0]
    det = Detection(
        category=category,
        score=score,
        box=tuple(finite_numbers(box, where, "box entry")),
        center=tuple(finite_numbers(center, where, "center entry")),
        units=raw.get("units", "pixels"),
    )
    return require_field(raw, "image_id", int, where) if "image_id" in raw else 0, det, raw


def _cmd_nms(args) -> int:
    records = _read_jsonl(args.detections)
    groups: dict[int, list[tuple[Detection, dict]]] = {}
    for n, raw in enumerate(records, start=1):
        image_id, det, raw = _det_from_json(raw, n)
        groups.setdefault(image_id, []).append((det, raw))
    for image_id in sorted(groups):
        dets = [d for d, _ in groups[image_id]]
        kept = greedy_nms(dets, args.iou_thresh)
        kept_ids = {id(d) for d in kept}
        for det, raw in groups[image_id]:
            if id(det) in kept_ids:
                _print_json(raw)
    return 0


def _dets_by_image(records: list[dict], stride: int) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for n, raw in enumerate(records, start=1):
        image_id, det, _ = _det_from_json(raw, n)
        if det.units == "cells":
            det = to_input_space(det, stride)
        elif det.units != "pixels":
            raise InputError(f"detections line {n}: unknown units {det.units!r}")
        out.setdefault(image_id, []).append(det)
    return out


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
    ds = _load_dataset_warned(args.dataset)
    dets = _dets_by_image(_read_jsonl(args.detections), args.stride)
    gts = ds.annotations_by_image()
    report = evaluate_detections(dets, gts, iou_thresh=args.iou_thresh, recall_points=args.recall_points)
    _print_json(_eval_json(report, ds))
    return 0


def _cmd_roundtrip(args) -> int:
    ds = _load_dataset_warned(args.dataset)
    by_image = ds.annotations_by_image()
    num_classes = max(ds.num_classes, 1)
    dets_by_image: dict[int, list[Detection]] = {}
    per_image = []
    for img in ds.images:
        cfg = EncoderConfig.for_image(
            img.width, img.height, num_classes, output_stride=args.stride, size_units=args.units
        )
        anns = by_image[img.id]
        ts = encode_detection(anns, cfg)
        dets = [
            to_input_space(d, args.stride)
            for d in decode_boxes(
                ts.heatmap, ts.offset, ts.size, top_k=args.top_k, size_units=args.units, stride=args.stride
            )
            if d.score > args.min_score
        ]
        dets_by_image[img.id] = dets
        per_image.append({"id": img.id, "annotations": len(anns), "detections": len(dets)})

    report = evaluate_detections(dets_by_image, by_image, iou_thresh=args.iou_thresh, recall_points=args.recall_points)
    collisions = analysis.count_center_collisions(ds, stride=args.stride)
    _print_json(
        {
            "map": report.mean_ap,
            "ap": _eval_json(report, ds)["ap"],
            "annotations": report.num_gt,
            "detections": report.num_detections,
            "matched": report.true_positives,
            "missed": report.num_gt - report.true_positives,
            "center_collisions": collisions.n_center,
            "per_image": per_image,
        }
    )
    return 0


# ---------------------------------------------------------------- parser

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
    p.add_argument("--heatmap", required=True)
    p.add_argument("--offset", required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--depth")
    p.add_argument("--dims")
    p.add_argument("--orientation")
    p.add_argument("--joints-map", help="joint regression map (enables pose decoding)")
    p.add_argument("--joint-heatmap")
    p.add_argument("--joint-local-offset")
    p.add_argument("--joint-thresh", type=float, default=0.1)
    p.add_argument("--joint-candidates-all-cells", action="store_true",
                   help="joint candidates from every cell above the threshold instead of peaks")
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
    p.add_argument("--pred-heatmap", required=True)
    p.add_argument("--pred-offset", required=True)
    p.add_argument("--pred-size", required=True)
    p.add_argument("--pred-depth")
    p.add_argument("--pred-dims")
    p.add_argument("--pred-orientation")
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
