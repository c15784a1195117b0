"""In-memory span tracer that wraps cpt's public functions from the outside.

A wrapped function records a span (name, image, parent span, start, end,
counts) while the tracer is active and is a plain pass-through call
otherwise. Each callee is wrapped where its caller looks it up, so a span
nests under the span of the function that called it. Nothing is installed
unless the benchmark runs traced.
"""
from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module path under cpt, attribute, span name, counter); the callers' view of each layer
WRAPS = (
    ("", "load_dataset", "dataset.load", lambda a, r: {"annotations": len(r.annotations)}),
    ("", "encode_detection", "targets.encode", None),
    ("targets", "render_gaussian", "grid.splat", lambda a, r: {"splat_calls": 1, "splat_bytes": a[0].data.nbytes}),
    ("", "decode_boxes", "decode.boxes", lambda a, r: {
        "detections": len(r), "detections_useful": sum(d.score > 0.0 for d in r)}),
    ("", "to_input_space", "decode.boxes", None),
    ("decode", "extract_peaks", "grid.peaks", lambda a, r: {"peaks_kept": len(r)}),
    ("", "evaluate_detections", "evaluate", None),
    ("", "total_loss", "losses.total", None),
    ("losses", "focal_loss", "losses.focal", None),
    ("losses", "masked_l1", "losses.l1", None),
    ("", "count_forced_assignments", "analysis.anchors", None),
    ("", "count_iou_collisions", "analysis.iou_collisions", None),
    ("", "count_center_collisions", "analysis.center_collisions", None),
    ("analysis", "iou_matrix", "geometry.iou_matrix", lambda a, r: {"iou_matrix_pairs": r.size}),
    ("analysis", "anchor_grid", "geometry.anchor_grid", None),
)


class Tracer:
    """Spans of the active image, kept in memory until the run ends."""

    def __init__(self):
        self.active = False
        self.image = None  # key of the image being traced; None for set-up and end-of-run calls
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def install(self, cpt_module) -> None:
        for module, attr, name, counter in WRAPS:
            owner = importlib.import_module(f"cpt.{module}") if module else cpt_module
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter))

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = {"name": name, "image": self.image, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct child spans."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def per_image(self) -> tuple[dict, dict]:
        """({image: {name: self seconds or count}}, {name: end-of-run self seconds or count})."""
        images: dict = defaultdict(lambda: defaultdict(float))
        loose: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            bucket = loose if span["image"] is None else images[span["image"]]
            bucket[span["name"]] += own
            for key, n in span.get("counts", {}).items():
                bucket[key] += n
        return images, loose

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, f)
