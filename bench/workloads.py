"""The three benchmark workloads, driven through cpt's public functions only.

Each workload processes one image per step in a closed loop. `prepare` makes
the step's inputs outside the timed region, `step` is the timed work,
`inspect` checks the step's outputs outside the timed region, and `finish`
is the timed end-of-run work (dataset-level calls).
"""
from __future__ import annotations

import numpy as np

import checks

STRIDE = 4
TOP_K = 100
IOU_THRESHOLDS = (0.5, 0.7)


class Workload:
    """Defaults: no per-image preparation, no end-of-run work, no end-of-run checks."""

    def __init__(self, cpt, ds, meta, oracle=False):
        self.cpt = cpt
        self.ds = ds
        self.by_image = ds.annotations_by_image()
        self.num_classes = max(ds.num_classes, 1)
        self.last = None  # outputs of the latest step, for inspect

    def config(self, img):
        return self.cpt.EncoderConfig.for_image(
            img.width, img.height, self.num_classes, output_stride=STRIDE, size_units="pixels"
        )

    def prepare(self, img):
        return None

    def peak_cells(self):
        """Cells equal to their 3x3 max on the latest step's target heatmap."""
        return checks.count_peak_cells(self.last[0].heatmap.data)

    def finish(self):
        pass

    def final_checks(self):
        return []


class Roundtrip(Workload):
    """What `cpt roundtrip` does per image: encode -> decode_boxes -> to_input_space; eval at the end."""

    def __init__(self, cpt, ds, meta, oracle=False):
        super().__init__(cpt, ds, meta)
        self.dets = {}

    def step(self, img, _):
        cpt = self.cpt
        self.last = None
        ts = cpt.encode_detection(self.by_image[img.id], self.config(img))
        raw = cpt.decode_boxes(ts.heatmap, ts.offset, ts.size, top_k=TOP_K, size_units="pixels", stride=STRIDE)
        self.dets[img.id] = [cpt.to_input_space(d, STRIDE) for d in raw if d.score > 0.0]
        self.last = (ts, raw)

    def inspect(self, img, sampled):
        ts, raw = self.last
        problems = checks.check_kept_boxes(self.dets[img.id], self.by_image[img.id])
        if sampled:
            problems += checks.check_decoded_peaks(raw, ts.heatmap.data, ts.offset.data, TOP_K)
        return problems

    def finish(self):
        cpt = self.cpt
        gts = {i: self.by_image[i] for i in self.dets}
        self.report = cpt.evaluate_detections(self.dets, gts)
        seen = cpt.Dataset(
            images=[m for m in self.ds.images if m.id in gts],
            annotations=[a for a in self.ds.annotations if a.image_id in gts],
            categories=self.ds.categories,
        )
        self.n_center = cpt.count_center_collisions(seen, stride=STRIDE).n_center

    def final_checks(self):
        return checks.check_roundtrip_eval(self.report, self.n_center)


class Train(Workload):
    """A training data pipeline per image: encode -> total_loss with gradients on float32 predictions."""

    def __init__(self, cpt, ds, meta, oracle=False):
        super().__init__(cpt, ds, meta)
        self.seed = int(meta["seed"])

    def prepare(self, img):
        """Predictions = targets plus seeded noise, as float32 like a network's outputs."""
        cpt = self.cpt
        cfg = self.config(img)
        ts = cpt.encode_detection(self.by_image[img.id], cfg)
        rng = np.random.Generator(np.random.Philox(key=[self.seed, img.id]))
        hm = ts.heatmap.data
        preds = {
            "heatmap": (0.9 * hm + 0.1 * rng.random(hm.shape, dtype=np.float32)).astype(np.float32),
            "offset": (ts.offset.data + rng.normal(0.0, 0.1, ts.offset.data.shape)).astype(np.float32),
            "size": (ts.size.data + rng.normal(0.0, 2.0, ts.size.data.shape)).astype(np.float32),
        }
        return cfg, {k: cpt.DenseGrid(v) for k, v in preds.items()}

    def step(self, img, prepared):
        cpt = self.cpt
        self.last = None
        cfg, preds = prepared
        ts = cpt.encode_detection(self.by_image[img.id], cfg)
        report = cpt.total_loss(preds, ts)
        self.last = (ts, report, preds)

    def inspect(self, img, sampled):
        ts, report, preds = self.last
        anns = self.by_image[img.id]
        problems = checks.check_positive_cells(ts.heatmap.data, len(anns))
        if sampled:
            problems += checks.check_train_sample(report, preds, ts.heatmap.data, anns, STRIDE)
        return problems


class Analysis(Workload):
    """`cpt collisions` and `cpt anchors`, called on one-image slices so that each image gets a time."""

    def __init__(self, cpt, ds, meta, oracle=False):
        super().__init__(cpt, ds, meta)
        self.oracle = oracle
        self.slices = {
            img.id: cpt.Dataset(images=[img], annotations=self.by_image[img.id], categories=ds.categories)
            for img in ds.images
        }
        self.injected = {int(k): v for k, v in meta["injected_by_image"].items()}

    def step(self, img, _):
        cpt = self.cpt
        part = self.slices[img.id]
        center = cpt.count_center_collisions(part, stride=STRIDE)
        pairs = cpt.count_iou_collisions(part, thresholds=IOU_THRESHOLDS)
        anchors = cpt.count_forced_assignments(part, oracle=self.oracle)
        self.last = (center.n_center, pairs.n_iou, anchors.forced_annotations)

    def inspect(self, img, sampled):
        n_center, n_iou, forced = self.last
        return checks.check_analysis_image(
            img, self.by_image[img.id], self.injected.get(img.id, 0), n_center, n_iou, forced, sampled
        )

    def peak_cells(self):
        return 0


WORKLOADS = {"coco-roundtrip": Roundtrip, "coco-train": Train, "coco-analysis": Analysis}
