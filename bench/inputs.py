"""Seeded dataset files for the benchmark workloads, made with cpt.synthetic.

The same (workload, seed) always gives byte-identical files. The dataset
file is all the program sees; the meta file holds what the benchmark's
checks need to know about how the inputs were made.

Per-image cost grows with the number of objects, so images are drawn from
make_dataset pools and ordered in rounds: each round of max_objects
consecutive images holds every object count from 1 to max_objects once, in
a seeded order. Any run that covers whole rounds then sees the same mix of
image sizes whatever the seed; only the boxes differ.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

from cpt import synthetic
from cpt.dataset import Dataset, ImageInfo, dataset_to_json

# COCO-like detection scenes: 512x512 input, 128x128 grid, 80 classes, 1-50 objects
# with distinct center cells (collision-free).
COCO = dict(max_objects=50, num_classes=80, image_w=512, image_h=512, stride=4)
COCO_ROUNDS = 4  # 200 images
# Analysis set: 640x480 images, two classes so that same-class groups are large.
ANALYSIS = dict(max_objects=50, num_classes=2, image_w=640, image_h=480, stride=4)
ANALYSIS_ROUNDS = 10  # 500 images
INJECTED_PAIRS = 500
# Philox keys of the streams other than the first pool's, kept apart from every seed
POOL_KEY_STEP = 1 << 64
ORDER_KEY = 1 << 96
INJECT_KEY = 3 << 96


def rounds_dataset(seed: int, rounds: int, **kw) -> Dataset:
    """make_dataset scenes, re-ordered so that each round holds every object count once."""
    top = kw["max_objects"]
    pools: dict[int, list] = {k: [] for k in range(1, top + 1)}
    chunk = 0
    while min(len(p) for p in pools.values()) < rounds:
        part = synthetic.make_dataset(seed + chunk * POOL_KEY_STEP, num_images=rounds * top, **kw)
        for anns in part.annotations_by_image().values():
            pools[len(anns)].append(anns)
        categories = part.categories
        chunk += 1
    order = synthetic.generator(seed + ORDER_KEY)
    ds = Dataset(categories=categories)
    for r in range(rounds):
        for count in order.permutation(top) + 1:
            anns = pools[int(count)][r]
            image_id = len(ds.images) + 1
            ds.images.append(ImageInfo(id=image_id, width=kw["image_w"], height=kw["image_h"]))
            for a in anns:
                ds.annotations.append(replace(a, id=len(ds.annotations) + 1, image_id=image_id))
    return ds


def make_inputs(workload: str, seed: int) -> tuple[dict, dict]:
    """(dataset JSON document, meta) for one workload and seed."""
    meta = {"workload": workload, "seed": seed}
    if workload in ("coco-roundtrip", "coco-train"):
        ds = rounds_dataset(seed, COCO_ROUNDS, **COCO)
        meta["round"] = COCO["max_objects"]
    elif workload == "coco-analysis":
        base = rounds_dataset(seed, ANALYSIS_ROUNDS, **ANALYSIS)
        ds = synthetic.inject_center_collisions(base, seed + INJECT_KEY, INJECTED_PAIRS)
        meta["round"] = ANALYSIS["max_objects"]
        added = Counter(a.image_id for a in ds.annotations[len(base.annotations):])
        meta["injected_by_image"] = {str(k): added[k] for k in sorted(added)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return dataset_to_json(ds), meta


def write_inputs(workload: str, seed: int, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    doc, meta = make_inputs(workload, seed)
    data = directory / f"{workload}-{seed}.json"
    meta_path = directory / f"{workload}-{seed}.meta.json"
    data.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    meta_path.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    return data, meta_path
