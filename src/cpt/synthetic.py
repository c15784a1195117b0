"""Deterministic synthetic datasets for tests and fixtures.

All randomness comes from numpy's Philox counter-based generator keyed by a
single 64-bit seed, so fixtures are reproducible across platforms (and
re-implementable in other languages); see docs/formats.md.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .dataset import CategoryInfo, Dataset, ImageInfo
from .errors import InputError
from .targets import ObjectAnnotation

# make_sparse_dataset and make_overlap_dataset scenes: SCENE_SIDE-px square images in SCENE_CLASSES classes, laid
# out on lattices of stride-SCENE_STRIDE cells, with up to SPARSE_MAX_OBJECTS boxes or OVERLAP_MAX_PAIRS pairs each
SCENE_SIDE = 256
SCENE_CLASSES = 3
SCENE_STRIDE = 4
SPARSE_MAX_OBJECTS = 12
OVERLAP_MAX_PAIRS = 4


def generator(seed: int) -> np.random.Generator:
    """The toolkit-wide RNG: Philox4x64-10 keyed by the seed, counter from 0."""
    if not 0 <= seed < 2**128:
        raise InputError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def _categories(num_classes: int) -> list[CategoryInfo]:
    return [CategoryInfo(id=k + 1, name=f"class_{k + 1}", index=k) for k in range(num_classes)]


def distinct_cells(rng: np.random.Generator, count: int, gw: int, gh: int) -> list[tuple[int, int]]:
    """`count` distinct (x, y) cells of a gw x gh grid, drawn without replacement."""
    flat = rng.choice(gw * gh, size=count, replace=False)
    return [(int(f % gw), int(f // gw)) for f in flat]


def _scenes(seed: int, num_images: int, max_slots: int, num_classes: int, image_w: int, image_h: int, stride: int,
            spacing: int, place: Callable[[np.random.Generator, int, int], list[dict]]) -> Dataset:
    """The per-image loop of every generator, so every generator draws in one fixed order.

    Slots are the cells of a lattice with `spacing` grid cells between neighbours. Each image draws its slot count
    in [1, max_slots], then that many distinct slots (distinct_cells). `place(rng, cx, cy)` draws the annotations of
    the slot centered on grid cell (cx, cy), as ObjectAnnotation fields; they are numbered from 1 in creation order.
    """
    gw, gh = image_w // stride // spacing, image_h // stride // spacing
    if max_slots > gw * gh:
        raise InputError(f"max_objects {max_slots} exceeds the {gw}x{gh} cell budget")
    rng = generator(seed)
    ds = Dataset(categories=_categories(num_classes))
    for image_id in range(1, num_images + 1):
        ds.images.append(ImageInfo(id=image_id, width=image_w, height=image_h))
        count = int(rng.integers(1, max_slots + 1))
        for sx, sy in distinct_cells(rng, count, gw, gh):
            for fields in place(rng, sx * spacing + spacing // 2, sy * spacing + spacing // 2):
                ds.annotations.append(ObjectAnnotation(**fields, id=len(ds.annotations) + 1, image_id=image_id))
    return ds


def make_dataset(
    seed: int,
    num_images: int = 100,
    max_objects: int = 50,
    num_classes: int = 5,
    image_w: int = 128,
    image_h: int = 128,
    stride: int = 4,
    with_3d: bool = False,
) -> Dataset:
    """Random boxes with globally distinct center cells per image.

    Distinct cells guarantee a collision-free encode/decode roundtrip; boxes
    lie strictly inside the image so ingestion never clamps.
    """

    def place(rng, cx, cy):
        px = (cx + rng.uniform(0.05, 0.95)) * stride
        py = (cy + rng.uniform(0.05, 0.95)) * stride
        hw = rng.uniform(0.3, 0.98) * min(px, image_w - px)
        hh = rng.uniform(0.3, 0.98) * min(py, image_h - py)
        fields = {"bbox": (px - hw, py - hh, px + hw, py + hh)}
        if with_3d:
            yaw = float(rng.uniform(-math.pi, math.pi))
            fields.update(
                yaw=yaw if yaw > -math.pi else math.pi,
                depth=float(rng.uniform(1.0, 60.0)),
                dims3d=tuple(rng.uniform(0.5, 5.0, size=3)),
            )
        return [{**fields, "category": int(rng.integers(0, num_classes))}]

    return _scenes(seed, num_images, max_objects, num_classes, image_w, image_h, stride, 1, place)


def make_sparse_dataset(seed: int, num_images: int = 20) -> Dataset:
    """Small boxes on a widely spaced lattice: every pairwise IoU is zero."""
    r = SCENE_STRIDE

    def place(rng, cx, cy):
        px = (cx + rng.uniform(0.05, 0.95)) * r
        py = (cy + rng.uniform(0.05, 0.95)) * r
        hw = rng.uniform(0.8, 1.6) * r
        hh = rng.uniform(0.8, 1.6) * r
        return [{"bbox": (px - hw, py - hh, px + hw, py + hh), "category": int(rng.integers(0, SCENE_CLASSES))}]

    # 8 cells between candidate centers; boxes stay well inside one slot
    return _scenes(seed, num_images, SPARSE_MAX_OBJECTS, SCENE_CLASSES, SCENE_SIDE, SCENE_SIDE, r, 8, place)


def make_overlap_dataset(seed: int, num_images: int = 20) -> Dataset:
    """Same-class pairs with high box IoU but distinct center cells.

    Each pair is a wide box plus a copy shifted by one cell, so decoding
    still sees two peaks while the boxes overlap far above 0.5 IoU. Pairs
    are laid out on a coarse lattice to keep different pairs disjoint.
    """
    r = SCENE_STRIDE

    def place(rng, cx, cy):
        category = int(rng.integers(0, SCENE_CLASSES))
        px = (cx + rng.uniform(0.3, 0.7)) * r
        py = (cy + rng.uniform(0.3, 0.7)) * r
        half = rng.uniform(4.0, 6.0) * r  # >= 8 cells wide: 1-cell shift keeps IoU > 0.5
        return [
            {"bbox": (px - half + shift, py - half, px + half + shift, py + half), "category": category}
            for shift in (0.0, float(r))
        ]

    return _scenes(seed, num_images, OVERLAP_MAX_PAIRS, SCENE_CLASSES, SCENE_SIDE, SCENE_SIDE, r, 16, place)


def inject_center_collisions(ds: Dataset, seed: int, num_pairs: int) -> Dataset:
    """Duplicate num_pairs distinct annotations verbatim (fresh ids).

    Each duplicate forms exactly one same-cell same-class pair, so the
    center-collision count of the result exceeds the original's by
    num_pairs.
    """
    if num_pairs > len(ds.annotations):
        raise InputError(f"cannot inject {num_pairs} pairs into {len(ds.annotations)} annotations")
    rng = generator(seed)
    picks = rng.choice(len(ds.annotations), size=num_pairs, replace=False)
    next_id = max((a.id for a in ds.annotations), default=0) + 1
    out = Dataset(
        images=list(ds.images),
        annotations=list(ds.annotations),
        categories=list(ds.categories),
        warnings=list(ds.warnings),
    )
    for k, pick in enumerate(sorted(int(p) for p in picks)):
        out.annotations.append(replace(ds.annotations[pick], id=next_id + k))
    return out
