"""Deterministic synthetic datasets for tests and fixtures.

All randomness comes from numpy's Philox counter-based generator keyed by a
single 64-bit seed, so fixtures are reproducible across platforms (and
re-implementable in other languages); see docs/formats.md.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dataset import CategoryInfo, Dataset, ImageInfo
from .errors import InputError
from .targets import ObjectAnnotation


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
    gw, gh = image_w // stride, image_h // stride
    if max_objects > gw * gh:
        raise InputError(f"max_objects {max_objects} exceeds the {gw}x{gh} cell budget")
    rng = generator(seed)
    ds = Dataset(categories=_categories(num_classes))
    ann_id = 1
    for image_id in range(1, num_images + 1):
        ds.images.append(ImageInfo(id=image_id, width=image_w, height=image_h))
        count = int(rng.integers(1, max_objects + 1))
        for cx, cy in distinct_cells(rng, count, gw, gh):
            px = (cx + rng.uniform(0.05, 0.95)) * stride
            py = (cy + rng.uniform(0.05, 0.95)) * stride
            hw = rng.uniform(0.3, 0.98) * min(px, image_w - px)
            hh = rng.uniform(0.3, 0.98) * min(py, image_h - py)
            extra = {}
            if with_3d:
                yaw = float(rng.uniform(-math.pi, math.pi))
                extra = {
                    "depth": float(rng.uniform(1.0, 60.0)),
                    "dims3d": tuple(rng.uniform(0.5, 5.0, size=3)),
                    "yaw": yaw if yaw > -math.pi else math.pi,
                }
            ds.annotations.append(
                ObjectAnnotation(
                    bbox=(px - hw, py - hh, px + hw, py + hh),
                    category=int(rng.integers(0, num_classes)),
                    id=ann_id,
                    image_id=image_id,
                    **extra,
                )
            )
            ann_id += 1
    return ds


def make_sparse_dataset(
    seed: int,
    num_images: int = 20,
    max_objects: int = 12,
    num_classes: int = 3,
    image_w: int = 256,
    image_h: int = 256,
    stride: int = 4,
) -> Dataset:
    """Small boxes on a widely spaced lattice: every pairwise IoU is zero."""
    spacing = 8  # cells between candidate centers; boxes stay well inside one slot
    gw, gh = image_w // stride // spacing, image_h // stride // spacing
    if max_objects > gw * gh:
        raise InputError(f"max_objects {max_objects} exceeds the sparse {gw}x{gh} slot budget")
    rng = generator(seed)
    ds = Dataset(categories=_categories(num_classes))
    ann_id = 1
    for image_id in range(1, num_images + 1):
        ds.images.append(ImageInfo(id=image_id, width=image_w, height=image_h))
        count = int(rng.integers(1, max_objects + 1))
        for sx, sy in distinct_cells(rng, count, gw, gh):
            cx, cy = sx * spacing + spacing // 2, sy * spacing + spacing // 2
            px = (cx + rng.uniform(0.05, 0.95)) * stride
            py = (cy + rng.uniform(0.05, 0.95)) * stride
            hw = rng.uniform(0.8, 1.6) * stride
            hh = rng.uniform(0.8, 1.6) * stride
            ds.annotations.append(
                ObjectAnnotation(
                    bbox=(px - hw, py - hh, px + hw, py + hh),
                    category=int(rng.integers(0, num_classes)),
                    id=ann_id,
                    image_id=image_id,
                )
            )
            ann_id += 1
    return ds


def make_overlap_dataset(
    seed: int,
    num_images: int = 20,
    pairs_per_image: int = 4,
    num_classes: int = 3,
    image_w: int = 256,
    image_h: int = 256,
    stride: int = 4,
) -> Dataset:
    """Same-class pairs with high box IoU but distinct center cells.

    Each pair is a wide box plus a copy shifted by one cell, so decoding
    still sees two peaks while the boxes overlap far above 0.5 IoU. Pairs
    are laid out on a coarse lattice to keep different pairs disjoint.
    """
    spacing = 16
    gw, gh = image_w // stride // spacing, image_h // stride // spacing
    if pairs_per_image > gw * gh:
        raise InputError(f"pairs_per_image {pairs_per_image} exceeds the {gw}x{gh} slot budget")
    rng = generator(seed)
    ds = Dataset(categories=_categories(num_classes))
    ann_id = 1
    for image_id in range(1, num_images + 1):
        ds.images.append(ImageInfo(id=image_id, width=image_w, height=image_h))
        count = int(rng.integers(1, pairs_per_image + 1))
        for sx, sy in distinct_cells(rng, count, gw, gh):
            cx, cy = sx * spacing + spacing // 2, sy * spacing + spacing // 2
            category = int(rng.integers(0, num_classes))
            px = (cx + rng.uniform(0.3, 0.7)) * stride
            py = (cy + rng.uniform(0.3, 0.7)) * stride
            half = rng.uniform(4.0, 6.0) * stride  # >= 8 cells wide: 1-cell shift keeps IoU > 0.5
            for shift in (0.0, float(stride)):
                ds.annotations.append(
                    ObjectAnnotation(
                        bbox=(px - half + shift, py - half, px + half + shift, py + half),
                        category=category,
                        id=ann_id,
                        image_id=image_id,
                    )
                )
                ann_id += 1
    return ds


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
