"""Annotation analyses: collision counters and forced anchor assignments."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import AnchorConfig, InputError, ObjectAnnotation, count_center_collisions, count_forced_assignments, count_iou_collisions
from cpt import analysis
from cpt.analysis import _max_anchor_ious_fast, _max_anchor_ious_oracle, area_bucket
from cpt.dataset import CategoryInfo, Dataset, ImageInfo
from cpt.geometry import anchor_grid, anchor_positions, anchor_shapes, iou_matrix, resize_shorter


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def build_dataset(boxes_by_image, num_classes=3, image_size=(256, 256)):
    """boxes_by_image: {image_id: [(x1, y1, x2, y2, category_index), ...]}"""
    ds = Dataset(categories=[CategoryInfo(id=c + 1, name=f"c{c}", index=c) for c in range(num_classes)])
    ann_id = 1
    for image_id, boxes in sorted(boxes_by_image.items()):
        ds.images.append(ImageInfo(id=image_id, width=image_size[0], height=image_size[1]))
        for x1, y1, x2, y2, cat in boxes:
            ds.annotations.append(
                ObjectAnnotation(bbox=(x1, y1, x2, y2), category=cat, id=ann_id, image_id=image_id)
            )
            ann_id += 1
    return ds


def random_dataset(seed, num_images=10, max_boxes=30, num_classes=3, extent=256):
    r = rng(seed)
    boxes = {}
    for image_id in range(1, num_images + 1):
        n = int(r.integers(1, max_boxes + 1))
        rows = []
        for _ in range(n):
            x1, y1 = r.uniform(0, extent - 20, size=2)
            w, h = r.uniform(1, 60, size=2)
            rows.append((x1, y1, min(x1 + w, extent), min(y1 + h, extent), int(r.integers(num_classes))))
        boxes[image_id] = rows
    return build_dataset(boxes, num_classes, (extent, extent))


class TestCenterCollisions:
    def test_same_cell_same_class_pair(self):
        ds = build_dataset({1: [(0, 0, 8, 8, 0), (2, 2, 6, 6, 0)]})
        report = count_center_collisions(ds, stride=4)
        assert report.n_center == 1
        pair = report.center_pairs[0]
        assert (pair.image_id, pair.category_id, pair.first, pair.second) == (1, 1, 1, 2)

    def test_different_categories_do_not_collide(self):
        ds = build_dataset({1: [(0, 0, 8, 8, 0), (2, 2, 6, 6, 1)]})
        assert count_center_collisions(ds, stride=4).n_center == 0

    def test_different_images_do_not_collide(self):
        ds = build_dataset({1: [(0, 0, 8, 8, 0)], 2: [(0, 0, 8, 8, 0)]})
        assert count_center_collisions(ds, stride=4).n_center == 0

    def test_stride_one_counts_exact_centers(self):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (2, 2, 8, 8, 0), (0, 0, 11, 11, 0)]})
        # centers (5,5), (5,5), (5.5,5.5): stride 1 floors the third to (5,5) as well
        assert count_center_collisions(ds, stride=1).n_center == 3

    def test_fast_path_equals_oracle(self):
        for seed in range(20):
            ds = random_dataset(seed, extent=64)
            fast = count_center_collisions(ds, stride=4)
            slow = count_center_collisions(ds, stride=4, oracle=True)
            assert fast.n_center == slow.n_center
            assert fast.center_pairs == slow.center_pairs

    def test_doubling_doubles_counters(self):
        ds = random_dataset(7, extent=64)
        doubled = Dataset(categories=ds.categories)
        offset_img = max(m.id for m in ds.images)
        offset_ann = max(a.id for a in ds.annotations)
        for copy in range(2):
            for m in ds.images:
                doubled.images.append(ImageInfo(id=m.id + copy * offset_img, width=m.width, height=m.height))
            for a in ds.annotations:
                doubled.annotations.append(
                    ObjectAnnotation(
                        bbox=a.bbox, category=a.category, id=a.id + copy * offset_ann, image_id=a.image_id + copy * offset_img
                    )
                )
        assert count_center_collisions(doubled, 4).n_center == 2 * count_center_collisions(ds, 4).n_center
        iou_a = count_iou_collisions(ds, (0.5,))
        iou_b = count_iou_collisions(doubled, (0.5,))
        assert iou_b.n_iou[0.5] == 2 * iou_a.n_iou[0.5]

    def test_matches_encoder_collision_count(self):
        from cpt import EncoderConfig, encode_detection

        ds = random_dataset(11, num_images=6, extent=64)
        by_image = ds.annotations_by_image()
        cfg = EncoderConfig(input_w=64, input_h=64, num_classes=ds.num_classes)
        encoded = sum(encode_detection(anns, cfg).collision_count for anns in by_image.values())
        assert encoded == count_center_collisions(ds, stride=4).n_center

    def test_far_edge_center_clamps_like_the_encoder(self):
        # a zero-width box at x = 64 floors to cell 16 of a 16-cell row; the encoder clamps it onto cell 15
        from cpt import EncoderConfig, encode_detection

        ds = build_dataset({1: [(64, 10, 64, 14, 0), (60, 10, 62, 14, 0)]}, image_size=(64, 64))
        cfg = EncoderConfig.for_image(64, 64, ds.num_classes)
        assert encode_detection(ds.annotations, cfg).collision_count == 1
        assert count_center_collisions(ds, stride=4).n_center == 1
        assert count_center_collisions(ds, stride=4, oracle=True).n_center == 1

    def test_stride_validated(self):
        with pytest.raises(InputError):
            count_center_collisions(Dataset(), stride=0)


class TestIoUCollisions:
    def test_duplicate_annotation_pairs_at_every_threshold(self):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (0, 0, 10, 10, 0)]})
        report = count_iou_collisions(ds, thresholds=(0.3, 0.5, 0.7, 0.99))
        assert all(n == 1 for n in report.n_iou.values())

    def test_strictness(self):
        # IoU exactly 0.5: not counted at t=0.5
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (0, 0, 10, 5, 0)]})
        report = count_iou_collisions(ds, thresholds=(0.5,))
        assert report.n_iou[0.5] == 0

    def test_monotone_in_threshold(self):
        ds = random_dataset(3)
        report = count_iou_collisions(ds, thresholds=(0.3, 0.5, 0.7, 0.9))
        counts = [report.n_iou[t] for t in sorted(report.n_iou)]
        assert counts == sorted(counts, reverse=True)

    def test_fast_path_equals_oracle_200_boxes(self):
        ds = random_dataset(13, num_images=1, max_boxes=200)
        assert len(ds.annotations) <= 200
        fast = count_iou_collisions(ds, thresholds=(0.3, 0.5, 0.7))
        slow = count_iou_collisions(ds, thresholds=(0.3, 0.5, 0.7), oracle=True)
        assert fast.n_iou == slow.n_iou
        assert fast.iou_pairs == slow.iou_pairs

    def test_category_bound(self):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (1, 1, 10, 10, 1)]})
        assert count_iou_collisions(ds, thresholds=(0.3,)).n_iou[0.3] == 0

    @pytest.mark.parametrize("oracle", [False, True])
    def test_repeated_threshold_counts_each_pair_once(self, oracle):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (0, 0, 10, 10, 0)]})
        report = count_iou_collisions(ds, thresholds=(0.5, 0.5), oracle=oracle)
        assert report.n_iou == {0.5: 1}
        assert len(report.iou_pairs[0.5]) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_threshold_rejected(self, bad):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (0, 0, 10, 10, 0)]})
        with pytest.raises(InputError, match="finite"):
            count_iou_collisions(ds, thresholds=(0.5, bad))


class TestBuckets:
    def test_coco_convention(self):
        assert area_bucket(100.0) == "small"
        assert area_bucket(32.0**2 - 1) == "small"
        assert area_bucket(32.0**2) == "medium"
        assert area_bucket(96.0**2) == "medium"
        assert area_bucket(96.0**2 + 1) == "large"

    def test_totals_reported(self):
        ds = build_dataset({1: [(0, 0, 10, 10, 0), (0, 0, 50, 50, 0), (0, 0, 200, 200, 1)]})
        report = count_center_collisions(ds, 4)
        assert report.total_objects == 3
        assert report.bucket_totals == {"small": 1, "medium": 1, "large": 1}


class TestForcedAssignments:
    def test_large_centered_square_not_forced(self):
        ds = build_dataset({1: [(144, 144, 656, 656, 0)]}, image_size=(800, 800))
        report = count_forced_assignments(ds)
        assert report.n_anchor == 0

    def test_tiny_box_forced(self):
        ds = build_dataset({1: [(400, 400, 404, 404, 0)]}, image_size=(800, 800))
        report = count_forced_assignments(ds)
        assert report.n_anchor == 1
        assert report.forced_annotations == [1]
        assert report.buckets["small"]["forced"] == 1
        assert report.buckets["small"]["fraction"] == 1.0

    def test_resize_scales_boxes(self):
        # same scene at half resolution: resize restores geometry, decisions match
        full = build_dataset({1: [(100, 100, 300, 300, 0), (10, 10, 14, 14, 0)]}, image_size=(800, 800))
        half = build_dataset({1: [(50, 50, 150, 150, 0), (5, 5, 7, 7, 0)]}, image_size=(400, 400))
        a = count_forced_assignments(full)
        b = count_forced_assignments(half)
        assert a.forced_annotations == b.forced_annotations

    def test_fast_equals_oracle(self):
        for seed in range(6):
            r = rng(100 + seed)
            w = float(r.integers(800, 1400))
            h = float(r.integers(800, 1400))
            boxes = []
            for _ in range(int(r.integers(1, 20))):
                x1, y1 = r.uniform(0, w - 40), r.uniform(0, h - 40)
                bw, bh = r.uniform(2, 300), r.uniform(2, 300)
                boxes.append((x1, y1, min(x1 + bw, w), min(y1 + bh, h), int(r.integers(2))))
            ds = build_dataset({1: boxes}, num_classes=2, image_size=(w, h))
            fast = count_forced_assignments(ds)
            slow = count_forced_assignments(ds, oracle=True)
            assert fast.forced_annotations == slow.forced_annotations
            assert fast.n_anchor == slow.n_anchor

    def test_threshold_validated(self):
        with pytest.raises(InputError):
            count_forced_assignments(Dataset(), AnchorConfig(), iou_thresh=0.0)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_empty_anchor_grid_rejected(self, oracle):
        # 64x48 resized to a shorter edge of 4 is 5.33x4, below half the stride on both axes
        ds = build_dataset({7: [(0, 0, 10, 10, 0)]}, image_size=(64, 48))
        with pytest.raises(InputError, match="image 7 resizes to 5.33333x4, which holds no anchor center at stride 16"):
            count_forced_assignments(ds, AnchorConfig(resize_shorter=4.0), oracle=oracle)
        # an extent of exactly half the stride holds one anchor center
        one = count_forced_assignments(ds, AnchorConfig(resize_shorter=8.0), oracle=oracle)
        assert one.total_objects == 1

    def test_oracle_chunks_bit_identical_to_whole_matrix(self):
        r = rng(31)
        cfg = AnchorConfig(sizes=(8.0, 16.0, 32.0), stride=8)
        anchors = anchor_grid(100.0, 80.0, cfg)
        xy = r.uniform(-10.0, 90.0, size=(10, 2))
        boxes = np.concatenate([xy, xy + r.uniform(0.0, 60.0, size=(10, 2))], axis=1)
        whole = iou_matrix(boxes, anchors).max(axis=1)
        # three boxes per chunk: chunks of 3, 3, 3 and 1
        with mock.patch.object(analysis, "_ORACLE_PAIRS", 3 * len(anchors) + 7):
            chunked = _max_anchor_ious_oracle(boxes, 100.0, 80.0, cfg)
        assert chunked.tobytes() == whole.tobytes()
        # a chunk cap below one row still evaluates one box per chunk
        with mock.patch.object(analysis, "_ORACLE_PAIRS", 1):
            assert _max_anchor_ious_oracle(boxes, 100.0, 80.0, cfg).tobytes() == whole.tobytes()
        assert _max_anchor_ious_oracle(boxes[:0], 100.0, 80.0, cfg).shape == (0,)

    def test_fast_memory_does_not_grow_with_the_grid(self):
        """Small boxes on a 20,000 px wide image: no table over (shape, box, anchor position)."""
        r = rng(41)
        xy = r.uniform(0.0, [19936.0, 736.0], size=(200, 2))
        boxes = np.concatenate([xy, xy + r.uniform(1.0, 64.0, size=(200, 2))], axis=1)
        cfg = AnchorConfig()
        one_table = len(anchor_shapes(cfg)) * len(boxes) * len(anchor_positions(20000.0, cfg.stride)) * 8
        tracemalloc.start()
        try:
            best = _max_anchor_ious_fast(boxes, 20000.0, 800.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * one_table
        assert best[:4].tobytes() == _max_anchor_ious_oracle(boxes[:4], 20000.0, 800.0, cfg).tobytes()

    @given(case=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fast_max_ious_bit_identical_to_oracle(self, case):
        boxes, image_w, image_h, cfg = case.draw(anchor_cases())
        fast = _max_anchor_ious_fast(boxes, image_w, image_h, cfg)
        assert fast.tobytes() == _max_anchor_ious_oracle(boxes, image_w, image_h, cfg).tobytes()

    def test_sequence_forms_give_one_config(self):
        ds = random_dataset(5, num_images=4, extent=640)
        forms = [
            AnchorConfig(sizes=[32.0, 64.0], ratios=[0.5, 1.0]),
            AnchorConfig(sizes=(32.0, 64.0), ratios=(0.5, 1.0)),
            AnchorConfig(sizes=np.array([32.0, 64.0]), ratios=np.array([0.5, 1.0])),
        ]
        assert all(isinstance(cfg.sizes, tuple) and isinstance(cfg.ratios, tuple) for cfg in forms)
        assert all(cfg == forms[0] and hash(cfg) == hash(forms[0]) for cfg in forms)
        reports = []
        for cfg in forms:
            analysis._anchor_table.cache_clear()  # each form builds its own table
            reports.append(count_forced_assignments(ds, cfg))
        assert reports[0].total_objects > 0
        assert all(report == reports[0] for report in reports)


# three original sizes and their resized sizes under each config of MIXED_CONFIGS: 640x480 and 64x48 share one
MIXED_SIZES = ((640, 480), (480, 640), (64, 48))
# the default grid, and the stride/2 edge of test_empty_anchor_grid_rejected: the shorter side resizes to 8 = 16 / 2,
# so each image holds one anchor center across; its anchors are on the scale of the resized boxes
MIXED_CONFIGS = [AnchorConfig(), AnchorConfig(sizes=(2.0, 4.0, 8.0), resize_shorter=8.0)]


def mixed_size_dataset(seed, num_images=9, max_boxes=12):
    """Images cycling through MIXED_SIZES, each with boxes of up to half its sides, some past its edges."""
    r = rng(seed)
    ds = Dataset(categories=[CategoryInfo(id=1, name="c0", index=0)])
    for image_id in range(1, num_images + 1):
        w, h = MIXED_SIZES[(image_id - 1) % len(MIXED_SIZES)]
        ds.images.append(ImageInfo(id=image_id, width=w, height=h))
        for _ in range(int(r.integers(1, max_boxes + 1))):
            x1, y1 = r.uniform(-0.05, 0.95) * w, r.uniform(-0.05, 0.95) * h
            bw, bh = r.uniform(0.0, 0.5) * w, r.uniform(0.0, 0.5) * h
            ds.annotations.append(
                ObjectAnnotation(bbox=(x1, y1, x1 + bw, y1 + bh), category=0, id=len(ds.annotations) + 1, image_id=image_id)
            )
    return ds


class TestAnchorTables:
    """The forced-anchor fast path reads one memoized anchor table per (resized size, config)."""

    @pytest.mark.parametrize("cfg", MIXED_CONFIGS)
    def test_fast_equals_oracle_whole_and_sliced(self, cfg):
        ds = mixed_size_dataset(11)
        analysis._anchor_table.cache_clear()
        assert count_forced_assignments(ds, cfg) == count_forced_assignments(ds, cfg, oracle=True)
        # one-image slices in an order that revisits sizes: a miss, hits and misses interleaved
        analysis._anchor_table.cache_clear()
        by_image = ds.annotations_by_image()
        for k in (2, 5, 1, 8, 3, 4, 6, 0, 7):
            img = ds.images[k]
            part = Dataset(images=[img], annotations=by_image[img.id], categories=ds.categories)
            assert count_forced_assignments(part, cfg) == count_forced_assignments(part, cfg, oracle=True)
            w, h, scale = resize_shorter(img.width, img.height, cfg.resize_shorter)
            boxes = np.array([a.bbox for a in by_image[img.id]]) * scale
            fast = _max_anchor_ious_fast(boxes, w, h, cfg)
            assert fast.tobytes() == _max_anchor_ious_oracle(boxes, w, h, cfg).tobytes()
        info = analysis._anchor_table.cache_info()
        assert (info.misses, info.hits) == (2, 2 * 9 - 2)

    def test_tables_are_read_only(self):
        table = analysis._anchor_table(1066.0, 800.0, AnchorConfig())
        assert all(isinstance(array, np.ndarray) and not array.flags.writeable for array in table)
        with pytest.raises(ValueError, match="read-only"):
            table[0][0, 0] = 0.0

    @pytest.mark.parametrize("cfg", MIXED_CONFIGS)
    def test_one_table_per_resized_size(self, cfg):
        ds = mixed_size_dataset(12)
        resized = {resize_shorter(m.width, m.height, cfg.resize_shorter)[:2] for m in ds.images}
        assert len(resized) == 2 < len(MIXED_SIZES)
        analysis._anchor_table.cache_clear()
        with mock.patch.object(analysis, "anchor_positions", wraps=anchor_positions) as positions:
            count_forced_assignments(ds, cfg)
            assert analysis._anchor_table.cache_info().misses == len(resized)
            assert positions.call_count == 2 * len(resized)  # one call per axis of each table
            count_forced_assignments(ds, cfg)
            assert positions.call_count == 2 * len(resized)


def _ulps(value, k):
    """value moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        value = float(np.nextafter(value, np.inf if k > 0 else -np.inf))
    return value


@st.composite
def anchor_cases(draw):
    """(boxes, image_w, image_h, cfg): grids of at most 24x24 positions, boxes of any size and place.

    Anchor sides run from 1e-3 to 1e6 px, most of them 1 to 200 px, at
    strides up to 64 on grids as short as one position. Boxes run from 1e-3 px
    to past every anchor, or take an anchor's shape scaled by 1/2 to 2 within
    a step of a center; lie partly outside the image or wholly left of, right
    of, above or below the grid; collapse to zero width or height; sit on the
    anchor lattice (an anchor itself, or corners on half-stride multiples) for
    exact ties; or put a plateau edge (a box side plus or minus half an anchor
    side) on a grid center or within an ulp of one.
    """
    stride = draw(st.integers(1, 64))
    sizes = draw(st.lists(st.floats(1.0, 200.0) | st.floats(-3.0, 6.0).map(lambda e: 10.0**e), min_size=1, max_size=4))
    ratios = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.2, 5.0), min_size=1, max_size=3))
    cfg = AnchorConfig(sizes=tuple(sizes), ratios=tuple(ratios), stride=stride)
    image_w, image_h = (draw(st.floats(stride / 2.0, stride * draw(st.sampled_from([1.0, 3.0, 24.0])))) for _ in range(2))
    extents = (image_w, image_h)
    centers = (anchor_positions(image_w, stride), anchor_positions(image_h, stride))
    shapes = anchor_shapes(cfg)
    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "near_anchor", "anchor", "half_stride", "zero_width", "zero_height", "outside", "plateau_edge"]))
        if kind == "anchor":
            w, h = shapes[draw(st.integers(0, len(shapes) - 1))]
            cx, cy = (c[draw(st.integers(0, len(c) - 1))] for c in centers)
            boxes.append([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0])
            continue
        cx = draw(st.floats(-0.5 * image_w, 1.5 * image_w))
        cy = draw(st.floats(-0.5 * image_h, 1.5 * image_h))
        if kind == "near_anchor":  # an anchor's shape scaled by 1/2 to 2, within a step of a center: IoUs near any threshold
            w, h = (v * 2.0 ** draw(st.floats(-1.0, 1.0)) for v in shapes[draw(st.integers(0, len(shapes) - 1))])
            cx, cy = (c[draw(st.integers(0, len(c) - 1))] + stride * draw(st.floats(-1.0, 1.0)) for c in centers)
        else:
            w, h = (10.0 ** draw(st.floats(-3.0, 3.3)) for _ in range(2))
        box = [cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0]
        axis = draw(st.integers(0, 1))
        side = (w, h)[axis]
        if kind == "half_stride":
            box = [round(v / (stride / 2.0)) * (stride / 2.0) for v in box]
        elif kind == "zero_width":
            box[2] = box[0]
        elif kind == "zero_height":
            box[3] = box[1]
        elif kind == "outside":
            # wholly before the first anchor center or past the image's far edge on one axis
            gap = draw(st.floats(0.0, 2.0 * extents[axis]))
            if draw(st.booleans()):
                box[axis + 2] = min(stride / 2.0, extents[axis]) - gap
                box[axis] = box[axis + 2] - side
            else:
                box[axis] = extents[axis] + gap
                box[axis + 2] = box[axis] + side
        elif kind == "plateau_edge":
            half = shapes[draw(st.integers(0, len(shapes) - 1))][axis] / 2.0
            c = centers[axis][draw(st.integers(0, len(centers[axis]) - 1))]
            k = draw(st.integers(-1, 1))
            if draw(st.booleans()):  # b1 + half on c
                box[axis] = _ulps(c - half, k)
                box[axis + 2] = box[axis] + side
            else:  # b2 - half on c
                box[axis + 2] = _ulps(c + half, k)
                box[axis] = box[axis + 2] - side
        boxes.append(box)
    return np.array(boxes, dtype=np.float64), image_w, image_h, cfg
