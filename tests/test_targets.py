"""Target encoding: detection grids, orientation bins, pose fields."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import (
    DenseGrid,
    EncoderConfig,
    InputError,
    ObjectAnnotation,
    encode_depth,
    encode_detection,
    encode_orientation,
    encode_pose,
    gaussian_sigma,
    render_gaussian,
    targets,
)
from cpt.decode import decode_depth
from cpt.grid import MIN_RADIUS, _splat

from oracles import (
    assert_same_targets,
    reference_encode_detection,
    reference_encode_pose,
    reference_gaussian_sigma,
    reference_splat,
    reference_splats,
)


def cfg128(**kw):
    return EncoderConfig(input_w=128, input_h=128, num_classes=3, **kw)


class TestEncoderConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(InputError, match="not divisible"):
            EncoderConfig(input_w=130, input_h=128, num_classes=2)

    def test_for_image_pads_up(self):
        cfg = EncoderConfig.for_image(130, 127, num_classes=2)
        assert (cfg.input_w, cfg.input_h) == (132, 128)
        assert (cfg.grid_w, cfg.grid_h) == (33, 32)

    def test_units_validated(self):
        with pytest.raises(InputError):
            cfg128(size_units="furlongs")


class TestObjectAnnotation:
    def test_corner_order_enforced(self):
        with pytest.raises(InputError):
            ObjectAnnotation(bbox=(5, 0, 3, 4), category=0)

    def test_optional_field_validation(self):
        with pytest.raises(InputError):
            ObjectAnnotation(bbox=(0, 0, 1, 1), category=0, depth=0.0)
        with pytest.raises(InputError):
            ObjectAnnotation(bbox=(0, 0, 1, 1), category=0, dims3d=(1.0, -1.0, 1.0))
        with pytest.raises(InputError):
            ObjectAnnotation(bbox=(0, 0, 1, 1), category=0, yaw=4.0)


class TestEncodeDetection:
    def test_center_on_grid_point(self):
        ts = encode_detection([ObjectAnnotation(bbox=(8, 8, 24, 24), category=0)], cfg128())
        assert ts.objects["cell"].tolist() == [[4, 4]]
        assert ts.objects["offset"].tolist() == [[0.0, 0.0]]
        assert ts.objects["size"].tolist() == [[16.0, 16.0]]  # default units are raw pixels

    def test_cells_units(self):
        ts = encode_detection([ObjectAnnotation(bbox=(8, 8, 24, 24), category=0)], cfg128(size_units="cells"))
        assert ts.objects["size"].tolist() == [[4.0, 4.0]]

    def test_subcell_offset(self):
        ts = encode_detection([ObjectAnnotation(bbox=(10, 10, 20, 20), category=0)], cfg128())
        assert ts.objects["cell"].tolist() == [[3, 3]]
        assert ts.objects["offset"].tolist() == [[0.75, 0.75]]

    def test_heatmap_is_one_at_center_cell(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=0),
            ObjectAnnotation(bbox=(40, 50, 90, 110), category=2),
        ]
        ts = encode_detection(anns, cfg128())
        cx, cy = ts.objects["cell"].T
        assert ts.heatmap.data[ts.objects["category"], cy, cx].tolist() == [1.0, 1.0]

    def test_offsets_in_unit_interval(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        anns = []
        for _ in range(40):
            cx, cy = rng.uniform(6, 122, size=2)
            hw, hh = rng.uniform(1, 5, size=2)
            anns.append(ObjectAnnotation(bbox=(cx - hw, cy - hh, cx + hw, cy + hh), category=int(rng.integers(3))))
        ts = encode_detection(anns, cfg128())
        assert ts.objects["offset"].shape == (40, 2)
        assert np.all((0.0 <= ts.objects["offset"]) & (ts.objects["offset"] < 1.0))

    def test_same_class_collision_recorded(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=1),
            ObjectAnnotation(bbox=(12, 12, 18, 18), category=1),
        ]
        ts = encode_detection(anns, cfg128())
        assert ts.collision_count == 1
        assert ts.collisions.tolist() == [[0, 1]]
        assert ts.objects["cell"].tolist() == [[3, 3], [3, 3]]
        # later object owns the shared size/offset cell
        assert ts.size.data[0, 3, 3] == 6.0

    def test_cross_class_same_cell_not_a_collision(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=0),
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=1),
        ]
        assert encode_detection(anns, cfg128()).collision_count == 0

    def test_triple_collision_counts_pairs(self):
        anns = [ObjectAnnotation(bbox=(10, 10, 20, 20), category=0) for _ in range(3)]
        ts = encode_detection(anns, cfg128())
        assert ts.collision_count == 3
        assert ts.collisions.tolist() == [[0, 1], [0, 2], [1, 2]]  # each later object against every earlier one

    def test_heatmap_takes_elementwise_max(self):
        anns = [
            ObjectAnnotation(bbox=(8, 8, 24, 24), category=0),
            ObjectAnnotation(bbox=(16, 8, 32, 24), category=0),
        ]
        ts = encode_detection(anns, cfg128())
        assert ts.heatmap.data[0, 4, 4] == 1.0
        assert ts.heatmap.data[0, 4, 6] == 1.0

    def test_border_degenerate_center_clamped(self):
        ts = encode_detection([ObjectAnnotation(bbox=(128, 128, 128, 128), category=0)], cfg128())
        assert ts.objects["cell"].tolist() == [[31, 31]]
        assert ts.clamped_centers == 1

    def test_category_out_of_range(self):
        with pytest.raises(InputError, match="category"):
            encode_detection([ObjectAnnotation(bbox=(0, 0, 4, 4), category=7)], cfg128())

    def test_3d_fields_carried(self):
        ann = ObjectAnnotation(bbox=(8, 8, 24, 24), category=0, depth=12.5, dims3d=(1.5, 1.6, 3.9), yaw=0.4)
        ts = encode_detection([ann, ObjectAnnotation(bbox=(8, 8, 24, 24), category=0, depth=3.0)], cfg128())
        assert ts.objects["depth"].tolist() == [12.5, 3.0]
        assert ts.objects["dims3d"][0].tolist() == [1.5, 1.6, 3.9]
        assert ts.objects["orientation"][0].tolist() == encode_orientation(0.4).tolist()
        # NaN rows mark the objects without a field, and a field no object has is None
        assert np.isnan(ts.objects["dims3d"][1]).all() and np.isnan(ts.objects["orientation"][1]).all()
        assert encode_detection([ann], cfg128()).objects["joint_offsets"] is None
        assert encode_detection([ObjectAnnotation(bbox=(8, 8, 24, 24), category=0)], cfg128()).objects["yaw"] is None

    def test_center_mask_marks_cells(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=0),
            ObjectAnnotation(bbox=(40, 40, 60, 60), category=1),
        ]
        ts = encode_detection(anns, cfg128())
        assert ts.center_mask.data.sum() == 2.0


class TestNonFiniteAnnotations:
    """Non-finite annotation values are input errors that name the annotation; the first bad one wins."""

    def encode(self, *anns, pose=False):
        return (encode_pose if pose else encode_detection)(list(anns), EncoderConfig(64, 64, 2, num_joints=1))

    @pytest.mark.parametrize(
        "bbox",
        [(0, 0, math.inf, 10), (0, math.nan, 10, 10), (-math.inf, 0, 10, 10), (0, 0, 10, math.nan),
         (-1.7e308, 0, 1.7e308, 10)],  # finite, but its width is not
    )
    def test_bbox(self, bbox):
        with pytest.raises(InputError, match=r"^annotation 1: bbox \(.*\) is not finite, or its size is not$"):
            self.encode(ObjectAnnotation(bbox=(0, 0, 4, 4), category=0), ObjectAnnotation(bbox=bbox, category=0))

    def test_depth(self):
        with pytest.raises(InputError, match="^annotation 0: depth inf is not finite$"):
            self.encode(ObjectAnnotation(bbox=(0, 0, 4, 4), category=0, depth=math.inf))

    def test_dims3d(self):
        with pytest.raises(InputError, match=r"^annotation 0: dims3d \(1.0, inf, 1.0\) is not finite$"):
            self.encode(ObjectAnnotation(bbox=(0, 0, 4, 4), category=0, dims3d=(1.0, math.inf, 1.0)))

    @pytest.mark.parametrize("point", [(math.nan, 2.0, True), (2.0, math.inf, True), (-math.inf, 2.0, False)])
    def test_keypoint(self, point):
        ann = ObjectAnnotation(bbox=(0, 0, 4, 4), category=0, keypoints=[point], id=7, image_id=3)
        with pytest.raises(InputError, match=r"^image 3 annotation 7: keypoints \[.*\] are not finite$"):
            self.encode(ObjectAnnotation(bbox=(0, 0, 4, 4), category=0, keypoints=[(1.0, 1.0, True)]), ann, pose=True)

    def test_first_bad_annotation_wins(self):
        anns = [
            ObjectAnnotation(bbox=(0, 0, 4, 4), category=0, depth=math.inf),
            ObjectAnnotation(bbox=(0, 0, 4, 4), category=5),
        ]
        with pytest.raises(InputError, match="^annotation 0: depth inf"):
            self.encode(*anns)
        with pytest.raises(InputError, match="^annotation 0: category 5 out of range"):
            self.encode(anns[1], anns[0])
        # within one annotation the checks run in order: category, then the box
        with pytest.raises(InputError, match="^annotation 0: category 5 out of range"):
            self.encode(ObjectAnnotation(bbox=(0, 0, math.nan, 4), category=5))


class TestEncodeOrientation:
    def test_at_second_bin_midpoint(self):
        a = encode_orientation(math.pi / 2)
        assert (a[1], a[5]) == (0.0, 1.0)  # in bin 2 only
        assert a[6] == pytest.approx(0.0, abs=1e-12)
        assert a[7] == pytest.approx(1.0)

    def test_overlap_region(self):
        a = encode_orientation(0.0)
        assert (a[1], a[5]) == (1.0, 1.0)
        assert a[2] == pytest.approx(1.0)  # sin(0 - (-pi/2))
        assert a[3] == pytest.approx(0.0, abs=1e-12)
        assert a[6] == pytest.approx(-1.0)
        assert a[7] == pytest.approx(0.0, abs=1e-12)

    def test_pi_in_second_bin_only(self):
        a = encode_orientation(math.pi)
        assert (a[1], a[5]) == (0.0, 1.0)
        assert a[6] == pytest.approx(1.0)
        assert a[7] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            encode_orientation(3 * math.pi / 2)

    def test_classification_is_one_hot(self):
        for theta in (-2.0, 0.0, 2.0, math.pi):
            a = encode_orientation(theta)
            assert a[0] + a[1] == 1.0
            assert a[4] + a[5] == 1.0


def test_encode_depth_inverts_decode():
    for d in (0.1, 1.0, 9.0, 100.0):
        assert decode_depth(encode_depth(d)) == pytest.approx(d, rel=1e-12)
    with pytest.raises(InputError):
        encode_depth(0.0)


class TestEncodePose:
    def kp(self, *pts):
        cfg = cfg128(num_joints=len(pts))
        ann = ObjectAnnotation(bbox=(8, 8, 24, 24), category=0, keypoints=list(pts))
        return encode_pose([ann], cfg), cfg

    def test_joint_at_center(self):
        ts, _ = self.kp((16.0, 16.0, True))
        assert ts.objects["joint_offsets"].tolist() == [[[0.0, 0.0]]]
        assert ts.objects["joint_mask"].tolist() == [[1.0]]

    def test_invisible_joint_masked(self):
        ts, _ = self.kp((16.0, 16.0, False))
        assert ts.objects["joint_mask"].tolist() == [[0.0]]
        assert np.all(ts.joint_heatmap.data == 0.0)

    def test_offset_arithmetic(self):
        # center cell (3, 3): joint (20, 12) gives offset (20/4 - 3, 12/4 - 3)
        cfg = cfg128(num_joints=1)
        ann = ObjectAnnotation(bbox=(10, 10, 20, 20), category=0, keypoints=[(20.0, 12.0, True)])
        ts = encode_pose([ann], cfg)
        assert ts.objects["cell"].tolist() == [[3, 3]]
        assert ts.objects["joint_offsets"].tolist() == [[[2.0, 0.0]]]

    def test_joint_heatmap_and_local_offset(self):
        ts, _ = self.kp((18.0, 13.0, True))
        jcx, jcy = 4, 3  # floor(18/4), floor(13/4)
        assert ts.joint_heatmap.data[0, jcy, jcx] == 1.0
        assert ts.joint_local_offset.data[0, jcy, jcx] == pytest.approx(0.5)
        assert ts.joint_local_offset.data[1, jcy, jcx] == pytest.approx(0.25)
        assert ts.joint_cells["joint"].tolist() == [0]
        assert ts.joint_cells["cell"].tolist() == [[jcx, jcy]]
        assert ts.joint_cells["offset"].tolist() == [[0.5, 0.25]]

    def test_joint_count_mismatch(self):
        ann = ObjectAnnotation(bbox=(0, 0, 8, 8), category=0, keypoints=[(1.0, 1.0, True)])
        with pytest.raises(InputError, match="joints"):
            encode_pose([ann], cfg128(num_joints=2))

    def test_keypoints_required(self):
        ann = ObjectAnnotation(bbox=(0, 0, 8, 8), category=0)
        with pytest.raises(InputError, match="keypoints"):
            encode_pose([ann], cfg128(num_joints=1))

    def test_out_of_grid_joint_masked(self):
        ts, _ = self.kp((200.0, 16.0, True))
        assert ts.objects["joint_mask"].tolist() == [[0.0]]
        assert ts.objects["joint_offsets"].tolist() == [[[0.0, 0.0]]]
        assert len(ts.joint_cells["joint"]) == 0


def splat_scene(seed, size=64, joints=3):
    """Two classes, same-class overlaps, a same-cell duplicate and a center outside the image."""
    r = np.random.Generator(np.random.Philox(key=seed))

    def keypoints():
        xy = r.uniform(-10, size + 10, size=(joints, 2))
        return [(float(x), float(y), bool(r.random() < 0.8)) for x, y in xy]

    anns = []
    for _ in range(int(r.integers(4, 14))):
        cx, cy = r.uniform(-4, size + 4, size=2)
        w, h = r.uniform(10, 30, size=2)
        anns.append(
            ObjectAnnotation(
                bbox=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                category=int(r.integers(0, 2)),
                keypoints=keypoints(),
            )
        )
    anns.append(ObjectAnnotation(bbox=(-12.0, 10.0, 4.0, 30.0), category=0, keypoints=keypoints()))
    anns.append(ObjectAnnotation(bbox=anns[0].bbox, category=anns[0].category, keypoints=keypoints()))
    return anns, EncoderConfig(input_w=size, input_h=size, num_classes=2, num_joints=joints)


@pytest.mark.parametrize("seed", range(8))
def test_heatmaps_equal_copy_per_splat_reference(monkeypatch, seed):
    anns, cfg = splat_scene(seed)
    det, pose = encode_detection(anns, cfg), encode_pose(anns, cfg)
    assert pose.clamped_centers >= 1 and pose.collision_count
    monkeypatch.setattr(targets, "_splat", reference_splats)
    ref_det, ref_pose = encode_detection(anns, cfg), encode_pose(anns, cfg)
    assert det.heatmap.data.tobytes() == ref_det.heatmap.data.tobytes()
    assert pose.heatmap.data.tobytes() == ref_pose.heatmap.data.tobytes()
    assert pose.joint_heatmap.data.tobytes() == ref_pose.joint_heatmap.data.tobytes()
    assert np.count_nonzero(pose.joint_heatmap.data) > 0


def test_encode_pose_splats_joints_in_one_pass(monkeypatch):
    """One _splat call for the object heatmap and one for every visible in-grid joint; none per joint."""
    anns, cfg = splat_scene(0)
    calls = []
    monkeypatch.setattr(targets, "_splat", lambda data, splats: calls.append(len(splats)) or _splat(data, splats))
    ts = encode_pose(anns, cfg)
    assert calls == [len(anns), len(ts.joint_cells["joint"])] and len(ts.joint_cells["joint"]) > 0


@st.composite
def splat_lists(draw):
    """Splats onto a grid of up to 3x12x12 cells: overlapping windows, centers off the grid, minimal sigmas."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    sigma = st.sampled_from([MIN_RADIUS / 3.0, 0.3, 1.0]) | st.floats(MIN_RADIUS / 3.0, 6.0)
    splat = st.tuples(st.integers(0, c - 1), st.floats(-8.0, w + 8.0), st.floats(-8.0, h + 8.0), sigma)
    splats = draw(st.lists(splat, max_size=12))
    if splats and draw(st.booleans()):
        splats.append(splats[0])  # the same window twice
    return (c, h, w), splats


class TestBatchedSplat:
    @given(case=splat_lists(), dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_splat_in_order(self, case, dtype):
        shape, splats = case
        got, want = np.zeros(shape, dtype), np.zeros(shape, dtype)
        _splat(got, splats)
        reference_splats(want, splats)
        assert got.tobytes() == want.tobytes()
        # render_gaussian is the one-splat call of the same core
        one = DenseGrid(np.zeros(shape, dtype))
        for channel, px, py, sigma in splats:
            assert render_gaussian(one, (px, py), channel, sigma) is one
        assert one.data.tobytes() == want.tobytes()

    @given(
        size=st.sampled_from([4, 8, 24, 48]),
        boxes=st.lists(
            st.tuples(st.floats(-6.0, 54.0), st.floats(-6.0, 54.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
            max_size=10,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_heatmap_equals_one_reference_splat_per_object(self, size, boxes):
        cfg = EncoderConfig(input_w=size, input_h=size, num_classes=2)
        anns = [
            ObjectAnnotation(bbox=(x, y, x + bw, y + bh), category=i % 2)
            for i, (x, y, bw, bh) in enumerate(boxes)
            if x <= size and y <= size and x + bw >= 0 and y + bh >= 0
        ]
        got = encode_detection(anns, cfg).heatmap.data
        want = DenseGrid.zeros(cfg.grid_w, cfg.grid_h, 2)
        for ann in anns:
            cx, cy = targets._center_cell(ann, cfg.output_stride, cfg.grid_w, cfg.grid_h)[:2]
            sigma = reference_gaussian_sigma(max(ann.width / 4, 1e-12), max(ann.height / 4, 1e-12), cfg.min_overlap)
            want = reference_splat(want, (float(cx), float(cy)), ann.category, sigma)
        assert got.tobytes() == want.data.tobytes()


@st.composite
def oracle_scenes(draw):
    """Annotations and a config for the encoder-vs-oracle check.

    Boxes are drawn on small grids at strides 1, 2 and 4: zero-width and
    zero-height ones, ones whose center lies on the right or bottom edge or
    left of or above the image (clamped centers), and copies of earlier
    boxes in the same class (three or more objects on one cell) and in
    another class. 3D fields are on some objects only; joints are visible
    or not, on the grid or off it.
    """
    stride = draw(st.sampled_from([1, 2, 4]))
    gw, gh = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    w, h = gw * stride, gh * stride
    cfg = EncoderConfig(
        w, h, draw(st.integers(1, 3)), stride, draw(st.integers(1, 3)),
        min_overlap=draw(st.sampled_from([0.7]) | st.floats(0.05, 0.95)),
        size_units=draw(st.sampled_from(["pixels", "cells"])),
    )

    def side(extent):
        kind = draw(st.sampled_from(["any", "zero", "edge", "before"]))
        if kind == "edge":  # a zero-size box on the far edge: its center cell is one past the grid
            return float(extent), float(extent)
        if kind == "before":  # a box reaching into the image from before it, center outside
            return draw(st.floats(-3.0 * extent, -1.0)), draw(st.floats(0.0, 0.5))
        lo = draw(st.floats(-float(extent), float(extent)))
        size = 0.0 if kind == "zero" else draw(st.floats(0.0, 2.0 * extent))
        return lo, max(lo + size, 0.0)

    def keypoints():
        point = st.tuples(st.floats(-w, 2.0 * w), st.floats(-h, 2.0 * h), st.booleans())
        return draw(st.lists(point, min_size=cfg.num_joints, max_size=cfg.num_joints))

    anns = []
    for _ in range(draw(st.integers(0, 10))):
        if anns and draw(st.booleans()):
            bbox = draw(st.sampled_from(anns)).bbox
            category = draw(st.sampled_from([anns[0].category, draw(st.integers(0, cfg.num_classes - 1))]))
        else:
            (x1, x2), (y1, y2) = side(w), side(h)
            bbox, category = (x1, y1, x2, y2), draw(st.integers(0, cfg.num_classes - 1))
        anns.append(ObjectAnnotation(
            bbox=bbox, category=category, keypoints=keypoints(),
            depth=draw(st.none() | st.floats(0.1, 100.0)),
            dims3d=draw(st.none() | st.tuples(*[st.floats(0.1, 10.0)] * 3)),
            yaw=draw(st.none() | st.floats(-math.pi, math.pi, exclude_min=True)),
        ))
    return anns, cfg


@given(scene=oracle_scenes())
@settings(max_examples=400, deadline=None)
def test_array_encoders_equal_per_object_loop(scene):
    anns, cfg = scene
    assert_same_targets(encode_detection(anns, cfg), reference_encode_detection(anns, cfg))
    assert_same_targets(encode_pose(anns, cfg), reference_encode_pose(anns, cfg))


@given(
    boxes=st.lists(st.tuples(st.floats(1e-12, 1e6) | st.floats(1e-300), st.floats(1e-12, 1e6) | st.floats(1e-300)),
                   max_size=20),
    overlap=st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_gaussian_sigma_over_arrays_equals_scalar_closed_form(boxes, overlap):
    w, h = np.array(boxes, dtype=np.float64).reshape(-1, 2).T
    want = np.array([reference_gaussian_sigma(a, b, overlap) for a, b in boxes], dtype=np.float64)
    assert gaussian_sigma(w, h, overlap).tobytes() == want.tobytes()
