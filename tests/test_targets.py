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
    render_gaussian,
    targets,
)
from cpt.decode import decode_depth
from cpt.grid import MIN_RADIUS, _splat

from oracles import reference_splat, reference_splats


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
        obj = ts.objects[0]
        assert obj.cell == (4, 4)
        assert obj.offset == (0.0, 0.0)
        assert obj.size == (16.0, 16.0)  # default units are raw pixels

    def test_cells_units(self):
        ts = encode_detection([ObjectAnnotation(bbox=(8, 8, 24, 24), category=0)], cfg128(size_units="cells"))
        assert ts.objects[0].size == (4.0, 4.0)

    def test_subcell_offset(self):
        ts = encode_detection([ObjectAnnotation(bbox=(10, 10, 20, 20), category=0)], cfg128())
        obj = ts.objects[0]
        assert obj.cell == (3, 3)
        assert obj.offset == (0.75, 0.75)

    def test_heatmap_is_one_at_center_cell(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=0),
            ObjectAnnotation(bbox=(40, 50, 90, 110), category=2),
        ]
        ts = encode_detection(anns, cfg128())
        for obj in ts.objects:
            assert ts.heatmap.data[obj.category, obj.cell[1], obj.cell[0]] == 1.0

    def test_offsets_in_unit_interval(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        anns = []
        for _ in range(40):
            cx, cy = rng.uniform(6, 122, size=2)
            hw, hh = rng.uniform(1, 5, size=2)
            anns.append(ObjectAnnotation(bbox=(cx - hw, cy - hh, cx + hw, cy + hh), category=int(rng.integers(3))))
        ts = encode_detection(anns, cfg128())
        for obj in ts.objects:
            assert 0.0 <= obj.offset[0] < 1.0
            assert 0.0 <= obj.offset[1] < 1.0

    def test_same_class_collision_recorded(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=1),
            ObjectAnnotation(bbox=(12, 12, 18, 18), category=1),
        ]
        ts = encode_detection(anns, cfg128())
        assert ts.collision_count == 1
        c = ts.collisions[0]
        assert (c.first, c.second) == (0, 1)
        assert c.cell == (3, 3)
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
        assert encode_detection(anns, cfg128()).collision_count == 3

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
        assert ts.objects[0].cell == (31, 31)
        assert ts.clamped_centers == 1

    def test_category_out_of_range(self):
        with pytest.raises(InputError, match="category"):
            encode_detection([ObjectAnnotation(bbox=(0, 0, 4, 4), category=7)], cfg128())

    def test_3d_fields_carried(self):
        ann = ObjectAnnotation(bbox=(8, 8, 24, 24), category=0, depth=12.5, dims3d=(1.5, 1.6, 3.9), yaw=0.4)
        ts = encode_detection([ann], cfg128())
        obj = ts.objects[0]
        assert obj.depth == 12.5
        assert obj.dims3d == (1.5, 1.6, 3.9)
        assert obj.orientation is not None and obj.orientation.shape == (8,)

    def test_center_mask_marks_cells(self):
        anns = [
            ObjectAnnotation(bbox=(10, 10, 20, 20), category=0),
            ObjectAnnotation(bbox=(40, 40, 60, 60), category=1),
        ]
        ts = encode_detection(anns, cfg128())
        assert ts.center_mask.data.sum() == 2.0


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
        obj = ts.objects[0]
        assert tuple(obj.joint_offsets[0]) == (0.0, 0.0)
        assert obj.joint_mask[0] == 1.0

    def test_invisible_joint_masked(self):
        ts, _ = self.kp((16.0, 16.0, False))
        assert ts.objects[0].joint_mask[0] == 0.0
        assert np.all(ts.joint_heatmap.data == 0.0)

    def test_offset_arithmetic(self):
        # center cell (3, 3): joint (20, 12) gives offset (20/4 - 3, 12/4 - 3)
        cfg = cfg128(num_joints=1)
        ann = ObjectAnnotation(bbox=(10, 10, 20, 20), category=0, keypoints=[(20.0, 12.0, True)])
        ts = encode_pose([ann], cfg)
        assert ts.objects[0].cell == (3, 3)
        assert tuple(ts.objects[0].joint_offsets[0]) == (2.0, 0.0)

    def test_joint_heatmap_and_local_offset(self):
        ts, _ = self.kp((18.0, 13.0, True))
        jcx, jcy = 4, 3  # floor(18/4), floor(13/4)
        assert ts.joint_heatmap.data[0, jcy, jcx] == 1.0
        assert ts.joint_local_offset.data[0, jcy, jcx] == pytest.approx(0.5)
        assert ts.joint_local_offset.data[1, jcy, jcx] == pytest.approx(0.25)
        assert len(ts.joint_cells) == 1
        assert ts.joint_cells[0].joint == 0

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
        assert ts.objects[0].joint_mask[0] == 0.0


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
    assert pose.clamped_centers >= 1 and pose.collisions
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
    assert calls == [len(anns), len(ts.joint_cells)] and len(ts.joint_cells) > 0


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
            want = reference_splat(want, (float(cx), float(cy)), ann.category, targets._object_sigma(ann, cfg))
        assert got.tobytes() == want.data.tobytes()
