"""Decoding: boxes from peaks, 3D attribute codecs, pose snapping."""
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import (
    DenseGrid,
    EncoderConfig,
    InputError,
    ObjectAnnotation,
    decode_boxes,
    decode_depth,
    decode_orientation,
    encode_detection,
    encode_orientation,
    encode_pose,
    to_input_space,
)
import cpt.decode
from cpt.decode import REGRESSED, SNAPPED, Detection

from oracles import reference_decode_boxes, reference_decode_pose


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def random_annotations(seed, count, cfg, num_classes):
    """Boxes with globally distinct center cells, strictly inside the image."""
    r = rng(seed)
    gw, gh, stride = cfg.grid_w, cfg.grid_h, cfg.output_stride
    cells = r.choice(gw * gh, size=count, replace=False)
    anns = []
    for flat in cells:
        cx, cy = int(flat % gw), int(flat // gw)
        px = (cx + r.uniform(0.05, 0.95)) * stride
        py = (cy + r.uniform(0.05, 0.95)) * stride
        hw = r.uniform(0.3, 0.98) * min(px, cfg.input_w - px)
        hh = r.uniform(0.3, 0.98) * min(py, cfg.input_h - py)
        anns.append(ObjectAnnotation(bbox=(px - hw, py - hh, px + hw, py + hh), category=int(r.integers(num_classes))))
    return anns


class TestDecodeBoxes:
    def test_display_formula(self):
        hm = DenseGrid.zeros(16, 16)
        hm.data[0, 8, 10] = 1.0
        off = DenseGrid.zeros(16, 16, 2)
        off.data[:, 8, 10] = (0.3, 0.7)
        size = DenseGrid.zeros(16, 16, 2)
        size.data[:, 8, 10] = (4.0, 6.0)
        dets = [d for d in decode_boxes(hm, off, size, size_units="cells") if d.score > 0]
        assert len(dets) == 1
        assert dets[0].box == pytest.approx((8.3, 5.7, 12.3, 11.7))
        assert dets[0].center == pytest.approx((10.3, 8.7))
        assert dets[0].score == 1.0

    def test_pixel_units_divided_by_stride(self):
        hm = DenseGrid.zeros(16, 16)
        hm.data[0, 8, 10] = 1.0
        off = DenseGrid.zeros(16, 16, 2)
        size = DenseGrid.zeros(16, 16, 2)
        size.data[:, 8, 10] = (16.0, 24.0)
        det = decode_boxes(hm, off, size, size_units="pixels", stride=4)[0]
        assert det.box == pytest.approx((8.0, 5.0, 12.0, 11.0))

    def test_degenerate_box_kept(self):
        hm = DenseGrid.zeros(8, 8)
        hm.data[0, 3, 3] = 0.9
        dets = decode_boxes(hm, DenseGrid.zeros(8, 8, 2), DenseGrid.zeros(8, 8, 2), size_units="cells")
        best = dets[0]
        assert best.box == (3.0, 3.0, 3.0, 3.0)

    def test_sorted_by_score(self):
        hm = DenseGrid.zeros(12, 12, 2)
        hm.data[0, 2, 2] = 0.5
        hm.data[1, 9, 9] = 0.8
        dets = [d for d in decode_boxes(hm, DenseGrid.zeros(12, 12, 2), DenseGrid.zeros(12, 12, 2), size_units="cells") if d.score > 0]
        assert [d.score for d in dets] == [0.8, 0.5]

    def test_channel_count_mismatch(self):
        with pytest.raises(InputError):
            decode_boxes(DenseGrid.zeros(4, 4), DenseGrid.zeros(4, 4, 3), DenseGrid.zeros(4, 4, 2))

    @pytest.mark.parametrize("units", ["cells", "pixels"])
    def test_roundtrip_20_objects(self, units):
        cfg = EncoderConfig(input_w=256, input_h=256, num_classes=4, size_units=units)
        anns = random_annotations(seed=77, count=20, cfg=cfg, num_classes=4)
        ts = encode_detection(anns, cfg)
        assert ts.collision_count == 0
        dets = [d for d in decode_boxes(ts.heatmap, ts.offset, ts.size, size_units=units, stride=4) if d.score > 0]
        assert len(dets) == 20
        by_cell = {obj.cell: anns[obj.index] for obj in ts.objects}
        for det in dets:
            ann = by_cell[(int(det.center[0]), int(det.center[1]))]
            expected = tuple(v / 4.0 for v in ann.bbox)
            assert det.box == pytest.approx(expected, abs=1e-6)
            assert det.score == 1.0
            assert det.category == ann.category

    def test_3d_maps_decoded_at_peaks(self):
        hm = DenseGrid.zeros(8, 8)
        hm.data[0, 4, 4] = 1.0
        off = DenseGrid.zeros(8, 8, 2)
        size = DenseGrid.zeros(8, 8, 2)
        depth = DenseGrid.zeros(8, 8, 1)
        depth.data[0, 4, 4] = -math.log(9.0)
        dims = DenseGrid.zeros(8, 8, 3)
        dims.data[:, 4, 4] = (1.5, 1.6, 3.9)
        orient = DenseGrid.zeros(8, 8, 8)
        orient.data[:, 4, 4] = encode_orientation(0.9)
        det = decode_boxes(hm, off, size, size_units="cells", depth_map=depth, dims_map=dims, orientation_map=orient)[0]
        assert det.depth == pytest.approx(9.0, rel=1e-12)
        assert det.dims3d == pytest.approx((1.5, 1.6, 3.9))
        assert det.yaw == pytest.approx(0.9, abs=1e-12)


class TestToInputSpace:
    def test_scales_box(self):
        det = Detection(category=0, score=1.0, box=(1, 1, 2, 2), center=(1.5, 1.5))
        out = to_input_space(det, 4)
        assert out.box == (4, 4, 8, 8)
        assert out.center == (6.0, 6.0)
        assert out.units == "pixels"

    def test_stride_one_identity_geometry(self):
        det = Detection(category=2, score=0.5, box=(1, 2, 3, 4), center=(2.0, 3.0))
        out = to_input_space(det, 1)
        assert out.box == (1, 2, 3, 4)

    def test_inverse_restores_coordinates(self):
        r = rng(5)
        box = tuple(sorted(r.uniform(0, 30, 2))) + tuple(sorted(r.uniform(0, 30, 2)))
        box = (box[0], box[2], box[1], box[3])
        det = Detection(category=1, score=0.7, box=box, center=(box[0], box[1]))
        out = to_input_space(det, 8)
        back = tuple(v / 8.0 for v in out.box)
        assert back == pytest.approx(det.box, abs=1e-12)

    def test_non_geometric_fields_unchanged(self):
        det = Detection(category=3, score=0.4, box=(0, 0, 1, 1), center=(0.5, 0.5), depth=7.0, yaw=1.1)
        out = to_input_space(det, 4)
        assert (out.category, out.score, out.depth, out.yaw) == (3, 0.4, 7.0, 1.1)


class TestDepthCodec:
    def test_spot_values(self):
        assert decode_depth(0.0) == pytest.approx(1.0, abs=1e-12)
        assert decode_depth(-math.log(9.0)) == pytest.approx(9.0, rel=1e-12)
        assert decode_depth(math.log(9.0)) == pytest.approx(1.0 / 0.9 - 1.0, rel=1e-9)

    def test_strictly_decreasing_positive(self):
        xs = np.linspace(-10, 10, 101)
        ys = decode_depth(xs)
        assert np.all(ys > 0)
        assert np.all(np.diff(ys) < 0)

    def test_matches_sigmoid_form(self):
        for x in (-3.0, -0.5, 0.0, 2.0):
            sigmoid = 1.0 / (1.0 + math.exp(-x))
            assert decode_depth(x) == pytest.approx(1.0 / sigmoid - 1.0, rel=1e-12)


class TestOrientationCodec:
    def test_roundtrip_bin_midpoints(self):
        for theta in (math.pi / 2, -math.pi / 2):
            assert decode_orientation(encode_orientation(theta)) == pytest.approx(theta, abs=1e-12)

    def test_tie_picks_bin_one(self):
        alpha = np.zeros(8)
        alpha[2:4] = (math.sin(0.1 + math.pi / 2), math.cos(0.1 + math.pi / 2))
        alpha[6:8] = (math.sin(2.0 - math.pi / 2), math.cos(2.0 - math.pi / 2))
        # equal classification margins: bin 1 wins
        assert decode_orientation(alpha) == pytest.approx(0.1, abs=1e-12)

    def test_overlap_angles_decode_from_either_bin(self):
        for theta in np.linspace(-math.pi / 6 + 1e-6, math.pi / 6 - 1e-6, 25):
            alpha = encode_orientation(float(theta))
            forced1, forced2 = alpha.copy(), alpha.copy()
            forced1[0:2] = (0.0, 10.0)
            forced1[4:6] = (10.0, 0.0)
            forced2[0:2] = (10.0, 0.0)
            forced2[4:6] = (0.0, 10.0)
            assert decode_orientation(forced1) == pytest.approx(theta, abs=1e-9)
            assert decode_orientation(forced2) == pytest.approx(theta, abs=1e-9)

    def test_wrong_shape(self):
        with pytest.raises(InputError):
            decode_orientation(np.zeros(7))


def make_pose_scene(seed, num_people, num_joints, cfg):
    """People with joints strictly inside their boxes; joint cells kept distinct."""
    r = rng(seed)
    gw, gh, stride = cfg.grid_w, cfg.grid_h, cfg.output_stride
    used_cells: set[tuple[int, int]] = set()
    anns = []
    for _ in range(num_people):
        while True:
            cx = r.uniform(0.25, 0.75) * cfg.input_w
            cy = r.uniform(0.25, 0.75) * cfg.input_h
            cell = (int(cx // stride), int(cy // stride))
            if cell not in used_cells:
                break
        hw = r.uniform(0.6, 0.95) * min(cx, cfg.input_w - cx)
        hh = r.uniform(0.6, 0.95) * min(cy, cfg.input_h - cy)
        joints = []
        for _ in range(num_joints):
            while True:
                jx = cx + r.uniform(-0.9, 0.9) * hw
                jy = cy + r.uniform(-0.9, 0.9) * hh
                jcell = (int(jx // stride), int(jy // stride))
                if jcell not in used_cells:
                    break
            used_cells.add(jcell)
            joints.append((float(jx), float(jy), True))
        used_cells.add((int(cx // stride), int(cy // stride)))
        anns.append(ObjectAnnotation(bbox=(cx - hw, cy - hh, cx + hw, cy + hh), category=0, keypoints=joints))
    return anns


class TestDecodePose:
    def encode_scene(self, seed, num_people, num_joints=3):
        cfg = EncoderConfig(input_w=128, input_h=128, num_classes=1, num_joints=num_joints)
        anns = make_pose_scene(seed, num_people, num_joints, cfg)
        ts = encode_pose(anns, cfg)
        return anns, ts, cfg

    def decode(self, ts, **kw):
        return decode_boxes(
            ts.heatmap,
            ts.offset,
            ts.size,
            joints_map=self.joints_grid(ts),
            joint_heatmap=ts.joint_heatmap,
            joint_local_offset=ts.joint_local_offset,
            size_units="pixels",
            stride=4,
            **kw,
        )

    @staticmethod
    def joints_grid(ts):
        k = ts.joint_heatmap.channels
        g = DenseGrid.zeros(ts.heatmap.width, ts.heatmap.height, 2 * k)
        for obj in ts.objects:
            cx, cy = obj.cell
            for j in range(k):
                g.data[2 * j, cy, cx] = obj.joint_offsets[j][0]
                g.data[2 * j + 1, cy, cx] = obj.joint_offsets[j][1]
        return g

    def test_single_person_snaps_exactly(self):
        anns, ts, cfg = self.encode_scene(seed=1, num_people=1)
        dets = [d for d in self.decode(ts) if d.score > 0]
        assert len(dets) == 1
        for j, (jx, jy, _) in enumerate(anns[0].keypoints):
            joint = dets[0].joints[j]
            assert joint.source == SNAPPED
            assert (joint.x, joint.y) == pytest.approx((jx / 4, jy / 4), abs=1e-9)

    def test_empty_candidates_fall_back_to_regression(self):
        anns, ts, cfg = self.encode_scene(seed=2, num_people=1)
        blank = DenseGrid.zeros(ts.joint_heatmap.width, ts.joint_heatmap.height, ts.joint_heatmap.channels)
        dets = [
            d
            for d in decode_boxes(
                ts.heatmap, ts.offset, ts.size, joints_map=self.joints_grid(ts), joint_heatmap=blank,
                joint_local_offset=ts.joint_local_offset,
                size_units="pixels", stride=4,
            )
            if d.score > 0
        ]
        obj = ts.objects[0]
        for j, joint in enumerate(dets[0].joints):
            assert joint.source == REGRESSED
            expected = (obj.cell[0] + obj.joint_offsets[j][0], obj.cell[1] + obj.joint_offsets[j][1])
            assert (joint.x, joint.y) == pytest.approx(expected, abs=1e-9)

    def test_snapped_joints_stay_inside_box(self):
        for seed in range(5):
            _, ts, _ = self.encode_scene(seed=10 + seed, num_people=2)
            for det in self.decode(ts):
                if det.score == 0:
                    continue
                x1, y1, x2, y2 = det.box
                for joint in det.joints:
                    if joint.source == SNAPPED:
                        assert x1 - 1e-9 <= joint.x <= x2 + 1e-9
                        assert y1 - 1e-9 <= joint.y <= y2 + 1e-9

    def test_two_person_assignment_matches_bruteforce(self):
        from cpt.grid import extract_peaks

        for seed in range(50):
            _, ts, cfg = self.encode_scene(seed=100 + seed, num_people=2)
            dets = [d for d in self.decode(ts) if d.score > 0]
            assert len(dets) == 2

            k = ts.joint_heatmap.channels
            peaks = extract_peaks(ts.joint_heatmap, 100, per_channel=True)
            refined = [[] for _ in range(k)]
            for p in peaks:
                if p.score > 0.1:
                    refined[p.channel].append(
                        (
                            p.x + ts.joint_local_offset.data[0, p.y, p.x],
                            p.y + ts.joint_local_offset.data[1, p.y, p.x],
                        )
                    )
            centers = {obj.cell: obj for obj in ts.objects}
            for det in dets:
                obj = centers[(int(det.center[0]), int(det.center[1]))]
                x1, y1, x2, y2 = det.box
                for j, joint in enumerate(det.joints):
                    lx = obj.cell[0] + obj.joint_offsets[j][0]
                    ly = obj.cell[1] + obj.joint_offsets[j][1]
                    inside = [c for c in refined[j] if x1 <= c[0] <= x2 and y1 <= c[1] <= y2]
                    if not inside:
                        assert joint.source == REGRESSED
                        assert (joint.x, joint.y) == pytest.approx((lx, ly), abs=1e-9)
                    else:
                        best = min(inside, key=lambda c: (c[0] - lx) ** 2 + (c[1] - ly) ** 2)
                        assert joint.source == SNAPPED
                        assert (joint.x, joint.y) == pytest.approx(best, abs=1e-12)

    def test_threshold_excludes_weak_candidates(self):
        _, ts, cfg = self.encode_scene(seed=3, num_people=1)
        dets = self.decode(ts, joint_thresh=1.5)  # nothing clears an impossible threshold
        for det in dets:
            assert all(j.source == REGRESSED for j in det.joints)

    @pytest.mark.parametrize("thresh", [math.nan, math.inf, -math.inf])
    def test_non_finite_joint_thresh_rejected(self, thresh):
        _, ts, _ = self.encode_scene(seed=3, num_people=1)
        with pytest.raises(InputError, match="joint_thresh must be finite"):
            self.decode(ts, joint_thresh=thresh)

    def test_requires_person_channel(self):
        with pytest.raises(InputError):
            decode_boxes(
                DenseGrid.zeros(4, 4, 2),
                DenseGrid.zeros(4, 4, 2),
                DenseGrid.zeros(4, 4, 2),
                joints_map=DenseGrid.zeros(4, 4, 2),
                joint_heatmap=DenseGrid.zeros(4, 4, 1),
                joint_local_offset=DenseGrid.zeros(4, 4, 2),
            )

    CHANNELS = dict(heatmap=1, offset_map=2, size_map=2, joints_map=4, joint_heatmap=2, joint_local_offset=2)

    # (argument, channels, side) of one bad map among 8x8 maps with 2 joint types, and what the error names
    @pytest.mark.parametrize(
        "arg, channels, side, names",
        [
            ("heatmap", 2, 8, "1-channel person heatmap"),
            ("heatmap", 1, 16, "heatmap is 16x16"),
            ("offset_map", 3, 8, "offset map must have 2 channels"),
            ("offset_map", 2, 16, "offset map is 16x16"),
            ("size_map", 1, 8, "size map must have 2 channels"),
            ("size_map", 2, 9, "size map is 9x9"),
            ("joints_map", 5, 8, "joint regression map must have 4 channels"),
            ("joints_map", 4, 16, "joint regression map is 16x16"),
            ("joint_heatmap", 3, 8, "joint heatmap must have 2 channels"),
            ("joint_heatmap", 2, 16, "joint heatmap is 16x16"),
            ("joint_local_offset", 3, 8, "joint local offset map must have 2 channels"),
            ("joint_local_offset", 2, 16, "joint local offset map is 16x16"),
        ],
    )
    def test_bad_map_shape_names_the_map(self, arg, channels, side, names):
        grids = {name: DenseGrid.zeros(8, 8, c) for name, c in self.CHANNELS.items()}
        grids[arg] = DenseGrid.zeros(side, side, channels)
        with pytest.raises(InputError, match=names):
            decode_boxes(**grids)

    @pytest.mark.parametrize(
        "left_out, name",
        [("joints_map", "joint regression map"), ("joint_heatmap", "joint heatmap"),
         ("joint_local_offset", "joint local offset map")],
    )
    def test_missing_joint_map_named(self, left_out, name):
        grids = {arg: DenseGrid.zeros(8, 8, c) for arg, c in self.CHANNELS.items() if arg != left_out}
        with pytest.raises(InputError, match=f"pose decoding requires the {name} with the other joint maps"):
            decode_boxes(**grids)

    def test_bad_size_units_rejected(self):
        grids = {name: DenseGrid.zeros(8, 8, c) for name, c in self.CHANNELS.items()}
        with pytest.raises(InputError, match="size_units must be one of"):
            decode_boxes(**grids, size_units="bogus")


# values a network can put at a peak cell that scalar and elementwise arithmetic could treat differently
MAP_SPECIALS = [math.nan, 0.0, -0.0, -2.5, 1e30, -1e30, 1e300, math.inf, -math.inf]
# depth decodes with math.exp(-raw), which overflows for large finite negative raw values
DEPTH_SPECIALS = [math.nan, 0.0, -0.0, 2.5, -2.5, math.inf, -math.inf]


def _bits(value):
    """A detection field with every float replaced by its IEEE bytes, so that -0.0 and NaN compare exactly."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _fields(det: Detection):
    return tuple(_bits(getattr(det, f)) for f in Detection.__dataclass_fields__)


@st.composite
def decode_inputs(draw):
    """Heatmaps with tied scores and regression maps holding special values, as float32 or float64."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    r = rng(draw(st.integers(0, 2**32 - 1)))

    def grid(channels, specials):
        data = r.normal(0.0, 3.0, (channels, h, w))
        spots = r.random(data.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        data[spots] = r.choice(specials, size=int(spots.sum()))
        with np.errstate(over="ignore"):
            return DenseGrid(data.astype(dtype))

    heat = r.choice([0.0, 0.25, 0.5, 1.0], size=(c, h, w)) if draw(st.booleans()) else r.random((c, h, w))
    maps = dict(heatmap=DenseGrid(heat.astype(dtype)), offset_map=grid(2, MAP_SPECIALS), size_map=grid(2, MAP_SPECIALS))
    if draw(st.booleans()):
        maps.update(
            depth_map=grid(1, DEPTH_SPECIALS), dims_map=grid(3, MAP_SPECIALS), orientation_map=grid(8, MAP_SPECIALS)
        )
    options = dict(
        top_k=draw(st.integers(1, c * h * w + 3)),
        size_units=draw(st.sampled_from(["cells", "pixels"])),
        stride=draw(st.integers(1, 8)),
        per_class_top_k=draw(st.booleans()),
    )
    return maps, options


class TestDecodeGather:
    @given(inputs=decode_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_peak_reference(self, inputs):
        maps, options = inputs
        with np.errstate(invalid="ignore"):  # decode_orientation subtracts infinite logits
            got = decode_boxes(**maps, **options)
            want = reference_decode_boxes(**maps, **options)
        assert [_fields(d) for d in got] == [_fields(d) for d in want]

    def test_decoders_find_peaks_through_the_module_name(self, monkeypatch):
        """The benchmark times peak extraction by wrapping cpt.decode.extract_peaks; decode_boxes must call it there."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].channels)
            return cpt.grid.extract_peaks(*args, **kwargs)

        monkeypatch.setattr(cpt.decode, "extract_peaks", counted)
        ts = TestDecodePose().encode_scene(seed=1, num_people=2)[1]
        assert decode_boxes(ts.heatmap, ts.offset, ts.size) and calls == [1]
        assert TestDecodePose().decode(ts) and calls == [1, 1, 3]


@st.composite
def pose_inputs(draw):
    """Pose maps on grids up to 12x12: tied scores, candidates at equal distances, specials in the joint maps.

    Offsets and joint regressions on a half-cell lattice put many candidates
    at equal distances from a regressed joint.
    """
    h, w, k = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    r = rng(draw(st.integers(0, 2**32 - 1)))

    def grid(channels, values, specials=()):
        data = r.choice(values, size=(channels, h, w))
        if specials:
            spots = r.random(data.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
            data[spots] = r.choice(specials, size=int(spots.sum()))
        with np.errstate(over="ignore"):
            return DenseGrid(data.astype(dtype))

    def scores(channels):
        return grid(channels, [0.0, 0.05, 0.25, 0.5, 1.0]) if draw(st.booleans()) else grid(channels, r.random(64))

    lattice = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    maps = dict(
        heatmap=scores(1),
        offset_map=grid(2, [0.0, 0.5, -0.5], MAP_SPECIALS),
        size_map=grid(2, [0.0, 1.0, 4.0, 8.0, 24.0], MAP_SPECIALS),
        joints_map=grid(2 * k, lattice, MAP_SPECIALS),
        joint_heatmap=scores(k),
        joint_local_offset=grid(2, lattice, MAP_SPECIALS),
    )
    options = dict(
        top_k=draw(st.integers(1, h * w + 3)),
        joint_thresh=draw(st.sampled_from([-1.0, 0.0, 0.1, 0.3])),
        size_units=draw(st.sampled_from(["cells", "pixels"])),
        stride=draw(st.integers(1, 4)),
    )
    return maps, options


class TestPoseSnapping:
    @given(inputs=pose_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_reference(self, inputs):
        maps, options = inputs
        got = decode_boxes(**maps, **options)
        want = reference_decode_pose(**maps, **options)
        assert [_fields(d) for d in got] == [_fields(d) for d in want]

    @given(inputs=pose_inputs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_3d_and_joint_maps_in_one_call(self, inputs, seed):
        """Each record of one call with 3D and joint maps is the 3D-only record plus the pose-only record's joints."""
        maps, options = inputs
        _, h, w = maps["heatmap"].data.shape
        r = rng(seed)

        def grid(channels, specials):
            data = r.normal(0.0, 3.0, (channels, h, w))
            spots = r.random(data.shape) < 0.3
            data[spots] = r.choice(specials, size=int(spots.sum()))
            with np.errstate(over="ignore"):
                return DenseGrid(data.astype(maps["heatmap"].data.dtype))

        three_d = dict(depth_map=grid(1, DEPTH_SPECIALS), dims_map=grid(3, MAP_SPECIALS),
                       orientation_map=grid(8, MAP_SPECIALS))
        box_maps = {name: maps[name] for name in ("heatmap", "offset_map", "size_map")}
        box_options = {name: v for name, v in options.items() if name != "joint_thresh"}
        with np.errstate(invalid="ignore"):  # decode_orientation subtracts infinite logits
            both = decode_boxes(**maps, **three_d, **options)
            only_3d = decode_boxes(**box_maps, **three_d, **box_options)
        only_pose = decode_boxes(**maps, **options)
        assert len(both) == len(only_3d) == len(only_pose)
        want = [replace(d, joints=p.joints) for d, p in zip(only_3d, only_pose)]
        assert all(d.joints is not None and d.depth is not None for d in both)
        assert [_fields(d) for d in both] == [_fields(d) for d in want]
