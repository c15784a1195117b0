"""Box arithmetic: IoU, greedy NMS against a reference, anchor grids."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import AnchorConfig, InputError, anchor_grid, greedy_nms, iou_matrix, resize_shorter
from cpt.decode import Detection

from oracles import naive_iou, reference_nms


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def boxes_strategy():
    coord = st.floats(0, 100, allow_nan=False)
    return st.tuples(coord, coord, coord, coord).map(
        lambda t: (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


def iou(a, b) -> float:
    return float(iou_matrix(a, b)[0, 0])


def grid_boxes_strategy():
    """Lists of boxes on a coarse grid, so zero-area, touching, disjoint and nested pairs are common.

    The grid is scaled to tiny and to huge extents, where the areas overflow,
    and may be mirrored through the origin, which puts -0.0 corners where
    other boxes have 0.0.
    """
    coord = st.integers(0, 6).map(float)
    box = st.tuples(coord, coord, coord, coord).map(
        lambda t: (min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )

    def place(boxes, k, mirror):
        if mirror:
            return [(-x2 * k, -y2 * k, -x1 * k, -y1 * k) for x1, y1, x2, y2 in boxes]
        return [(x1 * k, y1 * k, x2 * k, y2 * k) for x1, y1, x2, y2 in boxes]

    scale = st.sampled_from([1.0, 0.1, 1e-300, 1e150, 1e200])
    return st.builds(place, st.lists(box, min_size=1, max_size=6), scale, st.booleans())


class TestIoU:
    def test_identical(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3, rel=1e-15)

    def test_degenerate_union(self):
        assert iou((3, 3, 3, 3), (3, 3, 3, 3)) == 0.0

    def test_overflowed_areas_give_zero(self):
        with np.errstate(all="raise"):
            assert iou((0, 0, 1e200, 1e200), (0, 0, 2e200, 2e200)) == 0.0

    @given(boxes_strategy(), boxes_strategy())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert v == naive_iou(a, b)

    @given(grid_boxes_strategy(), grid_boxes_strategy())
    @settings(max_examples=300, deadline=None)
    def test_matrix_bit_identical_to_naive(self, a, b):
        m = iou_matrix(a, b)
        want = np.array([[naive_iou(x, y) for y in b] for x in a], dtype=np.float64)
        assert m.tobytes() == want.tobytes()

    def test_matrix_matches_naive(self):
        r = rng(4)
        a = np.sort(r.uniform(0, 50, size=(12, 2, 2)), axis=1).reshape(12, 4)[:, [0, 2, 1, 3]]
        b = np.sort(r.uniform(0, 50, size=(9, 2, 2)), axis=1).reshape(9, 4)[:, [0, 2, 1, 3]]
        m = iou_matrix(a, b)
        for i in range(12):
            for j in range(9):
                assert m[i, j] == naive_iou(tuple(a[i]), tuple(b[j]))


def det(category, score, box):
    return Detection(category=category, score=score, box=box, center=(0.0, 0.0))


@st.composite
def crowded_detections(draw):
    """(category, score, box) triples with tied scores, duplicate boxes and mixed classes, huge ids among them."""
    coord = st.integers(0, 12).map(float) | st.floats(0, 12)
    box = st.tuples(coord, coord, st.floats(0, 8), st.floats(0, 8)).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))
    pool = draw(st.lists(box, min_size=1, max_size=8))
    item = st.tuples(
        st.sampled_from([0, 1, 2**63, 2**63 + 1]),
        st.sampled_from([0.9, 0.5, 0.5, 0.1]) | st.floats(0, 1),
        st.sampled_from(pool),
    )
    return draw(st.lists(item, max_size=30))


class TestGreedyNms:
    def test_single_detection_unchanged(self):
        d = [det(0, 0.9, (0, 0, 10, 10))]
        assert greedy_nms(d, 0.5) == d

    def test_identical_boxes_keep_higher_score(self):
        d = [det(0, 0.9, (0, 0, 10, 10)), det(0, 0.8, (0, 0, 10, 10))]
        kept = greedy_nms(d, 0.5)
        assert kept == [d[0]]

    def test_disjoint_kept(self):
        d = [det(0, 0.9, (0, 0, 10, 10)), det(0, 0.8, (20, 20, 30, 30))]
        assert len(greedy_nms(d, 0.5)) == 2

    def test_classes_do_not_suppress_each_other(self):
        d = [det(0, 0.9, (0, 0, 10, 10)), det(1, 0.8, (0, 0, 10, 10))]
        assert len(greedy_nms(d, 0.5)) == 2

    def test_threshold_validated(self):
        with pytest.raises(InputError):
            greedy_nms([], 1.0)

    def test_kept_scores_non_increasing_and_subset(self):
        r = rng(8)
        d = [
            det(int(r.integers(3)), float(r.uniform(0, 1)), tuple(np.sort(r.uniform(0, 40, 2))) + (0.0, 0.0))
            for _ in range(30)
        ]
        d = [det(x.category, x.score, (x.box[0], x.box[2], x.box[1], x.box[3] + 5)) for x in d]
        kept = greedy_nms(d, 0.4)
        scores = [x.score for x in kept]
        assert scores == sorted(scores, reverse=True)
        assert all(x in d for x in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.category == b.category:
                    assert naive_iou(a.box, b.box) <= 0.4

    def test_matches_reference_on_random_instances(self):
        r = rng(99)
        for trial in range(500):
            n = int(r.integers(1, 51))
            items = []
            for _ in range(n):
                x1, y1 = r.uniform(0, 60, size=2)
                w, h = r.uniform(1, 25, size=2)
                items.append((int(r.integers(4)), float(r.choice([0.9, 0.7, 0.5, r.uniform(0, 1)])), (x1, y1, x1 + w, y1 + h)))
            thresh = float(r.choice([0.3, 0.5, 0.7]))
            dets = [det(c, s, b) for c, s, b in items]
            kept = greedy_nms(dets, thresh)
            want = reference_nms(items, thresh)
            got = sorted(dets.index(x) for x in kept)
            assert got == sorted(want), f"trial {trial}"

    @given(crowded_detections(), st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]) | st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_with_ties_and_duplicates(self, items, thresh):
        dets = [det(c, s, b) for c, s, b in items]
        position = {id(d): k for k, d in enumerate(dets)}
        assert [position[id(d)] for d in greedy_nms(dets, thresh)] == reference_nms(items, thresh)

    def test_memory_is_linear_in_detections(self):
        r = rng(5)
        n = 5000
        corners = r.uniform(0, 2000, size=(n, 2)).tolist()
        scores = r.uniform(0, 1, size=n).tolist()
        dets = [det(0, s, (x, y, x + 30.0, y + 30.0)) for (x, y), s in zip(corners, scores)]
        tracemalloc.start()
        try:
            kept = greedy_nms(dets, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(kept) < n
        assert peak < 10 * 2**20  # an N x N float64 IoU matrix would take 200 MB


class TestAnchors:
    def test_count_800x800(self):
        anchors = anchor_grid(800, 800)
        assert anchors.shape == (37500, 4)

    def test_count_matches_closed_form_random_sizes(self):
        r = rng(3)
        cfg = AnchorConfig()
        for _ in range(100):
            w = float(r.uniform(800, 2000))
            h = float(r.uniform(800, 2000))
            anchors = anchor_grid(w, h, cfg)
            s = cfg.stride
            expected = 15 * (math.floor((w - s / 2) / s) + 1) * (math.floor((h - s / 2) / s) + 1)
            assert anchors.shape[0] == expected

    def test_centered_square_anchor(self):
        anchors = anchor_grid(32, 32, AnchorConfig(sizes=(32.0,), ratios=(1.0,)))
        first = anchors[0]
        assert tuple(first) == (-8.0, -8.0, 24.0, 24.0)

    def test_area_preserving_ratio(self):
        cfg = AnchorConfig(sizes=(32.0,), ratios=(2.0,))
        anchors = anchor_grid(32, 32, cfg)
        w = anchors[0, 2] - anchors[0, 0]
        h = anchors[0, 3] - anchors[0, 1]
        assert w == pytest.approx(32 / math.sqrt(2), rel=1e-12)
        assert h == pytest.approx(32 * math.sqrt(2), rel=1e-12)
        assert h / w == pytest.approx(2.0, rel=1e-12)
        assert w * h == pytest.approx(1024.0, rel=1e-12)

    def test_anchors_unclipped(self):
        anchors = anchor_grid(800, 800)
        assert anchors[:, 0].min() < 0.0
        assert anchors[:, 2].max() > 800.0

    def test_resize_shorter(self):
        w, h, scale = resize_shorter(640, 480, 800.0)
        assert min(w, h) == pytest.approx(800.0)
        assert w / h == pytest.approx(640 / 480, rel=1e-12)
        assert scale == pytest.approx(800 / 480)

    def test_resize_validates(self):
        with pytest.raises(InputError):
            resize_shorter(0, 10, 800)

    @pytest.mark.parametrize(
        "kwargs",
        [{"resize_shorter": 0.0}, {"resize_shorter": -3.0}, {"resize_shorter": math.inf},
         {"ratios": (1.0, 0.0)}, {"sizes": (32.0, math.nan)}, {"ratios": (-1.0,)}],
    )
    def test_anchor_config_validates(self, kwargs):
        with pytest.raises(InputError):
            AnchorConfig(**kwargs)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([10**400], r"^anchor sizes entry 1000000000000000000000000000000000000000: int too large to convert"),
            ([[32.0]], r"^anchor sizes entry \[32\.0\]: float\(\) argument must be"),
            (["32"], r"^anchor sizes entry '32': must be a number, not str"),
            (np.array([[32.0]]), r"^anchor sizes entry array\(\[32\.\]\): only 0-dimensional arrays"),
            (np.array([-1.0]), r"^anchor sizes must be finite and > 0, got \(-1\.0,\)$"),
        ],
    )
    def test_anchor_config_entries_are_plain_floats(self, sizes, message):
        with pytest.raises(InputError, match=message):
            AnchorConfig(sizes=sizes)

    def test_anchor_config_stores_plain_floats(self):
        cfg = AnchorConfig(sizes=np.array([16.0, 32.0]), ratios=[1])
        assert cfg.sizes == (16.0, 32.0) and cfg.ratios == (1.0,)
        assert all(type(v) is float for v in cfg.sizes + cfg.ratios)
        assert cfg == AnchorConfig(sizes=(16.0, 32.0), ratios=(1.0,))
