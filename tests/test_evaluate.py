"""Matching protocol and interpolated average precision."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import InputError, ObjectAnnotation, average_precision, evaluate_detections, match_detections
from cpt.decode import Detection

from oracles import reference_average_precision, reference_match


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def det(category, score, box):
    return Detection(category=category, score=score, box=box, center=(0.0, 0.0), units="pixels")


def gt(category, box):
    return ObjectAnnotation(bbox=box, category=category)


@st.composite
def crowded_image(draw):
    """Detections and ground truths of one image, drawn from one small pool of boxes.

    Scores tie, boxes repeat and classes mix, so detections compete for
    ground truths and ground truths tie in IoU.
    """
    coord = st.integers(0, 12).map(float) | st.floats(0, 12)
    box = st.tuples(coord, coord, st.floats(0, 8), st.floats(0, 8)).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))
    pool = draw(st.lists(box, min_size=1, max_size=8))
    category = st.sampled_from([0, 1, 2**63])
    score = st.sampled_from([0.9, 0.5, 0.5, 0.1]) | st.floats(0, 1)
    dets = draw(st.lists(st.builds(det, category, score, st.sampled_from(pool)), max_size=25))
    gts = draw(st.lists(st.builds(gt, category, st.sampled_from(pool)), max_size=12))
    return dets, gts


class TestMatchDetections:
    @given(crowded_image(), st.sampled_from([0.1, 0.5, 0.7, 1.0]) | st.floats(0.01, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, image, thresh):
        dets, gts = image
        assert match_detections(dets, gts, thresh) == reference_match(dets, gts, thresh)

    def test_perfect_predictions_all_tp(self):
        gts = [gt(0, (0, 0, 10, 10)), gt(1, (20, 20, 40, 40))]
        dets = [det(0, 0.9, (0, 0, 10, 10)), det(1, 0.8, (20, 20, 40, 40))]
        result = match_detections(dets, gts, 0.5)
        assert result.is_tp == [True, True]
        assert result.gt_matched == [True, True]

    def test_duplicate_detection_one_tp_one_fp(self):
        gts = [gt(0, (0, 0, 10, 10))]
        dets = [det(0, 0.9, (0, 0, 10, 10)), det(0, 0.8, (0, 0, 10, 10))]
        result = match_detections(dets, gts, 0.5)
        assert result.is_tp == [True, False]

    def test_empty_detections(self):
        result = match_detections([], [gt(0, (0, 0, 5, 5))], 0.5)
        assert result.gt_matched == [False]

    def test_greedy_prefers_higher_iou(self):
        gts = [gt(0, (0, 0, 10, 10)), gt(0, (0, 0, 12, 12))]
        dets = [det(0, 0.9, (0, 0, 12, 12))]
        result = match_detections(dets, gts, 0.5)
        assert result.matched_gt == [1]

    def test_class_must_match(self):
        result = match_detections([det(1, 0.9, (0, 0, 10, 10))], [gt(0, (0, 0, 10, 10))], 0.5)
        assert result.is_tp == [False]

    def test_score_priority_with_input_order_ties(self):
        gts = [gt(0, (0, 0, 10, 10))]
        dets = [det(0, 0.8, (0, 0, 10, 10)), det(0, 0.8, (0, 0, 10, 10))]
        result = match_detections(dets, gts, 0.5)
        assert result.detections == [0, 1]
        assert result.is_tp == [True, False]

    def test_iou_threshold_is_inclusive(self):
        gts = [gt(0, (0, 0, 10, 10))]
        dets = [det(0, 0.9, (0, 0, 10, 5))]  # IoU exactly 0.5
        assert match_detections(dets, gts, 0.5).is_tp == [True]


class TestAveragePrecision:
    def test_perfect_is_one(self):
        ap = average_precision([(0.9, True), (0.8, True)], num_gt=2)
        assert ap == 1.0

    def test_single_wrong_detection_zero(self):
        assert average_precision([(0.9, False)], num_gt=1) == 0.0

    def test_hand_computed_11_point(self):
        matches = [(0.9, True), (0.8, False), (0.7, True)]
        expected = (6 * 1.0 + 5 * (2 / 3)) / 11
        ap = average_precision(matches, num_gt=2)
        assert ap == pytest.approx(expected, abs=1e-12)
        assert ap == pytest.approx(0.8485, abs=5e-5)

    def test_zero_gt_undefined(self):
        assert average_precision([(0.9, False)], num_gt=0) is None

    def test_fp_below_all_tps_never_increases(self):
        base = [(0.9, True), (0.7, True)]
        ap = average_precision(base, num_gt=3)
        worse = average_precision(base + [(0.1, False)], num_gt=3)
        assert worse <= ap
        perfect = average_precision([(0.9, True)], num_gt=1)
        assert average_precision([(0.9, True), (0.1, False)], num_gt=1) == perfect == 1.0

    def test_equal_score_permutation_invariant(self):
        a = [(0.5, True), (0.5, False), (0.5, True)]
        # deterministic tie order is input order, so AP is defined per-ordering;
        # swapping two equal-score entries of equal outcome changes nothing
        b = [(0.5, True), (0.5, False), (0.5, True)]
        assert average_precision(a, 2) == average_precision(b, 2)

    def test_101_point_mode(self):
        matches = [(0.9, True), (0.8, False), (0.7, True)]
        ap = average_precision(matches, num_gt=2, recall_points=101)
        assert ap == reference_average_precision(matches, 2, 101)

    def test_matches_reference_on_random_instances(self):
        # empty lists, all-tied scores and more true positives than ground truths included
        r = rng(21)
        for trial in range(240):
            n = int(r.integers(0, 40))
            num_gt = int(r.integers(1, 30))
            tied = trial % 4 == 0
            matches = [(0.5 if tied else float(r.choice([0.9, 0.5, r.uniform(0, 1)])), bool(r.integers(2))) for _ in range(n)]
            for points in (11, 101):
                got = average_precision(matches, num_gt, points)
                assert got == reference_average_precision(matches, num_gt, points), f"trial {trial}"

    def test_recall_points_validated(self):
        with pytest.raises(InputError):
            average_precision([], 1, recall_points=1)


class TestEvaluateDetections:
    def test_per_class_and_mean(self):
        gts = {1: [gt(0, (0, 0, 10, 10)), gt(1, (20, 20, 30, 30))]}
        dets = {1: [det(0, 0.9, (0, 0, 10, 10)), det(1, 0.8, (25, 25, 26, 26))]}
        report = evaluate_detections(dets, gts, 0.5)
        assert report.ap[0] == 1.0
        assert report.ap[1] == 0.0
        assert report.mean_ap == 0.5
        assert report.num_gt == 2
        assert report.true_positives == 1

    def test_class_without_gt_is_null_and_excluded(self):
        gts = {1: [gt(0, (0, 0, 10, 10))]}
        dets = {1: [det(0, 0.9, (0, 0, 10, 10)), det(2, 0.99, (0, 0, 10, 10))]}
        report = evaluate_detections(dets, gts, 0.5)
        assert report.ap[2] is None
        assert report.mean_ap == 1.0

    def test_empty_everything(self):
        report = evaluate_detections({}, {}, 0.5)
        assert report.mean_ap is None
        assert report.num_gt == 0
