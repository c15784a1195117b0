"""Grid primitives: Gaussian splatting, size-adaptive sigma, peak extraction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import DenseGrid, InputError, extract_peaks, gaussian_radius, gaussian_sigma, render_gaussian

from oracles import (
    eight_neighbor_peak_mask,
    naive_max_pool_3x3,
    reference_peaks,
    reference_splat,
    search_displacement_radius,
    shifted_max_pool_3x3,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestDenseGrid:
    def test_zeros_shape(self):
        g = DenseGrid.zeros(7, 5, 3)
        assert (g.width, g.height, g.channels) == (7, 5, 3)
        assert g.data.shape == (3, 5, 7)
        assert g.data.dtype == np.float64

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            DenseGrid(np.zeros((4, 4)))
        with pytest.raises(InputError):
            DenseGrid(np.zeros((0, 4, 4)))

    def test_copy_is_independent(self):
        g = DenseGrid.zeros(2, 2)
        h = g.copy()
        h.data[0, 0, 0] = 5.0
        assert g.data[0, 0, 0] == 0.0

    def test_float32_preserved(self):
        g = DenseGrid(np.zeros((1, 2, 2), dtype=np.float32))
        assert g.dtype == np.float32
        assert render_gaussian(g, (1.0, 1.0), 0, 1.0).dtype == np.float32


class TestRenderGaussian:
    def test_value_at_center_is_one(self):
        g = render_gaussian(DenseGrid.zeros(11, 11), (5.0, 5.0), 0, 1.0)
        assert g.data[0, 5, 5] == 1.0

    def test_neighbor_value(self):
        g = render_gaussian(DenseGrid.zeros(11, 11), (5.0, 5.0), 0, 1.0)
        assert g.data[0, 5, 6] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_elementwise_maximum(self):
        g = DenseGrid.zeros(11, 11)
        g = render_gaussian(g, (3.0, 3.0), 0, 1.0)
        g = render_gaussian(g, (4.0, 3.0), 0, 1.0)
        assert g.data[0, 3, 3] == 1.0
        assert g.data[0, 3, 4] == 1.0

    def test_other_channels_untouched(self):
        g = render_gaussian(DenseGrid.zeros(9, 9, 3), (4.0, 4.0), 1, 2.0)
        assert np.all(g.data[0] == 0.0)
        assert np.all(g.data[2] == 0.0)

    def test_truncation_window(self):
        g = render_gaussian(DenseGrid.zeros(21, 21), (10.0, 10.0), 0, 1.0)
        # radius ceil(3 sigma) = 3: cells 4 away stay zero
        assert g.data[0, 10, 14] == 0.0
        assert g.data[0, 10, 13] > 0.0

    def test_center_outside_grid_still_splats_overlap(self):
        g = render_gaussian(DenseGrid.zeros(8, 8), (-1.0, 3.0), 0, 1.5)
        assert g.data[0, 3, 0] == pytest.approx(math.exp(-1.0 / (2 * 1.5**2)))
        g_far = render_gaussian(DenseGrid.zeros(8, 8), (-100.0, 3.0), 0, 1.0)
        assert np.all(g_far.data == 0.0)

    def test_values_in_unit_interval(self):
        g = DenseGrid.zeros(16, 16)
        r = rng(3)
        for _ in range(10):
            g = render_gaussian(g, (r.uniform(-2, 18), r.uniform(-2, 18)), 0, r.uniform(0.2, 4.0))
        assert g.data.min() >= 0.0 and g.data.max() <= 1.0

    def test_order_independent_bit_identical(self):
        r = rng(11)
        centers = [(float(r.uniform(0, 16)), float(r.uniform(0, 16))) for _ in range(8)]
        sigmas = [float(r.uniform(0.3, 3.0)) for _ in range(8)]
        perm = r.permutation(8)
        a = DenseGrid.zeros(16, 16)
        b = DenseGrid.zeros(16, 16)
        for i in range(8):
            a = render_gaussian(a, centers[i], 0, sigmas[i])
        for i in perm:
            b = render_gaussian(b, centers[i], 0, sigmas[i])
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_changes_only_the_window(self, dtype):
        r = rng(5)
        for _ in range(60):
            g = DenseGrid((0.5 * r.random((2, 9, 11))).astype(dtype))
            before = g.data.copy()
            px, py = float(r.uniform(-5, 16)), float(r.uniform(-5, 14))
            channel, sigma = int(r.integers(0, 2)), float(r.uniform(0.2, 2.5))
            want = reference_splat(DenseGrid(before), (px, py), channel, sigma)
            assert render_gaussian(g, (px, py), channel, sigma) is g
            assert g.data.dtype == dtype
            assert g.data.tobytes() == want.data.tobytes()
            radius = math.ceil(3.0 * sigma)
            window = np.zeros(g.data.shape, dtype=bool)
            xs, ys = np.arange(11), np.arange(9)
            window[channel] = (np.abs(ys[:, None] - py) <= radius) & (np.abs(xs[None, :] - px) <= radius)
            assert np.array_equal(g.data[~window], before[~window])

    def test_errors(self):
        g = DenseGrid.zeros(4, 4, 2)
        with pytest.raises(InputError):
            render_gaussian(g, (1.0, 1.0), 2, 1.0)
        with pytest.raises(InputError):
            render_gaussian(g, (1.0, 1.0), 0, 0.0)
        with pytest.raises(InputError):
            render_gaussian(g, (1.0, 1.0), -1, 1.0)


class TestGaussianSigma:
    @pytest.mark.parametrize(
        "w,h,overlap",
        [(10.0, 10.0, 0.7), (3.0, 7.0, 0.7), (25.0, 4.0, 0.5), (40.0, 40.0, 0.9), (1.0, 1.0, 0.3)],
    )
    def test_matches_iou_search(self, w, h, overlap):
        searched = search_displacement_radius(w, h, overlap)
        assert gaussian_radius(w, h, overlap) == pytest.approx(searched, abs=1e-6)

    def test_sigma_is_radius_over_three(self):
        assert gaussian_sigma(10, 10, 0.7) == pytest.approx(gaussian_radius(10, 10, 0.7) / 3.0, rel=1e-12)

    def test_degenerate_box_clamps_to_minimum(self):
        assert gaussian_sigma(1e-9, 5.0, 0.7) == pytest.approx(1e-6 / 3.0)

    def test_monotonic_in_size(self):
        assert gaussian_sigma(20, 20, 0.7) > gaussian_sigma(10, 10, 0.7)

    @given(
        w=st.floats(0.5, 80), h=st.floats(0.5, 80), grow=st.floats(0.1, 20), overlap=st.floats(0.1, 0.9)
    )
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_property(self, w, h, grow, overlap):
        assert gaussian_sigma(w + grow, h, overlap) >= gaussian_sigma(w, h, overlap) - 1e-12
        assert gaussian_sigma(w, h + grow, overlap) >= gaussian_sigma(w, h, overlap) - 1e-12

    def test_errors(self):
        with pytest.raises(InputError):
            gaussian_sigma(0.0, 5.0, 0.7)
        with pytest.raises(InputError):
            gaussian_sigma(5.0, 5.0, 1.0)


class TestMaxPool:
    def test_matches_naive_oracle(self):
        """The shifted-window pool that the peak tests take their fixed point from equals the double loop."""
        r = rng(7)
        # single rows and columns are where padding and clipping could disagree
        for shape in [(2, 16, 16), (2, 1, 9), (2, 9, 1), (1, 1, 1), (1, 2, 1), (3, 5, 6)]:
            for with_inf in (False, True):
                data = r.uniform(-1, 1, size=shape)
                if with_inf:
                    data[r.uniform(size=shape) < 0.3] = np.inf
                    data[r.uniform(size=shape) < 0.3] = -np.inf
                assert np.array_equal(shifted_max_pool_3x3(data), naive_max_pool_3x3(data)), (shape, with_inf)


class TestExtractPeaks:
    def test_single_point(self):
        g = DenseGrid.zeros(5, 5)
        g.data[0, 2, 2] = 1.0
        peaks = [p for p in extract_peaks(g, 100) if p.score > 0]
        assert peaks == [(2, 2, 0, 1.0)]

    def test_constant_plateau_capped(self):
        g = DenseGrid(np.full((1, 20, 20), 0.5))
        peaks = extract_peaks(g, 100)
        assert len(peaks) == 100
        # deterministic raster tie order
        assert peaks[0] == (0, 0, 0, 0.5)
        assert peaks[1] == (1, 0, 0, 0.5)

    def test_matches_max_pool_fixed_point(self):
        data = rng(23).uniform(0, 1, size=(3, 32, 32))
        g = DenseGrid(data)
        got = {(p.x, p.y, p.channel) for p in extract_peaks(g, 32 * 32 * 3)}
        want = {(int(x), int(y), int(c)) for c, y, x in zip(*np.nonzero(data == shifted_max_pool_3x3(data)))}
        assert got == want

    def test_scores_sorted_desc_with_tie_order(self):
        g = DenseGrid.zeros(6, 6, 2)
        g.data[0, 1, 1] = 0.8
        g.data[1, 4, 4] = 0.8
        g.data[0, 4, 1] = 0.9
        peaks = [p for p in extract_peaks(g, 10) if p.score > 0]
        assert [(p.channel, p.y, p.x) for p in peaks] == [(0, 4, 1), (0, 1, 1), (1, 4, 4)]

    def test_per_channel_cap(self):
        g = DenseGrid(rng(5).uniform(0, 1, size=(3, 16, 16)))
        per = extract_peaks(g, 2, per_channel=True)
        assert all(sum(1 for p in per if p.channel == c) <= 2 for c in range(3))
        assert len(per) == 6
        # still globally sorted by score
        scores = [p.score for p in per]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_validation(self):
        with pytest.raises(InputError):
            extract_peaks(DenseGrid.zeros(3, 3), 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_peak_set_equivalence_property(self, seed):
        r = rng(seed)
        shape = (int(r.integers(1, 4)), int(r.integers(1, 24)), int(r.integers(1, 24)))
        data = r.uniform(0, 1, size=shape)
        # sprinkle ties to exercise plateaus
        if data.size >= 4:
            flat = data.reshape(-1)
            flat[: data.size // 4] = 0.5
        g = DenseGrid(data)
        got = {(p.x, p.y, p.channel) for p in extract_peaks(g, data.size)}
        want_mask = eight_neighbor_peak_mask(data)
        want = {(int(x), int(y), int(c)) for c, y, x in zip(*np.nonzero(want_mask))}
        assert got == want


# cell values with many ties, so that the k-th score is often shared
TIED_VALUES = [0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, np.inf, -np.inf, np.nan]


@st.composite
def peak_grids(draw):
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = st.sampled_from(TIED_VALUES) | st.floats(0, 1, width=32)
    data = np.array(draw(st.lists(values, min_size=c * h * w, max_size=c * h * w)), dtype=np.float64)
    return data.reshape(c, h, w).astype(draw(st.sampled_from([np.float64, np.float32])))


@st.composite
def sparse_grids(draw):
    """Zero background plus a few Gaussian bumps, as encode_detection output looks.

    Bump rows away from the center have a maximum that is not a peak; a
    mirrored bump ties rows on their maximum across channels; NaN cells,
    all-NaN rows and all -inf grids are drawn too.
    """
    # tall enough that a group has rows left after the first batch of extract_peaks
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 12))
    grid = DenseGrid.zeros(w, h, c)
    for _ in range(draw(st.integers(0, 4))):
        center = (draw(st.floats(-1.5, w + 0.5)), draw(st.floats(-1.5, h + 0.5)))
        sigma = draw(st.floats(0.2, 2.5))
        channel = draw(st.integers(0, c - 1))
        render_gaussian(grid, center, channel, sigma)
        if draw(st.booleans()):
            render_gaussian(grid, center, draw(st.integers(0, c - 1)), sigma)
    data = grid.data
    flaw = draw(st.sampled_from(["none", "none", "nan cells", "nan row", "-inf grid"]))
    if flaw == "nan cells":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, c - 1)), draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = np.nan
    elif flaw == "nan row":
        data[draw(st.integers(0, c - 1)), draw(st.integers(0, h - 1))] = np.nan
    elif flaw == "-inf grid":
        data[:] = -np.inf
    return data.astype(draw(st.sampled_from([np.float64, np.float32])))


class TestPeakOrder:
    """Full ordered peak lists, with the cap below, at and above the peak count."""

    @given(data=sparse_grids(), per_channel=st.booleans(), plateau=st.booleans(), k_draw=st.integers(0, 2**16))
    @settings(max_examples=400, deadline=None)
    def test_sparse_matches_reference(self, data, per_channel, plateau, k_draw):
        # k from 1 to past the nonzero peaks, or to past every peak, so that the cut falls inside the zero plateau
        mask = eight_neighbor_peak_mask(data) & ((data >= 0) if plateau else (data > 0))
        count = int(mask.sum(axis=(1, 2)).max()) if per_channel else int(mask.sum())
        k = 1 + k_draw % (count + 4)
        got = [tuple(p) for p in extract_peaks(DenseGrid(data), k, per_channel=per_channel)]
        assert got == reference_peaks(data, k, per_channel)

    @given(data=peak_grids(), per_channel=st.booleans(), k_shift=st.sampled_from([-3, -1, 0, 1, 5]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, data, per_channel, k_shift):
        mask = eight_neighbor_peak_mask(data)
        count = int(mask.sum(axis=(1, 2)).max()) if per_channel else int(mask.sum())
        k = max(count + k_shift, 1)
        got = [tuple(p) for p in extract_peaks(DenseGrid(data), k, per_channel=per_channel)]
        assert got == reference_peaks(data, k, per_channel)

    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9, 40])
    def test_ties_at_the_cut(self, per_channel, k):
        # rows hold several equal peaks, so the k-th score is shared across rows and channels
        data = np.zeros((2, 6, 6))
        data[0, 1, ::2] = 0.5
        data[0, 4, ::2] = 0.9
        data[1, 1, ::2] = 0.9
        data[1, 3, 1] = 0.5
        got = [tuple(p) for p in extract_peaks(DenseGrid(data), k, per_channel=per_channel)]
        assert got == reference_peaks(data, k, per_channel)
