"""Loss values, gradients, normalization, and finite-difference verification."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import (
    DenseGrid,
    EncoderConfig,
    FocalParams,
    InputError,
    LossWeights,
    ObjectAnnotation,
    depth_loss,
    dim_loss,
    encode_detection,
    focal_loss,
    gradcheck,
    joint_local_offset_loss,
    masked_l1,
    orientation_loss,
    total_loss,
)
from cpt import losses
from cpt.losses import (
    gradcheck_depth,
    gradcheck_dims,
    gradcheck_focal,
    gradcheck_offset,
    gradcheck_orientation,
    gradcheck_size,
)
from cpt.synthetic import make_dataset
from cpt.targets import JointCell, ObjectTarget

from oracles import reference_focal_loss, reference_l1_at_cells


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def grid1(value):
    return DenseGrid(np.full((1, 1, 1), float(value)))


def record(cell, offset=(0.0, 0.0), size=(0.0, 0.0), **kw):
    return ObjectTarget(index=0, category=0, cell=cell, offset=offset, size=size, **kw)


class TestFocalLoss:
    def test_single_positive_cell_spot_value(self):
        value, _ = focal_loss(grid1(0.5), grid1(1.0))
        expected = -((1.0 - 0.5) ** 2) * math.log(0.5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.173287, abs=1e-6)

    def test_positive_plus_gaussian_tail_cell(self):
        pred = DenseGrid(np.array([[[0.5, 0.5]]]))
        target = DenseGrid(np.array([[[1.0, 0.5]]]))
        value, _ = focal_loss(pred, target)
        expected = -((0.5) ** 2) * math.log(0.5) + (1 - 0.5) ** 4 * 0.5**2 * (-math.log(0.5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.184118, abs=1e-6)

    def test_perfect_prediction_nearly_zero(self):
        hm = DenseGrid.zeros(8, 8)
        hm.data[0, 3, 3] = 1.0
        value, _ = focal_loss(hm.copy(), hm)
        assert 0.0 <= value < 10 * FocalParams().eps

    def test_no_positives_is_finite(self):
        pred = DenseGrid(np.full((1, 4, 4), 0.3))
        value, _ = focal_loss(pred, DenseGrid.zeros(4, 4))
        assert math.isfinite(value) and value > 0

    def test_gradient_signs(self):
        pred = DenseGrid(np.array([[[0.4, 0.4]]]))
        target = DenseGrid(np.array([[[1.0, 0.0]]]))
        _, grad = focal_loss(pred, target)
        assert grad.data[0, 0, 0] <= 0.0  # positive cell: increasing score decreases loss
        assert grad.data[0, 0, 1] >= 0.0

    def test_gradient_zero_in_clamped_region(self):
        pred = DenseGrid(np.array([[[1e-6, 0.999999]]]))
        target = DenseGrid(np.array([[[0.0, 1.0]]]))
        _, grad = focal_loss(pred, target)
        assert np.array_equal(grad.data, np.zeros((1, 1, 2)))

    def test_batch_normalizer_counts_positive_cells(self):
        one = DenseGrid(np.array([[[1.0, 0.0]]]))
        two = DenseGrid(np.array([[[1.0, 1.0]]]))
        pred = DenseGrid(np.full((1, 1, 2), 0.5))
        v1, _ = focal_loss(pred, one)
        v2, _ = focal_loss(pred, two)
        pos = -(0.25) * math.log(0.5)
        neg = 0.5**2 * (-math.log(0.5))
        assert v1 == pytest.approx(pos + neg, abs=1e-12)
        assert v2 == pytest.approx(pos, abs=1e-12)  # two positives, normalized by 2

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            focal_loss(DenseGrid.zeros(2, 2), DenseGrid.zeros(3, 2))

    def test_target_range_validated(self):
        for bad in (-0.5, 1.5, np.inf, -np.inf, np.nan):
            with pytest.raises(InputError, match=r"\[0, 1\]"):
                focal_loss(grid1(0.5), grid1(bad))
        # an empty support, +0 or -0 in every cell, is in range
        for zero in (0.0, -0.0):
            target = DenseGrid(np.full((2, 3, 4), zero))
            assert focal_loss(DenseGrid(np.full((2, 3, 4), 0.5)), target)[0] > 0.0

    def test_nan_target_rejected(self):
        target = DenseGrid(np.array([[[1.0, np.nan, 0.0]]]))
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            focal_loss(DenseGrid(np.full((1, 1, 3), 0.5)), target)


EDGES = (0.0, 1e-4, 1.0 - 1e-4, 1.0, -0.5, 1.5, np.nextafter(1e-4, 0.0), np.nextafter(1.0 - 1e-4, 1.0), np.nan)


BLOCKS = (1, 3, 64, losses._FOCAL_BLOCK)


# term counts around np.sum's unroll of 8, its 128-term loops and powers of two, and one 80x128x128 grid
TREE_SIZES = (0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 511, 513, 4095, 4097, 65535, 65537, 80 * 128 * 128 - 37)


class TestPairwiseBlocks:
    @pytest.mark.parametrize("cap", (1, 3, 64, 128, losses._FOCAL_BLOCK))
    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_block_sums_along_the_tree_are_np_sum(self, n, cap):
        r = rng(n)
        terms = r.standard_normal(n) * 10.0 ** r.integers(-30, 30, n)
        edges, tree = losses._pairwise_blocks(n, cap)
        assert edges[0] == 0 and edges[-1] == n
        assert edges == [0, 0] or all(0 < b - a <= max(cap, 128) for a, b in zip(edges, edges[1:]))
        sums = [terms[a:b].sum() for a, b in zip(edges, edges[1:])]
        assert np.float64(losses._tree_sum(tree, sums)).tobytes() == np.float64(terms.sum()).tobytes()

    def test_cells_follow_the_positives(self):
        # 36 negative terms are one np.sum loop, so one block even at cap 1
        cells, before, tree = losses._focal_blocks(np.array([0, 5, 6, 39]), 40, 1)
        assert cells.tolist() == [0, 40] and before.tolist() == [0, 4] and tree == 0
        # 390 terms split 192 | 198, then 96 | 96 and 96 | 102; positives 288..297 follow the last term of block 2
        cells, before, tree = losses._focal_blocks(np.arange(288, 298), 400, 128)
        assert cells.tolist() == [0, 96, 192, 298, 400] and before.tolist() == [0, 0, 0, 10, 10]
        assert tree == ((0, 1), (2, 3))


def block_cells(y: np.ndarray, block: int) -> np.ndarray:
    """The cell edges of focal_loss's blocks on target y with block cap block."""
    return losses._focal_blocks(np.flatnonzero(y.ravel() == 1.0), y.size, block)[0]


@st.composite
def focal_cases(draw):
    """Targets with zero, fractional and exactly-1 cells; predictions with clamp-edge and NaN cells.

    Also draws the block cap of focal_loss. A grid spans one to about three
    blocks. The blocks are cut along np.sum's tree over the negative cells, so
    their cell edges shift with the positives; they are found from the drawn
    target. A block never opens with a positive; in mixed targets, half the
    blocks followed by an edge end with one, moved there from inside the
    block so that no edge moves. The other cells at each edge draw zero or
    support targets, and the two cells at each edge draw clamp-edge and NaN
    predictions, so these fall on both sides of block edges.
    """
    block = draw(st.sampled_from(BLOCKS))
    c, h = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    wide = max(block, losses._PAIRWISE_LEAF) // (c * h) + 1  # the narrowest width whose grid spans two blocks
    shape = (c, h, draw(st.integers(1, 12) | st.integers(wide, 3 * wide)))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "no positives", "all positives", "all zero"]))
    u = r.random(shape)
    y = np.where(u < 0.4, r.random(shape), 0.0)
    if kind == "mixed":
        y[u > 0.85] = 1.0
    elif kind == "all positives":
        y[:] = 1.0
    elif kind == "all zero":
        y[:] = 0.0
    pred = r.uniform(-0.1, 1.1, size=shape)
    edge = r.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    pred[edge] = r.choice(EDGES, size=int(edge.sum()))
    cells = block_cells(y, block)
    starts = cells[1:-1]
    near = np.concatenate([starts - 1, starts])  # the last cell of a block and the first of the next
    if kind == "mixed":
        for start, stop in zip(cells[:-2], starts):
            # a block's last positive moved to its last cell moves no edge
            inner = start + np.flatnonzero(y.flat[start : stop - 1] == 1.0)
            if inner.size and r.random() < 0.5:
                y.flat[inner[-1]], y.flat[stop - 1] = y.flat[stop - 1], 1.0
        off = near[y.flat[near] != 1.0]  # zero or support: a new or lost positive would move the edges
        y.flat[off] = np.where(r.random(off.size) < 0.5, 0.0, r.random(off.size))
    pred.flat[near] = np.where(r.random(near.size) < 0.5, r.choice(EDGES, size=near.size), pred.flat[near])
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    params = draw(
        st.sampled_from([FocalParams(), FocalParams(alpha=1.5, beta=2.5), FocalParams(alpha=3.0, beta=0.0)])
    )
    return DenseGrid(pred.astype(dtype)), DenseGrid(y), params, block


def canonical_bytes(values) -> bytes:
    """Bytes of a float64 array with every NaN made one NaN; other values keep their bytes.

    IEEE 754 leaves the sign of a NaN computed from two NaN operands open, and
    numpy's choice depends on where in an array a loop meets the cell, so a NaN
    prediction cell's sign bit is no property of the loss.
    """
    out = np.array(values, dtype=np.float64)
    out[np.isnan(out)] = np.nan
    return out.tobytes()


def bench_like_case():
    """An 80x128x128 float32 prediction 0.9 y + 0.1 u around the target y encoded from a 512x512 scene."""
    ds = make_dataset(3, num_images=1, max_objects=60, num_classes=80, image_w=512, image_h=512)
    target = encode_detection(ds.annotations, EncoderConfig(input_w=512, input_h=512, num_classes=80)).heatmap
    noise = rng(8).random(target.data.shape, dtype=np.float32)
    return DenseGrid((0.9 * target.data + 0.1 * noise).astype(np.float32)), target


class TestFocalMatchesReference:
    @given(case=focal_cases())
    @settings(max_examples=400, deadline=None)
    def test_value_and_gradient_bytes(self, case):
        pred, target, params, block = case
        with mock.patch.object(losses, "_FOCAL_BLOCK", block):
            value, grad = focal_loss(pred, target, params)
        ref_value, ref_grad = reference_focal_loss(pred, target, params)
        assert canonical_bytes(value) == canonical_bytes(ref_value)
        assert grad.data.dtype == ref_grad.data.dtype and grad.data.shape == ref_grad.data.shape
        assert canonical_bytes(grad.data) == canonical_bytes(ref_grad.data)

    def test_bench_like_grid_bytes(self):
        pred, target = bench_like_case()
        with mock.patch.object(losses, "_pairwise_blocks", wraps=losses._pairwise_blocks) as cut:
            value, grad = focal_loss(pred, target)
        edges, _ = losses._pairwise_blocks(*cut.call_args.args)
        assert len(edges) - 1 >= 40 and np.count_nonzero(target.data == 1.0) > 20
        ref_value, ref_grad = reference_focal_loss(pred, target)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.data.tobytes() == ref_grad.data.tobytes()


def test_focal_memory_is_one_grid():
    """The gradient is the only full-size float64 array focal_loss allocates."""
    pred, target = bench_like_case()
    tracemalloc.start()
    try:
        focal_loss(pred, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * pred.data.size * 8


class TestMaskedL1:
    def test_zero_at_exact_prediction(self):
        pred = DenseGrid.zeros(4, 4, 2)
        pred.data[:, 1, 2] = (0.25, 0.75)
        value, grad = masked_l1(pred, [record((2, 1), offset=(0.25, 0.75))], "offset")
        assert value == 0.0
        assert np.all(grad.data == 0.0)

    def test_size_example(self):
        pred = DenseGrid.zeros(8, 8, 2)
        pred.data[:, 3, 3] = (2.0, 8.0)
        value, grad = masked_l1(pred, [record((3, 3), size=(4.0, 4.0))], "size")
        assert value == 6.0
        assert grad.data[0, 3, 3] == -1.0
        assert grad.data[1, 3, 3] == 1.0

    def test_two_object_offset_example(self):
        pred = DenseGrid.zeros(8, 8, 2)
        pred.data[:, 0, 0] = (0.5, 0.0)
        pred.data[:, 5, 5] = (0.0, 0.5)
        recs = [record((0, 0)), record((5, 5))]
        value, _ = masked_l1(pred, recs, "offset")
        assert value == 0.5

    def test_empty_records(self):
        value, grad = masked_l1(DenseGrid.zeros(4, 4, 2), [], "offset")
        assert value == 0.0 and np.all(grad.data == 0.0)

    def test_supervision_only_at_cells(self):
        pred = DenseGrid(rng(1).uniform(-1, 1, size=(2, 6, 6)))
        _, grad = masked_l1(pred, [record((2, 3), size=(0.1, 0.1))], "size")
        mask = np.zeros((2, 6, 6), dtype=bool)
        mask[:, 3, 2] = True
        assert np.all(grad.data[~mask] == 0.0)

    def test_shared_cell_gradients_accumulate(self):
        pred = DenseGrid.zeros(4, 4, 2)
        recs = [record((1, 1), size=(1.0, 1.0)), record((1, 1), size=(2.0, 2.0))]
        value, grad = masked_l1(pred, recs, "size")
        assert value == pytest.approx((2.0 + 4.0) / 2)
        assert grad.data[0, 1, 1] == pytest.approx(-1.0)  # two signs of -1/2 each

    def test_joint_offset_visibility_mask(self):
        pred = DenseGrid.zeros(4, 4, 4)
        pred.data[:, 1, 1] = (9.0, 9.0, 1.0, 2.0)
        rec = record(
            (1, 1),
            joint_offsets=np.array([[0.0, 0.0], [0.5, 1.0]]),
            joint_mask=np.array([0.0, 1.0]),
        )
        value, grad = masked_l1(pred, [rec], "joint_offset")
        assert value == pytest.approx(0.5 + 1.0)  # masked joint contributes nothing
        assert np.all(grad.data[:2] == 0.0)

    def test_unknown_head(self):
        with pytest.raises(InputError):
            masked_l1(DenseGrid.zeros(2, 2, 2), [], "color")

    def test_duplicated_records_leave_value_unchanged(self):
        pred = DenseGrid(rng(2).uniform(0, 1, size=(2, 6, 6)))
        recs = [record((1, 1), offset=(0.3, 0.4)), record((4, 2), offset=(0.9, 0.1))]
        v1, _ = masked_l1(pred, recs, "offset")
        v2, _ = masked_l1(pred, recs + recs, "offset")
        assert v2 == pytest.approx(v1, rel=1e-12)


class TestJointLocalOffsetLoss:
    def test_matches_manual_sum(self):
        pred = DenseGrid.zeros(4, 4, 2)
        cells = [JointCell(joint=0, cell=(1, 1), offset=(0.5, 0.25)), JointCell(joint=1, cell=(2, 2), offset=(0.0, 0.0))]
        value, _ = joint_local_offset_loss(pred, cells)
        assert value == pytest.approx(0.75 / 2)

    @pytest.mark.parametrize("cell", [(-1, 0), (4, 0), (0, -1), (0, 4)])
    def test_cell_outside_grid(self, cell):
        cells = [JointCell(joint=0, cell=(1, 1), offset=(0.5, 0.5)), JointCell(joint=1, cell=cell, offset=(0.5, 0.5))]
        with pytest.raises(InputError, match=rf"record 1: cell \({cell[0]}, {cell[1]}\) outside the 4x4 grid"):
            joint_local_offset_loss(DenseGrid.zeros(4, 4, 2), cells)


@st.composite
def l1_cases(draw):
    """A loss read at cells, its records and the (channel0, cell, target, weight) entries of the reference loop.

    Up to 40 records on at most three distinct cells, so cells are shared and
    more than 8 terms are summed; some targets equal the prediction exactly
    (sign 0), and joint masks hold zeros.
    """
    head = draw(st.sampled_from(["offset", "size", "joint_offset", "joint_local_offset"]))
    r = rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 40))
    joints = draw(st.integers(1, 4)) if head == "joint_offset" else 1
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    pred = DenseGrid(r.normal(0.0, 2.0, (2 * joints, h, w)).astype(dtype))
    pool = list(zip(r.integers(0, w, 3).tolist(), r.integers(0, h, 3).tolist()))
    cells = [pool[i] for i in r.integers(0, len(pool), n)]
    targets = r.normal(0.0, 2.0, (n, joints, 2))
    for k, (cx, cy) in enumerate(cells):
        exact = r.random((joints, 2)) < 0.2
        targets[k][exact] = pred.data[:, cy, cx].reshape(joints, 2)[exact]
    masks = r.random((n, joints)) < 0.6
    if head == "joint_offset":
        records = [record(cell, joint_offsets=t, joint_mask=m) for cell, t, m in zip(cells, targets, masks)]
        entries = [(2 * j, cell, t[j], float(m[j])) for cell, t, m in zip(cells, targets, masks) for j in range(joints)]
    elif head == "joint_local_offset":
        records = [JointCell(joint=0, cell=cell, offset=tuple(t[0])) for cell, t in zip(cells, targets)]
        entries = [(0, cell, np.asarray(t[0]), 1.0) for cell, t in zip(cells, targets)]
    else:
        records = [record(cell, **{head: tuple(t[0])}) for cell, t in zip(cells, targets)]
        entries = [(0, cell, tuple(t[0]), 1.0) for cell, t in zip(cells, targets)]
    return head, pred, records, entries


class TestL1MatchesReference:
    @given(case=l1_cases())
    @settings(max_examples=300, deadline=None)
    def test_value_and_gradient_bytes(self, case):
        head, pred, records, entries = case
        if head == "joint_local_offset":
            value, grad = joint_local_offset_loss(pred, records)
        else:
            value, grad = masked_l1(pred, records, head)
        ref_value, ref_grad = reference_l1_at_cells(pred, entries, len(records))
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.data.dtype == ref_grad.data.dtype and grad.data.shape == ref_grad.data.shape
        assert grad.data.tobytes() == ref_grad.data.tobytes()


class TestDepthLoss:
    def test_spot_values(self):
        assert depth_loss(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert depth_loss(np.array([-math.log(9.0)]), np.array([9.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert depth_loss(np.array([0.0]), np.array([3.0]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_gradient_through_transform(self):
        value, grad = depth_loss(np.array([0.0]), np.array([3.0]))
        # residual is negative (1 - 3), so d|r|/dx = -sign(r) * (-e^-x) = -1
        assert grad[0] == pytest.approx(1.0 * math.exp(0.0) * -(-1.0))

    def test_empty(self):
        value, grad = depth_loss(np.zeros(0), np.zeros(0))
        assert value == 0.0 and grad.size == 0


class TestDimLoss:
    def test_spot_values(self):
        exact = np.array([[1.5, 1.6, 3.9]])
        assert dim_loss(exact, exact)[0] == 0.0
        value, _ = dim_loss(np.array([[1.0, 1.0, 1.0]]), exact)
        assert value == pytest.approx(0.5 + 0.6 + 2.9, abs=1e-12)

    def test_two_object_normalization(self):
        pred = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        truth = np.array([[1.5, 1.6, 3.9], [2.0, 2.0, 2.0]])
        value, _ = dim_loss(pred, truth)
        assert value == pytest.approx(4.0 / 2, abs=1e-12)


class TestOrientationLoss:
    def confident(self, yaw):
        from cpt import encode_orientation

        target = encode_orientation(yaw)
        pred = np.zeros(8)
        for base in (0, 4):
            label = int(target[base + 1])
            pred[base + label] = 10.0
            pred[base + 2 : base + 4] = target[base + 2 : base + 4]
        return pred

    def test_confident_correct_is_tiny(self):
        value, _ = orientation_loss(self.confident(math.pi / 2)[None, :], np.array([math.pi / 2]))
        assert value == pytest.approx(2 * math.log1p(math.exp(-10.0)), rel=1e-9)

    def test_uniform_logits_cross_entropy(self):
        from cpt import encode_orientation

        target = encode_orientation(math.pi / 2)
        pred = np.zeros(8)
        pred[2:4] = target[2:4]
        pred[6:8] = target[6:8]
        value, _ = orientation_loss(pred[None, :], np.array([math.pi / 2]))
        assert value == pytest.approx(2 * math.log(2.0), rel=1e-12)

    def test_overlap_region_supervises_both_bins(self):
        pred = self.confident(0.0)
        pred[2] += 0.25  # bin-1 sin component off by 0.25
        pred[6] += 0.5  # bin-2 sin component off by 0.5
        value, grad = orientation_loss(pred[None, :], np.array([0.0]))
        assert value == pytest.approx(0.75 + 2 * math.log1p(math.exp(-10.0)), rel=1e-9)
        assert grad[0, 2] == 1.0 and grad[0, 6] == 1.0

    def test_inactive_bin_l1_unsupervised(self):
        pred = self.confident(math.pi)  # bin 2 only
        pred[2:4] = (5.0, -5.0)  # garbage in the inactive bin's angle slot
        value, grad = orientation_loss(pred[None, :], np.array([math.pi]))
        assert value == pytest.approx(2 * math.log1p(math.exp(-10.0)), rel=1e-9)
        assert np.all(grad[0, 2:4] == 0.0)


class TestTotalLoss:
    def build(self, seed=0, with_3d=False):
        cfg = EncoderConfig(input_w=64, input_h=64, num_classes=2)
        r = rng(seed)
        anns = []
        for k in range(4):
            cx, cy = r.uniform(8, 56, size=2)
            hw, hh = r.uniform(2, 6, size=2)
            extra = {}
            if with_3d:
                extra = {"depth": float(r.uniform(1, 40)), "dims3d": tuple(r.uniform(0.5, 4, 3)), "yaw": float(r.uniform(-3, 3))}
            anns.append(ObjectAnnotation(bbox=(cx - hw, cy - hh, cx + hw, cy + hh), category=k % 2, **extra))
        ts = encode_detection(anns, cfg)
        preds = {
            "heatmap": DenseGrid(r.uniform(0.05, 0.95, size=ts.heatmap.data.shape)),
            "offset": DenseGrid(r.uniform(-1, 1, size=ts.offset.data.shape)),
            "size": DenseGrid(r.uniform(0, 30, size=ts.size.data.shape)),
        }
        if with_3d:
            preds["depth"] = DenseGrid(r.uniform(-2, 2, size=(1, 16, 16)))
            preds["dims"] = DenseGrid(r.uniform(0.5, 4, size=(3, 16, 16)))
            preds["orientation"] = DenseGrid(r.uniform(-2, 2, size=(8, 16, 16)))
        return preds, ts

    def test_composition_identity(self):
        preds, ts = self.build()
        w = LossWeights()
        report = total_loss(preds, ts, w)
        expected = report.keypoint + w.size * report.size + w.offset * report.offset
        assert abs(report.total - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_composition_identity_with_3d(self):
        preds, ts = self.build(seed=5, with_3d=True)
        w = LossWeights(size=0.2, offset=0.7, depth=1.3, dims=0.4, orientation=2.0)
        report = total_loss(preds, ts, w)
        expected = (
            report.keypoint
            + w.size * report.size
            + w.offset * report.offset
            + w.depth * report.depth
            + w.dims * report.dims
            + w.orientation * report.orientation
        )
        assert abs(report.total - expected) <= 1e-12 * max(abs(expected), 1.0)
        assert set(report.gradients) == {"heatmap", "offset", "size", "depth", "dims", "orientation"}

    def test_positive_cells_counted_by_the_focal_pass(self):
        preds, ts = self.build(seed=6)
        ts.heatmap.data[1, 0, :3] = 1.0  # three positives no object put there
        report = total_loss(preds, ts)
        assert report.n_positive_cells == np.count_nonzero(ts.heatmap.data == 1.0) >= 4
        assert report.keypoint == focal_loss(preds["heatmap"], ts.heatmap)[0]

    def test_default_weights_worked_example(self):
        w = LossWeights()
        assert 1.0 + w.size * 10.0 + w.offset * 0.5 == pytest.approx(2.5, abs=1e-12)

    def test_zero_weights(self):
        preds, ts = self.build(seed=2)
        report = total_loss(preds, ts, LossWeights(size=0.0, offset=0.0))
        assert report.total == report.keypoint

    def test_linear_in_each_weight(self):
        preds, ts = self.build(seed=3)
        base = total_loss(preds, ts, LossWeights(size=0.0, offset=1.0))
        bumped = total_loss(preds, ts, LossWeights(size=2.0, offset=1.0))
        assert bumped.total - base.total == pytest.approx(2.0 * base.size, rel=1e-12)

    def test_duplicating_objects_preserves_masked_losses(self):
        preds, ts = self.build(seed=4)
        report = total_loss(preds, ts)
        ts.objects = ts.objects + ts.objects
        doubled = total_loss(preds, ts)
        assert doubled.offset == pytest.approx(report.offset, rel=1e-12)
        assert doubled.size == pytest.approx(report.size, rel=1e-12)
        assert doubled.keypoint == report.keypoint

    def test_missing_head(self):
        preds, ts = self.build(seed=6)
        del preds["size"]
        with pytest.raises(InputError):
            total_loss(preds, ts)


class TestGradcheck:
    @pytest.mark.parametrize(
        "harness,tol",
        [
            (gradcheck_focal, 1e-5),
            (gradcheck_offset, 1e-6),
            (gradcheck_size, 1e-6),
            (gradcheck_depth, 1e-5),
            (gradcheck_dims, 1e-6),
            (gradcheck_orientation, 1e-5),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_canned_harnesses(self, harness, tol, seed):
        report = harness(seed)
        assert report.checked > 0
        assert report.max_rel_error < tol

    def test_joint_offset_head_via_generic_checker(self):
        r = rng(9)
        pred0 = r.uniform(-1, 2, size=(4, 6, 6))
        recs = [
            record(
                (2, 3),
                joint_offsets=r.uniform(0, 1, size=(2, 2)),
                joint_mask=np.array([1.0, 0.0]),
            ),
            record(
                (4, 1),
                joint_offsets=r.uniform(0, 1, size=(2, 2)),
                joint_mask=np.array([1.0, 1.0]),
            ),
        ]

        def fn(x):
            value, grad = masked_l1(DenseGrid(x), recs, "joint_offset")
            return value, grad.data

        exclude = np.zeros_like(pred0, dtype=bool)
        for rec in recs:
            cx, cy = rec.cell
            for j in range(2):
                d = np.abs(pred0[2 * j : 2 * j + 2, cy, cx] - rec.joint_offsets[j])
                exclude[2 * j : 2 * j + 2, cy, cx] |= d < 1e-5
        report = gradcheck(fn, pred0, exclude=exclude)
        assert report.max_rel_error < 1e-6

    def test_detects_wrong_gradient(self):
        def fn(x):
            return float((x**2).sum()), 3.0 * x  # wrong: should be 2x

        report = gradcheck(fn, np.array([1.0, -2.0]))
        assert report.max_rel_error > 0.1
