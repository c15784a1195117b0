"""Synthetic dataset generators: determinism and the guarantees tests rely on."""
import math

from cpt import count_center_collisions, count_iou_collisions
from cpt.synthetic import inject_center_collisions, make_dataset, make_overlap_dataset, make_sparse_dataset

from oracles import naive_iou


def test_deterministic_given_seed():
    a = make_dataset(seed=5, num_images=4, max_objects=10)
    b = make_dataset(seed=5, num_images=4, max_objects=10)
    assert [x.bbox for x in a.annotations] == [x.bbox for x in b.annotations]
    c = make_dataset(seed=6, num_images=4, max_objects=10)
    assert [x.bbox for x in a.annotations] != [x.bbox for x in c.annotations]


def test_collision_free_and_in_bounds():
    ds = make_dataset(seed=1, num_images=10, max_objects=30)
    assert count_center_collisions(ds, stride=4).n_center == 0
    for ann in ds.annotations:
        x1, y1, x2, y2 = ann.bbox
        assert 0 < x1 < x2 < 128
        assert 0 < y1 < y2 < 128


def test_distinct_cells_across_classes():
    ds = make_dataset(seed=2, num_images=5, max_objects=40)
    for image_id, anns in ds.annotations_by_image().items():
        cells = [(int(((a.bbox[0] + a.bbox[2]) / 2) // 4), int(((a.bbox[1] + a.bbox[3]) / 2) // 4)) for a in anns]
        assert len(set(cells)) == len(cells)


def test_with_3d_fields():
    ds = make_dataset(seed=3, num_images=2, max_objects=5, with_3d=True)
    for ann in ds.annotations:
        assert ann.depth > 0
        assert all(v > 0 for v in ann.dims3d)
        assert -math.pi < ann.yaw <= math.pi


def test_sparse_dataset_has_disjoint_boxes():
    ds = make_sparse_dataset(seed=4)
    for anns in ds.annotations_by_image().values():
        for i in range(len(anns)):
            for j in range(i + 1, len(anns)):
                assert naive_iou(anns[i].bbox, anns[j].bbox) == 0.0


def test_overlap_dataset_pairs_exceed_half_iou():
    ds = make_overlap_dataset(seed=5)
    report = count_iou_collisions(ds, thresholds=(0.5,))
    assert report.n_iou[0.5] == len(ds.annotations) // 2  # exactly one pair per two boxes
    assert count_center_collisions(ds, stride=4).n_center == 0


def test_inject_center_collisions_adds_exact_pairs():
    ds = make_dataset(seed=6, num_images=5, max_objects=10)
    spiked = inject_center_collisions(ds, seed=7, num_pairs=8)
    assert len(spiked.annotations) == len(ds.annotations) + 8
    assert count_center_collisions(spiked, stride=4).n_center == 8
    ids = [a.id for a in spiked.annotations]
    assert len(set(ids)) == len(ids)
