"""Synthetic dataset generators: determinism and the guarantees tests rely on."""
import hashlib
import json
import math

import pytest

from cpt import count_center_collisions, count_iou_collisions
from cpt.dataset import dataset_to_json
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


# SHA-256 of each generator's dataset JSON per seed (0, 1, 17): a change in any draw or its order changes a digest
GENERATOR_DIGESTS = {
    "default": (
        lambda seed: make_dataset(seed),
        [
            "fd9ad702bf68c6233dae51e2a2a79298235743d46c1f9cc5c7b5dd06b5668cd1",
            "15f498c6a1fb149d7966109c9e78c5f6279a29408a34b4e7255d44fdd89924c6",
            "7ff64b9dd29a44cabf2389e6a285179c4f4e457153c32ee6cfc522f0d5f73cab",
        ],
    ),
    "with_3d": (
        lambda seed: make_dataset(seed, num_images=4, max_objects=6, num_classes=2, image_w=64, image_h=48, with_3d=True),
        [
            "a47cc9b826d22114e132ee6874c7b2a3df2b55bb1aa9f99659ea1f588950474b",
            "c62e98d0d9dce3e3d1e9cc4ca2fc0598db6b91d3e1c86f735ac41240e8ee72a7",
            "6c9a5b11daf6fb8d2f7f5bc9539a5fd85efd5ac917dc356393572d06dc42c258",
        ],
    ),
    "80_classes": (
        lambda seed: make_dataset(seed, num_images=2, max_objects=60, num_classes=80, image_w=512, image_h=384),
        [
            "116ff615f9a45e7127e95f8ec75b3c82e67ad85fdeeb7e17103c2d39ac63b9f1",
            "14d83a705dd701e006f43a7d3d50ad425cc913288477d61c7b0e230935ccff84",
            "2dffbf0a613c3c0ffdbbd47359ec7f2959f16e0dbd0bb066937abe53b1fd6fd9",
        ],
    ),
    "sparse": (
        make_sparse_dataset,
        [
            "3df74f34f04bf7b10706adbc07d996d71b48e048770b5df959ebd6fbfbe9be24",
            "23b7235fda067c9c9d95b8d6ce0e7b0194d4cdb94e5f6f2c63671b56438fdff8",
            "38668b278358002d442b69c62fda75015c05b6dfbf5b0551674f6820f7555707",
        ],
    ),
    "overlap": (
        make_overlap_dataset,
        [
            "d9b05d673a5717218f557f8d95eb576fedca1d97e8dc6368299bda6164cf692d",
            "35794360368258cd7d680c57bd6b09a59b7435fc6c8f0aff08f6ba3c7adc474b",
            "b2ab5a18795a7a9eef93a4c8bad979086ba6b114cbd789a295a1f4eb7f52f593",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(name):
    make, digests = GENERATOR_DIGESTS[name]
    for seed, want in zip((0, 1, 17), digests):
        doc = json.dumps(dataset_to_json(make(seed)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == want, f"{name} seed {seed}"
