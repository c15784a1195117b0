"""Dataset ingestion: validation, clamping, remapping, serialization."""
import json
import math

import pytest

from cpt import InputError, load_dataset
from cpt.dataset import dataset_to_json


def write(tmp_path, doc):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def minimal(**overrides):
    doc = {
        "images": [{"id": 1, "width": 64, "height": 48}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 7, "bbox": [10, 10, 20, 15]}],
        "categories": [{"id": 7, "name": "widget"}],
    }
    doc.update(overrides)
    return doc


def test_minimal_file(tmp_path):
    ds = load_dataset(write(tmp_path, minimal()))
    assert len(ds.annotations) == 1
    ann = ds.annotations[0]
    assert ann.bbox == (10.0, 10.0, 30.0, 25.0)
    assert ann.category == 0
    assert ann.id == 1 and ann.image_id == 1
    assert ds.warnings == []


def test_bbox_clamped_with_warning(tmp_path):
    doc = minimal()
    doc["annotations"][0]["bbox"] = [50, 40, 30, 30]  # exceeds 64x48
    ds = load_dataset(write(tmp_path, doc))
    assert ds.annotations[0].bbox == (50.0, 40.0, 64.0, 48.0)
    assert len(ds.warnings) == 1
    assert "clamped" in ds.warnings[0]


def test_category_ids_remap_densely_sorted(tmp_path):
    doc = minimal(
        categories=[{"id": 30, "name": "b"}, {"id": 7, "name": "a"}],
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 30, "bbox": [0, 0, 5, 5]},
            {"id": 2, "image_id": 1, "category_id": 7, "bbox": [0, 0, 5, 5]},
        ],
    )
    ds = load_dataset(write(tmp_path, doc))
    assert [(c.id, c.index) for c in ds.categories] == [(7, 0), (30, 1)]
    assert ds.annotations[0].category == 1
    assert ds.annotations[1].category == 0


def test_annotations_sorted_by_id(tmp_path):
    doc = minimal(
        annotations=[
            {"id": 5, "image_id": 1, "category_id": 7, "bbox": [0, 0, 5, 5]},
            {"id": 2, "image_id": 1, "category_id": 7, "bbox": [1, 1, 5, 5]},
        ]
    )
    ds = load_dataset(write(tmp_path, doc))
    assert [a.id for a in ds.annotations] == [2, 5]


def test_duplicate_annotation_id(tmp_path):
    doc = minimal(
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 7, "bbox": [0, 0, 5, 5]},
            {"id": 1, "image_id": 1, "category_id": 7, "bbox": [1, 1, 5, 5]},
        ]
    )
    with pytest.raises(InputError, match="duplicate annotation id"):
        load_dataset(write(tmp_path, doc))


def test_duplicate_image_id(tmp_path):
    doc = minimal(images=[{"id": 1, "width": 4, "height": 4}, {"id": 1, "width": 8, "height": 8}])
    with pytest.raises(InputError, match="duplicate image id"):
        load_dataset(write(tmp_path, doc))


def test_unknown_image_reference(tmp_path):
    doc = minimal()
    doc["annotations"][0]["image_id"] = 99
    with pytest.raises(InputError, match="image_id 99"):
        load_dataset(write(tmp_path, doc))


def test_unknown_category_reference(tmp_path):
    doc = minimal()
    doc["annotations"][0]["category_id"] = 99
    with pytest.raises(InputError, match="category_id 99"):
        load_dataset(write(tmp_path, doc))


def test_missing_field_named(tmp_path):
    doc = minimal()
    del doc["annotations"][0]["bbox"]
    with pytest.raises(InputError, match="bbox"):
        load_dataset(write(tmp_path, doc))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"images": [,]}', encoding="utf-8")
    with pytest.raises(InputError, match=r"line 1, column"):
        load_dataset(path)


def test_keypoints_visibility_flag(tmp_path):
    doc = minimal()
    doc["annotations"][0]["keypoints"] = [1, 2, 2, 3, 4, 0, 5, 6, 1]
    ds = load_dataset(write(tmp_path, doc))
    assert ds.annotations[0].keypoints == [(1.0, 2.0, True), (3.0, 4.0, False), (5.0, 6.0, True)]


def test_keypoints_shape_validated(tmp_path):
    doc = minimal()
    doc["annotations"][0]["keypoints"] = [1, 2]
    with pytest.raises(InputError, match="keypoints"):
        load_dataset(write(tmp_path, doc))


def test_3d_fields(tmp_path):
    doc = minimal()
    doc["annotations"][0].update({"depth": 12.5, "dims3d": [1.5, 1.6, 3.9], "yaw": 7.0})
    ds = load_dataset(write(tmp_path, doc))
    ann = ds.annotations[0]
    assert ann.depth == 12.5
    assert ann.dims3d == (1.5, 1.6, 3.9)
    assert -math.pi < ann.yaw <= math.pi  # normalized on load
    assert ann.yaw == pytest.approx(7.0 - 2 * math.pi)


def test_roundtrip_serialization(tmp_path):
    doc = minimal()
    doc["annotations"][0].update({"depth": 3.0, "keypoints": [1, 2, 2]})
    ds = load_dataset(write(tmp_path, doc))
    again = load_dataset(write(tmp_path, dataset_to_json(ds)))
    assert again.annotations[0].bbox == ds.annotations[0].bbox
    assert again.annotations[0].keypoints == ds.annotations[0].keypoints
    assert again.annotations[0].depth == 3.0


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("bbox", [float("nan"), 4, 8, 8], "bbox entry must be finite"),
        ("bbox", [0, 0, float("inf"), 4], "bbox entry must be finite"),
        ("bbox", ["x", 0, 4, 4], "bbox entry must be a number"),
        ("dims3d", ["a", 1, 1], "dims3d entry must be a number"),
        ("dims3d", [1, float("nan"), 1], "dims3d entry must be finite"),
        ("keypoints", [1, float("nan"), 2], "keypoints entry must be finite"),
        ("depth", float("inf"), "field 'depth' must be finite"),
        ("depth", 10**400, "field 'depth' must be finite"),
    ],
)
def test_non_numbers_and_non_finite_numbers_rejected(tmp_path, field, value, message):
    doc = minimal()
    doc["annotations"][0][field] = value
    with pytest.raises(InputError, match=rf"annotations\[0\]: {message}"):
        load_dataset(write(tmp_path, doc))


def test_non_finite_image_size_rejected(tmp_path):
    doc = minimal(images=[{"id": 1, "width": float("nan"), "height": 48}])
    with pytest.raises(InputError, match="'width' must be finite"):
        load_dataset(write(tmp_path, doc))


def test_non_object_entry_rejected(tmp_path):
    with pytest.raises(InputError, match=r"images\[0\]: must be an object"):
        load_dataset(write(tmp_path, minimal(images=[1])))


def test_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_dataset("/nonexistent/ds.json")
