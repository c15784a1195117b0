"""Binary tensor format: bit-exact round-trips and error reporting."""
import json
import struct

import numpy as np
import pytest

from cpt import DenseGrid, InputError, read_grid, write_grid
from cpt.tensorio import MAGIC


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_roundtrip_f64_bit_exact(tmp_path):
    g = DenseGrid(rng(1).standard_normal((3, 5, 7)))
    path = tmp_path / "t.cpt"
    write_grid(path, g)
    back = read_grid(path)
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, g.data)
    assert back.data.tobytes() == g.data.tobytes()


def test_roundtrip_f32(tmp_path):
    g = DenseGrid(rng(2).standard_normal((2, 4, 4)).astype(np.float32))
    path = tmp_path / "t.cpt"
    write_grid(path, g)
    back = read_grid(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, g.data)


def test_rewrite_is_byte_identical(tmp_path):
    g = DenseGrid(rng(3).standard_normal((1, 3, 3)))
    a, b = tmp_path / "a.cpt", tmp_path / "b.cpt"
    write_grid(a, g)
    write_grid(b, read_grid(a))
    assert a.read_bytes() == b.read_bytes()


def test_downcast_on_request(tmp_path):
    g = DenseGrid(rng(4).standard_normal((1, 2, 2)))
    path = tmp_path / "t.cpt"
    write_grid(path, g, dtype="f32")
    back = read_grid(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, g.data.astype(np.float32))


def test_header_contents(tmp_path):
    path = tmp_path / "t.cpt"
    write_grid(path, DenseGrid.zeros(7, 5, 3))
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    (length,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + length])
    assert header == {"dims": [3, 5, 7], "dtype": "f64", "order": "row-major-channel-outer"}
    assert len(blob) == 12 + length + 3 * 5 * 7 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cpt"
    path.write_bytes(b"NOTAGRID" + b"\x00" * 16)
    with pytest.raises(InputError, match="not a CPTGRID1"):
        read_grid(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.cpt"
    write_grid(path, DenseGrid.zeros(4, 4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputError, match="size mismatch"):
        read_grid(path)


def test_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        read_grid("/nonexistent/nowhere.cpt")


def test_bad_dims(tmp_path):
    path = tmp_path / "t.cpt"
    header = json.dumps({"dims": [0, 1, 1], "dtype": "f64", "order": "row-major-channel-outer"}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(InputError, match="bad dims"):
        read_grid(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_non_finite_payload_rejected(tmp_path, bad, dtype):
    data = np.zeros((2, 3, 3))
    data[1, 2, 0] = bad
    path = tmp_path / "t.cpt"
    write_grid(path, DenseGrid(data), dtype=dtype)
    with pytest.raises(InputError, match="NaN or infinite") as info:
        read_grid(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"5", "must be a JSON object"),
        (b'"dims dtype order"', "must be a JSON object"),
        (b'{"dims":[1,1,1],"dtype":["f64"],"order":"row-major-channel-outer"}', "'dtype' must be a string"),
        (b'{"dims":[1,1,1],"dtype":"f64","order":{}}', "'order' must be a string"),
        (b'{"dims":[true,true,true],"dtype":"f64","order":"row-major-channel-outer"}', "bad dims"),
        (b"[" * 100_000, "malformed tensor header"),
        (b"1" * 5_000, "malformed tensor header"),
    ],
    ids=["number", "string", "dtype-list", "order-object", "bool-dims", "deep-nesting", "overlong-int"],
)
def test_wrong_header_types_rejected(tmp_path, header, message):
    path = tmp_path / "t.cpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + np.zeros(1).tobytes())
    with pytest.raises(InputError, match=message):
        read_grid(path)
