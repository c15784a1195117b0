"""Binary tensor file format shared project-wide.

Layout: 8-byte magic "CPTGRID1", a 4-byte little-endian unsigned header
length, a UTF-8 JSON header {"dims": [C, H, W], "dtype": "f32"|"f64",
"order": "row-major-channel-outer"}, then the raw little-endian values.
Round-trips are bit-exact.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import InputError
from .grid import DenseGrid

MAGIC = b"CPTGRID1"
ORDER = "row-major-channel-outer"
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def _dtype_name(dtype) -> str:
    if np.dtype(dtype) == np.float32:
        return "f32"
    if np.dtype(dtype) == np.float64:
        return "f64"
    raise InputError(f"unsupported tensor dtype {dtype}; use f32 or f64")


def write_grid(path, grid: DenseGrid, dtype: str | None = None) -> None:
    """Write a grid to a tensor file. dtype defaults to the grid's own precision."""
    name = _dtype_name(grid.data.dtype) if dtype is None else dtype
    if name not in _DTYPES:
        raise InputError(f"unknown dtype {name!r}; expected 'f32' or 'f64'")
    header = {
        "dims": [grid.channels, grid.height, grid.width],
        "dtype": name,
        "order": ORDER,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    raw = np.ascontiguousarray(grid.data, dtype=_DTYPES[name]).tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        f.write(raw)


def read_grid(path) -> DenseGrid:
    """Read a tensor file back into a grid, preserving the stored precision.

    Every value must be finite: a NaN cell would silently hide the peaks
    around it from decoding.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise InputError(f"cannot read tensor file {path}: {e}") from e
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise InputError(f"{path}: not a CPTGRID1 tensor file")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if header_end > len(blob):
        raise InputError(f"{path}: truncated header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, an overlong int, deep nesting
        raise InputError(f"{path}: malformed tensor header: {e}") from e
    if not isinstance(header, dict):
        raise InputError(f"{path}: tensor header must be a JSON object, got {type(header).__name__}")
    for key in ("dims", "dtype", "order"):
        if key not in header:
            raise InputError(f"{path}: tensor header missing field {key!r}")
    for key in ("dtype", "order"):
        if not isinstance(header[key], str):
            raise InputError(f"{path}: tensor header field {key!r} must be a string, got {header[key]!r}")
    if header["order"] != ORDER:
        raise InputError(f"{path}: unsupported order {header['order']!r}")
    if header["dtype"] not in _DTYPES:
        raise InputError(f"{path}: unsupported dtype {header['dtype']!r}")
    dims = header["dims"]
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int and d >= 1 for d in dims)):
        raise InputError(f"{path}: bad dims {dims!r}")
    dtype = _DTYPES[header["dtype"]]
    count = dims[0] * dims[1] * dims[2]
    expected = header_end + count * dtype.itemsize
    if len(blob) != expected:
        raise InputError(f"{path}: payload size mismatch (expected {expected} bytes, file has {len(blob)})")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=header_end)
    if not np.isfinite(data).all():
        raise InputError(f"{path}: tensor holds NaN or infinite values")
    return DenseGrid(data.reshape(dims[0], dims[1], dims[2]).copy())
