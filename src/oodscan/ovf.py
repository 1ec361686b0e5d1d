"""OVF binary tensor container: read/write with bit-exact round trips.

Layout (all little-endian):

    bytes 0-7    magic ``OVF1\\0\\0\\0\\0``
    byte  8      dtype code: 1 = float32, 2 = uint8
    byte  9      ndim: 3 (volume/mask) or 4 (channel-major tensor)
    bytes 10-13  reserved, must be zero
    next         ndim x u32 dims (channel count first when ndim = 4)
    next         3 x f32 spacing (mm per cell)
    next         payload, row-major, last axis fastest

Payload length must equal the product of dims times the scalar size
exactly; trailing or missing bytes fail the read. Files load as ``Grid``:
the dtype code and the dims are those of its array.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .volumes import Grid

MAGIC = b"OVF1\x00\x00\x00\x00"
DTYPE_F32 = 1
DTYPE_U8 = 2

_DTYPE_NP = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype("u1")}


def _header_bytes(dtype_code: int, dims: tuple[int, ...], spacing) -> bytes:
    parts = [MAGIC, struct.pack("<BB4x", dtype_code, len(dims))]
    parts.append(struct.pack(f"<{len(dims)}I", *dims))
    parts.append(struct.pack("<3f", *spacing))
    return b"".join(parts)


def write_ovf(grid: Grid, path) -> None:
    """Serialize a Grid to ``path``. Rejects non-finite float payloads."""
    data = grid.data
    dtype_code = DTYPE_U8 if data.dtype == np.uint8 else DTYPE_F32
    if dtype_code == DTYPE_F32 and not np.all(np.isfinite(data)):
        raise DataError("non-finite payload")

    payload = np.ascontiguousarray(data, dtype=_DTYPE_NP[dtype_code]).tobytes(order="C")
    try:
        with open(path, "wb") as fh:
            fh.write(_header_bytes(dtype_code, data.shape, grid.spacing))
            fh.write(payload)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _parse(raw: bytes, path) -> tuple[tuple[float, ...], np.ndarray]:
    if len(raw) < 14 or raw[:8] != MAGIC:
        raise DataError(f"{path}: bad magic")
    dtype_code, ndim = raw[8], raw[9]
    if dtype_code not in _DTYPE_NP:
        raise DataError(f"{path}: unknown dtype code {dtype_code}")
    if ndim not in (3, 4):
        raise DataError(f"{path}: unsupported ndim {ndim}")
    if raw[10:14] != b"\x00\x00\x00\x00":
        raise DataError(f"{path}: reserved header bytes are nonzero")
    offset = 14
    need = offset + 4 * ndim + 12
    if len(raw) < need:
        raise DataError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndim}I", raw, offset)
    offset += 4 * ndim
    spacing = struct.unpack_from("<3f", raw, offset)
    offset += 12
    if any(d == 0 for d in dims):
        raise DataError(f"{path}: zero dimension in header")
    np_dtype = _DTYPE_NP[dtype_code]
    expected = int(np.prod(dims, dtype=np.int64)) * np_dtype.itemsize
    if len(raw) - offset != expected:
        raise DataError(
            f"{path}: payload length mismatch (header implies {expected} bytes, "
            f"found {len(raw) - offset})"
        )
    data = np.frombuffer(raw[offset:], dtype=np_dtype).reshape(dims)
    return spacing, data


def read_ovf(path) -> Grid:
    """Read an OVF file back into a Grid; u8 payloads must be 3-D masks."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    spacing, data = _parse(raw, path)
    try:
        return Grid(data, spacing)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
