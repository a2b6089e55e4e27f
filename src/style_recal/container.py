"""Flat binary container for named arrays: checkpoints, datasets, analysis records.

Layout (all integers little-endian):

    magic   4 bytes  b"SRCB"
    version u32      currently 1
    meta    u32 length + UTF-8 JSON (free-form manifest: step counter,
                     config hash, dataset dims, ...)
    count   u32      number of entries, then per entry:
        name   u16 length + UTF-8 bytes
        dtype  u8    0=float32 1=float64 2=int64 3=uint8
        ndim   u8
        dims   u32 * ndim
        data   raw little-endian payload, row-major
    nothing after the last entry

Writes are bitwise-reproducible for identical inputs, and a read followed by
a write round-trips byte-identically. A write goes to ``<name>.tmp`` in the
same directory, is fsynced, then replaces the target, so an interrupted write
leaves the previous file intact. Reading malformed or truncated bytes raises
only ``ContainerError``.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = ["write_container", "read_container", "ContainerError", "MAGIC", "VERSION"]

MAGIC = b"SRCB"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i8"): 2,
    np.dtype("u1"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class ContainerError(ValueError):
    """Malformed or truncated container file."""


def write_container(path: str | Path, entries: dict[str, np.ndarray], meta: dict | None = None) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)
    buf.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        arr = np.asarray(arr, order="C")  # keeps a 0-d array 0-d, where ascontiguousarray makes it (1,)
        dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
        arr = arr.astype(dt, copy=False)
        if arr.dtype not in _DTYPE_CODES:
            raise ContainerError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<H", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(buf.getvalue())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise ContainerError(f"{path}: truncated at offset {off} (wanted {n} more bytes)")
        chunk = view[off : off + n]
        off += n
        return chunk

    def text(n: int, what: str) -> str:
        at = off
        try:
            return bytes(take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: {what} at offset {at} is not UTF-8") from exc

    if bytes(take(4)) != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a container file")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise ContainerError(f"{path}: unsupported container version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(text(meta_len, "meta"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ContainerError(f"{path}: meta is not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: meta is a JSON {type(meta).__name__}, not an object")
    (count,) = struct.unpack("<I", take(4))
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "entry name")
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _CODE_DTYPES:
            raise ContainerError(f"{path}: unknown dtype code {code} for entry {name!r}")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(dims) * dtype.itemsize
        data = np.frombuffer(take(nbytes), dtype=dtype).reshape(dims).copy()
        entries[name] = data
    if off != len(raw):
        raise ContainerError(f"{path}: {len(raw) - off} bytes after the last entry, at offset {off}")
    return entries, meta
