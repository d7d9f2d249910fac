"""Binary checkpoint container for named weight arrays.

Layout (all integers little-endian unsigned 32-bit):

    magic  b"DRCW"
    version u32 (currently 1)
    then per array: name_len u32, name utf-8 bytes, rank u32,
                    dims u32 * rank, payload float32 row-major

Array order is preserved, so writing the same mapping twice yields
byte-identical files. Files are written and read through ``artifacts``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..artifacts import Cursor, read_file, write_file
from ..errors import FormatError

MAGIC = b"DRCW"
VERSION = 1


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded,
                  struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    write_file(path, b"".join(parts))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """The named arrays of a checkpoint; damage raises ``FormatError`` naming it."""
    return read_file(path, "checkpoint", _parse_checkpoint)


def _parse_checkpoint(raw: bytes) -> dict[str, np.ndarray]:
    if len(raw) < 8:
        raise FormatError(f"header: expected 8 bytes, file has {len(raw)}")
    if raw[:4] != MAGIC:
        raise FormatError(f"magic: expected {MAGIC!r}, got {raw[:4]!r}")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != VERSION:
        raise FormatError(f"version: expected {VERSION}, got {version}")

    arrays: dict[str, np.ndarray] = {}
    cur = Cursor(raw, 8)
    while cur.pos < len(raw):
        name_len = struct.unpack("<I", cur.take(4, "name length"))[0]
        try:
            name = bytes(cur.take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"name at byte {cur.pos - name_len}: not UTF-8 ({err.reason})")
        rank = struct.unpack("<I", cur.take(4, f"rank of {name!r}"))[0]
        dims = struct.unpack(f"<{rank}I", cur.take(4 * rank, f"dims of {name!r}"))
        count = math.prod(dims)  # a Python int: a corrupt dim cannot wrap around
        payload = cur.take(4 * count, f"payload of {name!r}")
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return arrays
