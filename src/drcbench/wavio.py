"""Minimal RIFF/WAVE I/O for mono PCM16 and IEEE float32 files.

Files are written and read through ``artifacts``. The parser is strict:
anything it cannot represent, a truncated file included, raises
``FormatError`` naming the file and the offending field instead of
propagating a struct unpack failure. Unknown chunks are skipped, as allowed
by the RIFF container rules.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .artifacts import Cursor, read_file, write_file
from .audio import AudioClip
from .errors import DomainError, FormatError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003

_PCM16_SCALE = 32767.0


def write_wav(path: str | Path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write a clip as a mono little-endian WAV file.

    encoding: "pcm16" or "float32".
    """
    if encoding == "pcm16":
        fmt_tag, bits = WAVE_FORMAT_PCM, 16
        payload = np.round(clip.samples * _PCM16_SCALE).astype("<i2").tobytes()
    elif encoding == "float32":
        fmt_tag, bits = WAVE_FORMAT_IEEE_FLOAT, 32
        payload = clip.samples.astype("<f4").tobytes()
    else:
        raise DomainError(f"encoding must be 'pcm16' or 'float32', got {encoding!r}")

    block_align = bits // 8  # one channel
    fmt_chunk = struct.pack("<HHIIHH", fmt_tag, 1, clip.sample_rate,
                            clip.sample_rate * block_align, block_align, bits)
    # samples of 2 or 4 bytes: the data chunk never needs a pad byte
    write_file(path, b"".join([
        b"RIFF", struct.pack("<I", 4 + (8 + len(fmt_chunk)) + (8 + len(payload))), b"WAVE",
        b"fmt ", struct.pack("<I", len(fmt_chunk)), fmt_chunk,
        b"data", struct.pack("<I", len(payload)), payload,
    ]))


def read_wav(path: str | Path, clip_id: str | None = None) -> AudioClip:
    """Read a mono PCM16 or IEEE float32 WAV file into an AudioClip."""
    return read_file(path, "WAV file", lambda raw: _parse_wav(raw, clip_id))


def _parse_wav(raw: bytes, clip_id: str | None) -> AudioClip:
    cur = Cursor(raw)
    header = cur.take(12, "RIFF header")
    if header[0:4] != b"RIFF":
        raise FormatError(f"chunk id: expected b'RIFF', got {bytes(header[0:4])!r}")
    if header[8:12] != b"WAVE":
        raise FormatError(f"format id: expected b'WAVE', got {bytes(header[8:12])!r}")

    fmt = data = None
    while fmt is None or data is None:
        if cur.pos >= len(raw):
            missing = "fmt " if fmt is None else "data"
            raise FormatError(f"missing chunk: {missing!r}")
        head = cur.take(8, "chunk header")
        cid, size = head[0:4], struct.unpack("<I", head[4:8])[0]
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"fmt chunk size: expected >= 16, got {size}")
            fmt = struct.unpack("<HHIIHH", cur.take(size, "fmt chunk")[:16])
        elif cid == b"data":
            data = cur.take(size, "data chunk")
            cur.pos += size % 2
        else:
            cur.pos += size + (size % 2)  # skip unknown chunk + pad

    fmt_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise FormatError(f"channel count: expected 1 (mono), got {channels}")
    if fmt_tag == WAVE_FORMAT_PCM:
        if bits != 16:
            raise FormatError(f"bits per sample: expected 16 for PCM, got {bits}")
        if len(data) % 2:
            raise FormatError(f"data chunk size: {len(data)} not a multiple of 2")
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _PCM16_SCALE
    elif fmt_tag == WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise FormatError(f"bits per sample: expected 32 for float, got {bits}")
        if len(data) % 4:
            raise FormatError(f"data chunk size: {len(data)} not a multiple of 4")
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise FormatError(
            f"format tag: expected PCM (1) or IEEE float (3), got {fmt_tag}"
        )
    if samples.size == 0:
        raise FormatError("data chunk: contains no samples")
    return AudioClip(samples=np.clip(samples, -1.0, 1.0), sample_rate=sample_rate, clip_id=clip_id)
