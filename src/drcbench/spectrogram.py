"""Time-frequency front end: framed STFT magnitudes and mel spectrograms.

Framing uses a symmetric Hann window, hop defaulting to half the frame, and
no center padding, so ``frames = 1 + floor((len - frame_len) / hop_len)``.
Both representations share the same log compression ``log(1 + gamma * m)``
with ``gamma = 1e4``; the mel filterbank (HTK mel scale, triangular filters,
unit peak) is applied to the *power* spectrogram before compression.

Representations are computed from the audio whenever they are needed and
are not stored. Feature matrices are stored, through ``artifacts``, in a
small flat binary format (``.spec``): a 16-byte header (magic ``SPEC``, u32
rows, u32 cols, u32 scale enum, always ``SCALE_FEATURES``) followed by a
float32 row-major little-endian payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_file, write_file
from .audio import AudioClip
from .errors import DomainError, FormatError, ShapeError, SizeError

#: log-compression strength shared by both representations
GAMMA = 1e4

MAGIC = b"SPEC"

#: scale enum of every ``.spec`` header; its value keeps existing feature files readable
SCALE_FEATURES = 2


@dataclass(frozen=True)
class Spectrogram:
    """2-D time-frequency matrix, ``values[bin, frame]``, log-compressed."""

    values: np.ndarray
    sample_rate: int
    frame_len: int
    hop_len: int
    scale: str  # "linear_stft" or "mel"

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.size == 0:
            raise ShapeError(f"expected a non-empty 2-D matrix, got {self.values.shape}")

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def frame_count(n_samples: int, frame_len: int, hop_len: int) -> int:
    if n_samples < frame_len:
        raise SizeError(
            f"clip of {n_samples} samples is shorter than one frame ({frame_len})"
        )
    return 1 + (n_samples - frame_len) // hop_len


def _stft_abs(x: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """``|rfft|`` of each Hann-windowed frame, shape (frames, frame_len//2 + 1)."""
    n_frames = frame_count(x.size, frame_len, hop_len)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop_len][:n_frames]
    return np.abs(np.fft.rfft(frames * np.hanning(frame_len), axis=1))


def _check_frame_args(frame_len: int, hop_len: int | None) -> int:
    if frame_len < 2:
        raise DomainError(f"frame_len must be >= 2, got {frame_len}")
    hop = frame_len // 2 if hop_len is None else hop_len
    if hop < 1:
        raise DomainError(f"hop_len must be >= 1, got {hop}")
    return hop

def log_compress(m: np.ndarray) -> np.ndarray:
    return np.log1p(GAMMA * m)


def stft_magnitude(clip: AudioClip, frame_len: int = 256, hop_len: int | None = None) -> Spectrogram:
    """Log-compressed STFT magnitude spectrogram, shape (frame_len//2+1, frames)."""
    hop = _check_frame_args(frame_len, hop_len)
    return Spectrogram(
        values=log_compress(_stft_abs(clip.samples, frame_len, hop)).T,
        sample_rate=clip.sample_rate,
        frame_len=frame_len,
        hop_len=hop,
        scale="linear_stft",
    )


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, frame_len: int, n_mels: int) -> np.ndarray:
    """Triangular unit-peak filters, shape (n_mels, frame_len//2 + 1).

    Band edges are spaced uniformly on the HTK mel scale over [0, fs/2].
    A triangle too narrow to straddle any FFT bin would sample to an
    all-zero row; such rows are pinned to the bin nearest their center so
    every band keeps positive coverage.
    """
    n_bins = frame_len // 2 + 1
    if not 1 <= n_mels <= n_bins:
        raise DomainError(f"n_mels={n_mels} outside valid range [1, {n_bins}]")
    fft_freqs = np.arange(n_bins) * sample_rate / frame_len
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))
    weights = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rise = (fft_freqs - lo) / max(center - lo, 1e-12)
        fall = (hi - fft_freqs) / max(hi - center, 1e-12)
        weights[m] = np.clip(np.minimum(rise, fall), 0.0, 1.0)
        if not weights[m].any():
            weights[m, int(np.argmin(np.abs(fft_freqs - center)))] = 1.0
        # the sampled apex can land between bins; rescale to a true unit peak
        weights[m] /= weights[m].max()
    return weights


def mel_spectrogram(clip: AudioClip, frame_len: int = 256, hop_len: int | None = None,
                    n_mels: int = 128) -> Spectrogram:
    """Log-compressed mel spectrogram, shape (n_mels, frames)."""
    hop = _check_frame_args(frame_len, hop_len)
    fb = mel_filterbank(clip.sample_rate, frame_len, n_mels)
    mel_power = _stft_abs(clip.samples, frame_len, hop) ** 2 @ fb.T
    return Spectrogram(
        values=log_compress(mel_power).T,
        sample_rate=clip.sample_rate,
        frame_len=frame_len,
        hop_len=hop,
        scale="mel",
    )


def transform(clip: AudioClip, representation: str, frame_len: int = 256,
              hop_len: int | None = None, n_mels: int = 128) -> Spectrogram:
    """Dispatch on representation name ("spectrogram" or "mel")."""
    if representation == "spectrogram":
        return stft_magnitude(clip, frame_len, hop_len)
    if representation == "mel":
        return mel_spectrogram(clip, frame_len, hop_len, n_mels)
    raise DomainError(f"unknown representation {representation!r}")


def write_matrix(path: str | Path, values: np.ndarray) -> None:
    """Write a 2-D feature matrix in the flat binary ``.spec`` format."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise DomainError(f".spec stores 2-D matrices, got shape {values.shape}")
    rows, cols = values.shape
    write_file(path, MAGIC + struct.pack("<III", rows, cols, SCALE_FEATURES)
               + np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a ``.spec`` feature matrix as float32; damage raises ``FormatError`` naming it."""
    return read_file(path, "feature matrix", _parse_matrix)


def _parse_matrix(raw: bytes) -> np.ndarray:
    if len(raw) < 16:
        raise FormatError(f"header: expected 16 bytes, file has {len(raw)}")
    if raw[:4] != MAGIC:
        raise FormatError(f"magic: expected {MAGIC!r}, got {raw[:4]!r}")
    rows, cols, scale = struct.unpack("<III", raw[4:16])
    if scale != SCALE_FEATURES:
        raise FormatError(f"scale enum: expected {SCALE_FEATURES} (features), got {scale}")
    expected = rows * cols * 4
    if len(raw) - 16 != expected:
        raise FormatError(f"payload size: expected {expected} bytes for {rows}x{cols}, "
                          f"got {len(raw) - 16}")
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(rows, cols)
