import struct

import numpy as np
import pytest

from drcbench.audio import AudioClip
from drcbench.errors import DomainError, FormatError, SizeError
from drcbench.spectrogram import (
    GAMMA,
    SCALE_FEATURES,
    Spectrogram,
    frame_count,
    hz_to_mel,
    log_compress,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    read_matrix,
    stft_magnitude,
    transform,
    write_matrix,
)


def _sine(freq, n=32000, sr=16000, amp=0.5):
    t = np.arange(n) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr)


def test_frame_count_formula():
    assert frame_count(32000, 256, 128) == 249
    assert frame_count(176400, 512, 256) == 688
    assert frame_count(256, 256, 128) == 1
    assert frame_count(383, 256, 128) == 1
    assert frame_count(384, 256, 128) == 2


def test_short_clip_raises_size_error():
    with pytest.raises(SizeError):
        stft_magnitude(AudioClip(np.zeros(100), 16000), frame_len=256)


def test_output_shape_and_defaults():
    spec = stft_magnitude(_sine(1000.0), frame_len=256)
    # default hop is half the frame
    assert spec.hop_len == 128
    assert spec.values.shape == (129, 249)
    assert spec.n_bins == 129
    assert spec.n_frames == 249


def test_zero_input_gives_zero_output():
    spec = stft_magnitude(AudioClip(np.zeros(4000), 16000), frame_len=256)
    assert np.all(spec.values == 0.0)


def test_first_frame_matches_naive_dft():
    clip = _sine(997.0)
    spec = stft_magnitude(clip, frame_len=256, hop_len=128)
    frame = clip.samples[:256] * np.hanning(256)
    n = np.arange(256)
    k = np.arange(129)
    dft = np.abs((frame[None, :] * np.exp(-2j * np.pi * k[:, None] * n / 256)).sum(axis=1))
    mags = np.expm1(spec.values[:, 0]) / GAMMA  # undo the log compression
    assert np.allclose(mags, dft, rtol=1e-8, atol=1e-10)


def test_bin_aligned_sine_is_narrowband():
    sr, frame = 16000, 256
    freq = 16 * sr / frame  # exactly bin 16
    spec = stft_magnitude(_sine(freq, sr=sr), frame_len=frame)
    mags = np.expm1(spec.values[:, 10]) / GAMMA  # invert the compression
    peak = mags[16]
    far = np.delete(mags, [14, 15, 16, 17, 18])
    assert peak > 0
    assert np.max(far) < peak * 10 ** (-30 / 20)


def test_log_compression_is_monotone():
    m = np.array([0.0, 1e-6, 1e-3, 0.1, 1.0])
    out = log_compress(m)
    assert out[0] == 0.0
    assert np.all(np.diff(out) > 0)


def test_mel_scale_anchor_points():
    assert hz_to_mel(0.0) == 0.0
    assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2.0))
    assert mel_to_hz(hz_to_mel(440.0)) == pytest.approx(440.0, rel=1e-12)


def test_filterbank_rows_unit_peak_and_nonempty():
    fb = mel_filterbank(16000, 256, 128)
    assert fb.shape == (128, 129)
    assert np.all(fb >= 0.0)
    assert np.allclose(fb.max(axis=1), 1.0)


def test_filterbank_matches_reference_construction():
    # independent construction of the same triangles
    sr, frame, n_mels = 16000, 256, 12
    n_bins = frame // 2 + 1
    edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2), n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = np.arange(n_bins) * sr / frame
    ref = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, mid, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        tri = np.maximum(0.0, np.minimum(up, down))
        if tri.max() == 0.0:
            tri[np.argmin(np.abs(bin_hz - mid))] = 1.0
        ref[i] = tri / tri.max()
    fb = mel_filterbank(sr, frame, n_mels)
    assert np.allclose(fb, ref, atol=1e-12)


def test_narrow_triangles_pin_nearest_bin():
    # tiny frame + many mels forces triangles narrower than one bin
    fb = mel_filterbank(16000, 32, 16)
    assert np.all(fb.max(axis=1) == 1.0)


def test_mel_band_count_bounds():
    with pytest.raises(DomainError):
        mel_filterbank(16000, 256, 0)
    with pytest.raises(DomainError):
        mel_filterbank(16000, 256, 130)


def test_mel_spectrogram_shape_and_dispatch():
    clip = _sine(500.0)
    mel = mel_spectrogram(clip, frame_len=256, n_mels=128)
    assert mel.values.shape == (128, 249)
    via_transform = transform(clip, "mel", frame_len=256, n_mels=128)
    assert np.array_equal(mel.values, via_transform.values)
    with pytest.raises(DomainError):
        transform(clip, "cepstrum")


def test_matrix_cache_round_trip(tmp_path):
    values = np.random.default_rng(0).uniform(0, 5, (17, 23)).astype(np.float32)
    path = tmp_path / "m.spec"
    write_matrix(path, values)
    loaded = read_matrix(path)
    assert path.read_bytes()[:16] == b"SPEC" + struct.pack("<III", 17, 23, SCALE_FEATURES)
    assert np.array_equal(loaded, values)


def test_matrix_cache_write_is_byte_deterministic(tmp_path):
    values = np.random.default_rng(1).uniform(0, 5, (5, 7)).astype(np.float32)
    a, b = tmp_path / "a.spec", tmp_path / "b.spec"
    write_matrix(a, values)
    write_matrix(b, values)
    assert a.read_bytes() == b.read_bytes()


def test_matrix_cache_bad_magic(tmp_path):
    path = tmp_path / "m.spec"
    write_matrix(path, np.zeros((2, 2), dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        read_matrix(path)


def test_matrix_cache_truncated_payload(tmp_path):
    path = tmp_path / "m.spec"
    write_matrix(path, np.ones((4, 4), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        read_matrix(path)


def test_matrix_cache_bad_scale_enum(tmp_path):
    path = tmp_path / "m.spec"
    write_matrix(path, np.zeros((2, 2), dtype=np.float32))
    blob = bytearray(path.read_bytes())
    for scale in (0, 1, 9):  # 0 and 1 were spectrogram kinds
        blob[12] = scale
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="scale") as err:
            read_matrix(path)
        assert str(err.value) == \
            f"{path}: malformed feature matrix: scale enum: expected 2 (features), got {scale}"


def test_spectrogram_dataclass_validation():
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((0, 5)), 16000, 256, 128, 0)
