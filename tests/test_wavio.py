import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcbench.audio import AudioClip
from drcbench.errors import FormatError
from drcbench.wavio import read_wav, write_wav


def _clip(samples, sr=16000):
    return AudioClip(np.asarray(samples, dtype=np.float64), sr)


def test_float32_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, 4096).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    write_wav(path, _clip(samples), encoding="float32")
    loaded = read_wav(path)
    assert loaded.sample_rate == 16000
    assert np.array_equal(loaded.samples, samples)


def test_pcm16_round_trip_within_quantum(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-0.99, 0.99, 2048)
    path = tmp_path / "p16.wav"
    write_wav(path, _clip(samples), encoding="pcm16")
    loaded = read_wav(path)
    assert np.max(np.abs(loaded.samples - samples)) <= 2.0 ** -15


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", _clip(np.zeros(8)), encoding="mp3")


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, _clip(np.linspace(-0.5, 0.5, 128)))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(FormatError):
        read_wav(path)


def test_bad_magic_names_the_field(tmp_path):
    path = tmp_path / "m.wav"
    write_wav(path, _clip(np.zeros(16)))
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="chunk id"):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "s.wav"
    write_wav(path, _clip(np.zeros(32)))
    blob = bytearray(path.read_bytes())
    # channel count lives at offset 22 of the canonical header
    blob[22] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="channel"):
        read_wav(path)


def test_unsupported_format_tag(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, _clip(np.zeros(32)), encoding="pcm16")
    blob = bytearray(path.read_bytes())
    blob[20] = 7  # mu-law
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="format tag"):
        read_wav(path)


def test_extra_chunks_are_skipped(tmp_path):
    samples = np.linspace(-0.25, 0.25, 64)
    path = tmp_path / "c.wav"
    write_wav(path, _clip(samples))
    blob = bytearray(path.read_bytes())
    # splice a LIST chunk between fmt and data
    data_at = blob.index(b"data")
    extra = b"LIST" + (6).to_bytes(4, "little") + b"INFOab"
    patched = blob[:data_at] + extra + blob[data_at:]
    riff_size = int.from_bytes(patched[4:8], "little") + len(extra)
    patched[4:8] = riff_size.to_bytes(4, "little")
    path.write_bytes(bytes(patched))
    loaded = read_wav(path)
    assert np.allclose(loaded.samples, samples, atol=1e-7)


def test_odd_pcm_chunk_is_padded(tmp_path):
    # odd sample count -> odd data byte count is impossible for 16-bit,
    # but the pad-byte logic still has to keep the RIFF size consistent
    samples = np.linspace(-0.5, 0.5, 33)
    path = tmp_path / "o.wav"
    write_wav(path, _clip(samples), encoding="pcm16")
    loaded = read_wav(path)
    assert loaded.samples.shape == (33,)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=500),
    sr=st.sampled_from([8000, 16000, 44100]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_float32_round_trip_property(tmp_path_factory, n, sr, seed):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-1.0, 1.0, n).astype(np.float32).astype(np.float64)
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    write_wav(path, _clip(samples, sr))
    loaded = read_wav(path)
    assert loaded.sample_rate == sr
    assert np.array_equal(loaded.samples, samples)


def test_out_of_range_samples_load_clipped(tmp_path):
    # a float WAV may hold samples beyond full scale, and PCM16 -32768 decodes
    # just below -1: both load clipped to full scale, the rest unchanged
    path = tmp_path / "loud.wav"
    write_wav(path, _clip([0.25, 0.5, -0.75]), encoding="float32")
    blob = path.read_bytes()
    loud = blob.replace(np.float32(0.5).tobytes(), np.float32(1.5).tobytes())
    path.write_bytes(loud.replace(np.float32(-0.75).tobytes(), np.float32(-2.0).tobytes()))
    loaded = read_wav(path)
    assert loaded.samples.dtype == np.float64
    assert loaded.samples.tolist() == [0.25, 1.0, -1.0]

    path = tmp_path / "floor.wav"
    write_wav(path, _clip([0.0, -1.0]), encoding="pcm16")
    blob = path.read_bytes()
    path.write_bytes(blob[:-2] + np.int16(-32768).astype("<i2").tobytes())
    assert read_wav(path).samples.tolist() == [0.0, -1.0]
