"""Corrupt binary artifacts: a damaged file loads or raises ``FormatError``, nothing else."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from drcbench.autodiff import load_checkpoint, save_checkpoint
from drcbench.errors import FormatError
from drcbench.spectrogram import SCALE_MEL, read_matrix, write_matrix


def _write_checkpoint(path):
    rng = np.random.default_rng(0)
    save_checkpoint(path, {
        "block1.conv.w": rng.normal(size=(3, 3, 1, 2)).astype(np.float32),
        "head.b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(2.5, dtype=np.float32),
    })


def _write_matrix(path):
    write_matrix(path, np.random.default_rng(0).uniform(0, 5, (3, 4)), SCALE_MEL)


FORMATS = {
    "drcw": (_write_checkpoint, load_checkpoint),
    "spec": (_write_matrix, read_matrix),
}

# (kind, offset, mask): a truncation keeps the bytes before ``offset``, a flip
# XORs the byte at ``offset`` with ``mask``; offsets wrap around the file length
_damage = st.tuples(st.sampled_from(["truncate", "flip"]), st.integers(0, 10_000),
                    st.integers(1, 255))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_damage)
@example(damage=("flip", 12, 0x80))  # the first byte of the first checkpoint name
def test_damaged_file_loads_or_raises_format_error(tmp_path, fmt, damage):
    write, read = FORMATS[fmt]
    path = tmp_path / f"artifact.{fmt}"
    write(path)
    blob = bytearray(path.read_bytes())
    kind, offset, mask = damage
    offset %= len(blob)
    if kind == "truncate":
        del blob[offset:]
    else:
        blob[offset] ^= mask
    path.write_bytes(bytes(blob))
    try:
        read(path)
    except FormatError:
        pass
