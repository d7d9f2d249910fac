"""Corrupt artifacts: a damaged file loads or raises a package error, never a raw one.

Binary checkpoints and matrices raise ``FormatError``. A damaged WAV may
also fail a domain check (a NaN sample); a damaged JSON input (a manifest, a
loop or checkpoint sidecar, a feature matrix's metadata) raises
``FormatError``, or a later check rejects what it describes (a checkpoint
array of another shape). The CLI maps every package error but
``NumericError`` to exit 2.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from drcbench import experiment
from drcbench.audio import AudioClip
from drcbench.autodiff import load_checkpoint, save_checkpoint
from drcbench.dataset import (
    DatasetManifest,
    build_grid,
    generate_loops,
    load_loops_dir,
    materialize,
)
from drcbench.errors import DrcBenchError, FormatError, NumericError
from drcbench.models import ModelSpec, SiameseModel, load_model, save_model
from drcbench.spectrogram import SCALE_MEL, read_matrix, write_matrix
from drcbench.wavio import read_wav, write_wav


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
    _apply(damage, path)
    try:
        read(path)
    except FormatError:
        pass


def _apply(damage, path):
    blob = bytearray(path.read_bytes())
    kind, offset, mask = damage
    offset %= len(blob)
    if kind == "truncate":
        del blob[offset:]
    else:
        blob[offset] ^= mask
    path.write_bytes(bytes(blob))


def _write_wav(path):
    samples = 0.5 * np.sin(np.arange(64) / 5.0)
    write_wav(path, AudioClip(samples=samples, sample_rate=8000), encoding="float32")


@functools.cache
def _toy_files() -> dict[str, bytes]:
    """A 2-loop DS3 set's files, its baseline features and a small model, by name."""
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        loops = generate_loops(2, 0, sample_rate=8000, duration_s=0.5, tempo_bpm=120.0)
        materialize(build_grid("DS3", 2, 0, settings_per_file=2), loops, root)
        experiment.cmd_embed(experiment.load_config(), root, None, root / "features.spec",
                             source="baseline")
        model = SiameseModel(ModelSpec(variant="model1_spec_tuned", num_para=1), (65, 100))
        save_model(root / "checkpoint.drcw", model, {"attack_ms": (1.0, 99.0)},
                   {"kind": "spectrogram", "frame_len": 128, "hop_len": None}, 0)
        names = ["manifest.json", "loops/loop000.wav", "loops/loop000.json", "features.spec",
                 "features.json", "checkpoint.drcw", "checkpoint.json"]
        return {name: (root / name).read_bytes() for name in names}


def _writer(*names):
    """Writes each named toy file next to ``path``, the last one at ``path``."""
    def write(path):
        for name in names:
            (path.parent / Path(name).name).write_bytes(_toy_files()[name])
    return write


#: one split of two trees on the 2-loop set
_EVAL_CFG = {"eval": {"n_splits": 1, "min_groups": 2, "forest": {"n_trees": 2}}}


def _evaluate_features(path):
    experiment.cmd_evaluate(experiment.load_config(overrides=_EVAL_CFG),
                            path.with_suffix(".spec"), path.parent, path.parent / "report")


#: input -> (file name, write it, read it)
INPUTS = {
    "wav": ("input.wav", _write_wav, read_wav),
    "manifest": ("manifest.json", _writer("manifest.json"), DatasetManifest.load),
    "loop_sidecar": ("loop000.json", _writer("loops/loop000.wav", "loops/loop000.json"),
                     lambda path: load_loops_dir(path.parent)),
    "checkpoint_sidecar": ("checkpoint.json", _writer("checkpoint.drcw", "checkpoint.json"),
                           lambda path: load_model(path.with_suffix(".drcw"))),
    "features_json": ("features.json",
                      _writer("manifest.json", "features.spec", "features.json"),
                      _evaluate_features),
}


@pytest.mark.parametrize("fmt", sorted(INPUTS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_damage)
def test_damaged_input_loads_or_raises_an_exit_2_error(tmp_path, fmt, damage):
    name, write, read = INPUTS[fmt]
    path = tmp_path / name
    write(path)
    _apply(damage, path)
    try:
        read(path)
    except DrcBenchError as err:
        assert not isinstance(err, NumericError)
