"""Core audio types, dB helpers, and deterministic loop synthesis.

Two loop generators are provided:

* ``drum_like``  -- noise bursts with exponential decay placed on the tempo
  grid (one hit per beat, seeded amplitude/decay/timbre variation).
* ``pluck_like`` -- decaying harmonic tones (fundamental plus at least four
  partials) triggered on the tempo grid.

Synthesis is bit-identical for a given recipe: every random draw comes from
one ``numpy`` generator seeded by the recipe, and no wall-clock or global
state is consulted. Output peaks are normalized to -1 dBFS.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_json
from .errors import DomainError, RecipeError

#: Linear floor used when converting magnitudes to dB (-240 dB).
DB_FLOOR = 1e-12

#: Synthesized loops are normalized so their peak sits at -1 dBFS.
PEAK_DBFS = -1.0

LOOP_KINDS = ("drum_like", "pluck_like")


def db_to_linear(db: float) -> float:
    """Convert a decibel value to linear amplitude."""
    return 10.0 ** (db / 20.0)


def linear_to_db(x) -> float:
    """Convert linear amplitude to dB, flooring at ``DB_FLOOR`` to stay finite."""
    return 20.0 * np.log10(np.maximum(np.abs(x), DB_FLOOR))


@dataclass(frozen=True)
class AudioClip:
    """A mono clip: finite samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int
    clip_id: str | None = None

    def __post_init__(self):
        # the one copy: the clip never shares an array with its caller, and a
        # non-float64 input (a decoded float32 WAV) is converted by this copy
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DomainError(f"clip must be mono 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise DomainError("clip must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise DomainError("clip contains non-finite samples")
        peak = max(float(samples.max()), -float(samples.min()))
        if peak > 1.0 + 1e-9:
            raise DomainError(f"clip peak {peak:.6f} exceeds full scale 1.0")
        if int(self.sample_rate) <= 0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", np.clip(samples, -1.0, 1.0, out=samples))
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def peak(self) -> float:
        return float(np.max(np.abs(self.samples)))


@dataclass(frozen=True)
class LoopRecipe:
    """Deterministic description of one synthetic loop."""

    kind: str
    tempo_bpm: float
    duration_s: float
    seed: int

    def __post_init__(self):
        if self.kind not in LOOP_KINDS:
            raise RecipeError(f"unknown loop kind {self.kind!r}, expected one of {LOOP_KINDS}")
        if not self.tempo_bpm > 0:
            raise RecipeError(f"tempo_bpm must be positive, got {self.tempo_bpm}")
        if not self.duration_s > 0:
            raise RecipeError(f"duration_s must be positive, got {self.duration_s}")
        if self.duration_s * self.tempo_bpm / 60.0 < 1.0:
            raise RecipeError(
                f"duration {self.duration_s}s holds no full beat at {self.tempo_bpm} bpm"
            )


def beat_onsets(recipe: LoopRecipe, sample_rate: int) -> list[int]:
    """Sample indices of the beats that fall inside the loop."""
    interval = 60.0 / recipe.tempo_bpm
    n_beats = int(np.floor(recipe.duration_s / interval + 1e-9))
    return [int(round(k * interval * sample_rate)) for k in range(n_beats)]


def _normalize_peak(samples: np.ndarray, target_db: float = PEAK_DBFS) -> np.ndarray:
    peak = float(np.max(np.abs(samples)))
    if peak <= 0.0:
        raise RecipeError("generated loop is silent; cannot normalize")
    return samples * (db_to_linear(target_db) / peak)


def _add_burst(out: np.ndarray, start: int, burst: np.ndarray) -> None:
    stop = min(out.size, start + burst.size)
    if stop > start:
        out[start:stop] += burst[: stop - start]


def _drum_loop(recipe: LoopRecipe, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    n = int(round(recipe.duration_s * sample_rate))
    out = np.zeros(n)
    for start in beat_onsets(recipe, sample_rate):
        decay_s = rng.uniform(0.04, 0.09)
        amp = rng.uniform(0.6, 1.0)
        length = min(n - start, int(3 * decay_s * sample_rate))
        t = np.arange(length) / sample_rate
        noise = rng.standard_normal(length)
        # one-pole smoothing darkens the burst; coefficient varies per hit
        alpha = rng.uniform(0.2, 0.7)
        body = np.empty(length)
        acc = 0.0
        for i, v in enumerate(noise):
            acc = alpha * acc + (1.0 - alpha) * v
            body[i] = acc
        _add_burst(out, start, amp * body * np.exp(-t / decay_s))
    return _normalize_peak(out)


# semitone offsets of a small minor-pentatonic cell, used to vary pluck pitches
_PLUCK_DEGREES = (0, 3, 5, 7, 10)


def _pluck_loop(recipe: LoopRecipe, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    n = int(round(recipe.duration_s * sample_rate))
    out = np.zeros(n)
    base_hz = rng.uniform(110.0, 220.0)
    rolloff = rng.uniform(0.8, 1.6)
    n_partials = 6  # fundamental + 5 overtones
    for start in beat_onsets(recipe, sample_rate):
        f0 = base_hz * 2.0 ** (rng.choice(_PLUCK_DEGREES) / 12.0)
        decay_s = rng.uniform(0.25, 0.6)
        amp = rng.uniform(0.7, 1.0)
        length = min(n - start, int(3 * decay_s * sample_rate))
        t = np.arange(length) / sample_rate
        tone = np.zeros(length)
        for k in range(1, n_partials + 1):
            fk = k * f0
            if fk >= sample_rate / 2:
                break
            phase = rng.uniform(0.0, 2 * np.pi)
            tone += (k ** -rolloff) * np.exp(-k * t / decay_s) * np.sin(2 * np.pi * fk * t + phase)
        _add_burst(out, start, amp * tone * np.exp(-t / decay_s))
    return _normalize_peak(out)


def synthesize_loop(recipe: LoopRecipe, sample_rate: int = 16000, clip_id: str | None = None) -> AudioClip:
    """Render a recipe into an AudioClip, peak-normalized to -1 dBFS."""
    if sample_rate <= 0:
        raise DomainError(f"sample_rate must be positive, got {sample_rate}")
    rng = np.random.default_rng(recipe.seed)
    if recipe.kind == "drum_like":
        samples = _drum_loop(recipe, sample_rate, rng)
    else:
        samples = _pluck_loop(recipe, sample_rate, rng)
    return AudioClip(samples=samples, sample_rate=sample_rate, clip_id=clip_id)


def write_clip_sidecar(path: str | Path, clip_id: str, sample_rate: int,
                       recipe: LoopRecipe | None = None) -> None:
    """Write the one-object JSON metadata sidecar for a stored clip."""
    write_json(path, {"id": clip_id, "recipe": None if recipe is None else asdict(recipe),
                      "sample_rate": sample_rate})


def read_clip_sidecar(path: str | Path) -> dict:
    """A clip sidecar, its ``recipe`` a ``LoopRecipe`` or None; damage raises ``FormatError``."""
    def parse(doc: dict) -> dict:
        recipe = doc.get("recipe")
        return {**doc, "recipe": None if recipe is None else LoopRecipe(**recipe)}
    return read_json(path, "loop sidecar", parse)
