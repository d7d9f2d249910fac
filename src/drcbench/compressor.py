"""Feed-forward hard-knee dynamic range compressor.

Signal path, per sample:

1. level detector      L[n] = 20*log10(|x[n]| + 1e-12)
2. static gain curve   g[n] = min(0, T + (L[n] - T)/R - L[n]),  T = -thd_db
3. ballistic smoothing gs[n] = a*gs[n-1] + (1-a)*g[n],
                       a = exp(-1/(fs*tau)), tau = attack if the gain is
                       falling (g[n] < gs[n-1]) else release, state starts at 0
4. gain stage          y[n] = x[n] * 10^(gs[n]/20)

There is no make-up gain stage: level drop caused by compression is part of
the signal the downstream models must pick up on.

``thd_db`` is stored as a positive number of dB below full scale and negated
internally, matching how the datasets label it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .audio import AudioClip
from .errors import DomainError

#: epsilon inside the level detector log, keeps silence finite (-240 dB)
LEVEL_EPS = 1e-12

#: inclusive parameter ranges: name -> (low, high)
PARAM_RANGES = {
    "thd_db": (0.0, 60.0),
    "ratio": (1.0, 20.0),
    "attack_ms": (0.5, 100.0),
    "release_ms": (5.0, 1000.0),
}

#: canonical parameter order used by labels and reports
PARAM_NAMES = ("thd_db", "ratio", "attack_ms", "release_ms")


@dataclass(frozen=True)
class DrcParams:
    """Compressor setting. Defaults follow the dataset builder's fixed point."""

    thd_db: float = 37.5
    ratio: float = 2.0
    attack_ms: float = 5.0
    release_ms: float = 200.0

    def __post_init__(self):
        for name, (lo, hi) in PARAM_RANGES.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and lo <= value <= hi):
                raise DomainError(
                    f"{name}={value} outside allowed range [{lo}, {hi}]"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DrcParams":
        unknown = set(d) - set(PARAM_NAMES)
        if unknown:
            raise DomainError(f"unknown compressor parameter(s): {sorted(unknown)}")
        return cls(**d)


def static_gain_db(level_db: np.ndarray, params: DrcParams) -> np.ndarray:
    """Hard-knee static gain (dB, always <= 0) for detector levels in dB."""
    level_db = np.asarray(level_db, dtype=np.float64)
    threshold = -params.thd_db
    gain = threshold + (level_db - threshold) / params.ratio - level_db
    return np.minimum(0.0, gain)


def _smooth_gain(gain_db: np.ndarray, sample_rate: int, params: DrcParams) -> np.ndarray:
    attack_a = math.exp(-1.0 / (sample_rate * params.attack_ms * 1e-3))
    release_a = math.exp(-1.0 / (sample_rate * params.release_ms * 1e-3))
    smoothed = np.empty_like(gain_db)
    state = 0.0
    out = smoothed  # local alias; plain Python loop is the hot path
    for n, g in enumerate(gain_db.tolist()):
        a = attack_a if g < state else release_a
        state = a * state + (1.0 - a) * g
        out[n] = state
    return smoothed


def compress(clip: AudioClip, params: DrcParams) -> AudioClip:
    """Apply the compressor to a clip, returning a new clip of equal length."""
    x = clip.samples
    level = 20.0 * np.log10(np.abs(x) + LEVEL_EPS)
    gain = static_gain_db(level, params)
    smoothed = _smooth_gain(gain, clip.sample_rate, params)
    y = x * np.power(10.0, smoothed / 20.0)
    return AudioClip(samples=y, sample_rate=clip.sample_rate, clip_id=clip.clip_id)
