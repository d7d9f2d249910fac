"""Repeated grouped-split evaluation and handcrafted baseline features.

The protocol: split entries 80/20 into train/test 50 times with fresh
seeds, grouping by source loop so no loop contributes to both sides, fit a
forest per target parameter on each train side, and report the mean of the
per-split test MAEs. Percent-of-range columns use the documented parameter
spans (49 dB threshold, 19 ratio, 99 ms attack, 999 ms release).

Baseline features per pair: six per-clip statistics for each side plus
their processed-minus-unprocessed deltas (18 values). All statistics are
epsilon-guarded so silent or constant clips produce finite numbers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifacts import dumps, write_json
from .audio import AudioClip, DB_FLOOR
from .config import check_leaves
from .errors import DataError, ProtocolError
from .forest import Forest, ForestConfig
from .spectrogram import GAMMA, stft_magnitude

#: documented full parameter spans used for the percent-of-range columns
PARAM_SPANS = {"thd_db": 49.0, "ratio": 19.0, "attack_ms": 99.0, "release_ms": 999.0}

#: per-clip statistics, in feature order
STAT_NAMES = (
    "rms_db",
    "crest_db",
    "centroid_mean_hz",
    "centroid_std_hz",
    "log_attack_ms",
    "env_autocorr_decay",
)


def _envelope(clip: AudioClip, frame_len: int = 256) -> np.ndarray:
    hop = frame_len // 2
    n = clip.samples.size
    if n < frame_len:
        return np.array([float(np.sqrt(np.mean(clip.samples ** 2)))])
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, frame_len)[::hop]
    return np.sqrt((frames ** 2).mean(axis=1))


def clip_stats(clip: AudioClip) -> np.ndarray:
    """The six per-clip statistics (see STAT_NAMES)."""
    x = clip.samples
    rms = float(np.sqrt(np.mean(x ** 2)))
    peak = float(np.max(np.abs(x)))
    rms_db = 20.0 * np.log10(rms + DB_FLOOR)
    crest_db = 20.0 * np.log10((peak + DB_FLOOR) / (rms + DB_FLOOR))

    if x.size >= 256:
        spec = stft_magnitude(clip, frame_len=256)
        mags = np.expm1(spec.values) / GAMMA  # undo log compression
        freqs = np.arange(spec.n_bins) * clip.sample_rate / spec.frame_len
        weight = mags.sum(axis=0)
        centroid = (freqs[:, None] * mags).sum(axis=0) / np.maximum(weight, DB_FLOOR)
        centroid_mean = float(centroid.mean())
        centroid_std = float(centroid.std())
        hop = spec.hop_len
    else:
        centroid_mean = centroid_std = 0.0
        hop = 128

    env = _envelope(clip)
    if env.size >= 2:
        rises = np.diff(env)
        k = int(np.argmax(rises)) + 1  # frame index of the strongest rise
        lo = k - 1
        while lo > 0 and env[lo - 1] < env[lo]:
            lo -= 1
        hi = k
        while hi + 1 < env.size and env[hi + 1] > env[hi]:
            hi += 1
        attack_ms = (hi - lo) * hop / clip.sample_rate * 1000.0
    else:
        attack_ms = 0.0
    log_attack = float(np.log10(1.0 + attack_ms))

    centered = env - env.mean()
    denom = float(np.dot(centered, centered))
    if denom > 0 and env.size >= 2:
        acf = np.correlate(centered, centered, mode="full")[env.size - 1:] / denom
        below = np.nonzero(acf < 0.5)[0]
        decay = float(below[0]) / env.size if below.size else 1.0
    else:
        decay = 0.0

    return np.array([rms_db, crest_db, centroid_mean, centroid_std, log_attack, decay])


def baseline_features(unprocessed: AudioClip, processed: AudioClip) -> np.ndarray:
    """Handcrafted pair features: stats(a), stats(b), stats(b) - stats(a)."""
    return baseline_matrix([unprocessed, processed], [0], [1])[0]


def baseline_matrix(clips: Sequence[AudioClip], a_idx, b_idx) -> np.ndarray:
    """``baseline_features`` of every pair ``(clips[a_idx[i]], clips[b_idx[i]])``.

    The statistics of each clip are computed once, however many pairs share it.
    """
    stats = np.stack([clip_stats(clip) for clip in clips])
    a, b = stats[a_idx], stats[b_idx]
    return np.concatenate([a, b, b - a], axis=1)


def baseline_feature_names() -> list[str]:
    return (
        [f"unproc_{n}" for n in STAT_NAMES]
        + [f"proc_{n}" for n in STAT_NAMES]
        + [f"delta_{n}" for n in STAT_NAMES]
    )


def mean_predictor_mae(labels: np.ndarray):
    """MAE of always predicting the mean label: the analytic skill floor.

    1-D labels give a scalar; a (n, k) matrix gives one value per column.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim == 2:
        return np.mean(np.abs(labels - labels.mean(axis=0)), axis=0)
    return float(np.mean(np.abs(labels - labels.mean())))


@dataclass(frozen=True)
class EvalConfig:
    n_splits: int = 50
    test_fraction: float = 0.2
    min_groups: int = 5
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)

    def __post_init__(self):
        check_leaves("eval", vars(self))


@dataclass
class EvalReport:
    feature_source: str
    family: str
    target_names: tuple[str, ...]
    mae: dict[str, float]
    mae_pct_of_range: dict[str, float]
    n_splits: int
    n_entries: int
    n_loops: int
    test_fraction: float
    seed: int
    forest: dict

    def _doc(self) -> dict:
        return {
            "feature_source": self.feature_source,
            "family": self.family,
            "target_names": list(self.target_names),
            "mae": self.mae,
            "mae_pct_of_range": self.mae_pct_of_range,
            "protocol": {
                "n_splits": self.n_splits,
                "n_entries": self.n_entries,
                "n_loops": self.n_loops,
                "test_fraction": self.test_fraction,
                "grouped_by_loop": True,
                "seed": self.seed,
                "forest": self.forest,
            },
        }

    def to_json(self) -> str:
        return dumps(self._doc())

    def render_text(self) -> str:
        units = {"thd_db": "dB", "ratio": "", "attack_ms": "ms", "release_ms": "ms"}
        lines = [
            f"feature source: {self.feature_source}   family: {self.family}   "
            f"splits: {self.n_splits}   entries: {self.n_entries}   loops: {self.n_loops}",
            f"{'parameter':<12} {'MAE':>12} {'% of range':>12}",
        ]
        for name in self.target_names:
            unit = units.get(name, "")
            mae = f"{self.mae[name]:.3f} {unit}".strip()
            lines.append(f"{name:<12} {mae:>12} {self.mae_pct_of_range[name]:>11.2f}%")
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        path = Path(path)
        write_json(path.with_suffix(".json"), self._doc())
        path.with_suffix(".txt").write_text(self.render_text())


def grouped_split(groups: list[str], test_fraction: float, rng: np.random.Generator,
                  min_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (train, test) splitting whole groups, never rows."""
    unique = sorted(set(groups))
    if len(unique) < min_groups:
        raise ProtocolError(
            f"grouped split needs >= {min_groups} loops, got {len(unique)}"
        )
    n_test = max(1, round(test_fraction * len(unique)))
    if n_test >= len(unique):
        raise ProtocolError(f"test fraction {test_fraction} consumes all {len(unique)} loops")
    order = rng.permutation(len(unique))
    test_groups = {unique[i] for i in order[:n_test]}
    test_mask = np.array([g in test_groups for g in groups])
    return ~test_mask, test_mask


def fit_split(X: np.ndarray, Y: np.ndarray, loop_ids: list[str],
              target_names: tuple[str, ...], config: EvalConfig,
              s: int) -> tuple[Forest, np.ndarray, np.ndarray]:
    """Split ``s`` of the protocol: its grouped split and the forest fit on its train side.

    Returns (forest, train mask, test mask).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, s]))
    train_mask, test_mask = grouped_split(loop_ids, config.test_fraction, rng, config.min_groups)
    forest_cfg = replace(config.forest, seed=config.forest.seed + s)
    forest = Forest(forest_cfg, target_names).fit(X[train_mask], Y[train_mask])
    return forest, train_mask, test_mask


def evaluate(X: np.ndarray, Y: np.ndarray, loop_ids: list[str],
             target_names: tuple[str, ...], family: str, feature_source: str,
             config: EvalConfig | None = None) -> EvalReport:
    """Run the repeated grouped-split protocol; Y is in physical units."""
    config = config or EvalConfig()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if not (X.shape[0] == Y.shape[0] == len(loop_ids)):
        raise DataError(
            f"rows disagree: features {X.shape[0]}, labels {Y.shape[0]}, loops {len(loop_ids)}"
        )
    if Y.shape[1] != len(target_names):
        raise DataError(f"expected {len(target_names)} label columns, got {Y.shape[1]}")

    per_split = np.zeros((config.n_splits, len(target_names)))
    for s in range(config.n_splits):
        forest, _, test_mask = fit_split(X, Y, loop_ids, target_names, config, s)
        per_split[s] = np.mean(np.abs(forest.predict(X[test_mask]) - Y[test_mask]), axis=0)

    mean_mae = per_split.mean(axis=0)
    mae = {n: float(v) for n, v in zip(target_names, mean_mae)}
    pct = {n: float(v / PARAM_SPANS[n] * 100.0) for n, v in mae.items()}
    return EvalReport(
        feature_source=feature_source,
        family=family,
        target_names=tuple(target_names),
        mae=mae,
        mae_pct_of_range=pct,
        n_splits=config.n_splits,
        n_entries=X.shape[0],
        n_loops=len(set(loop_ids)),
        test_fraction=config.test_fraction,
        seed=config.seed,
        forest=asdict(config.forest),
    )
