"""Dataset families: compression parameter grids and materialized audio pairs.

Seven families are defined. DS1-DS4 vary one parameter each with 50 settings
per file, every file sharing the same grid. DM1/DM2 vary two parameters with
8 settings per parameter per file, and D4P varies all four with 5 settings
per parameter per file (625 combinations per loop). For the multi-parameter
families each loop's grid is the base grid shifted by ``loop_index *
per_file_offset_step`` (wrapping modulo the family range), so the union over
loops refines to the fine step documented in the family table.

Grid values are rounded to 9 decimals so the documented decimal grids are
reproduced exactly. Ratio values below 1 (DS2 starts its sweep at 0) are
clamped to 1 before compression; the clamp count is recorded and entries
whose clamped label vector collides with an earlier one are dropped so no
(loop, labels) pair repeats.

On disk a dataset is::

    <root>/loops/<loop_id>.wav (+ .json sidecar)
    <root>/<family>/<loop_id>/<entry_index>.wav
    <root>/manifest.json

and re-running the compressor on an unprocessed clip with an entry's labels
reproduces the processed WAV bit-exactly.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_json
from .audio import AudioClip, LoopRecipe, read_clip_sidecar, synthesize_loop, write_clip_sidecar
from .compressor import PARAM_NAMES, DrcParams, compress
from .errors import DataError, DomainError
from .wavio import read_wav, write_wav

DEFAULT_PARAMS = DrcParams()


@dataclass(frozen=True)
class GridAxis:
    """One varying parameter: union grid plus the per-file view of it."""

    param: str
    start: float
    stop: float                  # last union value, inclusive
    step: float                  # union (fine) step
    settings_per_file: int
    per_file_offset_step: float  # 0 when every file carries the full grid

    @property
    def n_union(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    @property
    def offset_cycle(self) -> int:
        """Number of distinct per-file grids before offsets repeat."""
        if self.per_file_offset_step == 0:
            return 1
        return self.n_union // self.settings_per_file

    @property
    def file_step(self) -> float:
        """Spacing between consecutive settings within one file."""
        return self.step * self.offset_cycle

    def union_values(self) -> list[float]:
        return [round(self.start + k * self.step, 9) for k in range(self.n_union)]

    def file_values(self, loop_index: int, settings: int | None = None) -> list[float]:
        """The grid one loop is compressed with.

        ``settings`` thins a full-grid (DS) axis to that many values, keeping
        both endpoints; offset axes have their per-file count fixed.
        """
        if self.per_file_offset_step == 0:
            values = self.union_values()
            if settings is not None and settings < len(values):
                if settings < 2:
                    raise DomainError(f"{self.param}: need at least 2 settings, got {settings}")
                idx = np.unique(np.round(np.linspace(0, len(values) - 1, settings)).astype(int))
                values = [values[i] for i in idx]
            return values
        if settings is not None and settings != self.settings_per_file:
            raise DomainError(
                f"{self.param}: per-file settings are fixed at {self.settings_per_file} "
                f"for offset grids"
            )
        span = self.n_union * self.step
        offset = (loop_index % self.offset_cycle) * self.per_file_offset_step
        return [
            round(self.start + (k * self.file_step + offset) % span, 9)
            for k in range(self.settings_per_file)
        ]


#: family name -> tuple of GridAxis (full-scale values from the family table)
FAMILIES: dict[str, tuple[GridAxis, ...]] = {
    "DS1": (GridAxis("thd_db", 0.0, 49.0, 1.0, 50, 0.0),),
    "DS2": (GridAxis("ratio", 0.0, 19.6, 0.4, 50, 0.0),),
    "DS3": (GridAxis("attack_ms", 1.0, 99.0, 2.0, 50, 0.0),),
    "DS4": (GridAxis("release_ms", 10.0, 990.0, 20.0, 50, 0.0),),
    "DM1": (
        GridAxis("thd_db", 10.0, 47.8, 0.6, 8, 0.6),
        GridAxis("ratio", 1.0, 19.9, 0.3, 8, 0.3),
    ),
    "DM2": (
        GridAxis("attack_ms", 1.0, 95.5, 1.5, 8, 1.5),
        GridAxis("release_ms", 10.0, 955.0, 15.0, 8, 15.0),
    ),
    "D4P": (
        GridAxis("thd_db", 10.0, 49.0, 1.0, 5, 1.0),
        GridAxis("ratio", 1.28, 20.0, 0.48, 5, 0.48),
        GridAxis("attack_ms", 1.0, 98.5, 2.5, 5, 2.5),
        GridAxis("release_ms", 10.0, 985.0, 25.0, 5, 25.0),
    ),
}


@dataclass(frozen=True)
class GridSpec:
    """A family's axes bound to a loop count and build seed."""

    family: str
    axes: tuple[GridAxis, ...]
    n_loops: int
    seed: int
    settings_per_file: int | None = None  # DS thinning override

    @property
    def varying(self) -> tuple[str, ...]:
        return tuple(a.param for a in self.axes)

    def axis(self, param: str) -> GridAxis:
        for a in self.axes:
            if a.param == param:
                return a
        raise DomainError(f"{self.family} does not vary {param!r}")

    def loop_settings(self, loop_index: int) -> list[dict[str, float]]:
        """All parameter combinations one loop is compressed with (may clamp)."""
        per_axis = [a.file_values(loop_index, self.settings_per_file) for a in self.axes]
        combos = []
        for values in itertools.product(*per_axis):
            params = {n: getattr(DEFAULT_PARAMS, n) for n in PARAM_NAMES}
            clamped = False
            for axis, v in zip(self.axes, values):
                if axis.param == "ratio" and v < 1.0:
                    v, clamped = 1.0, True
                params[axis.param] = v
            combos.append((params, clamped))
        return combos

    def label_ranges(self) -> dict[str, tuple[float, float]]:
        """Per varying parameter, (min, max) over the clamped union grid."""
        out = {}
        for a in self.axes:
            values = [max(1.0, v) if a.param == "ratio" else v for v in a.union_values()]
            out[a.param] = (min(values), max(values))
        return out


def build_grid(family: str, n_loops: int, seed: int,
               settings_per_file: int | None = None) -> GridSpec:
    """Bind a family's grid to a loop count; ``settings_per_file`` thins DS grids."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {sorted(FAMILIES)}")
    if n_loops < 2:
        raise DomainError(f"n_loops must be >= 2, got {n_loops}")
    return GridSpec(family=family, axes=FAMILIES[family], n_loops=n_loops, seed=seed,
                    settings_per_file=settings_per_file)


@dataclass(frozen=True)
class Entry:
    """One (unprocessed, processed) pair with its compressor labels."""

    loop_id: str
    entry_index: int
    unprocessed: str  # path relative to the dataset root
    processed: str
    labels: DrcParams
    clamped: bool = False


@dataclass
class DatasetManifest:
    """Single JSON document describing a materialized dataset."""

    family: str
    split_seed: int
    sample_rate: int
    grid: GridSpec
    loops: list[dict]          # {"loop_id", "wav", "recipe"}
    entries: list[Entry]
    n_clamped: int = 0
    n_deduplicated: int = 0

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """Read a manifest; a malformed file raises ``FormatError`` naming it."""
        def parse(doc: dict) -> "DatasetManifest":
            grid = doc["grid"]
            return cls(
                family=doc["family"],
                split_seed=doc["split_seed"],
                sample_rate=doc["sample_rate"],
                grid=GridSpec(
                    family=grid["family"],
                    axes=tuple(GridAxis(**a) for a in grid["axes"]),
                    n_loops=grid["n_loops"],
                    seed=grid["seed"],
                    settings_per_file=grid["settings_per_file"],
                ),
                loops=doc["loops"],
                entries=[Entry(**{**e, "labels": DrcParams.from_dict(e["labels"])})
                         for e in doc["entries"]],
                n_clamped=doc["n_clamped"],
                n_deduplicated=doc["n_deduplicated"],
            )
        return read_json(path, "manifest", parse)

    def label_matrix(self) -> np.ndarray:
        """Labels of the varying parameters, shape (n_entries, n_varying)."""
        varying = self.grid.varying
        return np.array(
            [[getattr(e.labels, p) for p in varying] for e in self.entries], dtype=np.float64
        )

    def loop_ids(self) -> list[str]:
        return [e.loop_id for e in self.entries]


def loop_id_for(index: int) -> str:
    return f"loop{index:03d}"


def generate_loops(n_loops: int, seed: int, sample_rate: int, duration_s: float,
                   tempo_bpm: float) -> list[tuple[LoopRecipe, AudioClip]]:
    """Synthesize loops, alternating drum_like / pluck_like kinds."""
    out = []
    for i in range(n_loops):
        kind = "drum_like" if i % 2 == 0 else "pluck_like"
        loop_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        recipe = LoopRecipe(kind=kind, tempo_bpm=tempo_bpm, duration_s=duration_s, seed=loop_seed)
        out.append((recipe, synthesize_loop(recipe, sample_rate, clip_id=loop_id_for(i))))
    return out


def _compress_task(args):
    samples, sample_rate, label_dict, out_path = args
    clip = AudioClip(samples=samples, sample_rate=sample_rate)
    processed = compress(clip, DrcParams.from_dict(label_dict))
    write_wav(out_path, processed, encoding="float32")


def materialize(grid: GridSpec, loops: list[tuple[LoopRecipe | None, AudioClip]],
                root: str | Path, jobs: int = 1) -> DatasetManifest:
    """Compress every loop over its grid, writing WAVs and the manifest.

    Loop audio is stored as float32 WAV; compression runs on the stored
    precision so the manifest labels reproduce each processed file
    bit-exactly from the unprocessed file.
    """
    if len(loops) != grid.n_loops:
        raise DataError(f"grid expects {grid.n_loops} loops, got {len(loops)}")
    root = Path(root)
    (root / "loops").mkdir(parents=True, exist_ok=True)

    loop_meta = []
    tasks = []
    entries = []
    n_clamped = 0
    n_dedup = 0
    for i, (recipe, clip) in enumerate(loops):
        loop_id = loop_id_for(i)
        wav_rel = f"loops/{loop_id}.wav"
        stored = AudioClip(
            samples=clip.samples.astype(np.float32).astype(np.float64),
            sample_rate=clip.sample_rate, clip_id=loop_id,
        )
        write_wav(root / wav_rel, stored, encoding="float32")
        write_clip_sidecar(root / "loops" / f"{loop_id}.json", loop_id, clip.sample_rate, recipe)
        loop_meta.append({
            "loop_id": loop_id, "wav": wav_rel,
            "recipe": None if recipe is None else asdict(recipe),
        })

        (root / grid.family / loop_id).mkdir(parents=True, exist_ok=True)
        seen: set[tuple] = set()
        entry_index = 0
        for params, clamped in grid.loop_settings(i):
            key = tuple(params[p] for p in PARAM_NAMES)
            n_clamped += clamped
            if key in seen:
                n_dedup += 1
                continue
            seen.add(key)
            out_rel = f"{grid.family}/{loop_id}/{entry_index:03d}.wav"
            entries.append(Entry(
                loop_id=loop_id, entry_index=entry_index, unprocessed=wav_rel,
                processed=out_rel, labels=DrcParams.from_dict(params), clamped=clamped,
            ))
            tasks.append((stored.samples, stored.sample_rate, params, str(root / out_rel)))
            entry_index += 1

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_compress_task, tasks, chunksize=8))
    else:
        for task in tasks:
            _compress_task(task)

    manifest = DatasetManifest(
        family=grid.family, split_seed=grid.seed, sample_rate=loops[0][1].sample_rate,
        grid=grid, loops=loop_meta, entries=entries,
        n_clamped=n_clamped, n_deduplicated=n_dedup,
    )
    manifest.save(root / "manifest.json")
    return manifest


def load_loops_dir(path: str | Path, sample_rate: int | None = None) -> list[tuple[LoopRecipe | None, AudioClip]]:
    """Load user-supplied loops from a directory of mono WAV files."""
    path = Path(path)
    wavs = sorted(path.glob("*.wav"))
    if not wavs:
        raise DataError(f"no .wav files found in {path}")
    out = []
    for wav in wavs:
        clip = read_wav(wav, clip_id=wav.stem)
        if sample_rate is not None and clip.sample_rate != sample_rate:
            raise DataError(
                f"{wav.name}: sample rate {clip.sample_rate} != expected {sample_rate}"
            )
        sidecar = wav.with_suffix(".json")
        recipe = read_clip_sidecar(sidecar)["recipe"] if sidecar.exists() else None
        out.append((recipe, clip))
    return out
