"""The benchmark's workloads: sizes, set-up, the measured stages and output checks.

Every workload is a batch pipeline run as a closed loop: one client, one run
at a time, in one process, with strict mode (``jobs=1``). Inputs come from
the workload seed alone. The measured part calls the stage runners through
the ``drcbench.experiment`` module at call time, so the tracer's wrappers are
seen when tracing is on.

Sizes are cut down from the desk runs so that one repetition of the
measured part takes 2 to 7 seconds on a 2-core machine, which leaves room
for a warm-up and several timed repetitions, and so a median, inside one
30-second benchmark run.
"""

from __future__ import annotations

import copy
import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: why each workload exists; BENCHMARK.json carries the same lines
WHY = {
    "ds1_pipeline": "stock single-parameter desk run (generate, train, embed, evaluate); "
                    "training-bound, so autodiff and models changes show here",
    "d4p_baseline": "four-parameter grid with baseline features: compressor-, WAV-write- and "
                    "forest-bound, with no autodiff call, so training changes must not move it",
    "d4p_embed": "forward-only embedding of two 625-entry D4P loops from a cold cache: "
                 "each unprocessed clip is shared by 625 entries, the most redundancy",
}


@dataclass
class Outcome:
    """What one measured run produced, for the checks and the metrics."""

    n_pairs: int
    digest: str
    failures: list[str] = field(default_factory=list)
    mae_pct: float | None = None


@dataclass(frozen=True)
class Workload:
    #: overrides on drcbench's config defaults, per scale ("full" or "toy")
    config: dict[str, dict]
    setup: Callable[[object, dict, Path], None]
    #: (ex, cfg, work dir of the set-up, fresh output dir of this run)
    measure: Callable[[object, dict, Path, Path], object]
    check: Callable[[object, dict, Path, Path, object], Outcome]


def make_config(ex, workload: Workload, scale: str, seed: int) -> dict:
    """Resolve the workload's config; every seed in it is the workload seed."""
    overrides = copy.deepcopy(workload.config[scale])
    overrides["seed"] = seed
    overrides["jobs"] = 1
    overrides["strict_deterministic"] = True
    for section in ("model", "train"):
        overrides.setdefault(section, {})["seed"] = seed
    overrides.setdefault("eval", {})["seed"] = seed
    overrides["eval"].setdefault("forest", {})["seed"] = seed
    return ex.load_config(overrides=overrides)


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mae_pct(report) -> float:
    values = list(report.mae_pct_of_range.values())
    return sum(values) / len(values)


def _no_setup(ex, cfg: dict, work: Path) -> None:
    """Nothing beyond the interpreter start, the imports and the config."""


# ---------------------------------------------------------------------------
# ds1_pipeline: generate -> train -> embed -> evaluate


def _ds1_measure(ex, cfg: dict, work: Path, out: Path):
    ds, run = out / "ds", out / "run"
    manifest = ex.cmd_generate(cfg, ds)
    ckpt = ex.cmd_train(cfg, ds, run)
    ex.cmd_embed(cfg, ds, ckpt, run / "features.spec")
    report = ex.cmd_evaluate(cfg, run / "features.spec", ds, run / "report")
    return manifest, report


def _ds1_check(ex, cfg: dict, work: Path, out: Path, result) -> Outcome:
    from drcbench.evaluate import mean_predictor_mae

    manifest, report = result
    outcome = Outcome(n_pairs=len(manifest.entries),
                      digest=_file_digest(out / "run" / "report.json"),
                      mae_pct=_mae_pct(report))
    floor = mean_predictor_mae(manifest.label_matrix())
    for i, name in enumerate(manifest.grid.varying):
        if not report.mae[name] < floor[i]:
            outcome.failures.append(
                f"{name} MAE {report.mae[name]:.4f} is not below the mean predictor's "
                f"{floor[i]:.4f}")
    return outcome


# ---------------------------------------------------------------------------
# d4p_baseline: generate -> embed(source="baseline") -> evaluate

#: processed WAVs re-compressed with scalar ``compress`` per run
RECOMPRESS_SAMPLE = 24


def _baseline_measure(ex, cfg: dict, work: Path, out: Path):
    ds, run = out / "ds", out / "run"
    manifest = ex.cmd_generate(cfg, ds)
    ex.cmd_embed(cfg, ds, None, run / "features.spec", source="baseline")
    report = ex.cmd_evaluate(cfg, run / "features.spec", ds, run / "report")
    return manifest, report


def _baseline_check(ex, cfg: dict, work: Path, out: Path, result) -> Outcome:
    import numpy as np
    from drcbench import compress, read_wav

    manifest, report = result
    outcome = Outcome(n_pairs=len(manifest.entries),
                      digest=_file_digest(out / "run" / "report.json"),
                      mae_pct=_mae_pct(report))
    ds = out / "ds"
    rng = np.random.default_rng([cfg["seed"], 1])
    picks = rng.choice(len(manifest.entries), size=min(RECOMPRESS_SAMPLE, len(manifest.entries)),
                       replace=False)
    for i in sorted(picks.tolist()):
        entry = manifest.entries[i]
        redone = compress(read_wav(ds / entry.unprocessed), entry.labels)
        stored = read_wav(ds / entry.processed)
        if redone.samples.astype("<f4").tobytes() != stored.samples.astype("<f4").tobytes():
            outcome.failures.append(f"{entry.processed} does not match re-compression")
    return outcome


# ---------------------------------------------------------------------------
# d4p_embed: set-up writes the dataset and an untrained checkpoint; the
# measured part is cmd_embed from a cold representation cache


def _embed_setup(ex, cfg: dict, work: Path) -> None:
    import numpy as np
    from drcbench import SiameseModel, read_wav, save_model

    ds = work / "ds"
    shutil.rmtree(ds, ignore_errors=True)  # set-up runs several times
    manifest = ex.cmd_generate(cfg, ds)
    rep = ex.resolve_representation(cfg, cfg["model"]["variant"])
    first = ex.transform(read_wav(ds / manifest.entries[0].unprocessed), rep["kind"],
                         frame_len=int(rep["frame_len"]), hop_len=rep.get("hop_len"))
    spec = ex.model_spec_from(cfg, num_para=len(manifest.grid.varying))
    model = SiameseModel(spec, first.values.shape, dtype=np.float32)
    save_model(work / "checkpoint.drcw", model, manifest.grid.label_ranges(), rep,
               cfg["train"]["seed"])


def _embed_measure(ex, cfg: dict, work: Path, out: Path):
    # A fresh cache directory per run: the representation cache starts cold.
    os.environ[ex.CACHE_ENV_VAR] = str(out / "cache")
    return ex.cmd_embed(cfg, work / "ds", work / "checkpoint.drcw", out / "features.spec")


def _embed_check(ex, cfg: dict, work: Path, out: Path, features) -> Outcome:
    import numpy as np
    from drcbench import DatasetManifest

    manifest = DatasetManifest.load(work / "ds" / "manifest.json")
    outcome = Outcome(n_pairs=len(manifest.entries),
                      digest=hashlib.sha256(np.ascontiguousarray(features).tobytes()).hexdigest())
    expected = (len(manifest.entries), cfg["model"]["embedding_dim"])
    if features.shape != expected:
        outcome.failures.append(f"features have shape {features.shape}, expected {expected}")
    if not np.all(np.isfinite(features)):
        outcome.failures.append("features are not all finite")
    return outcome


WORKLOADS: dict[str, Workload] = {
    "ds1_pipeline": Workload(
        config={
            "full": {
                "dataset": {"family": "DS1", "n_loops": 8, "settings_per_file": 10,
                            "duration_s": 0.4, "tempo_bpm": 150.0},
                "model": {"variant": "model1_spec_tuned"},
                # patience >= max_epochs: early stopping cannot cut the work short
                "train": {"max_epochs": 2, "patience": 2},
                "eval": {"n_splits": 2, "forest": {"n_trees": 8}},
            },
            "toy": {
                "dataset": {"family": "DS1", "n_loops": 5, "settings_per_file": 4,
                            "duration_s": 0.5},
                "train": {"max_epochs": 1, "patience": 1},
                "eval": {"n_splits": 1, "forest": {"n_trees": 4}},
            },
        },
        setup=_no_setup, measure=_ds1_measure, check=_ds1_check,
    ),
    "d4p_baseline": Workload(
        config={
            "full": {
                # 3 loops x 625 settings; the grouped split holds one loop out.
                # A clip must hold a full beat: 0.25 s is one beat at 240 bpm.
                "dataset": {"family": "D4P", "n_loops": 3, "sample_rate": 8000,
                            "duration_s": 0.25, "tempo_bpm": 240.0},
                "eval": {"n_splits": 1, "min_groups": 3, "forest": {"n_trees": 6}},
            },
            "toy": {
                "dataset": {"family": "DM1", "n_loops": 3, "sample_rate": 8000,
                            "duration_s": 0.5},
                "eval": {"n_splits": 1, "min_groups": 3, "forest": {"n_trees": 2}},
            },
        },
        setup=_no_setup, measure=_baseline_measure, check=_baseline_check,
    ),
    "d4p_embed": Workload(
        config={
            # 0.4 s at 16 kHz gives a 65x99 spectrogram, near the smallest
            # input the five model-1 blocks accept (94 frames); 2 loops is the
            # fewest a grid accepts
            "full": {
                "dataset": {"family": "D4P", "n_loops": 2, "duration_s": 0.4,
                            "tempo_bpm": 150.0},
                "model": {"variant": "model1_spec_tuned"},
            },
            "toy": {
                "dataset": {"family": "DM1", "n_loops": 2, "duration_s": 0.4,
                            "tempo_bpm": 150.0},
                "model": {"variant": "model1_spec_tuned"},
            },
        },
        setup=_embed_setup, measure=_embed_measure, check=_embed_check,
    ),
}
