"""End-to-end pipeline steps shared by the command-line entry points.

A single JSON config tree drives everything. ``config.load_config`` (re-exported
here) checks every leaf of it once against ``config.TABLE``, so the steps read
values as they are, with no cast, and an unknown key or bad value raises
``ConfigError`` with a dotted field path.

Each step records the config it ran, so runs can be re-created from the
artifacts alone: ``generate``, ``train`` and ``reproduce_table`` write
``config.resolved.json`` into the directory they own, and ``evaluate`` and
``fit``, which may share a run directory with ``train``, write
``<out>.config.json`` next to their record. ``embed`` reads no config and writes
none. Every file a step writes or reads goes through ``artifacts``.
"""

from __future__ import annotations

import copy
import importlib
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_file, write_json
from .audio import AudioClip
from .autodiff.tensor import check_finite
from .config import load_config  # noqa: F401  re-exported; perfbench/workloads.py calls it here
from .dataset import (
    DatasetManifest,
    FAMILIES,
    build_grid,
    generate_loops,
    load_loops_dir,
    materialize,
)
from .errors import ConfigError, DataError
from .evaluate import (
    EvalConfig,
    EvalReport,
    baseline_features,  # unused here; perfbench/tracer.py wraps it under this name
    baseline_matrix,
    evaluate,
    fit_split,
)
from .forest import ForestConfig
from .models import (
    ModelSpec,
    SiameseModel,
    TrainConfig,
    default_representation,
    load_model,
    save_model,
    train,
)
from .spectrogram import read_matrix, transform, write_matrix
from .wavio import read_wav

# The module, looked up at call time: perfbench/tracer.py and the tests patch
# ``clip_stats`` there. ``from . import evaluate`` would give the package's
# re-exported ``evaluate`` function instead.
_evaluate = importlib.import_module(".evaluate", __package__)

# No package code reads this variable; perfbench/workloads.py still sets it.
CACHE_ENV_VAR = "DRCBENCH_CACHE_DIR"

#: clips per branch call in ``cmd_embed``. BLAS computes the rows of a partial
#: block with other kernels, so a row's last float bits would depend on the
#: rows computed with it; every call therefore gets a whole batch (the last one
#: is padded), and a clip's features do not depend on its neighbours.
EMBED_BATCH = 8


# ---------------------------------------------------------------------------
# config plumbing


def train_config_from(cfg: dict) -> TrainConfig:
    return TrainConfig(**cfg["train"])


def model_spec_from(cfg: dict, num_para: int) -> ModelSpec:
    raw = dict(cfg["model"])
    kernels = raw.pop("kernels")
    if kernels is not None:
        kernels = tuple(map(tuple, kernels))  # a frozen ModelSpec holds tuples, not lists
    return ModelSpec(num_para=num_para, kernels=kernels, **raw)


def eval_config_from(cfg: dict) -> EvalConfig:
    raw = dict(cfg["eval"])
    return EvalConfig(forest=ForestConfig(**raw.pop("forest")), **raw)


def resolve_representation(cfg: dict, variant: str) -> dict:
    """The variant's default representation under the config's non-null entries.

    ``model2_waveform`` takes only a waveform, the other variants only a
    spectrogram or mel; any other kind raises ``ConfigError``.
    """
    rep = dict(default_representation(variant))
    for key, value in cfg["representation"].items():
        if value is not None:
            rep[key] = value
    if (rep["kind"] == "waveform") != (variant == "model2_waveform"):
        takes = "'waveform'" if variant == "model2_waveform" else "'spectrogram' or 'mel'"
        raise ConfigError("representation.kind",
                          f"kind must be {takes} for {variant}, got {rep['kind']!r}")
    return rep


# ---------------------------------------------------------------------------
# generate


def cmd_generate(cfg: dict, out_dir: str | Path) -> DatasetManifest:
    ds = cfg["dataset"]
    # Per-file thinning only applies to the single-parameter full grids;
    # offset families fix their own per-file counts.
    settings = ds["settings_per_file"] if ds["family"] in ("DS1", "DS2", "DS3", "DS4") else None
    grid = build_grid(ds["family"], ds["n_loops"], cfg["seed"], settings)
    if ds["loops_dir"] is not None:
        loops = load_loops_dir(ds["loops_dir"], sample_rate=ds["sample_rate"])
        if len(loops) < grid.n_loops:
            raise ConfigError("dataset.loops_dir",
                              f"found {len(loops)} loops, need {grid.n_loops}")
        loops = loops[: grid.n_loops]
    else:
        loops = generate_loops(ds["n_loops"], cfg["seed"], ds["sample_rate"],
                               ds["duration_s"], ds["tempo_bpm"])
    out_dir = Path(out_dir)
    jobs = 1 if cfg["strict_deterministic"] else cfg["jobs"]
    manifest = materialize(grid, loops, out_dir, jobs=jobs)
    write_json(out_dir / "config.resolved.json", cfg)
    return manifest


# ---------------------------------------------------------------------------
# representation loading


def _clip_representation(clip: AudioClip, rep: dict) -> np.ndarray:
    if rep["kind"] == "waveform":
        return clip.samples.astype(np.float32)
    spec = transform(clip, rep["kind"], frame_len=rep["frame_len"], hop_len=rep.get("hop_len"),
                     n_mels=rep.get("n_mels", 128))
    return spec.values.astype(np.float32)


def load_pair_arrays(root: str | Path, manifest: DatasetManifest,
                     rep: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each WAV's representation once, plus every entry's row in it.

    Returns ``(clips, a_idx, b_idx)``: ``clips`` stacks the unique WAVs in
    order of first appearance (manifest order, unprocessed before processed),
    and entry ``i`` pairs ``clips[a_idx[i]]`` (unprocessed) with
    ``clips[b_idx[i]]`` (processed). Every call computes the representations
    from the WAVs, so a dataset regenerated in place is never read stale.
    """
    root = Path(root)
    return _load_unique_wavs(
        manifest, root, lambda wav_rel: _clip_representation(read_wav(root / wav_rel), rep))


def _load_unique_wavs(manifest: DatasetManifest, root: Path,
                      load: Callable[[str], np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``load`` each WAV of the manifest once, in order of first appearance.

    Returns ``(rows, a_idx, b_idx)``: ``rows`` stacks the loaded arrays, and
    entry ``i`` pairs ``rows[a_idx[i]]`` (unprocessed) with ``rows[b_idx[i]]``
    (processed). Each array is copied into ``rows`` as soon as it is loaded,
    so no list of per-WAV arrays lives beside the stack, scattered among the
    reads' temporaries.
    """
    row_of: dict[str, int] = {}
    pairs = [(row_of.setdefault(e.unprocessed, len(row_of)),
              row_of.setdefault(e.processed, len(row_of))) for e in manifest.entries]
    rows = None
    for wav_rel, i in row_of.items():
        row = load(wav_rel)
        if rows is None:
            rows = np.empty((len(row_of), *row.shape), dtype=row.dtype)
        elif row.shape != rows.shape[1:]:
            raise DataError(f"{root / wav_rel}: shape {row.shape} differs from the first "
                            f"WAV's {rows.shape[1:]}; clips of a dataset must have equal length")
        rows[i] = row
    a_idx, b_idx = np.array(pairs, dtype=np.intp).T
    return rows, a_idx, b_idx


def normalized_labels(manifest: DatasetManifest) -> tuple[np.ndarray, dict[str, tuple[float, float]]]:
    ranges = manifest.grid.label_ranges()
    y = manifest.label_matrix()
    lo = np.array([ranges[p][0] for p in manifest.grid.varying])
    hi = np.array([ranges[p][1] for p in manifest.grid.varying])
    if np.any(hi <= lo):
        raise DataError(f"degenerate label ranges: {ranges}")
    return (y - lo) / (hi - lo), ranges


# ---------------------------------------------------------------------------
# train / embed / evaluate


def _load_manifest(dataset_dir: str | Path) -> DatasetManifest:
    root = Path(dataset_dir)
    if not (root / "manifest.json").exists():
        raise ConfigError("dataset", f"no manifest.json under {root}")
    return DatasetManifest.load(root / "manifest.json")


def _load_features(path: str | Path, manifest: DatasetManifest) -> np.ndarray:
    """A feature matrix with one row per manifest entry, as float64."""
    features = read_matrix(path)
    if features.shape[0] != len(manifest.entries):
        raise DataError(
            f"feature rows ({features.shape[0]}) != manifest entries ({len(manifest.entries)})"
        )
    return features.astype(np.float64)


def cmd_train(cfg: dict, dataset_dir: str | Path, out_dir: str | Path) -> Path:
    root = Path(dataset_dir)
    manifest = _load_manifest(root)
    rep = resolve_representation(cfg, cfg["model"]["variant"])
    clips, a_idx, b_idx = load_pair_arrays(root, manifest, rep)
    y, ranges = normalized_labels(manifest)

    spec = model_spec_from(cfg, num_para=len(manifest.grid.varying))
    model = SiameseModel(spec, clips.shape[1:], dtype=np.float32)
    train_cfg = train_config_from(cfg)
    history = train(model, clips, a_idx, b_idx, y, train_cfg)

    out_dir = Path(out_dir)
    ckpt = out_dir / "checkpoint.drcw"
    save_model(ckpt, model, ranges, rep, train_cfg.seed)
    log = ["epoch,train_mse,val_mse"]
    log += [f"{row.epoch},{row.train_mse:.8f},{row.val_mse:.8f}" for row in history]
    write_file(out_dir / "training_log.csv", "\r\n".join(log) + "\r\n")  # CSV line ends
    write_json(out_dir / "config.resolved.json", cfg)
    return ckpt


def embed_clips(model: SiameseModel, clips: np.ndarray) -> np.ndarray:
    """Branch embeddings of ``clips``, ``EMBED_BATCH`` per call. The last call is
    padded to a whole batch by repeating the last clip; its padded rows are dropped."""
    last = len(clips) - 1
    return np.concatenate([model.embed(clips[np.minimum(np.arange(i, i + EMBED_BATCH), last)])
                           for i in range(0, len(clips), EMBED_BATCH)])[:len(clips)]


def cmd_embed(cfg: dict, dataset_dir: str | Path, checkpoint: str | Path | None,
              out_path: str | Path, source: str = "embeddings") -> np.ndarray:
    """Write per-entry feature rows: model merge embeddings or the baseline stats."""
    root = Path(dataset_dir)
    manifest = _load_manifest(root)

    if source == "baseline":
        # the stats of an unprocessed loop are shared by all its entries; only
        # the six stats of each WAV are kept, not its samples
        stats, a_idx, b_idx = _load_unique_wavs(
            manifest, root, lambda rel: _evaluate.clip_stats(read_wav(root / rel)))
        features = baseline_matrix(stats, a_idx, b_idx).astype(np.float32)
        meta_extra = {"checkpoint": None}
    elif source == "embeddings":
        if checkpoint is None or not Path(checkpoint).exists():
            raise ConfigError("checkpoint",
                              f"embedding extraction needs a trained checkpoint, got {checkpoint}")
        model, sidecar = load_model(checkpoint)
        # f(unprocessed) depends only on the loop: run the branch once per WAV
        clips, a_idx, b_idx = load_pair_arrays(root, manifest, sidecar["representation"])
        emb = embed_clips(model, clips)
        features = emb[b_idx] - emb[a_idx]
        check_finite(features, "sub")
        meta_extra = {"checkpoint": str(checkpoint)}
    else:
        raise ConfigError("source", f"expected 'embeddings' or 'baseline', got {source!r}")

    out_path = Path(out_path)
    write_matrix(out_path, features)
    meta = {
        "dataset": str(root),
        "family": manifest.family,
        "feature_source": source,
        "n_rows": int(features.shape[0]),
        "n_cols": int(features.shape[1]),
        **meta_extra,
    }
    write_json(out_path.with_suffix(".json"), meta)
    return features


def _feature_source(features_path: str | Path) -> str:
    """The ``feature_source`` that ``embed`` recorded next to a feature matrix."""
    meta_path = Path(features_path).with_suffix(".json")
    if not meta_path.exists():
        return "features"
    return read_json(meta_path, "feature metadata",
                     lambda meta: meta.get("feature_source", "features"))


def cmd_evaluate(cfg: dict, features_path: str | Path, dataset_dir: str | Path,
                 out_base: str | Path) -> EvalReport:
    manifest = _load_manifest(dataset_dir)
    features = _load_features(features_path, manifest)
    report = evaluate(
        features, manifest.label_matrix(), manifest.loop_ids(),
        manifest.grid.varying, manifest.family, _feature_source(features_path),
        eval_config_from(cfg),
    )
    out_base = Path(out_base)
    report.save(out_base)
    write_json(out_base.with_suffix(".config.json"), cfg)
    return report


def cmd_fit(cfg: dict, features_path: str | Path, dataset_dir: str | Path,
            out_base: str | Path) -> dict:
    """Split 0 of the ``evaluate`` protocol: fit its forest, report train/test MAE."""
    manifest = _load_manifest(dataset_dir)
    X = _load_features(features_path, manifest)
    Y = manifest.label_matrix()
    targets = manifest.grid.varying
    forest, train_mask, test_mask = fit_split(X, Y, manifest.loop_ids(), targets,
                                              eval_config_from(cfg), 0)

    def mae(mask: np.ndarray) -> dict[str, float]:
        return dict(zip(targets, np.mean(np.abs(forest.predict(X[mask]) - Y[mask]),
                                         axis=0).tolist()))

    result = {
        "family": manifest.family,
        "targets": list(targets),
        "train_mae": mae(train_mask),
        "test_mae": mae(test_mask),
        "n_train": int(train_mask.sum()),
        "n_test": int(test_mask.sum()),
    }
    out_base = Path(out_base)
    write_json(out_base.with_suffix(".json"), result)
    write_json(out_base.with_suffix(".config.json"), cfg)
    return result


# ---------------------------------------------------------------------------
# table reproduction sweeps


def render_table(title: str, row_labels: list[str], col_labels: list[str],
                 values: list[list[float]], annotations: list[str]) -> tuple[str, str]:
    """Aligned text table + CSV body for the same numbers."""
    width = max([len(r) for r in row_labels] + [8]) + 2
    col_width = max([len(c) for c in col_labels] + [10]) + 2
    lines = [title]
    lines.append(" " * width + "".join(f"{c:>{col_width}}" for c in col_labels))
    for label, row in zip(row_labels, values):
        cells = "".join(f"{v:>{col_width}.3f}" for v in row)
        lines.append(f"{label:<{width}}" + cells)
    for note in annotations:
        lines.append(f"note: {note}")
    text = "\n".join(lines) + "\n"

    csv_lines = ["row," + ",".join(col_labels)]
    for label, row in zip(row_labels, values):
        csv_lines.append(label + "," + ",".join(f"{v:.6f}" for v in row))
    return text, "\n".join(csv_lines) + "\n"


def _sweep_dataset(cfg: dict, family: str, out_dir: Path) -> tuple[dict, Path]:
    """One family's config, and its dataset materialized (or reused) for the sweep.

    The config names the family, so each cell's ``config.resolved.json``
    re-creates the cell when fed back through ``--config``.
    """
    family_cfg = {**cfg, "dataset": {**cfg["dataset"], "family": family}}
    ds_dir = out_dir / "datasets" / family
    if not (ds_dir / "manifest.json").exists():
        cmd_generate(family_cfg, ds_dir)
    return family_cfg, ds_dir


def _run_cell(cfg: dict, ds_dir: Path, cell_dir: Path, rep_override: dict,
              model_override: dict) -> dict[str, float]:
    """Train + embed + evaluate one sweep cell; returns MAE per target."""
    sub_cfg = copy.deepcopy(cfg)
    sub_cfg["representation"] = rep_override
    sub_cfg["model"].update(model_override)
    ckpt = cmd_train(sub_cfg, ds_dir, cell_dir)
    features_path = cell_dir / "features.spec"
    cmd_embed(sub_cfg, ds_dir, ckpt, features_path)
    report = cmd_evaluate(sub_cfg, features_path, ds_dir, cell_dir / "report")
    return report.mae


def _axis_columns(axis: str) -> list[tuple[str, dict, dict]]:
    """(column label, representation override, model override) per axis value."""
    if axis == "representation":
        return [
            ("mel", {"kind": "mel", "frame_len": 256, "n_mels": 128},
             {"variant": "model1_mel"}),
            ("spectrogram", {"kind": "spectrogram", "frame_len": 256},
             {"variant": "model1_mel"}),  # same 3x3 stack, STFT input
        ]
    if axis == "frame-size":
        return [
            (str(frame), {"kind": "spectrogram", "frame_len": frame},
             {"variant": "model1_spec_tuned"})
            for frame in (512, 256, 128)
        ]
    if axis == "kernel-shape":
        shapes = [
            ("5x(3,3)", [[3, 3]] * 5),
            ("4x(3,3)+1x(1,3)", [[3, 3]] * 4 + [[1, 3]]),
            ("3x(3,3)+2x(1,3)", [[3, 3]] * 3 + [[1, 3]] * 2),
        ]
        return [
            (label, {"kind": "spectrogram", "frame_len": 256},
             {"variant": "model1_spec_tuned", "kernels": kernels})
            for label, kernels in shapes
        ]
    raise ConfigError("axis", f"unknown sweep axis {axis!r}")


def _annotate_direction(row_labels: list[str], values: list[list[float]],
                        expectation: str) -> list[str]:
    """Compare desk-scale numbers against the reference trend direction."""
    notes = []
    holds = 0
    for label, row in zip(row_labels, values):
        if expectation == "last_not_worse":  # later columns expected <= first
            ok = row[-1] <= row[0]
        else:  # monotone non-increasing across columns
            ok = all(b <= a + 1e-12 for a, b in zip(row, row[1:]))
        holds += ok
        notes.append(f"{label}: {'holds' if ok else 'does not hold'} at desk scale")
    notes.append(f"reference direction ({expectation}) holds on {holds}/{len(row_labels)} rows")
    return notes


def reproduce_table(cfg: dict, axis: str, out_dir: str | Path) -> Path:
    """Re-run one published comparison axis at desk scale and emit tables."""
    out_dir = Path(out_dir)
    axis_dir = out_dir / axis

    if axis == "four-param":
        d4p_cfg, ds_dir = _sweep_dataset(cfg, "D4P", out_dir)
        mae_emb = _run_cell(d4p_cfg, ds_dir, axis_dir / "model", cfg["representation"], {})
        base_path = axis_dir / "baseline" / "features.spec"
        cmd_embed(d4p_cfg, ds_dir, None, base_path, source="baseline")
        mae_base = cmd_evaluate(d4p_cfg, base_path, ds_dir, axis_dir / "baseline" / "report").mae
        row_labels = list(mae_emb)
        col_labels = ["baseline", "embeddings"]
        values = [[mae_base[p], mae_emb[p]] for p in row_labels]
    else:
        columns = _axis_columns(axis)
        row_specs: list[tuple[str, str]] = []
        for family in cfg["sweep"]["families"]:
            for param in (a.param for a in FAMILIES[family]):
                row_specs.append((family, param))
        values = [[0.0] * len(columns) for _ in row_specs]
        for ci, (col_label, rep_override, model_override) in enumerate(columns):
            for family in cfg["sweep"]["families"]:
                family_cfg, ds_dir = _sweep_dataset(cfg, family, out_dir)
                cell_dir = axis_dir / col_label.replace("(", "").replace(")", "") / family
                mae = _run_cell(family_cfg, ds_dir, cell_dir, rep_override, model_override)
                for ri, (fam, param) in enumerate(row_specs):
                    if fam == family:
                        values[ri][ci] = mae[param]
        row_labels = [f"{fam} {param}" for fam, param in row_specs]
        col_labels = [c[0] for c in columns]

    titles = {
        "representation": "input representation sweep (MAE per parameter)",
        "frame-size": "analysis frame size sweep (MAE per parameter)",
        "kernel-shape": "convolution kernel shape sweep (MAE per parameter)",
        "four-param": "four-parameter estimation MAE (baseline features vs. embeddings)",
    }
    expectation = "last_not_worse" if axis in ("representation", "four-param") \
        else "monotone_decrease"
    annotations = _annotate_direction(row_labels, values, expectation)
    text, csv_body = render_table(titles[axis], row_labels, col_labels, values, annotations)

    write_file(axis_dir / "table.txt", text)
    write_file(axis_dir / "table.csv", csv_body)
    write_json(axis_dir / "config.resolved.json", cfg)
    return axis_dir / "table.txt"
