"""Command-line front end.

Exit codes: 0 success, 2 configuration or input problems (the message names
the offending field or path), 3 numerical failure inside a computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DrcBenchError, NumericError
from . import experiment


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--jobs", type=int, help="worker processes for dataset builds")
    parser.add_argument("--no-strict", action="store_true",
                        help="allow multi-process dataset materialization")


def _common_overrides(args: argparse.Namespace) -> dict:
    out: dict = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.jobs is not None:
        out["jobs"] = args.jobs
    if args.no_strict:
        out["strict_deterministic"] = False
    return out


def _set(overrides: dict, dotted: str, value) -> None:
    if value is None:
        return
    node = overrides
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcbench",
        description="Synthesize compressed-audio datasets, train siamese "
                    "embedding models, and estimate compressor parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize loops and a compressed dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--family", help="grid family (DS1-DS4, DM1, DM2, D4P)")
    p.add_argument("--loops", type=int, help="number of audio loops")
    p.add_argument("--settings", type=int, help="settings per file on DS grids")
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--duration", type=float, help="loop length in seconds")
    p.add_argument("--tempo", type=float, help="loop tempo in BPM")
    p.add_argument("--loops-dir", help="reuse existing loop WAVs instead of synthesizing")

    p = sub.add_parser("train", help="train a siamese model on a dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="directory with manifest.json")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--variant", help="model variant name")
    p.add_argument("--width", type=float, help="channel width multiplier")
    p.add_argument("--epochs", type=int, help="maximum training epochs")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--representation", choices=("spectrogram", "mel", "waveform"))
    p.add_argument("--frame-len", type=int)
    p.add_argument("--n-mels", type=int)

    p = sub.add_parser("embed", help="write per-entry feature rows")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output .spec feature file")
    p.add_argument("--checkpoint", help="trained model (required for embeddings)")
    p.add_argument("--source", choices=("embeddings", "baseline"), default="embeddings")

    p = sub.add_parser("fit", help="fit one forest on a single grouped split")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output base path (writes .json)")
    p.add_argument("--trees", type=int)

    p = sub.add_parser("evaluate", help="repeated grouped splits; MAE report")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="report base path (writes .json/.txt)")
    p.add_argument("--splits", type=int)
    p.add_argument("--trees", type=int)

    p = sub.add_parser("reproduce-table", help="re-run one published comparison axis")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=("representation", "frame-size", "kernel-shape", "four-param"))
    p.add_argument("--out", required=True, help="sweep output directory")
    p.add_argument("--families", nargs="+", help="grid families for the sweep rows")
    p.add_argument("--loops", type=int)
    p.add_argument("--settings", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--splits", type=int)
    p.add_argument("--trees", type=int)
    return parser


def _require_file(path: str | Path, field: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(field, f"no such file: {path}")
    return path


def _load_config(args: argparse.Namespace, overrides: dict) -> dict:
    cfg = experiment.load_config(args.config, overrides)
    if cfg["strict_deterministic"] and cfg["jobs"] != 1:
        print(f"warning: strict_deterministic runs on one worker, ignoring jobs={cfg['jobs']} "
              "(pass --no-strict to use them)", file=sys.stderr)
    return cfg


def _dispatch(args: argparse.Namespace) -> int:
    overrides = _common_overrides(args)

    if args.command == "generate":
        _set(overrides, "dataset.family", args.family)
        _set(overrides, "dataset.n_loops", args.loops)
        _set(overrides, "dataset.settings_per_file", args.settings)
        _set(overrides, "dataset.sample_rate", args.sample_rate)
        _set(overrides, "dataset.duration_s", args.duration)
        _set(overrides, "dataset.tempo_bpm", args.tempo)
        _set(overrides, "dataset.loops_dir", args.loops_dir)
        cfg = _load_config(args, overrides)
        manifest = experiment.cmd_generate(cfg, args.out)
        print(f"wrote {len(manifest.entries)} entries for "
              f"{len(manifest.loops)} loops under {args.out}")
        return 0

    if args.command == "train":
        _set(overrides, "model.variant", args.variant)
        _set(overrides, "model.width", args.width)
        _set(overrides, "train.max_epochs", args.epochs)
        _set(overrides, "train.batch_size", args.batch_size)
        _set(overrides, "train.patience", args.patience)
        _set(overrides, "train.validation_fraction", args.val_fraction)
        _set(overrides, "representation.kind", args.representation)
        _set(overrides, "representation.frame_len", args.frame_len)
        _set(overrides, "representation.n_mels", args.n_mels)
        cfg = _load_config(args, overrides)
        ckpt = experiment.cmd_train(cfg, args.dataset, args.out)
        print(f"saved {ckpt}")
        return 0

    if args.command == "embed":
        cfg = _load_config(args, overrides)
        checkpoint = None
        if args.source == "embeddings":
            if args.checkpoint is None:
                raise ConfigError("checkpoint", "required when --source embeddings")
            checkpoint = _require_file(args.checkpoint, "checkpoint")
        features = experiment.cmd_embed(cfg, args.dataset, checkpoint, args.out,
                                        source=args.source)
        print(f"wrote {features.shape[0]}x{features.shape[1]} features to {args.out}")
        return 0

    if args.command == "fit":
        _set(overrides, "eval.forest.n_trees", args.trees)
        cfg = _load_config(args, overrides)
        result = experiment.cmd_fit(cfg, _require_file(args.features, "features"),
                                    args.dataset, args.out)
        for name in result["targets"]:
            print(f"{name}: test MAE {result['test_mae'][name]:.4f}")
        return 0

    if args.command == "evaluate":
        _set(overrides, "eval.n_splits", args.splits)
        _set(overrides, "eval.forest.n_trees", args.trees)
        cfg = _load_config(args, overrides)
        report = experiment.cmd_evaluate(cfg, _require_file(args.features, "features"),
                                         args.dataset, args.out)
        print(report.render_text())
        return 0

    if args.command == "reproduce-table":
        _set(overrides, "sweep.families", args.families)
        _set(overrides, "dataset.n_loops", args.loops)
        _set(overrides, "dataset.settings_per_file", args.settings)
        _set(overrides, "train.max_epochs", args.epochs)
        _set(overrides, "eval.n_splits", args.splits)
        _set(overrides, "eval.forest.n_trees", args.trees)
        cfg = _load_config(args, overrides)
        table = experiment.reproduce_table(cfg, args.axis, args.out)
        print(table.read_text())
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DrcBenchError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
