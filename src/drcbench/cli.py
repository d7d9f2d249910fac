"""Command-line front end.

Exit codes: 0 success, 2 configuration or input problems (the message names
the offending field or path), 3 numerical failure inside a computation.
"""

from __future__ import annotations

import argparse
import sys

from .config import TABLE, nest
from .errors import ConfigError, DrcBenchError, NumericError
from . import experiment

#: flag -> (the config leaf it overrides, argument type, help)
OVERRIDES = {
    "--seed": ("seed", int, "master seed"),
    "--jobs": ("jobs", int, "worker processes for dataset builds"),
    "--family": ("dataset.family", str, "grid family (DS1-DS4, DM1, DM2, D4P)"),
    "--loops": ("dataset.n_loops", int, "number of audio loops"),
    "--settings": ("dataset.settings_per_file", int, "settings per file on DS grids"),
    "--sample-rate": ("dataset.sample_rate", int, None),
    "--duration": ("dataset.duration_s", float, "loop length in seconds"),
    "--tempo": ("dataset.tempo_bpm", float, "loop tempo in BPM"),
    "--loops-dir": ("dataset.loops_dir", str, "reuse existing loop WAVs instead of synthesizing"),
    "--variant": ("model.variant", str, "model variant name"),
    "--width": ("model.width", float, "channel width multiplier"),
    "--epochs": ("train.max_epochs", int, "maximum training epochs"),
    "--batch-size": ("train.batch_size", int, None),
    "--patience": ("train.patience", int, "early-stopping patience"),
    "--val-fraction": ("train.validation_fraction", float, None),
    "--representation": ("representation.kind", str, "spectrogram, mel or waveform"),
    "--frame-len": ("representation.frame_len", int, None),
    "--n-mels": ("representation.n_mels", int, None),
    "--splits": ("eval.n_splits", int, None),
    "--trees": ("eval.forest.n_trees", int, None),
}


def _add_overrides(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        dest, kind, text = OVERRIDES[flag]
        parser.add_argument(flag, dest=dest, type=kind, help=text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    _add_overrides(parser, "--seed", "--jobs")
    parser.add_argument("--no-strict", dest="strict_deterministic", action="store_const",
                        const=False, help="allow multi-process dataset materialization")


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
    _add_overrides(p, "--family", "--loops", "--settings", "--sample-rate", "--duration",
                   "--tempo", "--loops-dir")

    p = sub.add_parser("train", help="train a siamese model on a dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True, help="directory with manifest.json")
    p.add_argument("--out", required=True, help="run output directory")
    _add_overrides(p, "--variant", "--width", "--epochs", "--batch-size", "--patience",
                   "--val-fraction", "--representation", "--frame-len", "--n-mels")

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
    _add_overrides(p, "--trees")

    p = sub.add_parser("evaluate", help="repeated grouped splits; MAE report")
    _add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="report base path (writes .json/.txt)")
    _add_overrides(p, "--splits", "--trees")

    p = sub.add_parser("reproduce-table", help="re-run one published comparison axis")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=("representation", "frame-size", "kernel-shape", "four-param"))
    p.add_argument("--out", required=True, help="sweep output directory")
    p.add_argument("--families", dest="sweep.families", nargs="+",
                   help="grid families for the sweep rows")
    _add_overrides(p, "--loops", "--settings", "--epochs", "--splits", "--trees")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    # an option that overrides a config leaf has the leaf's dotted path as its dest
    overrides = nest({dest: value for dest, value in vars(args).items()
                      if dest in TABLE and value is not None})
    cfg = experiment.load_config(args.config, overrides)
    if cfg["strict_deterministic"] and cfg["jobs"] != 1:
        print(f"warning: strict_deterministic runs on one worker, ignoring jobs={cfg['jobs']} "
              "(pass --no-strict to use them)", file=sys.stderr)

    if args.command == "generate":
        manifest = experiment.cmd_generate(cfg, args.out)
        print(f"wrote {len(manifest.entries)} entries for "
              f"{len(manifest.loops)} loops under {args.out}")
        return 0

    if args.command == "train":
        ckpt = experiment.cmd_train(cfg, args.dataset, args.out)
        print(f"saved {ckpt}")
        return 0

    if args.command == "embed":
        features = experiment.cmd_embed(cfg, args.dataset, args.checkpoint, args.out,
                                        source=args.source)
        print(f"wrote {features.shape[0]}x{features.shape[1]} features to {args.out}")
        return 0

    if args.command == "fit":
        result = experiment.cmd_fit(cfg, args.features, args.dataset, args.out)
        for name in result["targets"]:
            print(f"{name}: test MAE {result['test_mae'][name]:.4f}")
        return 0

    if args.command == "evaluate":
        report = experiment.cmd_evaluate(cfg, args.features, args.dataset, args.out)
        print(report.render_text())
        return 0

    if args.command == "reproduce-table":
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
    except (DrcBenchError, OSError) as err:  # an OSError names its path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
