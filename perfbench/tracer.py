"""Span tracing of drcbench's public functions, installed from outside.

The package has no tracing hooks of its own, so the benchmark wraps each
public function at the place where its caller looks the name up: modules
import layer functions by name (``from .autodiff import conv2d``), so the
wrapper for ``conv2d`` goes into ``drcbench.models`` and the wrapper for
``compress`` into ``drcbench.dataset``. Methods are wrapped on their class.
An autodiff op's backward pass runs later, from ``Tensor.backward``, so the
op wrapper also wraps the backward closure stored on the returned tensor.

Spans are kept in memory. A span's self time is its duration minus the time
its child spans cover. Bookkeeping that hashes or stats arrays runs inside a
``trace.count`` span, so it is charged to the tracer, not to the program.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: the program's layers, one per module (autodiff covers its sub-package)
LAYERS = ("audio", "compressor", "wavio", "dataset", "spectrogram", "autodiff",
          "models", "forest", "evaluate", "experiment")

#: autodiff ops that the model branches call, wrapped in ``drcbench.models``
AUTODIFF_OPS = ("conv2d", "maxpool2d", "dense", "relu", "dropout", "flatten", "sub",
                "mse_loss")

#: every per-layer metric with its unit; BENCHMARK.json lists the same names
METRIC_UNITS: dict[str, str] = {
    "experiment.cmd_generate.s": "s",
    "experiment.cmd_train.s": "s",
    "experiment.cmd_embed.s": "s",
    "experiment.cmd_evaluate.s": "s",
    "experiment.load_pair_arrays.s": "s",
    "experiment.load_pair_arrays.out_mb": "MiB",
    "experiment.rep_cache.hit_ratio": "ratio",
    "dataset.materialize.self_s": "s",
    "audio.synthesize_loop.calls": "count",
    "audio.synthesize_loop.s": "s",
    "compressor.compress.calls": "count",
    "compressor.compress.s": "s",
    "compressor.compress.samples": "count",
    "wavio.write_wav.calls": "count",
    "wavio.write_wav.s": "s",
    "wavio.write_wav.mb": "MiB",
    "wavio.read_wav.calls": "count",
    "wavio.read_wav.s": "s",
    "wavio.read_wav.mb": "MiB",
    "spectrogram.transform.calls": "count",
    "spectrogram.transform.s": "s",
    "spectrogram.read_matrix.calls": "count",
    "spectrogram.read_matrix.s": "s",
    "spectrogram.read_matrix.mb": "MiB",
    "spectrogram.write_matrix.calls": "count",
    "spectrogram.write_matrix.s": "s",
    "spectrogram.write_matrix.mb": "MiB",
    **{f"autodiff.{op}.{k}": u for op in ("conv2d", "maxpool2d", "dense", "relu", "dropout")
       for k, u in (("calls", "count"), ("fwd_s", "s"))},
    "autodiff.conv2d.bwd_s": "s",
    "autodiff.maxpool2d.bwd_s": "s",
    "autodiff.conv2d.computed_gflop": "GFLOP",
    "autodiff.conv2d.computed_mb": "MiB",
    "autodiff.conv2d.gflop_per_s": "GFLOP/s",
    "autodiff.Tensor.backward.calls": "count",
    "autodiff.Tensor.backward.s": "s",
    "autodiff.Adadelta.step.calls": "count",
    "autodiff.Adadelta.step.s": "s",
    "models.train.s": "s",
    "models.train.epochs": "count",
    "models.train.steps": "count",
    "models.train.s_per_epoch": "s",
    "models.embed_pair.calls": "count",
    "models.embed_pair.s": "s",
    "models.embed_pair.branch_forwards": "count",
    "models.embed_pair.unique_clip_ratio": "ratio",
    "forest.Forest.fit.calls": "count",
    "forest.Forest.fit.s": "s",
    "forest.Forest.fit.trees": "count",
    "forest.Forest.fit.nodes": "count",
    "forest.Forest.predict.s": "s",
    "forest.Forest.predict.rows": "count",
    "evaluate.evaluate.self_s": "s",
    "evaluate.baseline_features.calls": "count",
    "evaluate.baseline_features.s": "s",
    "evaluate.clip_stats.unique_ratio": "ratio",
    "evaluate.mae_pct": "%",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.spans": "count",
}


MIB = 2 ** 20


def _digest(array) -> bytes:
    return hashlib.blake2b(memoryview(array.tobytes()), digest_size=16).digest()


class Tracer:
    """In-memory spans plus counters, aggregated per span name."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self._stack: list[list] = []  # [span index, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.unique: dict[str, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def end(self) -> None:
        now = time.perf_counter()
        index, name, start, child = self._stack.pop()
        duration = now - start
        self.spans[index] = (name, self.spans[index][1], start, now)
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name: str, fn, count=None, wrap_backward: bool = False):
        """Return ``fn`` recording a span; ``count(tracer, name, parent, args, result)`` adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.parent_name()
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if wrap_backward and getattr(result, "_backward", None) is not None:
                result._backward = tracer.wrap(name + ".bwd", result._backward)
            if count is not None:
                tracer.begin("trace.count")
                try:
                    count(tracer, name, parent, args, result)
                finally:
                    tracer.end()
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None, wrap_backward: bool = False) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, wrap_backward))

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        # import_module: the package re-exports a function named ``evaluate``,
        # which shadows the submodule as an attribute of ``drcbench``
        dataset = importlib.import_module("drcbench.dataset")
        evaluate = importlib.import_module("drcbench.evaluate")
        experiment = importlib.import_module("drcbench.experiment")
        models = importlib.import_module("drcbench.models")
        from drcbench.autodiff.optim import Adadelta
        from drcbench.autodiff.tensor import Tensor
        from drcbench.forest import Forest

        for cmd in ("cmd_generate", "cmd_train", "cmd_embed", "cmd_evaluate"):
            self.patch(experiment, cmd, f"experiment.{cmd}")
        self.patch(experiment, "load_pair_arrays", "experiment.load_pair_arrays",
                   _count_load_pair_arrays)
        self.patch(experiment, "materialize", "dataset.materialize")
        self.patch(experiment, "train", "models.train", _count_train)
        self.patch(experiment, "load_model", "models.load_model")
        self.patch(experiment, "save_model", "models.save_model")
        self.patch(experiment, "evaluate", "evaluate.evaluate")
        self.patch(experiment, "baseline_features", "evaluate.baseline_features")
        self.patch(experiment, "transform", "spectrogram.transform")
        self.patch(experiment, "read_matrix", "spectrogram.read_matrix", _count_file_bytes)
        self.patch(experiment, "write_matrix", "spectrogram.write_matrix", _count_file_bytes)
        self.patch(experiment, "read_wav", "wavio.read_wav", _count_read_wav)

        self.patch(dataset, "synthesize_loop", "audio.synthesize_loop")
        self.patch(dataset, "compress", "compressor.compress", _count_compress)
        self.patch(dataset, "write_wav", "wavio.write_wav", _count_file_bytes)
        self.patch(dataset, "read_wav", "wavio.read_wav", _count_read_wav)

        self.patch(evaluate, "clip_stats", "evaluate.clip_stats", _count_clip_stats)
        self.patch(evaluate, "stft_magnitude", "spectrogram.stft_magnitude")

        for op in AUTODIFF_OPS:
            self.patch(models, op, f"autodiff.{op}",
                       _count_conv2d if op == "conv2d" else None, wrap_backward=True)
        self.patch(models, "save_checkpoint", "autodiff.save_checkpoint")
        self.patch(models, "load_checkpoint", "autodiff.load_checkpoint")
        self.patch(Tensor, "backward", "autodiff.Tensor.backward")
        self.patch(Adadelta, "step", "autodiff.Adadelta.step")
        self.patch(models.SiameseModel, "embed_pair", "models.embed_pair", _count_embed_pair)

        self.patch(Forest, "fit", "forest.Forest.fit", _count_forest_fit)
        self.patch(Forest, "predict", "forest.Forest.predict", _count_forest_predict)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run of the measured part."""
        calls, total, own, counts = self.calls, self.total, self.self_time, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for cmd in ("cmd_generate", "cmd_train", "cmd_embed", "cmd_evaluate"):
            out[f"experiment.{cmd}.s"] = total[f"experiment.{cmd}"]
        out["experiment.load_pair_arrays.s"] = total["experiment.load_pair_arrays"]
        out["experiment.load_pair_arrays.out_mb"] = counts["experiment.load_pair_arrays.out_bytes"] / MIB
        lookups = counts["experiment.rep_cache.lookups"]
        out["experiment.rep_cache.hit_ratio"] = ratio(
            lookups - counts["experiment.rep_cache.misses"], lookups)
        out["dataset.materialize.self_s"] = own["dataset.materialize"]
        for name in ("audio.synthesize_loop", "compressor.compress", "wavio.write_wav",
                     "wavio.read_wav", "spectrogram.transform", "spectrogram.read_matrix",
                     "spectrogram.write_matrix", "autodiff.Tensor.backward",
                     "autodiff.Adadelta.step", "models.embed_pair", "forest.Forest.fit",
                     "evaluate.baseline_features"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        out["compressor.compress.samples"] = counts["compressor.compress.samples"]
        for name in ("wavio.write_wav", "wavio.read_wav", "spectrogram.read_matrix",
                     "spectrogram.write_matrix"):
            out[f"{name}.mb"] = counts[f"{name}.bytes"] / MIB
        for op in ("conv2d", "maxpool2d", "dense", "relu", "dropout"):
            out[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
            out[f"autodiff.{op}.fwd_s"] = total[f"autodiff.{op}"]
        for op in ("conv2d", "maxpool2d"):
            out[f"autodiff.{op}.bwd_s"] = total[f"autodiff.{op}.bwd"]
        gflop = counts["autodiff.conv2d.flops"] / 1e9
        out["autodiff.conv2d.computed_gflop"] = gflop
        out["autodiff.conv2d.computed_mb"] = counts["autodiff.conv2d.bytes"] / MIB
        out["autodiff.conv2d.gflop_per_s"] = ratio(gflop, total["autodiff.conv2d"])
        out["models.train.s"] = total["models.train"]
        out["models.train.epochs"] = counts["models.train.epochs"]
        out["models.train.steps"] = calls["autodiff.Adadelta.step"]
        out["models.train.s_per_epoch"] = ratio(total["models.train"], counts["models.train.epochs"])
        forwards = counts["models.embed_pair.branch_forwards"]
        out["models.embed_pair.branch_forwards"] = forwards
        out["models.embed_pair.unique_clip_ratio"] = ratio(
            len(self.unique["models.embed_pair"]), forwards)
        out["forest.Forest.fit.trees"] = counts["forest.Forest.fit.trees"]
        out["forest.Forest.fit.nodes"] = counts["forest.Forest.fit.nodes"]
        out["forest.Forest.predict.s"] = total["forest.Forest.predict"]
        out["forest.Forest.predict.rows"] = counts["forest.Forest.predict.rows"]
        out["evaluate.evaluate.self_s"] = own["evaluate.evaluate"]
        out["evaluate.clip_stats.unique_ratio"] = ratio(
            len(self.unique["evaluate.clip_stats"]), calls["evaluate.clip_stats"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in own.items() if name.split(".", 1)[0] == layer)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, total s, self s), largest self time first."""
        rows = [(name, calls, self.total[name], self.self_time[name])
                for name, calls in self.calls.items() if calls]
        return sorted(rows, key=lambda row: -row[3])

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# counters, each called after the wrapped function returns


def _count_file_bytes(tracer, name, parent, args, result):
    tracer.counts[name + ".bytes"] += os.path.getsize(args[0])


def _count_read_wav(tracer, name, parent, args, result):
    tracer.counts["wavio.read_wav.bytes"] += os.path.getsize(args[0])
    # Inside load_pair_arrays a WAV is decoded only when its representation
    # was in neither the in-memory nor the on-disk cache.
    if parent == "experiment.load_pair_arrays":
        tracer.counts["experiment.rep_cache.misses"] += 1


def _count_load_pair_arrays(tracer, name, parent, args, result):
    tracer.counts["experiment.rep_cache.lookups"] += 2 * len(args[1].entries)
    tracer.counts["experiment.load_pair_arrays.out_bytes"] += sum(x.nbytes for x in result)


def _count_compress(tracer, name, parent, args, result):
    tracer.counts["compressor.compress.samples"] += args[0].samples.size


def _count_conv2d(tracer, name, parent, args, result):
    x, w, b = (t.data for t in args[:3])
    kh, kw, cin, _ = w.shape
    tracer.counts["autodiff.conv2d.flops"] += 2 * result.data.size * kh * kw * cin
    tracer.counts["autodiff.conv2d.bytes"] += x.nbytes + w.nbytes + b.nbytes + result.data.nbytes


def _count_train(tracer, name, parent, args, result):
    tracer.counts["models.train.epochs"] += len(result)


def _count_embed_pair(tracer, name, parent, args, result):
    _, unprocessed, processed = args
    tracer.counts["models.embed_pair.branch_forwards"] += len(unprocessed) + len(processed)
    seen = tracer.unique["models.embed_pair"]
    for batch in (unprocessed, processed):
        seen.update(_digest(row) for row in batch)


def _count_clip_stats(tracer, name, parent, args, result):
    tracer.unique["evaluate.clip_stats"].add(_digest(args[0].samples))


def _count_forest_fit(tracer, name, parent, args, result):
    ensembles = getattr(result, "ensembles", [])
    tracer.counts["forest.Forest.fit.trees"] += sum(len(trees) for trees in ensembles)
    tracer.counts["forest.Forest.fit.nodes"] += sum(
        _count_nodes(tree) for trees in ensembles for tree in trees)


def _count_forest_predict(tracer, name, parent, args, result):
    tracer.counts["forest.Forest.predict.rows"] += len(args[1])


def _count_nodes(tree) -> int:
    """Nodes of a fitted tree, for a linked tree (``root``) or flat node arrays."""
    root = getattr(tree, "root", None)
    if root is None:
        return len(getattr(tree, "feature", ()))
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return count
