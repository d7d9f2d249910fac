"""The package as the benchmark sees it: every name perfbench looks up must exist.

perfbench/ imports its helpers as top-level modules from its own directory
and reaches the package through ``drcbench.experiment`` (as ``ex``). These
tests load the same modules, so deleting or renaming a name the benchmark
uses fails here instead of in a traced benchmark run.
"""

import importlib
import re
from pathlib import Path

import pytest

from drcbench import experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Imports perfbench's modules by name, as its scripts do."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls(perfbench):
    tracer = perfbench("tracer").Tracer()
    tracer.install()  # raises AttributeError for a patched name that is gone
    patched = list(tracer._undo)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_workloads_resolve_their_toy_configs(perfbench):
    workloads = perfbench("workloads")
    for workload in workloads.WORKLOADS.values():
        cfg = workloads.make_config(experiment, workload, "toy", 0)
        experiment.train_config_from(cfg)
        experiment.eval_config_from(cfg)
        experiment.model_spec_from(cfg, num_para=1)


def test_workloads_use_only_existing_experiment_names():
    used = set(re.findall(r"\bex\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert "cmd_embed" in used
    assert sorted(n for n in used if not hasattr(experiment, n)) == []


def test_tracer_sees_every_representation_load(perfbench, tmp_path):
    ds = tmp_path / "ds"
    manifest = experiment.cmd_generate(
        experiment.load_config(None, {"dataset": {"family": "DS3", "n_loops": 5,
                                                  "settings_per_file": 3, "duration_s": 1.0}}),
        ds)
    assert len(manifest.entries) == 15  # 30 lookups per load, 5 + 15 unique WAVs
    cfg = experiment.load_config(None, {"train": {"max_epochs": 1, "patience": 1}})
    tracer = perfbench("tracer").Tracer()
    tracer.install()
    try:
        ckpt = experiment.cmd_train(cfg, ds, tmp_path / "run")
        experiment.cmd_embed(cfg, ds, ckpt, tmp_path / "run" / "features.spec")
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert tracer.calls["experiment.load_pair_arrays"] == 2  # cmd_train and cmd_embed
    assert metrics["experiment.rep_cache.hit_ratio"] == pytest.approx(1 / 3)
    assert metrics["experiment.load_pair_arrays.out_mb"] > 0
