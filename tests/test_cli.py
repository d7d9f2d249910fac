import json
import os

import numpy as np
import pytest

from drcbench import experiment
from drcbench.cli import main
from drcbench.errors import ConfigError, NumericError
from drcbench.spectrogram import SCALE_FEATURES, read_matrix, write_matrix


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds3"
    rc = main([
        "generate", "--out", str(root), "--family", "DS3",
        "--loops", "5", "--settings", "3", "--duration", "1.0",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train", "--dataset", str(dataset_dir), "--out", str(out),
        "--epochs", "2", "--val-fraction", "0.2",
    ])
    assert rc == 0
    rc = main([
        "embed", "--dataset", str(dataset_dir),
        "--checkpoint", str(out / "checkpoint.drcw"),
        "--out", str(out / "features.spec"),
    ])
    assert rc == 0
    return out


def test_generate_outputs(dataset_dir):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["family"] == "DS3"
    assert len(manifest["entries"]) == 15
    assert (dataset_dir / "config.resolved.json").exists()
    assert (dataset_dir / "loops" / "loop000.wav").exists()


def test_generate_is_reproducible(tmp_path, dataset_dir):
    again = tmp_path / "again"
    rc = main([
        "generate", "--out", str(again), "--family", "DS3",
        "--loops", "5", "--settings", "3", "--duration", "1.0",
    ])
    assert rc == 0
    assert (again / "manifest.json").read_bytes() == (dataset_dir / "manifest.json").read_bytes()
    assert (again / "loops" / "loop001.wav").read_bytes() == \
        (dataset_dir / "loops" / "loop001.wav").read_bytes()


def test_train_outputs(run_dir):
    assert (run_dir / "checkpoint.drcw").exists()
    sidecar = json.loads((run_dir / "checkpoint.json").read_text())
    assert sidecar["variant"] == "model1_spec_tuned"
    assert sidecar["label_ranges"] == {"attack_ms": [1.0, 99.0]}
    log = (run_dir / "training_log.csv").read_text().strip().splitlines()
    assert log[0] == "epoch,train_mse,val_mse"
    assert len(log) == 3


def test_embed_outputs(run_dir, dataset_dir):
    features, scale = read_matrix(run_dir / "features.spec")
    assert features.shape == (15, 50)
    assert scale == 2
    meta = json.loads((run_dir / "features.json").read_text())
    assert meta["feature_source"] == "embeddings"
    assert meta["n_rows"] == 15


def test_embed_baseline(run_dir, dataset_dir):
    out = run_dir / "baseline.spec"
    rc = main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
               "--source", "baseline"])
    assert rc == 0
    features, _ = read_matrix(out)
    assert features.shape == (15, 18)


def test_evaluate_and_fit(run_dir, dataset_dir, capsys):
    rc = main([
        "evaluate", "--features", str(run_dir / "features.spec"),
        "--dataset", str(dataset_dir), "--out", str(run_dir / "report"),
        "--splits", "3", "--trees", "5",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attack_ms" in out and "% of range" in out
    doc = json.loads((run_dir / "report.json").read_text())
    assert doc["protocol"]["n_splits"] == 3
    assert (run_dir / "report.txt").exists()

    rc = main([
        "fit", "--features", str(run_dir / "features.spec"),
        "--dataset", str(dataset_dir), "--out", str(run_dir / "fit"),
        "--trees", "5",
    ])
    assert rc == 0
    fit_doc = json.loads((run_dir / "fit.json").read_text())
    assert set(fit_doc["test_mae"]) == {"attack_ms"}
    assert fit_doc["n_train"] + fit_doc["n_test"] == 15


def test_fit_is_split_zero_of_evaluate(run_dir, dataset_dir):
    common = ["--features", str(run_dir / "features.spec"), "--dataset", str(dataset_dir),
              "--trees", "4"]
    assert main(["fit", *common, "--out", str(run_dir / "fit0")]) == 0
    assert main(["evaluate", *common, "--out", str(run_dir / "split0"), "--splits", "1"]) == 0
    fit_doc = json.loads((run_dir / "fit0.json").read_text())
    report = json.loads((run_dir / "split0.json").read_text())
    assert fit_doc["test_mae"] == report["mae"]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_mismatched_feature_rows_exit_2(tmp_path, dataset_dir, command, capsys):
    features = tmp_path / "short.spec"
    write_matrix(features, np.zeros((7, 4), dtype=np.float32), SCALE_FEATURES)
    rc = main([command, "--features", str(features), "--dataset", str(dataset_dir),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "feature rows (7) != manifest entries (15)" in err


def test_zero_splits_exit_2(run_dir, dataset_dir, capsys):
    rc = main(["evaluate", "--features", str(run_dir / "features.spec"),
               "--dataset", str(dataset_dir), "--out", str(run_dir / "none"), "--splits", "0"])
    assert rc == 2
    assert "eval: n_splits must be >= 1" in capsys.readouterr().err
    assert not (run_dir / "none.json").exists()


def test_missing_features_exit_2(dataset_dir, capsys):
    rc = main(["evaluate", "--features", "missing.spec",
               "--dataset", str(dataset_dir), "--out", "x"])
    assert rc == 2
    assert "missing.spec" in capsys.readouterr().err


def test_missing_checkpoint_exit_2(dataset_dir, capsys):
    rc = main(["embed", "--dataset", str(dataset_dir),
               "--checkpoint", "nope.drcw", "--out", "x.spec"])
    assert rc == 2
    assert "nope.drcw" in capsys.readouterr().err


def test_missing_dataset_exit_2(capsys):
    rc = main(["train", "--dataset", "/no/such/dir", "--out", "x"])
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trainn": {"batch_size": 4}}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "trainn" in capsys.readouterr().err


def test_bad_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"train": {"batch_size": 0}}))
    rc = main(["train", "--config", str(cfg), "--dataset", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_numeric_error_exit_3(monkeypatch, dataset_dir, capsys):
    def boom(cfg, dataset, out):
        raise NumericError("training diverged at epoch 3")
    monkeypatch.setattr(experiment, "cmd_train", boom)
    rc = main(["train", "--dataset", str(dataset_dir), "--out", "x"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_reproduce_table_representation_axis(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main([
        "reproduce-table", "--axis", "representation", "--out", str(out),
        "--families", "DS3", "--loops", "5", "--settings", "3",
        "--epochs", "2", "--splits", "3", "--trees", "5",
    ])
    assert rc == 0
    table = (out / "representation" / "table.txt").read_text()
    assert "mel" in table and "spectrogram" in table
    assert "note:" in table
    csv_lines = (out / "representation" / "table.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "row,mel,spectrogram"
    row = csv_lines[1].split(",")
    assert row[0] == "DS3 attack_ms"
    assert all(float(v) >= 0 for v in row[1:])
    assert (out / "representation" / "config.resolved.json").exists()


def test_reproduce_table_four_param_axis(tmp_path):
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({
        "dataset": {"duration_s": 0.4, "tempo_bpm": 150.0},
        "eval": {"min_groups": 2},
    }))
    out = tmp_path / "sweep"
    rc = main([
        "reproduce-table", "--axis", "four-param", "--out", str(out), "--config", str(cfg),
        "--loops", "2", "--epochs", "1", "--splits", "1", "--trees", "2",
    ])
    assert rc == 0
    table = (out / "four-param" / "table.txt").read_text()
    assert table.startswith("four-parameter estimation MAE")
    csv_lines = (out / "four-param" / "table.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "row,baseline,embeddings"
    rows = [line.split(",") for line in csv_lines[1:]]
    assert [row[0] for row in rows] == ["thd_db", "ratio", "attack_ms", "release_ms"]
    assert all(float(v) >= 0 for row in rows for v in row[1:])
    manifest = json.loads((out / "datasets" / "D4P" / "manifest.json").read_text())
    assert len(manifest["entries"]) == 2 * 625


# -- experiment-layer helpers ----------------------------------------------------


def test_load_config_precedence(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"train": {"batch_size": 4}, "seed": 2}))
    cfg = experiment.load_config(cfg_file, {"train": {"batch_size": 16}})
    assert cfg["train"]["batch_size"] == 16  # flag beats file
    assert cfg["seed"] == 2                  # file beats default
    assert cfg["train"]["patience"] == 10    # default survives


def test_load_config_rejects_unknown_nested_key():
    with pytest.raises(ConfigError) as err:
        experiment.load_config(None, {"eval": {"forest": {"depth": 3}}})
    assert err.value.field == "eval.forest.depth"


def test_resolve_representation_merges_over_variant_default():
    cfg = experiment.load_config(None, {"representation": {"frame_len": 512}})
    rep = experiment.resolve_representation(cfg, "model1_mel")
    assert rep == {"kind": "mel", "frame_len": 512, "hop_len": None, "n_mels": 128}


def test_normalized_labels_unit_range(dataset_dir):
    from drcbench.dataset import DatasetManifest

    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    y, ranges = experiment.normalized_labels(manifest)
    assert ranges == {"attack_ms": (1.0, 99.0)}
    assert y.min() == 0.0 and y.max() == 1.0


def test_representation_cache_env_var(dataset_dir, tmp_path, monkeypatch):
    from drcbench.dataset import DatasetManifest

    cache_root = tmp_path / "cache"
    monkeypatch.setenv(experiment.CACHE_ENV_VAR, str(cache_root))
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    rep = {"kind": "spectrogram", "frame_len": 128, "hop_len": None}
    x_a, x_b = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    cached = list(cache_root.rglob("*.spec"))
    assert len(cached) == 5 + 15  # one per unprocessed loop + per processed entry
    # second load reads back the same arrays from cache
    x_a2, _ = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    np.testing.assert_array_equal(x_a, x_a2)
