import importlib
import json
import os
import shutil

import numpy as np
import pytest

from drcbench import experiment
from drcbench.cli import main
from drcbench.dataset import DatasetManifest
from drcbench.errors import ConfigError, NumericError
from drcbench.models import (
    Model1Branch,
    ModelSpec,
    SiameseModel,
    default_representation,
    save_model,
    train,
)
from drcbench.spectrogram import read_matrix, write_matrix
from drcbench.wavio import read_wav


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
    features = read_matrix(run_dir / "features.spec")
    assert features.shape == (15, 50)
    assert (run_dir / "features.spec").read_bytes()[12:16] == (2).to_bytes(4, "little")
    meta = json.loads((run_dir / "features.json").read_text())
    assert meta["feature_source"] == "embeddings"
    assert meta["n_rows"] == 15


def test_embed_baseline(run_dir, dataset_dir):
    out = run_dir / "baseline.spec"
    rc = main(["embed", "--dataset", str(dataset_dir), "--out", str(out),
               "--source", "baseline"])
    assert rc == 0
    features = read_matrix(out)
    assert features.shape == (15, 18)


def test_embed_baseline_stats_once_per_unique_wav(dataset_dir, tmp_path, monkeypatch):
    # the package re-exports a function named ``evaluate`` over the submodule
    evaluate_module = importlib.import_module("drcbench.evaluate")
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    oracle = np.array([
        evaluate_module.baseline_features(read_wav(dataset_dir / e.unprocessed),
                                          read_wav(dataset_dir / e.processed))
        for e in manifest.entries
    ], dtype=np.float32)
    calls = []
    clip_stats = evaluate_module.clip_stats

    def counting_clip_stats(clip):
        calls.append(clip.samples.tobytes())
        return clip_stats(clip)

    monkeypatch.setattr(evaluate_module, "clip_stats", counting_clip_stats)
    features = experiment.cmd_embed(experiment.load_config(), dataset_dir, None,
                                    tmp_path / "baseline.spec", source="baseline")
    assert len(calls) == 5 + 15  # each unprocessed loop once, each processed entry once
    assert len(set(calls)) == len(calls)
    assert features.dtype == np.float32
    assert features.tobytes() == oracle.tobytes()


def test_embed_has_no_batch_size_flag(run_dir, dataset_dir, tmp_path, capsys):
    out = tmp_path / "features.spec"
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--dataset", str(dataset_dir),
              "--checkpoint", str(run_dir / "checkpoint.drcw"),
              "--out", str(out), "--batch-size", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --batch-size 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_embed_batch_size_below_one_exit_2(run_dir, dataset_dir, tmp_path, batch_size, capsys):
    # The option is gone, so any batch size, including one below 1, is a usage error.
    out = tmp_path / "features.spec"
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--dataset", str(dataset_dir),
              "--checkpoint", str(run_dir / "checkpoint.drcw"),
              "--out", str(out), "--batch-size", batch_size])
    assert exc.value.code == 2
    assert "unrecognized arguments: --batch-size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant", ["model1_spec_tuned", "model2_waveform"])
def test_embed_matches_embed_pair_oracle(dataset_dir, tmp_path, variant):
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    rep = default_representation(variant)
    clips, a_idx, b_idx = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    x_a, x_b = clips[a_idx], clips[b_idx]
    model = SiameseModel(ModelSpec(variant=variant, num_para=1, seed=5), x_a.shape[1:])
    ckpt = tmp_path / "checkpoint.drcw"
    save_model(ckpt, model, {"attack_ms": (1.0, 99.0)}, rep, 0)

    features = experiment.cmd_embed(experiment.load_config(), dataset_dir, ckpt,
                                    tmp_path / "features.spec")
    assert experiment.EMBED_BATCH == 8

    def oracle(x_a, x_b):
        return np.concatenate([model.embed_pair(x_a[i:i + 8], x_b[i:i + 8])
                               for i in range(0, len(x_a), 8)])[:15]

    # BLAS computes the rows of a partial block with other kernels, so the last
    # bits of a row depend on its batch-mates: 15 entries leave the oracle a
    # 7-row batch, while the 20 unique clips fill whole blocks. Repeating the
    # last entry gives the oracle whole batches too.
    whole = oracle(np.concatenate([x_a, x_a[-1:]]), np.concatenate([x_b, x_b[-1:]]))
    assert features.dtype == np.float32
    assert features.tobytes() == whole.tobytes()
    assert read_matrix(tmp_path / "features.spec").tobytes() == whole.tobytes()
    np.testing.assert_allclose(features, oracle(x_a, x_b), rtol=1e-5, atol=1e-6)


def test_embed_runs_branch_once_per_unique_wav(run_dir, dataset_dir, tmp_path, monkeypatch):
    rows = []
    forward = Model1Branch.forward

    def counting_forward(self, x, training):
        rows.append(x.shape[0])
        return forward(self, x, training)

    monkeypatch.setattr(Model1Branch, "forward", counting_forward)
    features = experiment.cmd_embed(experiment.load_config(), dataset_dir,
                                    run_dir / "checkpoint.drcw", tmp_path / "features.spec")
    assert sum(rows) == 5 + 15  # each unprocessed loop once, each processed entry once
    assert features.tobytes() == read_matrix(run_dir / "features.spec").tobytes()


def test_embed_non_finite_merge_exit_3(run_dir, dataset_dir, tmp_path, monkeypatch, capsys):
    big = np.finfo(np.float32).max

    def overflowing_embed(self, batch):
        # finite embeddings whose processed - unprocessed difference overflows
        sign = np.where(np.arange(len(batch)) % 2, 1, -1).astype(np.float32)
        return np.full((len(batch), 50), big, dtype=np.float32) * sign[:, None]

    monkeypatch.setattr(SiameseModel, "embed", overflowing_embed)
    with np.errstate(over="ignore"):
        rc = main(["embed", "--dataset", str(dataset_dir),
                   "--checkpoint", str(run_dir / "checkpoint.drcw"),
                   "--out", str(tmp_path / "features.spec")])
    assert rc == 3
    assert "non-finite values produced by sub" in capsys.readouterr().err


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
    write_matrix(features, np.zeros((7, 4), dtype=np.float32))
    rc = main([command, "--features", str(features), "--dataset", str(dataset_dir),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "feature rows (7) != manifest entries (15)" in err


def test_zero_splits_exit_2(run_dir, dataset_dir, capsys):
    rc = main(["evaluate", "--features", str(run_dir / "features.spec"),
               "--dataset", str(dataset_dir), "--out", str(run_dir / "none"), "--splits", "0"])
    assert rc == 2
    assert "eval.n_splits: n_splits must be an int >= 1, got 0" in capsys.readouterr().err
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


def test_embed_without_checkpoint_exit_2(dataset_dir, tmp_path, capsys):
    out = tmp_path / "x.spec"
    rc = main(["embed", "--dataset", str(dataset_dir), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: checkpoint: embedding extraction needs a trained checkpoint" in err
    assert not out.exists()


def test_missing_dataset_exit_2(capsys):
    rc = main(["train", "--dataset", "/no/such/dir", "--out", "x"])
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["evaluate", "--features", "{tmp}/dir", "--dataset", "{ds}", "--out", "{tmp}/report"],
     "{tmp}/dir"),
    (["embed", "--checkpoint", "{tmp}/dir", "--dataset", "{ds}", "--out", "{tmp}/f.spec"],
     "{tmp}/dir"),
    (["train", "--dataset", "{ds}", "--out", "{tmp}/file/run", "--epochs", "1"],
     "{tmp}/file/run/checkpoint.drcw"),
], ids=["evaluate_features_dir", "embed_checkpoint_dir", "train_out_under_a_file"])
def test_os_error_exit_2(dataset_dir, tmp_path, argv, named, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    rc = main([arg.format(tmp=tmp_path, ds=dataset_dir) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ")
    assert f"'{named.format(tmp=tmp_path)}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["embed", "--source", "baseline", "--out", "{tmp}/b.spec"],
    ["train", "--out", "{tmp}/run"],
], ids=["embed_baseline", "train"])
def test_truncated_dataset_wav_exit_2(dataset_dir, tmp_path, argv, capsys):
    bad = tmp_path / "ds"
    shutil.copytree(dataset_dir, bad)
    wav = bad / "DS3" / "loop001" / "001.wav"
    wav.write_bytes(wav.read_bytes()[:-100])
    rc = main([arg.format(tmp=tmp_path) for arg in argv] + ["--dataset", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {wav}: malformed WAV file: truncated file while reading data chunk" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("field, value", [
    ("features_per_split", 0),
    ("features_per_split", -3),
    ("n_trees", 2.5),
    ("min_samples_leaf", 1.5),
    ("max_depth", 2.5),
    ("bootstrap", "no"),
])
def test_bad_forest_config_exit_2(run_dir, dataset_dir, tmp_path, field, value, capsys):
    cfg = tmp_path / "forest.json"
    cfg.write_text(json.dumps({"eval": {"forest": {field: value}}}))
    rc = main(["evaluate", "--config", str(cfg), "--features", str(run_dir / "features.spec"),
               "--dataset", str(dataset_dir), "--out", str(tmp_path / "report")])
    assert rc == 2
    assert f"config error: eval.forest.{field}: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    with pytest.raises(ConfigError) as err:
        experiment.eval_config_from(
            experiment.load_config(None, {"eval": {"forest": {field: value}}}))
    assert err.value.field == f"eval.forest.{field}"


@pytest.mark.parametrize("section, field, value", [
    ("train", "batch_size", 2.5),
    ("train", "seed", -1),
    ("train", "patience", True),
    ("model", "seed", -1),
    ("eval", "n_splits", 2.5),
    ("eval", "seed", -1),
])
def test_bad_int_config_exit_2(run_dir, dataset_dir, tmp_path, section, field, value, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: {field: value}}))
    if section == "eval":
        argv = ["evaluate", "--features", str(run_dir / "features.spec")]
        written = tmp_path / "out.json"
    else:
        argv = ["train"]
        written = tmp_path / "out" / "checkpoint.drcw"
    rc = main([*argv, "--config", str(cfg), "--dataset", str(dataset_dir),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {section}.{field}: {field} must be an int >= " in err
    assert "Traceback" not in err
    assert not written.exists()


@pytest.mark.parametrize("command, overrides, path", [
    ("generate", {"dataset": {"n_loops": 2.7}}, "dataset.n_loops"),
    ("generate", {"dataset": {"sample_rate": 8000.5}}, "dataset.sample_rate"),
    ("generate", {"dataset": {"duration_s": True}}, "dataset.duration_s"),
    ("generate", {"dataset": {"settings_per_file": 2.5}}, "dataset.settings_per_file"),
    ("generate", {"seed": 1.5}, "seed"),
    ("generate", {"seed": -1}, "seed"),
    ("generate", {"jobs": 0, "strict_deterministic": False}, "jobs"),
    ("generate", {"jobs": 2.5, "strict_deterministic": False}, "jobs"),
    ("generate", {"strict_deterministic": "no"}, "strict_deterministic"),
    ("train", {"representation": {"kind": "cqt"}}, "representation.kind"),
    ("train", {"representation": {"hop_len": 2.5}}, "representation.hop_len"),
    ("train", {"model": {"width": True}}, "model.width"),
    ("train", {"model": {"kernels": [[3, 3], [1, 3.7]]}}, "model.kernels"),
    ("train", {"train": {"validation_fraction": False}}, "train.validation_fraction"),
])
def test_bad_config_leaf_exit_2(dataset_dir, tmp_path, command, overrides, path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    dataset = ["--dataset", str(dataset_dir)] if command == "train" else []
    rc = main([command, "--config", str(cfg), *dataset, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: {path.rsplit('.', 1)[-1]} must be " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("variant, kind", [
    ("model2_waveform", "mel"),
    ("model2_waveform", "spectrogram"),
    ("model1_spec_tuned", "waveform"),
    ("model3_multikernel", "waveform"),
])
def test_representation_the_variant_cannot_take_exit_2(dataset_dir, tmp_path, variant, kind,
                                                       capsys):
    out = tmp_path / "out"
    rc = main(["train", "--dataset", str(dataset_dir), "--out", str(out), "--variant", variant,
               "--representation", kind, "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: representation.kind: kind must be " in err
    assert f" for {variant}, got '{kind}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("variant, kinds", [
    ("model1_mel", ("mel", "spectrogram")),
    ("model1_spec_tuned", ("mel", "spectrogram")),
    ("model2_waveform", ("waveform",)),
    ("model3_multikernel", ("mel", "spectrogram")),
])
def test_resolve_representation_takes_the_kinds_of_the_variant(variant, kinds):
    for kind in kinds:
        cfg = experiment.load_config(None, {"representation": {"kind": kind}})
        assert experiment.resolve_representation(cfg, variant)["kind"] == kind


def test_evaluate_and_fit_keep_the_train_config_record(dataset_dir, tmp_path):
    run = tmp_path / "run"
    common = ["--dataset", str(dataset_dir), "--features", str(run / "features.spec")]
    assert main(["train", "--dataset", str(dataset_dir), "--out", str(run),
                 "--epochs", "1", "--seed", "3"]) == 0
    record = (run / "config.resolved.json").read_bytes()
    assert main(["embed", "--dataset", str(dataset_dir), "--out", str(run / "features.spec"),
                 "--checkpoint", str(run / "checkpoint.drcw")]) == 0
    assert main(["evaluate", *common, "--out", str(run / "report"),
                 "--splits", "2", "--trees", "4"]) == 0
    assert main(["fit", *common, "--out", str(run / "fit"), "--trees", "3"]) == 0

    assert (run / "config.resolved.json").read_bytes() == record
    assert json.loads(record)["train"]["max_epochs"] == 1
    assert json.loads(record)["seed"] == 3
    assert json.loads((run / "report.config.json").read_text())["eval"]["n_splits"] == 2
    assert json.loads((run / "fit.config.json").read_text())["eval"]["forest"]["n_trees"] == 3

    # the evaluate record re-creates its report
    assert main(["evaluate", *common, "--config", str(run / "report.config.json"),
                 "--out", str(run / "again")]) == 0
    assert (run / "again.json").read_bytes() == (run / "report.json").read_bytes()
    assert (run / "again.config.json").read_bytes() == (run / "report.config.json").read_bytes()


def test_resolved_config_feeds_back_to_the_same_bytes(dataset_dir, tmp_path):
    resolved = dataset_dir / "config.resolved.json"
    again = tmp_path / "again"
    assert main(["generate", "--config", str(resolved), "--out", str(again)]) == 0
    assert (again / "config.resolved.json").read_bytes() == resolved.read_bytes()
    assert (again / "manifest.json").read_bytes() == (dataset_dir / "manifest.json").read_bytes()


def test_numeric_error_exit_3(monkeypatch, dataset_dir, capsys):
    def boom(cfg, dataset, out):
        raise NumericError("training diverged at epoch 3")
    monkeypatch.setattr(experiment, "cmd_train", boom)
    rc = main(["train", "--dataset", str(dataset_dir), "--out", "x"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], "malformed manifest"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "n_clamped"}),
     "missing key 'n_clamped'"),
    (lambda text: text.replace('"step": 2.0', '"step": 0.0', 1),
     "malformed manifest: grid axes differ from the DS3 family's"),
], ids=["truncated", "no_n_clamped", "grid_step_0"])
def test_corrupt_manifest_exit_2(dataset_dir, tmp_path, corrupt, message, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text(corrupt((dataset_dir / "manifest.json").read_text()))
    rc = main(["embed", "--dataset", str(bad), "--out", str(tmp_path / "b.spec"),
               "--source", "baseline"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {bad / 'manifest.json'}: {message}" in err
    assert "Traceback" not in err


def _edit_representation(text, drop=(), **values):
    sidecar = json.loads(text)
    sidecar["representation"].update(values)
    for key in drop:
        del sidecar["representation"][key]
    return json.dumps(sidecar)


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], "malformed checkpoint sidecar"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "input_shape"}),
     "missing key 'input_shape'"),
    (lambda text: _edit_representation(text, hop_len=2.5),
     "malformed checkpoint sidecar: hop_len must be an int >= 1 or None, got 2.5"),
    (lambda text: _edit_representation(text, kind="cqt"),
     "malformed checkpoint sidecar: kind must be one of 'spectrogram', 'mel', 'waveform'"),
    (lambda text: _edit_representation(text, frame_len=None),
     "malformed checkpoint sidecar: frame_len must be an int >= 2, got None"),
    (lambda text: _edit_representation(text, drop=["frame_len"]),
     "malformed checkpoint sidecar: frame_len must be an int >= 2, got None"),
    (lambda text: _edit_representation(text, n_mels=None),
     "malformed checkpoint sidecar: n_mels must be an int >= 1, got None"),
    (lambda text: json.dumps([json.loads(text)]),
     "malformed checkpoint sidecar: not a JSON object"),
], ids=["truncated", "no_input_shape", "hop_len_2.5", "kind_cqt", "frame_len_null", "no_frame_len",
        "n_mels_null", "list"])
def test_corrupt_checkpoint_sidecar_exit_2(run_dir, dataset_dir, tmp_path, corrupt, message,
                                           capsys):
    ckpt = tmp_path / "checkpoint.drcw"
    ckpt.write_bytes((run_dir / "checkpoint.drcw").read_bytes())
    sidecar = tmp_path / "checkpoint.json"
    sidecar.write_text(corrupt((run_dir / "checkpoint.json").read_text()))
    rc = main(["embed", "--dataset", str(dataset_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "features.spec")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {sidecar}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "features.spec").exists()


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[: len(text) // 2], "malformed loop sidecar"),
    (lambda text: json.dumps([json.loads(text)]), "malformed loop sidecar: not a JSON object"),
    (lambda text: json.dumps({**json.loads(text), "recipe": {"kind": "drum_like"}}),
     "malformed loop sidecar: "),
], ids=["truncated", "list", "recipe_without_keys"])
def test_corrupt_loop_sidecar_exit_2(dataset_dir, tmp_path, corrupt, message, capsys):
    loops = tmp_path / "loops"
    loops.mkdir()
    for name in ("loop000.wav", "loop000.json", "loop001.wav"):
        (loops / name).write_bytes((dataset_dir / "loops" / name).read_bytes())
    sidecar = loops / "loop001.json"
    sidecar.write_text(corrupt((dataset_dir / "loops" / "loop001.json").read_text()))
    out = tmp_path / "ds"
    rc = main(["generate", "--out", str(out), "--family", "DS3", "--loops", "2",
               "--settings", "2", "--loops-dir", str(loops)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {sidecar}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_corrupt_features_metadata_exit_2(run_dir, dataset_dir, tmp_path, capsys):
    features = tmp_path / "features.spec"
    features.write_bytes((run_dir / "features.spec").read_bytes())
    meta = tmp_path / "features.json"
    text = (run_dir / "features.json").read_text()
    meta.write_text(text[: len(text) // 2])
    rc = main(["evaluate", "--features", str(features), "--dataset", str(dataset_dir),
               "--out", str(tmp_path / "report"), "--splits", "1", "--trees", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {meta}: malformed feature metadata" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_non_finite_op_output_exit_3(dataset_dir, tmp_path, capsys):
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    rep = default_representation("model1_spec_tuned")
    clips, _, _ = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    model = SiameseModel(ModelSpec(variant="model1_spec_tuned", num_para=1, seed=5),
                         clips.shape[1:])
    first_conv = next(p for name, p in model.parameters().items() if name.endswith(".w"))
    first_conv.data[...] = np.finfo(np.float32).max  # finite weights, overflowing output
    ckpt = tmp_path / "checkpoint.drcw"
    save_model(ckpt, model, {"attack_ms": (1.0, 99.0)}, rep, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["embed", "--dataset", str(dataset_dir), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "features.spec")])
    assert rc == 3
    assert "non-finite values produced by conv2d" in capsys.readouterr().err


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


def test_reproduce_table_cells_record_their_family(tmp_path):
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({"dataset": {"duration_s": 1.0}, "eval": {"min_groups": 2}}))
    out = tmp_path / "sweep"
    rc = main([
        "reproduce-table", "--axis", "representation", "--out", str(out), "--config", str(cfg),
        "--families", "DS3", "--loops", "2", "--settings", "2",
        "--epochs", "1", "--splits", "1", "--trees", "2",
    ])
    assert rc == 0
    cells = sorted((out / "representation").glob("*/DS3/config.resolved.json"))
    assert [c.parent.parent.name for c in cells] == ["mel", "spectrogram"]
    for cell in cells:
        resolved = json.loads(cell.read_text())
        assert resolved["dataset"]["family"] == "DS3"
    top = json.loads((out / "representation" / "config.resolved.json").read_text())
    assert top["dataset"]["family"] == "DS1"


def test_strict_mode_warns_once_when_it_ignores_jobs(tmp_path, dataset_dir, capsys):
    again = tmp_path / "again"
    rc = main([
        "generate", "--out", str(again), "--family", "DS3",
        "--loops", "5", "--settings", "3", "--duration", "1.0", "--jobs", "3",
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "ignoring jobs=3" in err
    assert (again / "manifest.json").read_bytes() == (dataset_dir / "manifest.json").read_bytes()
    assert (again / "loops" / "loop001.wav").read_bytes() == \
        (dataset_dir / "loops" / "loop001.wav").read_bytes()

    rc = main(["embed", "--dataset", str(again), "--out", str(tmp_path / "b.spec"),
               "--source", "baseline"])
    assert rc == 0
    assert "warning:" not in capsys.readouterr().err


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


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_train_and_embed_leave_dataset_unchanged(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    assert main(["generate", "--out", str(ds), "--family", "DS3", "--loops", "3",
                 "--settings", "2", "--duration", "1.0"]) == 0
    before = _tree(ds)
    cfg = experiment.load_config(None, {"train": {"max_epochs": 1, "patience": 1}})
    monkeypatch.delenv(experiment.CACHE_ENV_VAR, raising=False)
    ckpt = experiment.cmd_train(cfg, ds, tmp_path / "run")
    experiment.cmd_embed(cfg, ds, ckpt, tmp_path / "run" / "a.spec")
    cache_root = tmp_path / "cache"
    monkeypatch.setenv(experiment.CACHE_ENV_VAR, str(cache_root))  # read by no package code
    experiment.cmd_embed(cfg, ds, ckpt, tmp_path / "run" / "b.spec")
    assert _tree(ds) == before
    assert not cache_root.exists()


def test_regenerated_dataset_loads_new_arrays(tmp_path):
    def generate(out, seed):
        assert main(["generate", "--out", str(out), "--family", "DS3", "--loops", "2",
                     "--settings", "2", "--duration", "1.0", "--seed", str(seed)]) == 0
        return DatasetManifest.load(out / "manifest.json")

    rep = {"kind": "spectrogram", "frame_len": 128, "hop_len": None}
    reused = tmp_path / "reused"
    seed0, _, _ = experiment.load_pair_arrays(reused, generate(reused, 0), rep)
    seed1, _, _ = experiment.load_pair_arrays(reused, generate(reused, 1), rep)
    fresh = tmp_path / "fresh"
    oracle, _, _ = experiment.load_pair_arrays(fresh, generate(fresh, 1), rep)
    assert seed0.tobytes() != oracle.tobytes()
    assert seed1.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("kind", ["spectrogram", "waveform"])
def test_load_pair_arrays_stacks_each_wav_once(dataset_dir, kind):
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    rep = {"kind": kind, "frame_len": 128, "hop_len": None}
    clips, a_idx, b_idx = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    assert len(clips) == 5 + 15
    assert (a_idx[0], b_idx[0]) == (0, 1)  # order of first appearance
    assert len(set(a_idx.tolist())) == 5 and len(set(b_idx.tolist())) == 15
    if kind == "waveform":
        for i, entry in enumerate(manifest.entries):
            samples = read_wav(dataset_dir / entry.processed).samples.astype(np.float32)
            assert clips[b_idx[i]].tobytes() == samples.tobytes()


def test_train_from_unique_clips_matches_per_entry_stacks(dataset_dir, tmp_path):
    manifest = DatasetManifest.load(dataset_dir / "manifest.json")
    cfg = experiment.load_config(None, {"train": {"max_epochs": 2, "validation_fraction": 0.2}})
    rep = experiment.resolve_representation(cfg, cfg["model"]["variant"])
    clips, a_idx, b_idx = experiment.load_pair_arrays(dataset_dir, manifest, rep)
    y, ranges = experiment.normalized_labels(manifest)
    n = len(manifest.entries)
    stacked = np.concatenate([clips[a_idx], clips[b_idx]])  # one copy per entry and side
    written = []
    for index in [(clips, a_idx, b_idx), (stacked, np.arange(n), np.arange(n, 2 * n))]:
        model = SiameseModel(experiment.model_spec_from(cfg, num_para=1), clips.shape[1:])
        history = train(model, *index, y, experiment.train_config_from(cfg))
        ckpt = tmp_path / f"run{len(written)}" / "checkpoint.drcw"
        ckpt.parent.mkdir()
        save_model(ckpt, model, ranges, rep, 0)
        written.append((ckpt.read_bytes(), [(h.train_mse, h.val_mse) for h in history]))
    assert len(clips) < len(stacked)
    assert written[0] == written[1]
