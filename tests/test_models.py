import numpy as np
import pytest

from drcbench.errors import DomainError, ShapeError
from drcbench.models import (
    ModelSpec,
    SiameseModel,
    TrainConfig,
    default_representation,
    load_model,
    save_model,
    train,
)


def _pair_data(n, shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x_a = rng.uniform(0.0, scale, (n, *shape))
    x_b = rng.uniform(0.0, scale, (n, *shape))
    return x_a.astype(np.float32), x_b.astype(np.float32)


def _indexed(x_a, x_b):
    """``(clips, a_idx, b_idx)`` holding each side's rows once, as ``train`` takes them."""
    n = len(x_a)
    return np.concatenate([x_a, x_b]), np.arange(n), np.arange(n, 2 * n)


def _small_model(num_para=1, variant="model1_mel", shape=(96, 96), width=0.2, **kw):
    spec = ModelSpec(variant=variant, num_para=num_para, width=width, seed=3, **kw)
    return SiameseModel(spec, shape, dtype=np.float32)


def test_default_representations():
    assert default_representation("model1_mel") == {
        "kind": "mel", "frame_len": 256, "hop_len": None, "n_mels": 128}
    assert default_representation("model1_spec_tuned")["kind"] == "spectrogram"
    assert default_representation("model2_waveform")["kind"] == "waveform"
    assert default_representation("model3_multikernel")["frame_len"] == 256


def test_spec_validation():
    with pytest.raises(DomainError):
        ModelSpec(variant="model7", num_para=1)
    with pytest.raises(DomainError):
        ModelSpec(variant="model1_mel", num_para=0)
    with pytest.raises(DomainError):
        ModelSpec(variant="model1_mel", num_para=1, width=0.0)
    with pytest.raises(DomainError):
        ModelSpec(variant="model1_mel", num_para=1, width=5.0)


@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
def test_spec_rejects_dropout_rate_outside_unit_interval(rate):
    with pytest.raises(DomainError, match="dropout_rate"):
        ModelSpec(variant="model1_mel", num_para=1, dropout_rate=rate)


def test_spec_rejects_empty_embedding():
    with pytest.raises(DomainError, match="embedding_dim"):
        ModelSpec(variant="model1_mel", num_para=1, embedding_dim=0)


def test_tuned_kernels_default():
    spec = ModelSpec(variant="model1_spec_tuned", num_para=1)
    assert spec.block_kernels() == ((3, 3), (3, 3), (3, 3), (1, 3), (1, 3))
    spec = ModelSpec(variant="model1_mel", num_para=1)
    assert spec.block_kernels() == ((3, 3),) * 5


def test_parameter_count_small_conv_stack():
    # width 0.2 -> filters (2, 3, 3, 4, 4); embedding 50
    model = _small_model(num_para=2, shape=(96, 96))
    params = model.parameters()
    # conv blocks: kh*kw*cin*f + f
    expected = 0
    cin = 1
    for f in (2, 3, 3, 4, 4):
        expected += 3 * 3 * cin * f + f
        cin = f
    # (96,96) -> five conv+pool blocks -> (1, 1) spatial, 4 channels
    expected += 1 * 1 * 4 * 50 + 50  # dense embedding
    expected += 50 * 2 + 2  # head
    assert model.n_parameters == expected


def test_embedding_of_identical_inputs_is_zero():
    model = _small_model()
    x, _ = _pair_data(3, (96, 96), seed=1)
    emb = model.embed_pair(x, x)
    assert emb.shape == (3, 50)
    np.testing.assert_allclose(emb, 0.0, atol=1e-12)


def test_embedding_antisymmetry():
    model = _small_model()
    x_a, x_b = _pair_data(2, (96, 96), seed=2)
    fwd = model.embed_pair(x_a, x_b)
    rev = model.embed_pair(x_b, x_a)
    np.testing.assert_allclose(fwd, -rev, atol=1e-6)
    assert np.abs(fwd).max() > 0  # non-degenerate


def test_embed_pair_is_difference_of_branch_embeddings():
    model = _small_model()
    x_a, x_b = _pair_data(3, (96, 96), seed=6)
    merged = model.embed_pair(x_a, x_b)
    assert merged.tobytes() == (model.embed(x_b) - model.embed(x_a)).tobytes()


def test_branch_weight_sharing():
    model = _small_model()
    # both forward paths read the same parameter tensors
    assert model.parameters() is not model.branch.params
    x_a, x_b = _pair_data(2, (96, 96), seed=3)
    before = model.branch_checksum()
    model.embed_pair(x_a, x_b)
    assert model.branch_checksum() == before


def test_model1_rejects_too_small_input():
    with pytest.raises(ShapeError, match="block"):
        _small_model(shape=(16, 16))


def test_model2_front_shape_at_full_width():
    spec = ModelSpec(variant="model2_waveform", num_para=1, width=1.0, seed=0)
    model = SiameseModel(spec, (32000,), dtype=np.float32)
    assert model.branch.front_out == (42, 256)
    x_a, x_b = _pair_data(1, (32000,), seed=4, scale=0.5)
    assert model.embed_pair(x_a, x_b).shape == (1, 50)


def test_model3_builds_and_runs():
    spec = ModelSpec(variant="model3_multikernel", num_para=2, width=0.5, seed=1)
    model = SiameseModel(spec, (129, 249), dtype=np.float32)
    x_a, x_b = _pair_data(2, (129, 249), seed=5)
    pred = model.predict(x_a, x_b)
    assert pred.shape == (2, 2)
    assert np.isfinite(pred).all()


def test_predict_is_deterministic_inference():
    model = _small_model()
    x_a, x_b = _pair_data(2, (96, 96), seed=6)
    a = model.predict(x_a, x_b)
    b = model.predict(x_a, x_b)
    np.testing.assert_array_equal(a, b)


def test_input_shape_validation():
    model = _small_model()
    bad = np.zeros((2, 50, 50), dtype=np.float32)
    with pytest.raises(ShapeError):
        model.predict(bad, bad)


def test_seed_controls_initialization():
    spec_a = ModelSpec(variant="model1_mel", num_para=1, width=0.2, seed=1)
    spec_b = ModelSpec(variant="model1_mel", num_para=1, width=0.2, seed=2)
    m1 = SiameseModel(spec_a, (96, 96))
    m2 = SiameseModel(spec_a, (96, 96))
    m3 = SiameseModel(spec_b, (96, 96))
    assert m1.branch_checksum() == m2.branch_checksum()
    assert m1.branch_checksum() != m3.branch_checksum()


# -- training ------------------------------------------------------------------


def _train_small(seed=0, max_epochs=3, **cfg_kw):
    model = _small_model(num_para=1, shape=(96, 96))
    x_a, x_b = _pair_data(12, (96, 96), seed=7)
    y = np.linspace(0.0, 1.0, 12)[:, None]
    cfg = TrainConfig(batch_size=4, validation_fraction=0.25, max_epochs=max_epochs,
                      patience=10, seed=seed, **cfg_kw)
    history = train(model, *_indexed(x_a, x_b), y, cfg)
    return model, history


def test_training_runs_and_logs():
    model, history = _train_small()
    assert len(history) == 3
    assert history[0].epoch == 1
    for row in history:
        assert np.isfinite(row.train_mse) and np.isfinite(row.val_mse)


def test_training_is_deterministic():
    m1, h1 = _train_small(seed=5)
    m2, h2 = _train_small(seed=5)
    assert [(r.train_mse, r.val_mse) for r in h1] == [(r.train_mse, r.val_mse) for r in h2]
    assert m1.branch_checksum() == m2.branch_checksum()
    m3, h3 = _train_small(seed=6)
    assert [r.train_mse for r in h1] != [r.train_mse for r in h3]


def test_zero_validation_fraction_uses_train_set():
    model = _small_model(num_para=1, shape=(96, 96))
    x_a, x_b = _pair_data(8, (96, 96), seed=8)
    y = np.linspace(0, 1, 8)[:, None]
    cfg = TrainConfig(batch_size=4, validation_fraction=0.0, max_epochs=2, patience=5, seed=0)
    history = train(model, *_indexed(x_a, x_b), y, cfg)
    assert len(history) == 2


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(DomainError):
        TrainConfig(max_epochs=0)


def test_train_input_validation():
    model = _small_model(num_para=1, shape=(96, 96))
    x_a, x_b = _pair_data(4, (96, 96), seed=9)
    with pytest.raises(DomainError):
        train(model, *_indexed(x_a, x_b), np.zeros((3, 1)), TrainConfig(max_epochs=1))
    with pytest.raises(ShapeError):
        train(model, *_indexed(x_a, x_b), np.zeros((4, 2)), TrainConfig(max_epochs=1))


def test_early_stopping_restores_best_state(tmp_path):
    model, history = _train_small(max_epochs=6)
    best_epoch = min(history, key=lambda r: r.val_mse).epoch
    assert best_epoch <= len(history)


# -- persistence ---------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    model, _ = _train_small(seed=11)
    ranges = {"attack_ms": (1.0, 99.0)}
    rep = {"kind": "mel", "frame_len": 256, "hop_len": None, "n_mels": 96}
    path = tmp_path / "ckpt.drcw"
    save_model(path, model, ranges, rep, train_seed=11)
    loaded, sidecar = load_model(path)
    assert sidecar["representation"]["n_mels"] == 96
    assert sidecar["label_ranges"] == {"attack_ms": [1.0, 99.0]}
    assert sidecar["train_seed"] == 11
    x_a, x_b = _pair_data(3, (96, 96), seed=12)
    np.testing.assert_allclose(model.predict(x_a, x_b), loaded.predict(x_a, x_b),
                               rtol=1e-6, atol=1e-7)


def test_load_rejects_mismatched_arrays(tmp_path):
    model, _ = _train_small(seed=13)
    path = tmp_path / "ckpt.drcw"
    save_model(path, model, {"attack_ms": (1.0, 99.0)},
               {"kind": "mel", "frame_len": 256, "hop_len": None, "n_mels": 96}, 13)
    other = _small_model(num_para=2, shape=(96, 96))
    with pytest.raises((DomainError, ShapeError)):
        other.load_state_arrays(
            {k: v for k, v in model.state_arrays().items()}
        )


def test_load_rejects_missing_batchnorm_buffer():
    model = _small_model(variant="model2_waveform", shape=(16000,))
    arrays = model.state_arrays()
    del arrays["back.bn1.running_mean"]
    with pytest.raises(DomainError, match="missing buffer 'back.bn1.running_mean'"):
        model.load_state_arrays(arrays)
