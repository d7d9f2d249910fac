"""Release gate: the end-to-end guarantees this package ships with.

Each test pins one promised behavior at integration scale; the per-module
suites carry the fine-grained cases. The training-based tests dominate the
runtime and assert their own wall-clock bounds, so a pass also certifies
the desk-scale time budget.
"""

import csv
import json
import time

import numpy as np
import pytest

from drcbench.audio import AudioClip, synthesize_loop, LoopRecipe
from drcbench.autodiff import (
    Adadelta,
    BatchNormState,
    Tensor,
    add,
    batchnorm,
    center_crop,
    concat,
    conv1d,
    conv2d,
    crop,
    dense,
    dropout,
    flatten,
    global_avg_pool,
    maxpool1d,
    maxpool2d,
    mean_axis,
    mse_loss,
    relu,
    sub,
)
from drcbench.compressor import DrcParams, compress, static_gain_db
from drcbench.dataset import DatasetManifest, build_grid, generate_loops, materialize
from drcbench.evaluate import EvalConfig, evaluate, mean_predictor_mae
from drcbench.forest import Forest, ForestConfig
from drcbench.models import ModelSpec, SiameseModel, train
from drcbench.experiment import (
    cmd_embed,
    cmd_evaluate,
    cmd_generate,
    cmd_train,
    load_config,
    load_pair_arrays,
    model_spec_from,
    normalized_labels,
    reproduce_table,
    resolve_representation,
    train_config_from,
)


# ---------------------------------------------------------------------------
# 1. compressor correctness


def test_compressor_correctness_suite():
    sr = 16000
    rng = np.random.default_rng(11)
    noise = np.clip(rng.normal(0.0, 0.2, 2 * sr), -1.0, 1.0)
    clip = AudioClip(noise, sr)

    # a 2 s clip compresses in well under a second
    t0 = time.perf_counter()
    out = compress(clip, DrcParams())
    assert time.perf_counter() - t0 < 1.0

    # gain never exceeds unity, on the static curve or through the smoother
    levels = np.linspace(-90.0, 0.0, 400)
    for params in (DrcParams(), DrcParams(thd_db=60.0, ratio=20.0),
                   DrcParams(thd_db=0.0, ratio=1.0)):
        assert np.all(static_gain_db(levels, params) <= 0.0)
    assert np.all(np.abs(out.samples) <= np.abs(noise) * (1 + 1e-12))

    # ratio 1:1 collapses the gain law to identity
    unity = compress(clip, DrcParams(thd_db=20.0, ratio=1.0))
    assert np.max(np.abs(unity.samples - noise)) < 1e-6

    # a threshold above the peak never engages
    quiet = AudioClip(0.25 * noise, sr)  # peak well under -6 dBFS
    idle = compress(quiet, DrcParams(thd_db=3.0, ratio=8.0))
    assert np.array_equal(idle.samples, quiet.samples)

    # steady state 10 dB over threshold lands on the static curve
    amp = 10.0 ** (-10.0 / 20.0)  # -10 dBFS, threshold at -20 dBFS
    steady = AudioClip(np.full(2 * sr, amp), sr)
    for ratio in (2.0, 4.0):
        y = compress(steady, DrcParams(thd_db=20.0, ratio=ratio))
        got_db = 20.0 * np.log10(np.abs(y.samples[-1000:])).mean()
        want_db = -20.0 + 10.0 / ratio  # threshold + overshoot / ratio
        assert abs(got_db - want_db) < 0.1


# ---------------------------------------------------------------------------
# 2. gradient integrity


def _fd_grad(f, arrays, index, h=1e-5):
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    for i in range(flat.size):
        hi = [a.copy() for a in base]
        lo = [a.copy() for a in base]
        hi[index].reshape(-1)[i] += h
        lo[index].reshape(-1)[i] -= h
        flat[i] = (f(*hi) - f(*lo)) / (2 * h)
    return grad


def _check_op(build, arrays):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()

    def scalar(*arrs):
        return float(build(*[Tensor(a.copy()) for a in arrs]).data)

    for idx, t in enumerate(tensors):
        expected = _fd_grad(scalar, arrays, idx)
        np.testing.assert_allclose(t.grad, expected, rtol=1e-4, atol=1e-7)


def _sq(t):
    f = flatten(t)
    return mse_loss(f, np.zeros(f.data.shape))


def test_gradient_integrity_all_layers_and_full_model():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)

    def away_from_zero(*shape):
        # keeps relu/maxpool inputs off their kinks for finite differences
        return rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape)

    a, b = rng.normal(0, 1, (2, 5)), rng.normal(0, 1, (2, 5))
    cases = [
        (lambda t, u: _sq(add(t, u)), [a, b]),
        (lambda t, u: _sq(sub(t, u)), [a, b]),
        (lambda t: _sq(relu(t)), [away_from_zero(2, 7)]),
        (lambda t: _sq(dropout(t, 0.4, np.random.default_rng(7), True)),
         [rng.normal(0, 1, (2, 6))]),
        (lambda t: _sq(flatten(t)), [rng.normal(0, 1, (2, 3, 4))]),
        (lambda t: _sq(crop(t, 1, 2, 6)), [rng.normal(0, 1, (2, 8))]),
        (lambda t: _sq(center_crop(t, 1, 5)), [rng.normal(0, 1, (2, 9))]),
        (lambda t, u: _sq(concat([t, u], axis=1)),
         [rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 4))]),
        (lambda t: _sq(mean_axis(t, 1)), [rng.normal(0, 1, (2, 5, 3))]),
        (lambda t: _sq(global_avg_pool(t)), [rng.normal(0, 1, (2, 5, 4))]),
        (lambda t, u, v: _sq(dense(t, u, v)),
         [rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 2)), rng.normal(0, 1, 2)]),
        (lambda t, u, v: _sq(conv2d(t, u, v)),
         [rng.normal(0, 1, (2, 6, 7, 2)), rng.normal(0, 0.5, (3, 3, 2, 3)),
          rng.normal(0, 0.5, 3)]),
        (lambda t, u, v: _sq(conv1d(t, u, v)),
         [rng.normal(0, 1, (2, 10, 2)), rng.normal(0, 0.5, (3, 2, 3)),
          rng.normal(0, 0.5, 3)]),
        (lambda t: _sq(maxpool2d(t, (2, 2))), [away_from_zero(2, 6, 6, 2)]),
        (lambda t: _sq(maxpool1d(t, 3)), [away_from_zero(2, 9, 2)]),
        (lambda t, u, v: _sq(batchnorm(t, u, v, BatchNormState(2, np.float64), True)),
         [rng.normal(0, 1, (4, 6, 2)), rng.uniform(0.5, 1.5, 2), rng.normal(0, 1, 2)]),
        (lambda t: mse_loss(t, np.full((3, 4), 0.3)), [rng.normal(0, 1, (3, 4))]),
    ]
    for build, arrays in cases:
        _check_op(build, arrays)

    # whole siamese stack, 64-bit, batch of two pairs: every parameter
    # gradient agrees with central differences through the shared branch
    spec = ModelSpec(variant="model1_spec_tuned", num_para=4, width=0.2, seed=3)
    model = SiameseModel(spec, (94, 94), dtype=np.float64)
    x_a = rng.normal(0.0, 1.0, (2, 94, 94))
    x_b = rng.normal(0.0, 1.0, (2, 94, 94))
    y = rng.uniform(0.0, 1.0, (2, 4))

    def model_loss():
        pred = model.forward_pair(x_a, x_b, training=False)
        return float(mse_loss(pred, y).data)

    loss = mse_loss(model.forward_pair(x_a, x_b, training=False), y)
    loss.backward()
    h = 1e-5
    for name, p in model.parameters().items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = model_loss()
            flat[i] = orig - h
            lo = model_loss()
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(
            p.grad.reshape(-1), fd, rtol=1e-4, atol=1e-7,
            err_msg=f"gradient mismatch in {name}")

    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. siamese sharing invariants


def test_siamese_branch_sharing_invariants():
    spec = ModelSpec(variant="model1_spec_tuned", num_para=1, width=0.25,
                     kernels=((3, 3), (3, 3)), seed=5)
    model = SiameseModel(spec, (20, 24))
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, (3, 20, 24)).astype(np.float32)
    x_other = rng.normal(0.0, 1.0, (3, 20, 24)).astype(np.float32)
    y = rng.uniform(0.0, 1.0, (3, 1)).astype(np.float32)

    # both applications read the same parameter tensors (no second copy)
    params = model.parameters()
    assert set(params) == set(model.branch.params) | {"head.w", "head.b"}
    assert all(params[k] is model.branch.params[k] for k in model.branch.params)

    assert np.array_equal(model.embed_pair(x, x), np.zeros((3, spec.embedding_dim)))
    assert np.array_equal(model.embed_pair(x, x_other), -model.embed_pair(x_other, x))

    optimizer = Adadelta(model.parameters())
    checksums = []
    for _ in range(6):
        loss = mse_loss(model.forward_pair(x, x_other, training=True), y)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        # sharing survives the update: identical inputs still cancel exactly
        assert np.array_equal(model.embed_pair(x, x),
                              np.zeros((3, spec.embedding_dim)))
        assert np.array_equal(model.embed_pair(x, x_other),
                              -model.embed_pair(x_other, x))
        cs = model.branch_checksum()
        assert np.isfinite(cs)
        assert cs == model.branch_checksum()  # embedding passes mutate nothing
        checksums.append(cs)
    assert len(set(checksums)) > 1  # the optimizer actually moved the branch


# ---------------------------------------------------------------------------
# 4. adadelta first step


def test_adadelta_first_step_closed_form():
    rho, eps = 0.95, 1e-6
    w = Tensor(np.zeros(1), requires_grad=True)
    opt = Adadelta({"w": w}, rho=rho, eps=eps)
    w.grad = np.ones(1)
    opt.step()
    # E[g^2] = (1 - rho), accumulated update still zero
    expected = -np.sqrt(eps) / np.sqrt((1 - rho) + eps)
    assert abs(w.data[0] - expected) < 1e-6
    assert abs(w.data[0] - (-4.4721e-3)) < 1e-6


# ---------------------------------------------------------------------------
# 5. overfit smoke test


@pytest.mark.slow
def test_overfit_sixteen_pairs(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(overrides={
        "dataset": {"n_loops": 2, "settings_per_file": 8},
        "train": {"validation_fraction": 0.0, "max_epochs": 500, "patience": 500},
    })
    ds_dir = tmp_path / "ds"
    manifest = cmd_generate(cfg, ds_dir)
    assert len(manifest.entries) == 16

    rep = resolve_representation(cfg, cfg["model"]["variant"])
    clips, a_idx, b_idx = load_pair_arrays(ds_dir, manifest, rep)
    y, _ = normalized_labels(manifest)
    model = SiameseModel(model_spec_from(cfg, num_para=1), clips.shape[1:])
    history = train(model, clips, a_idx, b_idx, y, train_config_from(cfg))

    assert len(history) <= 500
    best = min(stats.train_mse for stats in history)
    assert best < 0.01, f"training MSE only reached {best:.5f}"
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 6. learning signal at desk scale


@pytest.mark.slow
def test_threshold_learning_signal_beats_mean_predictor(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config()  # stock desk configuration: DS1, 8 loops x 10 thresholds
    ds_dir, run_dir = tmp_path / "ds", tmp_path / "run"

    manifest = cmd_generate(cfg, ds_dir)
    assert manifest.family == "DS1" and manifest.grid.varying == ("thd_db",)
    assert len(manifest.entries) == 80

    ckpt = cmd_train(cfg, ds_dir, run_dir)
    features = run_dir / "features.spec"
    cmd_embed(cfg, ds_dir, ckpt, features)
    report = cmd_evaluate(cfg, features, ds_dir, run_dir / "report")

    floor = mean_predictor_mae(manifest.label_matrix()[:, 0])
    assert floor > 10.0  # the grid spreads thresholds widely enough to matter
    assert report.mae["thd_db"] < 0.7 * floor, (
        f"embedding MAE {report.mae['thd_db']:.2f} dB vs mean-predictor "
        f"{floor:.2f} dB")
    assert time.perf_counter() - t0 < 1800.0


# ---------------------------------------------------------------------------
# 7. forest guarantees


def test_forest_guarantees():
    rng = np.random.default_rng(9)

    # predictions can never leave the training-target envelope
    X = rng.normal(0.0, 1.0, (60, 6))
    Y = rng.normal(0.0, 10.0, (60, 2))
    forest = Forest(ForestConfig(n_trees=30, seed=4), ("a", "b")).fit(X, Y)
    probe = rng.normal(0.0, 50.0, (40, 6))
    pred = forest.predict(probe)
    assert np.all(pred >= Y.min(axis=0)) and np.all(pred <= Y.max(axis=0))

    # one unbootstrapped deep tree is a lookup table on distinct rows
    Xm = rng.normal(0.0, 1.0, (25, 4))
    Ym = rng.normal(0.0, 5.0, (25, 2))
    memorizer = Forest(
        ForestConfig(n_trees=1, bootstrap=False, features_per_split=4,
                     min_samples_leaf=1),
        ("a", "b"),
    ).fit(Xm, Ym)
    np.testing.assert_array_equal(memorizer.predict(Xm), Ym)

    # the whole report is a pure function of (data, config)
    Xe = rng.normal(0.0, 1.0, (36, 5))
    Ye = rng.normal(0.0, 8.0, (36, 1))
    loops = [f"loop{i // 6:03d}" for i in range(36)]
    config = EvalConfig(n_splits=7, min_groups=5, seed=2,
                        forest=ForestConfig(n_trees=10, seed=3))
    first = evaluate(Xe, Ye, loops, ("thd_db",), "DS1", "embeddings", config)
    second = evaluate(Xe, Ye, loops, ("thd_db",), "DS1", "embeddings", config)
    assert first.to_json().encode() == second.to_json().encode()


# ---------------------------------------------------------------------------
# 8. grid protocol


def test_grid_protocol_offsets_and_counts(tmp_path):
    grid = build_grid("DM1", n_loops=4, seed=0)
    thd = grid.axis("thd_db")
    assert thd.file_values(0) == [10.0, 14.8, 19.6, 24.4, 29.2, 34.0, 38.8, 43.6]
    assert thd.file_values(1) == [10.6, 15.4, 20.2, 25.0, 29.8, 34.6, 39.4, 44.2]
    # the same per-file grids as seen through full setting combinations
    assert sorted({p["thd_db"] for p, _ in grid.loop_settings(0)}) == thd.file_values(0)
    assert sorted({p["thd_db"] for p, _ in grid.loop_settings(1)}) == thd.file_values(1)

    # four-parameter grids: 5^4 combinations per loop, none lost to clamping
    loops = generate_loops(2, seed=0, sample_rate=8000, duration_s=0.5,
                           tempo_bpm=240.0)
    manifest = materialize(build_grid("D4P", n_loops=2, seed=0), loops,
                           tmp_path / "d4p")
    assert len(manifest.entries) == 2 * 625
    assert manifest.n_deduplicated == 0


# ---------------------------------------------------------------------------
# 9. trend tables


def _check_table(path, title_prefix, col_labels, row_labels):
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith(title_prefix)
    assert lines[1].split() == list(col_labels)
    body = lines[2:2 + len(row_labels)]
    for label, line in zip(row_labels, body):
        assert line.startswith(label)
        assert len(line.split()) == len(label.split()) + len(col_labels)
    notes = [l for l in lines if l.startswith("note: ")]
    assert len(notes) == len(row_labels) + 1
    assert all(("holds" in n) or ("does not hold" in n) for n in notes)
    assert "reference direction" in notes[-1]

    with open(path.with_name("table.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row"] + list(col_labels)
    assert [r[0] for r in rows[1:]] == list(row_labels)
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row[1:])


def test_trend_tables_layout_and_annotations(tmp_path):
    cfg = load_config(overrides={
        "dataset": {"n_loops": 2, "settings_per_file": 4},
        "train": {"max_epochs": 2, "patience": 2},
        "eval": {"n_splits": 3, "min_groups": 2, "forest": {"n_trees": 10}},
        "sweep": {"families": ["DS3", "DS4"]},
    })
    rows = ["DS3 attack_ms", "DS4 release_ms"]

    rep_table = reproduce_table(cfg, "representation", tmp_path / "sweeps")
    _check_table(rep_table, "input representation sweep",
                 ["mel", "spectrogram"], rows)

    frame_table = reproduce_table(cfg, "frame-size", tmp_path / "sweeps")
    _check_table(frame_table, "analysis frame size sweep",
                 ["512", "256", "128"], rows)
