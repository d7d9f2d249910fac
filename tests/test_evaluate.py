import json

import numpy as np
import pytest

from drcbench.audio import AudioClip
from drcbench.errors import DomainError, ProtocolError
from drcbench.evaluate import (
    EvalConfig,
    baseline_feature_names,
    baseline_features,
    baseline_matrix,
    clip_stats,
    evaluate,
    grouped_split,
    mean_predictor_mae,
)
from drcbench.forest import ForestConfig


def _clip(samples, sr=16000):
    return AudioClip(np.asarray(samples, dtype=np.float64), sr)


# -- per-clip statistics -------------------------------------------------------


def test_crest_of_constant_signal_is_zero_db():
    stats = clip_stats(_clip(np.full(4000, 0.5)))
    rms_db, crest_db = stats[0], stats[1]
    assert rms_db == pytest.approx(20 * np.log10(0.5), abs=1e-6)
    assert crest_db == pytest.approx(0.0, abs=1e-6)


def test_crest_of_unit_impulse():
    n = 4096
    x = np.zeros(n)
    x[100] = 1.0
    stats = clip_stats(_clip(x))
    assert stats[1] == pytest.approx(20 * np.log10(np.sqrt(n)), abs=1e-6)


def test_silent_clip_stats_are_finite():
    stats = clip_stats(_clip(np.zeros(4000)))
    assert np.all(np.isfinite(stats))


def test_stats_react_to_level():
    loud = clip_stats(_clip(np.full(4000, 0.5)))
    quiet = clip_stats(_clip(np.full(4000, 0.05)))
    assert loud[0] - quiet[0] == pytest.approx(20.0, abs=1e-6)


def test_feature_vector_layout():
    names = baseline_feature_names()
    assert len(names) == 18
    assert len(set(names)) == 18
    a = _clip(np.random.default_rng(0).uniform(-0.5, 0.5, 8000))
    b = _clip(np.random.default_rng(1).uniform(-0.5, 0.5, 8000))
    feats = baseline_features(a, b)
    assert feats.shape == (18,)
    np.testing.assert_allclose(feats[12:], feats[6:12] - feats[:6], atol=1e-12)


def test_baseline_matrix_rows_match_pair_features():
    rng = np.random.default_rng(3)
    clips = [_clip(rng.uniform(-0.5, 0.5, 8000) * g) for g in (1.0, 0.5, 0.25)]
    a_idx, b_idx = [0, 0, 1, 2], [1, 2, 2, 0]
    rows = baseline_matrix(np.stack([clip_stats(clip) for clip in clips]), a_idx, b_idx)
    pairs = np.stack([baseline_features(clips[a], clips[b]) for a, b in zip(a_idx, b_idx)])
    assert rows.tobytes() == pairs.tobytes()


def test_identical_clips_have_zero_deltas():
    clip = _clip(np.random.default_rng(2).uniform(-0.5, 0.5, 8000))
    feats = baseline_features(clip, clip)
    np.testing.assert_allclose(feats[12:], 0.0, atol=1e-12)


# -- mean predictor reference --------------------------------------------------


def test_mean_predictor_mae_thinned_grid():
    labels = np.array([0.0, 5.0, 11.0, 16.0, 22.0, 27.0, 33.0, 38.0, 44.0, 49.0])
    assert mean_predictor_mae(labels) == pytest.approx(13.7)


def test_mean_predictor_mae_matrix():
    y = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
    out = mean_predictor_mae(y)
    np.testing.assert_allclose(out, [4.0 / 3.0, 0.0])


# -- grouped splits --------------------------------------------------------------


def _groups(n_loops, per_loop):
    return [f"loop{i:03d}" for i in range(n_loops) for _ in range(per_loop)]


def test_grouped_split_is_disjoint_and_loop_pure():
    groups = _groups(10, 7)
    rng = np.random.default_rng(0)
    train, test = grouped_split(groups, 0.2, rng, min_groups=5)
    assert not np.any(train & test)
    assert np.all(train | test)
    arr = np.array(groups)
    assert set(arr[train]) & set(arr[test]) == set()
    # round(0.2 * 10) = 2 held-out loops -> 14 test rows
    assert test.sum() == 14


def test_grouped_split_minimum_one_test_group():
    groups = _groups(5, 3)
    train, test = grouped_split(groups, 0.1, np.random.default_rng(1), min_groups=5)
    held_out = set(np.array(groups)[test])
    assert len(held_out) == 1


def test_grouped_split_too_few_groups():
    with pytest.raises(ProtocolError):
        grouped_split(_groups(4, 10), 0.2, np.random.default_rng(0), min_groups=5)


def test_grouped_split_varies_with_rng():
    groups = _groups(8, 4)
    picks = set()
    for s in range(20):
        _, test = grouped_split(groups, 0.2, np.random.default_rng(s), min_groups=5)
        picks.add(frozenset(np.array(groups)[test]))
    assert len(picks) > 3


# -- end-to-end evaluation protocol ----------------------------------------------


def _protocol_data(n_loops=6, per_loop=12, seed=0):
    rng = np.random.default_rng(seed)
    n = n_loops * per_loop
    y = np.tile(np.linspace(1.0, 99.0, per_loop), n_loops)[:, None]
    groups = _groups(n_loops, per_loop)
    return y, groups, rng, n


def _eval_cfg(n_splits=8, **forest_kw):
    return EvalConfig(n_splits=n_splits, test_fraction=0.2, min_groups=5, seed=0,
                      forest=ForestConfig(n_trees=15, seed=0, **forest_kw))


def test_informative_features_beat_mean_predictor():
    y, groups, rng, n = _protocol_data()
    X = np.hstack([y / 99.0, rng.normal(0, 0.05, (n, 4))])
    # examine every feature per split and grow pure leaves so the label
    # column is followed all the way down
    report = evaluate(X, y, groups, ("attack_ms",), "DS3", "test",
                      _eval_cfg(features_per_split=5, min_samples_leaf=1))
    assert report.mae["attack_ms"] < 0.01 * 99.0
    assert report.mae_pct_of_range["attack_ms"] < 1.0


def test_uninformative_features_match_mean_predictor():
    y, groups, rng, n = _protocol_data()
    X = rng.normal(0, 1.0, (n, 6))
    report = evaluate(X, y, groups, ("attack_ms",), "DS3", "test", _eval_cfg())
    floor = mean_predictor_mae(y[:, 0])
    assert abs(report.mae["attack_ms"] - floor) < 0.15 * floor


def test_report_contents_and_save(tmp_path):
    y, groups, rng, n = _protocol_data()
    X = np.hstack([y / 99.0, rng.normal(0, 0.05, (n, 2))])
    report = evaluate(X, y, groups, ("attack_ms",), "DS3", "embeddings", _eval_cfg(4))
    assert report.n_splits == 4
    assert report.n_entries == n
    assert report.n_loops == 6
    text = report.render_text()
    assert "attack_ms" in text and "% of range" in text and "ms" in text

    base = tmp_path / "report"
    report.save(base)
    doc = json.loads((base.with_suffix(".json")).read_text())
    assert doc["family"] == "DS3"
    assert doc["feature_source"] == "embeddings"
    assert doc["protocol"]["grouped_by_loop"] is True
    assert doc["protocol"]["n_splits"] == 4
    assert "attack_ms" in doc["mae"]
    assert (base.with_suffix(".txt")).exists()


def test_evaluate_is_seed_deterministic():
    y, groups, rng, n = _protocol_data()
    X = rng.normal(0, 1.0, (n, 5))
    a = evaluate(X, y, groups, ("attack_ms",), "DS3", "t", _eval_cfg(3))
    b = evaluate(X, y, groups, ("attack_ms",), "DS3", "t", _eval_cfg(3))
    assert a.mae == b.mae


@pytest.mark.parametrize("n_splits", [0, -1])
def test_eval_config_rejects_no_splits(n_splits):
    with pytest.raises(DomainError, match="n_splits"):
        EvalConfig(n_splits=n_splits)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
def test_eval_config_rejects_test_fraction_outside_open_unit_interval(fraction):
    with pytest.raises(DomainError, match="test_fraction"):
        EvalConfig(test_fraction=fraction)


def test_evaluate_rejects_too_few_loops():
    y = np.linspace(0, 1, 12)[:, None]
    groups = _groups(3, 4)
    X = np.random.default_rng(0).normal(0, 1, (12, 3))
    with pytest.raises(ProtocolError):
        evaluate(X, y, groups, ("ratio",), "DS2", "t", _eval_cfg(2))
