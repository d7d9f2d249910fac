import numpy as np
import pytest

from drcbench.dataset import (
    DatasetManifest,
    FAMILIES,
    build_grid,
    generate_loops,
    materialize,
)
from drcbench.errors import DomainError


def _tiny_loops(n=2, seed=0):
    return generate_loops(n, seed, sample_rate=8000, duration_s=0.5, tempo_bpm=120.0)


# -- per-file grid values ----------------------------------------------------


def test_dm1_offset_values():
    grid = build_grid("DM1", 8, seed=0)
    thd = grid.axis("thd_db")
    assert thd.file_values(0) == [10.0, 14.8, 19.6, 24.4, 29.2, 34.0, 38.8, 43.6]
    assert thd.file_values(1) == [10.6, 15.4, 20.2, 25.0, 29.8, 34.6, 39.4, 44.2]
    ratio = grid.axis("ratio")
    assert ratio.file_values(0) == [1.0, 3.4, 5.8, 8.2, 10.6, 13.0, 15.4, 17.8]
    assert ratio.file_values(1) == [1.3, 3.7, 6.1, 8.5, 10.9, 13.3, 15.7, 18.1]


def test_d4p_first_two_loops():
    grid = build_grid("D4P", 2, seed=0)
    assert grid.axis("thd_db").file_values(0) == [10.0, 18.0, 26.0, 34.0, 42.0]
    assert grid.axis("thd_db").file_values(1) == [11.0, 19.0, 27.0, 35.0, 43.0]
    assert grid.axis("ratio").file_values(0) == [1.28, 5.12, 8.96, 12.8, 16.64]
    assert grid.axis("ratio").file_values(1) == [1.76, 5.6, 9.44, 13.28, 17.12]
    assert grid.axis("attack_ms").file_values(0) == [1.0, 21.0, 41.0, 61.0, 81.0]
    assert grid.axis("attack_ms").file_values(1) == [3.5, 23.5, 43.5, 63.5, 83.5]
    assert grid.axis("release_ms").file_values(0) == [10.0, 210.0, 410.0, 610.0, 810.0]
    assert grid.axis("release_ms").file_values(1) == [35.0, 235.0, 435.0, 635.0, 835.0]


def test_offsets_wrap_and_cycle():
    thd = build_grid("DM1", 20, seed=0).axis("thd_db")
    # offsets cycle with period n_union / settings_per_file
    assert thd.file_values(8) == thd.file_values(0)
    assert thd.file_values(9) == thd.file_values(1)
    # every value stays inside the union grid
    union = set(thd.union_values())
    for i in range(20):
        assert set(thd.file_values(i)) <= union


def test_union_coverage_over_one_cycle():
    grid = build_grid("DM1", 8, seed=0)
    for axis in grid.axes:
        seen = set()
        for i in range(8):
            seen.update(axis.file_values(i))
        assert seen == set(axis.union_values())
        spacing = np.diff(sorted(seen))
        assert np.allclose(spacing, axis.step, atol=1e-9)


def test_ds_thinning_keeps_endpoints():
    thd = build_grid("DS1", 2, seed=0, settings_per_file=10).axis("thd_db")
    values = thd.file_values(0, settings=10)
    assert values == [0.0, 5.0, 11.0, 16.0, 22.0, 27.0, 33.0, 38.0, 44.0, 49.0]
    assert values[0] == 0.0 and values[-1] == 49.0
    # all loops share one grid on offset-free axes
    assert thd.file_values(1, settings=10) == values


def test_ds_full_scale_counts():
    for family in ("DS1", "DS2", "DS3", "DS4"):
        assert FAMILIES[family][0].n_union == 50


def test_loop_settings_hold_other_params_at_defaults():
    grid = build_grid("DS3", 2, seed=0, settings_per_file=5)
    combos = grid.loop_settings(0)
    assert len(combos) == 5
    for params, clamped in combos:
        assert not clamped
        assert params["thd_db"] == 37.5
        assert params["ratio"] == 2.0
        assert params["release_ms"] == 200.0


def test_ds2_ratio_clamping():
    grid = build_grid("DS2", 2, seed=0)
    combos = grid.loop_settings(0)
    ratios = [p["ratio"] for p, _ in combos]
    assert min(ratios) == 1.0
    # raw grid starts at 0.0 with step 0.4: three settings clamp to 1.0
    assert sum(c for _, c in combos) == 3
    lo, hi = grid.label_ranges()["ratio"]
    assert (lo, hi) == (1.0, 19.6)


def test_build_grid_validation():
    with pytest.raises(DomainError):
        build_grid("DS9", 2, seed=0)
    with pytest.raises(DomainError):
        build_grid("DS1", 1, seed=0)
    with pytest.raises(DomainError):
        # offset families fix their per-file counts
        build_grid("DM1", 2, seed=0, settings_per_file=10).loop_settings(0)


# -- loop synthesis ----------------------------------------------------------


def test_generate_loops_deterministic_and_alternating():
    a = _tiny_loops(4, seed=5)
    b = _tiny_loops(4, seed=5)
    kinds = [recipe.kind for recipe, _ in a]
    assert kinds == ["drum_like", "pluck_like", "drum_like", "pluck_like"]
    for (_, ca), (_, cb) in zip(a, b):
        assert np.array_equal(ca.samples, cb.samples)
    c = _tiny_loops(4, seed=6)
    assert not np.array_equal(a[0][1].samples, c[0][1].samples)


# -- materialization ---------------------------------------------------------


def test_materialize_layout_and_counts(tmp_path):
    grid = build_grid("DS3", 2, seed=0, settings_per_file=4)
    manifest = materialize(grid, _tiny_loops(2), tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "loops" / "loop000.wav").exists()
    assert (tmp_path / "loops" / "loop000.json").exists()
    assert len(manifest.entries) == 8
    for entry in manifest.entries:
        assert (tmp_path / entry.unprocessed).exists()
        assert (tmp_path / entry.processed).exists()
        assert entry.processed.startswith("DS3/")
    # only the attack axis varies
    labels = manifest.label_matrix()
    assert manifest.grid.varying == ("attack_ms",)
    assert labels.shape == (8, 1)


def test_materialize_d4p_combination_count(tmp_path):
    grid = build_grid("D4P", 2, seed=0)
    manifest = materialize(grid, _tiny_loops(2), tmp_path)
    assert len(manifest.entries) == 2 * 5**4
    assert manifest.label_matrix().shape == (1250, 4)
    # no duplicated (loop, labels) combinations anywhere
    keys = {(e.loop_id, tuple(sorted(e.labels.to_dict().items()))) for e in manifest.entries}
    assert len(keys) == len(manifest.entries)


def test_materialize_ds2_dedup_counters(tmp_path):
    grid = build_grid("DS2", 2, seed=0)
    manifest = materialize(grid, _tiny_loops(2), tmp_path)
    # 3 raw settings clamp to ratio=1.0 per loop; duplicates collapse
    assert manifest.n_clamped == 6
    assert manifest.n_deduplicated == 4
    assert len(manifest.entries) == 2 * 48


def test_manifest_json_round_trip(tmp_path):
    grid = build_grid("DM1", 2, seed=3)
    manifest = materialize(grid, _tiny_loops(2, seed=3), tmp_path)
    reloaded = DatasetManifest.load(tmp_path / "manifest.json")
    assert reloaded.family == manifest.family
    assert reloaded.grid == manifest.grid
    assert reloaded.entries == manifest.entries
    assert reloaded.sample_rate == manifest.sample_rate
    assert np.array_equal(reloaded.label_matrix(), manifest.label_matrix())
    reloaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "manifest.json").read_bytes()


def test_materialize_is_bit_exact_reproducible(tmp_path):
    grid = build_grid("DS1", 2, seed=7, settings_per_file=3)
    loops = _tiny_loops(2, seed=7)
    materialize(grid, loops, tmp_path / "a")
    materialize(grid, loops, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_materialize_parallel_matches_serial(tmp_path):
    grid = build_grid("DS4", 2, seed=1, settings_per_file=3)
    loops = _tiny_loops(2, seed=1)
    serial = materialize(grid, loops, tmp_path / "s", jobs=1)
    parallel = materialize(grid, loops, tmp_path / "p", jobs=2)
    assert serial.entries == parallel.entries
    for entry in serial.entries:
        a = (tmp_path / "s" / entry.processed).read_bytes()
        b = (tmp_path / "p" / entry.processed).read_bytes()
        assert a == b
