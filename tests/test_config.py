"""The config table: defaults that cannot drift, rules, and the CLI options that set leaves."""

import argparse
from dataclasses import MISSING, asdict, fields

import pytest

from drcbench import experiment
from drcbench.cli import build_parser, main
from drcbench.config import DEFAULTS, TABLE, load_config
from drcbench.errors import ConfigError, DomainError
from drcbench.evaluate import EvalConfig
from drcbench.models import ModelSpec, TrainConfig

#: options that name an input, an output or a step rather than a config leaf
NON_CONFIG = {"help", "config", "out", "dataset", "features", "checkpoint", "source", "axis"}


def test_dataclass_defaults_match_the_table():
    assert asdict(TrainConfig()) == DEFAULTS["train"]
    assert asdict(EvalConfig()) == DEFAULTS["eval"]  # forest included
    spec_defaults = {f.name: f.default for f in fields(ModelSpec) if f.default is not MISSING}
    assert spec_defaults == {k: v for k, v in DEFAULTS["model"].items() if k != "variant"}


def test_every_default_passes_its_own_rule():
    for path, (default, rule) in TABLE.items():
        assert rule.check(path.rsplit(".", 1)[-1], default) == default
    assert load_config() == DEFAULTS


def test_an_int_for_a_number_is_stored_as_a_float():
    cfg = load_config(None, {"dataset": {"tempo_bpm": 150}, "model": {"width": 1}})
    assert type(cfg["dataset"]["tempo_bpm"]) is float and cfg["dataset"]["tempo_bpm"] == 150.0
    assert type(cfg["model"]["width"]) is float


@pytest.mark.parametrize("overrides, path, message", [
    ({"dataset": {"family": "DS9"}}, "dataset.family", "family must be one of 'DS1', "),
    ({"dataset": {"loops_dir": ""}}, "dataset.loops_dir",
     "loops_dir must be a non-empty string or None, got ''"),
    ({"model": {"variant": "model7"}}, "model.variant", "variant must be one of 'model1_mel', "),
    ({"model": {"kernels": [[3, 3, 3]]}}, "model.kernels", "pairs of ints >= 1 or None"),
    ({"model": {"dropout_rate": 1.0}}, "model.dropout_rate",
     "dropout_rate must be a number in [0, 1), got 1.0"),
    ({"eval": {"test_fraction": 0}}, "eval.test_fraction",
     "test_fraction must be a number in (0, 1), got 0"),
    ({"dataset": {"tempo_bpm": float("nan")}}, "dataset.tempo_bpm", "a number > 0, got nan"),
    ({"sweep": {"families": ["DS3", "DX"]}}, "sweep.families", "a list of names from DS1, "),
    ({"train": 5}, "train", "train must be an object, got 5"),
])
def test_load_config_names_the_bad_leaf(overrides, path, message):
    with pytest.raises(ConfigError) as err:
        load_config(None, overrides)
    assert err.value.field == path
    assert message in str(err.value)


def test_dataclasses_check_through_the_same_rules():
    with pytest.raises(DomainError, match="variant must be one of") as err:
        ModelSpec(variant="model7", num_para=1)
    assert err.value.field == "variant"
    with pytest.raises(DomainError, match="num_para must be an int >= 1, got 0"):
        ModelSpec(variant="model1_mel", num_para=0)
    with pytest.raises(DomainError, match="kernels"):
        ModelSpec(variant="model1_mel", num_para=1, kernels=((3, 3.5),))


def test_every_cli_option_is_a_config_leaf_or_listed():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in commands.choices.items():
        for action in subparser._actions:
            assert action.dest in TABLE or action.dest in NON_CONFIG, \
                (name, action.option_strings, action.dest)


def test_cli_flags_land_on_their_leaves(tmp_path, monkeypatch):
    seen = []
    table = tmp_path / "table.txt"
    table.write_text("")

    def record(cfg, axis, out):
        seen.append(cfg)
        return table

    monkeypatch.setattr(experiment, "reproduce_table", record)
    assert main(["reproduce-table", "--axis", "representation", "--out", str(tmp_path),
                 "--families", "DS3", "DM1", "--loops", "3", "--settings", "4", "--epochs", "5",
                 "--splits", "6", "--trees", "7", "--seed", "8", "--jobs", "2",
                 "--no-strict"]) == 0
    cfg = seen[0]
    assert cfg["sweep"]["families"] == ["DS3", "DM1"]
    assert (cfg["dataset"]["n_loops"], cfg["dataset"]["settings_per_file"]) == (3, 4)
    assert (cfg["train"]["max_epochs"], cfg["eval"]["n_splits"]) == (5, 6)
    assert (cfg["eval"]["forest"]["n_trees"], cfg["seed"], cfg["jobs"]) == (7, 8, 2)
    assert cfg["strict_deterministic"] is False
