"""The config tree as one table: every leaf's default and its rule.

``TABLE`` maps each dotted leaf path to ``(default, rule)``, and ``DEFAULTS``
is built from it. ``load_config`` merges a JSON file and explicit overrides
over the defaults, then checks every leaf once: a bad value raises
``ConfigError("<section>.<field>", "<field> must be ..., got ...")``. Ints
reject floats and bools; numbers reject bools and are stored as floats;
names must be on their rule's list. ``ModelSpec``, ``TrainConfig``,
``EvalConfig`` and ``ForestConfig`` check their fields through the same
rules with ``check_leaves``, which raises ``DomainError(field=...)``.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .dataset import FAMILIES
from .errors import ConfigError, DomainError

#: the siamese variants ``models`` builds
VARIANTS = ("model1_mel", "model1_spec_tuned", "model2_waveform", "model3_multikernel")

#: the input representations ``experiment`` computes from a clip
KINDS = ("spectrogram", "mel", "waveform")


@dataclass(frozen=True)
class Rule:
    """What one leaf accepts; ``text`` says it in the error message."""

    text: str
    accepts: Callable[[object], bool]
    nullable: bool = False
    as_float: bool = False

    def check(self, name: str, value):
        """``value`` (a float under a number rule), or ``DomainError`` naming ``name``."""
        if value is None and self.nullable:
            return None
        if not self.accepts(value):
            text = self.text + (" or None" if self.nullable else "")
            raise DomainError(f"{name} must be {text}, got {value!r}", field=name)
        return float(value) if self.as_float else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def integer(lo: int, nullable: bool = False) -> Rule:
    return Rule(f"an int >= {lo}", lambda v: _is_int(v) and v >= lo, nullable)


def number(lo: float, hi: float, ends: str = "()") -> Rule:
    """An int or float between ``lo`` and ``hi``; ``ends`` marks each end open or closed."""
    above = operator.le if ends[0] == "[" else operator.lt
    below = operator.le if ends[1] == "]" else operator.lt
    text = f"a number > {lo}" if hi == math.inf else f"a number in {ends[0]}{lo}, {hi}{ends[1]}"
    return Rule(text, lambda v: (_is_int(v) or isinstance(v, float)) and above(lo, v)
                and below(v, hi), as_float=True)


def one_of(names: tuple[str, ...], nullable: bool = False) -> Rule:
    return Rule("one of " + ", ".join(map(repr, names)),
                lambda v: isinstance(v, str) and v in names, nullable)


def _is_kernel(pair) -> bool:
    return isinstance(pair, (list, tuple)) and len(pair) == 2 \
        and all(_is_int(n) and n >= 1 for n in pair)


BOOL = Rule("true or false", lambda v: isinstance(v, bool))
PATH = Rule("a non-empty string", lambda v: isinstance(v, str) and v != "", nullable=True)
KERNELS = Rule("a list of [height, width] pairs of ints >= 1",
               lambda v: isinstance(v, (list, tuple)) and all(map(_is_kernel, v)), nullable=True)
FAMILY_LIST = Rule("a list of names from " + ", ".join(FAMILIES),
                   lambda v: isinstance(v, list) and all(isinstance(f, str) and f in FAMILIES
                                                         for f in v))

TABLE: dict[str, tuple[object, Rule]] = {
    "seed": (0, integer(0)),
    "jobs": (1, integer(1)),
    "strict_deterministic": (True, BOOL),
    "dataset.family": ("DS1", one_of(tuple(FAMILIES))),
    "dataset.n_loops": (8, integer(2)),
    "dataset.settings_per_file": (10, integer(2, nullable=True)),  # thins DS grids only
    "dataset.sample_rate": (16000, integer(1)),
    "dataset.duration_s": (2.0, number(0, math.inf)),
    "dataset.tempo_bpm": (120.0, number(0, math.inf)),
    "dataset.loops_dir": (None, PATH),  # use pre-existing WAVs instead of synthesis
    # Non-null entries override the model variant's default representation.
    "representation.kind": (None, one_of(KINDS, nullable=True)),
    "representation.frame_len": (None, integer(2, nullable=True)),
    "representation.hop_len": (None, integer(1, nullable=True)),
    "representation.n_mels": (None, integer(1, nullable=True)),
    "model.variant": ("model1_spec_tuned", one_of(VARIANTS)),
    "model.width": (0.5, number(0, 4, "(]")),
    "model.embedding_dim": (50, integer(1)),
    "model.dropout_rate": (0.1, number(0, 1, "[)")),
    "model.kernels": (None, KERNELS),  # model 1 only
    "model.seed": (0, integer(0)),
    "train.batch_size": (8, integer(1)),
    "train.validation_fraction": (0.15, number(0, 1, "[)")),
    "train.max_epochs": (150, integer(1)),
    "train.patience": (10, integer(0)),
    "train.seed": (0, integer(0)),
    "eval.n_splits": (50, integer(1)),
    "eval.test_fraction": (0.2, number(0, 1)),
    "eval.min_groups": (5, integer(1)),
    "eval.seed": (0, integer(0)),
    "eval.forest.n_trees": (100, integer(1)),
    "eval.forest.max_depth": (None, integer(1, nullable=True)),
    "eval.forest.min_samples_leaf": (2, integer(1)),
    "eval.forest.features_per_split": (None, integer(1, nullable=True)),  # None: ceil(p / 3)
    "eval.forest.bootstrap": (True, BOOL),
    "eval.forest.seed": (0, integer(0)),
    "sweep.families": (["DS3", "DS4", "DM2"], FAMILY_LIST),
}


def nest(leaves: Mapping[str, object]) -> dict:
    """The tree that holds each ``dotted.path: value`` of ``leaves``."""
    tree: dict = {}
    for path, value in leaves.items():
        *sections, name = path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return tree


DEFAULTS: dict = nest({path: default for path, (default, _) in TABLE.items()})
_SECTIONS = {path.rsplit(".", n)[0] for path in TABLE for n in range(1, path.count(".") + 1)}


def check_leaves(section: str, values: Mapping[str, object], **extra: Rule) -> None:
    """Check each leaf of ``section`` that ``values`` holds, and each ``extra`` rule.

    The first bad value raises ``DomainError`` naming its field.
    """
    prefix = section + "."
    rules = {path[len(prefix):]: rule for path, (_, rule) in TABLE.items()
             if path.startswith(prefix) and "." not in path[len(prefix):]}
    for name, rule in {**rules, **extra}.items():
        if name in values:
            rule.check(name, values[name])


def _leaves(tree: dict, prefix: str = ""):
    """Each ``(dotted path, value)`` that ``tree`` sets; a key that is no leaf raises."""
    for key, value in tree.items():
        path = prefix + key
        if path in TABLE:
            yield path, value
        elif path not in _SECTIONS:
            raise ConfigError(path, "unknown configuration key")
        elif isinstance(value, dict):
            yield from _leaves(value, path + ".")
        else:
            raise ConfigError(path, f"{key} must be an object, got {value!r}")


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults <- JSON file <- explicit overrides, then every leaf checked once."""
    leaves = {leaf: default for leaf, (default, _) in TABLE.items()}
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}")
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ConfigError("config", f"invalid JSON: {err}")
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        leaves.update(_leaves(loaded))
    leaves.update(_leaves(overrides or {}))
    checked = {}
    for leaf, value in leaves.items():
        try:
            checked[leaf] = TABLE[leaf][1].check(leaf.rsplit(".", 1)[-1], value)
        except DomainError as err:
            raise ConfigError(leaf, str(err)) from None
    return nest(checked)
