import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcbench import forest as forest_module
from drcbench.errors import DataError, DomainError
from drcbench.forest import Forest, ForestConfig, RegressionTree, fit_forest


def _xy(n=200, p=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, p))
    return X, rng


def test_config_validation():
    with pytest.raises(DomainError):
        ForestConfig(n_trees=0)
    with pytest.raises(DomainError):
        ForestConfig(min_samples_leaf=0)
    with pytest.raises(DomainError):
        ForestConfig(max_depth=0)


@pytest.mark.parametrize("field, value", [
    ("features_per_split", 0),
    ("features_per_split", -3),
    ("features_per_split", 2.5),
    ("n_trees", 2.5),
    ("n_trees", True),
    ("min_samples_leaf", 1.5),
    ("max_depth", 2.0),
    ("bootstrap", "no"),
    ("bootstrap", 1),
    ("seed", -1),
    ("seed", 1.5),
])
def test_config_rejects_non_int_or_non_positive(field, value):
    with pytest.raises(DomainError, match=field) as err:
        ForestConfig(**{field: value})
    assert err.value.field == field


def test_constant_target_predicts_constant():
    X, _ = _xy(50)
    y = np.full((50, 1), 3.25)
    forest = fit_forest(X, y, ("c",), ForestConfig(n_trees=5))
    np.testing.assert_allclose(forest.predict(X), 3.25)


def test_single_tree_memorizes_without_bagging():
    X, rng = _xy(64, p=4, seed=1)
    y = rng.uniform(0.0, 10.0, 64)
    cfg = ForestConfig(n_trees=1, min_samples_leaf=1, bootstrap=False,
                       features_per_split=4)
    forest = fit_forest(X, y, ("t",), cfg)
    np.testing.assert_allclose(forest.predict(X)[:, 0], y, atol=1e-12)


def test_learns_identity_function():
    X, _ = _xy(400, p=5, seed=2)
    y = X[:, 1]
    X_test, _ = _xy(100, p=5, seed=3)
    forest = fit_forest(X, y, ("t",), ForestConfig(n_trees=50))
    mae = np.mean(np.abs(forest.predict(X_test)[:, 0] - X_test[:, 1]))
    assert mae < 0.05  # 5 % of the unit range


def test_predictions_bounded_by_training_range():
    X, rng = _xy(100, seed=4)
    y = rng.uniform(-5.0, 5.0, 100)
    forest = fit_forest(X, y, ("t",), ForestConfig(n_trees=20))
    X_far = rng.uniform(-10.0, 10.0, (200, 6))  # well outside training support
    pred = forest.predict(X_far)[:, 0]
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_same_seed_same_predictions():
    X, rng = _xy(80, seed=5)
    y = rng.uniform(0.0, 1.0, 80)
    a = fit_forest(X, y, ("t",), ForestConfig(n_trees=10, seed=9)).predict(X)
    b = fit_forest(X, y, ("t",), ForestConfig(n_trees=10, seed=9)).predict(X)
    np.testing.assert_array_equal(a, b)
    c = fit_forest(X, y, ("t",), ForestConfig(n_trees=10, seed=10)).predict(X)
    assert not np.array_equal(a, c)


def test_joint_targets_match_single_target_fits():
    # per-target ensembles draw seeds in target-major order, so the first
    # target's trees are identical whether or not a second target rides along
    X, rng = _xy(60, seed=6)
    Y = np.stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)], axis=1)
    joint = fit_forest(X, Y, ("a", "b"), ForestConfig(n_trees=8, seed=4))
    single = fit_forest(X, Y[:, 0], ("a",), ForestConfig(n_trees=8, seed=4))
    np.testing.assert_array_equal(joint.predict(X)[:, 0], single.predict(X)[:, 0])


def test_input_validation():
    X, rng = _xy(20, seed=7)
    y = rng.uniform(0, 1, 20)
    with pytest.raises(DataError):
        fit_forest(X, y[:10], ("t",))
    with pytest.raises(DataError):
        fit_forest(X, np.stack([y, y], axis=1), ("t",))
    X_bad = X.copy()
    X_bad[0, 0] = np.nan
    with pytest.raises(DataError):
        fit_forest(X_bad, y, ("t",))


def _leaf_rows(tree, X):
    """Training rows reaching each leaf of a flat-array tree, by node id."""
    leaves, stack = {}, [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.left[node] < 0:
            leaves[node] = idx
            continue
        mask = X[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], idx[mask]))
        stack.append((tree.right[node], idx[~mask]))
    return leaves


def _depth(tree, node=0):
    if tree.left[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def test_min_samples_leaf_respected():
    X, rng = _xy(40, p=2, seed=8)
    y = rng.uniform(0, 1, 40)
    cfg = ForestConfig(n_trees=1, min_samples_leaf=10, bootstrap=False,
                       features_per_split=2)
    tree = fit_forest(X, y, ("t",), cfg).ensembles[0][0]
    assert min(idx.size for idx in _leaf_rows(tree, X).values()) >= 10


def test_max_depth_limits_tree():
    X, rng = _xy(200, p=3, seed=9)
    y = rng.uniform(0, 1, 200)
    cfg = ForestConfig(n_trees=1, max_depth=2, bootstrap=False, features_per_split=3,
                       min_samples_leaf=1)
    tree = fit_forest(X, y, ("t",), cfg).ensembles[0][0]
    assert _depth(tree) <= 2


def test_duplicate_feature_rows_share_leaves():
    # identical feature rows cannot be separated by any threshold
    X = np.repeat(np.arange(5.0)[:, None], 4, axis=0)  # 20 rows, 5 distinct
    rng = np.random.default_rng(10)
    y = np.repeat(rng.uniform(0, 1, 5), 4) + rng.normal(0, 1e-3, 20)
    cfg = ForestConfig(n_trees=1, min_samples_leaf=1, bootstrap=False, features_per_split=1)
    forest = fit_forest(X, y, ("t",), cfg)
    pred = forest.predict(X)[:, 0]
    for g in range(5):
        group = pred[g * 4 : (g + 1) * 4]
        np.testing.assert_allclose(group, group[0])


def test_tree_split_prefers_informative_feature():
    rng = np.random.default_rng(11)
    X = np.stack([rng.uniform(0, 1, 100), (np.arange(100) >= 50).astype(float)], axis=1)
    y = X[:, 1] * 10.0
    tree = RegressionTree(ForestConfig(n_trees=1, features_per_split=2, bootstrap=False),
                          np.random.default_rng(0)).fit(X, y)
    assert tree.feature[0] == 1
    assert tree.threshold[0] == pytest.approx(0.5)


def test_threshold_between_neighbouring_floats_separates_them():
    # (a + b) / 2 of neighbouring floats rounds onto a or b; rounded onto b, a
    # `<=` threshold sent b left too, so the right child was empty and the left
    # child repeated its parent until max_depth (without max_depth, forever)
    a = 0.1
    b = np.nextafter(a, 1.0)
    if (a + b) / 2.0 != b:
        a, b = b, np.nextafter(b, 1.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = RegressionTree(ForestConfig(n_trees=1, max_depth=5, min_samples_leaf=1,
                                       bootstrap=False), np.random.default_rng(0)).fit(X, y)
    assert len(tree.feature) == 3
    assert tree.threshold[0] == a
    np.testing.assert_array_equal(tree.predict(X), y)


def test_flat_arrays_hold_one_entry_per_node():
    X, rng = _xy(60, p=3, seed=12)
    y = rng.uniform(0, 1, 60)
    tree = RegressionTree(ForestConfig(n_trees=1, bootstrap=False, min_samples_leaf=1),
                          np.random.default_rng(0)).fit(X, y)
    n_nodes = len(tree.feature)
    assert all(len(a) == n_nodes for a in (tree.threshold, tree.left, tree.right, tree.value))
    leaf = tree.left < 0
    assert np.array_equal(leaf, tree.right < 0)
    assert np.all(tree.feature[leaf] == -1)
    children = np.concatenate([tree.left[~leaf], tree.right[~leaf]])
    assert sorted(children) == list(range(1, n_nodes))  # every node but the root, once
    np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)  # leaves of one row each


# -- parity with the linked-node tree the flat arrays replaced -------------------


class _OracleNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = 0.0


def _oracle_best_split(x, y, min_leaf):
    """Best (sse, threshold) splitting one feature column, or None."""
    n = x.size
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    counts = np.arange(min_leaf, n - min_leaf + 1)
    if counts.size == 0:
        return None
    boundary = xs[counts] > xs[counts - 1]
    if not boundary.any():
        return None
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    nl = counts[boundary].astype(np.float64)
    sl, ql = csum[counts[boundary] - 1], csq[counts[boundary] - 1]
    nr = n - nl
    sr, qr = csum[-1] - sl, csq[-1] - ql
    sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
    j = int(np.argmin(sse))
    pos = counts[boundary][j]
    return float(sse[j]), float((xs[pos - 1] + xs[pos]) / 2.0)


class OracleTree:
    """The linked-node tree with one argsort per node and feature.

    It differs from ``RegressionTree`` only where a midpoint threshold rounds
    onto the upper of two neighbouring floats, which the strategy below never
    draws (see ``test_threshold_between_neighbouring_floats_separates_them``).
    """

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.root = None

    def fit(self, X, y):
        p = X.shape[1]
        mtry = min(self.config.features_per_split or math.ceil(p / 3), p)
        min_leaf = self.config.min_samples_leaf
        self.root = _OracleNode()
        stack = [(self.root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            ys = y[idx]
            node.value = float(ys.mean())
            if (
                (self.config.max_depth is not None and depth >= self.config.max_depth)
                or idx.size < 2 * min_leaf
                or np.ptp(ys) == 0.0
            ):
                continue
            best_sse, best_feature, best_threshold = np.inf, -1, 0.0
            productive = 0
            for f in self.rng.permutation(p):
                found = _oracle_best_split(X[idx, f], ys, min_leaf)
                if found is None:
                    continue
                productive += 1
                if found[0] < best_sse:
                    best_sse, best_feature, best_threshold = found[0], int(f), found[1]
                if productive >= mtry:
                    break
            if best_feature < 0:
                continue
            node.feature, node.threshold = best_feature, best_threshold
            go_left = X[idx, best_feature] <= best_threshold
            node.left, node.right = _OracleNode(), _OracleNode()
            stack.append((node.left, idx[go_left], depth + 1))
            stack.append((node.right, idx[~go_left], depth + 1))
        return self

    def predict(self, X):
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root
            while node.left is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def n_nodes(self):
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack += [node.left, node.right]
        return count


@st.composite
def _forest_case(draw):
    n = draw(st.integers(2, 80))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(p):
        kind = draw(st.sampled_from(["uniform", "discrete", "constant"]))
        if kind == "uniform":
            cols.append(rng.uniform(-1.0, 1.0, n))
        elif kind == "discrete":  # many ties
            cols.append(rng.integers(0, draw(st.integers(2, 5)), n).astype(np.float64))
        else:
            cols.append(np.full(n, 0.25))
    X = np.stack(cols, axis=1)
    y_kind = draw(st.sampled_from(["uniform", "discrete", "signal"]))
    if y_kind == "uniform":
        Y = rng.uniform(0.0, 10.0, (n, 2))
    elif y_kind == "discrete":
        Y = rng.integers(0, 3, (n, 2)).astype(np.float64)
    else:
        Y = np.stack([X.sum(axis=1), X[:, 0] * 3.0], axis=1)
    config = ForestConfig(
        n_trees=draw(st.integers(1, 3)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        min_samples_leaf=draw(st.integers(1, 6)),
        features_per_split=draw(st.one_of(st.none(), st.integers(1, p + 2))),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)),
    )
    X_test = np.concatenate([X, rng.uniform(-1.5, 1.5, (10, p))])
    return X, Y, X_test, config


@settings(max_examples=150, deadline=None)
@given(_forest_case())
def test_flat_forest_matches_linked_node_oracle(case):
    X, Y, X_test, config = case
    forest = fit_forest(X, Y, ("a", "b"), config)
    with mock.patch.object(forest_module, "RegressionTree", OracleTree):
        oracle = fit_forest(X, Y, ("a", "b"), config)
    assert forest.predict(X_test).tobytes() == oracle.predict(X_test).tobytes()
    for trees, oracle_trees in zip(forest.ensembles, oracle.ensembles):
        assert [len(t.feature) for t in trees] == [t.n_nodes() for t in oracle_trees]
