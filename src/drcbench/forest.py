"""Bagged CART regression forest, one ensemble per target parameter.

Trees grow greedily on variance reduction: at each node a random subset of
features is examined (features that admit no valid split do not count
toward the subset size), candidate thresholds sit midway between distinct
consecutive sorted values, and the split minimizing the summed left/right
squared error wins. Leaves predict their training mean, so predictions can
never leave the training target range.

Split search is presorted (Louppe, "Understanding Random Forests", 2014,
ch. 5): each tree argsorts its columns once, and every node carries its rows
in each column's sorted order, which a split hands down to the children by
filtering, so no node sorts again. A node scores every split of every column
in one 2-D cumulative-sum pass; the features are then taken in the RNG's
permutation order until ``features_per_split`` productive ones were seen.
A fitted tree is five flat arrays with one entry per node (``feature``,
``threshold``, ``left``, ``right``, ``value``), and prediction walks all
rows through them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_leaves
from .errors import DataError


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 2
    features_per_split: int | None = None  # default: ceil(p / 3)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        check_leaves("eval.forest", vars(self))


class RegressionTree:
    """Single CART tree over float features and a scalar target.

    After ``fit``, node ``i`` is ``feature[i]``/``threshold[i]`` with children
    ``left[i]``/``right[i]`` (rows with ``x[feature] <= threshold`` go left);
    a leaf has ``left[i] == right[i] == -1``. ``value[i]`` is the mean target
    of the node's training rows.
    """

    def __init__(self, config: ForestConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.feature = self.left = self.right = np.empty(0, dtype=np.intp)
        self.threshold = self.value = np.empty(0)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        n, p = X.shape
        mtry = self.config.features_per_split or math.ceil(p / 3)
        mtry = min(mtry, p)
        min_leaf = self.config.min_samples_leaf
        max_depth = self.config.max_depth
        XT = np.ascontiguousarray(X.T)
        col_start = np.arange(p)[:, None] * n  # row r of column f sits at XT.flat[f * n + r]
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        # a node is (id, rows in increasing order, rows sorted by each column, depth)
        stack = [(0, np.arange(n), np.argsort(XT, axis=1, kind="stable"), 0)]
        while stack:
            node, idx, order, depth = stack.pop()
            ys = y[idx]
            m = idx.size
            value[node] = float(ys.sum() / m)  # ys.mean(), without its call overhead
            if (
                (max_depth is not None and depth >= max_depth)
                or m < 2 * min_leaf
                or ys.max() == ys.min()
            ):
                continue
            # every column at once: a split after the first `c` sorted rows,
            # c = min_leaf .. m - min_leaf, is valid where the value changes
            xs = XT.ravel()[order + col_start]
            yo = y[order]
            boundary = xs[:, min_leaf:m - min_leaf + 1] > xs[:, min_leaf - 1:m - min_leaf]
            csum = yo.cumsum(axis=1)
            csq = (yo * yo).cumsum(axis=1)
            nl = np.arange(min_leaf, m - min_leaf + 1, dtype=np.float64)
            sl, ql = csum[:, min_leaf - 1:m - min_leaf], csq[:, min_leaf - 1:m - min_leaf]
            nr = m - nl
            sr, qr = csum[:, -1:] - sl, csq[:, -1:] - ql
            sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
            sse[~boundary] = np.inf
            best_pos = np.argmin(sse, axis=1)
            productive_cols = boundary.any(axis=1)

            best_sse, best_feature, best_j = np.inf, -1, 0
            productive = 0
            for f in self.rng.permutation(p):
                if not productive_cols[f]:
                    continue  # constant column here; does not count toward mtry
                productive += 1
                j = best_pos[f]
                if sse[f, j] < best_sse:
                    best_sse, best_feature, best_j = sse[f, j], int(f), j
                if productive >= mtry:
                    break
            if best_feature < 0:
                continue
            below, above = xs[best_feature, min_leaf + best_j - 1:min_leaf + best_j + 1]
            cut = float((below + above) / 2.0)
            if not cut < above:  # the midpoint of neighbouring floats rounded up (or overflowed)
                cut = float(below)
            go_left = XT[best_feature, idx] <= cut
            go_left_sorted = (XT[best_feature, order] <= cut).ravel()  # the same rows, in `order`
            n_left = int(go_left.sum())
            kid = len(feature)
            feature[node], threshold[node], left[node], right[node] = best_feature, cut, kid, kid + 1
            for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1),
                                  (value, 0.0)):
                column += [blank, blank]
            stack.append((kid, idx[go_left],
                          np.compress(go_left_sorted, order).reshape(p, n_left), depth + 1))
            stack.append((kid + 1, idx[~go_left],
                          np.compress(~go_left_sorted, order).reshape(p, m - n_left), depth + 1))
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            inner = self.left[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node]


class Forest:
    """Bagged trees for each target column; per-tree seeds spawn from one master."""

    def __init__(self, config: ForestConfig, target_names: tuple[str, ...]):
        self.config = config
        self.target_names = target_names
        self.ensembles: list[list[RegressionTree]] = []

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "Forest":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise DataError(f"feature/label shapes disagree: {X.shape} vs {Y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DataError("features/labels contain non-finite values")
        if Y.shape[1] != len(self.target_names):
            raise DataError(f"expected {len(self.target_names)} targets, got {Y.shape[1]}")
        n = X.shape[0]
        seeds = np.random.SeedSequence(self.config.seed).spawn(
            len(self.target_names) * self.config.n_trees)
        self.ensembles = []
        k = 0
        for t in range(Y.shape[1]):
            trees = []
            for _ in range(self.config.n_trees):
                rng = np.random.default_rng(seeds[k])
                k += 1
                idx = rng.integers(0, n, n) if self.config.bootstrap else np.arange(n)
                tree = RegressionTree(self.config, rng).fit(X[idx], Y[idx, t])
                trees.append(tree)
            self.ensembles.append(trees)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        cols = [
            np.mean([tree.predict(X) for tree in trees], axis=0) for trees in self.ensembles
        ]
        return np.stack(cols, axis=1)


def fit_forest(X: np.ndarray, Y: np.ndarray, target_names: tuple[str, ...],
               config: ForestConfig | None = None) -> Forest:
    return Forest(config or ForestConfig(), target_names).fit(X, Y)
