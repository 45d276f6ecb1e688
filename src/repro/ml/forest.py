"""Random forest regressor (bagged CART trees).

The paper's edge servers train one random forest per layer type to predict
layer execution time from layer hyperparameters plus GPU workload features
(§3.C.1).  Feature importances are averaged over trees, matching the
right-hand plot of Fig 4.

``fit`` additionally stacks every tree's flat arrays (see
:class:`~repro.ml.tree.FlatTree`) into one concatenated node table, so
``predict`` traverses *all trees for all rows* in a single
level-synchronous loop — the planner-side hot path of the large-scale
simulator.  A one-row ``predict`` (the lazy per-server GPU ping of an
overload run) instead walks each tree over Python-list copies of that
table, which costs a fraction of the array loop's per-level overhead.
Both are bit-for-bit identical to the per-tree node walk they replaced
(same comparisons, same leaf values, same ``mean(axis=0)`` reduction);
the equivalence tests keep that walk as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ml.tree import RegressionTree


@dataclass(frozen=True)
class _StackedTrees:
    """All trees of a forest concatenated into one flat node table.

    ``roots[t]`` is the index of tree ``t``'s root in the concatenated
    arrays; ``left``/``right`` are already offset into the global index
    space (leaves keep -1 sentinels, never dereferenced).
    """

    feature: np.ndarray  # int64, (total_nodes,)
    threshold: np.ndarray  # float64, (total_nodes,)
    value: np.ndarray  # float64, (total_nodes,)
    left: np.ndarray  # int64, (total_nodes,)
    right: np.ndarray  # int64, (total_nodes,)
    roots: np.ndarray  # int64, (n_trees,)

    @classmethod
    def from_trees(cls, trees: list[RegressionTree]) -> "_StackedTrees":
        flats = [tree.flat for tree in trees]
        sizes = np.array([flat.n_nodes for flat in flats], dtype=np.int64)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        left_parts, right_parts = [], []
        for flat, offset in zip(flats, roots):
            left_parts.append(np.where(flat.left >= 0, flat.left + offset, -1))
            right_parts.append(
                np.where(flat.right >= 0, flat.right + offset, -1)
            )
        return cls(
            feature=np.concatenate([flat.feature for flat in flats]),
            threshold=np.concatenate([flat.threshold for flat in flats]),
            value=np.concatenate([flat.value for flat in flats]),
            left=np.concatenate(left_parts),
            right=np.concatenate(right_parts),
            roots=roots,
        )

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        One level-synchronous step moves every still-descending
        (tree, row) pair one level down; pairs that reached a leaf drop
        out of the active set, so each iteration only touches the pairs
        that are actually mid-descent and the loop runs at most
        ``max(tree depth)`` times for the whole forest.
        """
        n = X.shape[0]
        n_trees = self.roots.shape[0]
        # Flat (tree-major) state over all (tree, row) pairs.
        node = np.repeat(self.roots, n)
        rows = np.tile(np.arange(n), n_trees)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            current = node[active]
            go_left = (
                X[rows[active], self.feature[current]]
                <= self.threshold[current]
            )
            node[active] = np.where(
                go_left, self.left[current], self.right[current]
            )
            active = active[self.feature[node[active]] >= 0]
        return self.value[node].reshape(n_trees, n)

    @cached_property
    def _lists(self) -> tuple[list, list, list, list, list, list]:
        """The node table as Python lists, built on first single-row use."""
        return (
            self.feature.tolist(), self.threshold.tolist(),
            self.value.tolist(), self.left.tolist(), self.right.tolist(),
            self.roots.tolist(),
        )

    def __getstate__(self) -> dict:
        # The list copies are a per-process cache; never pickle them.
        state = self.__dict__.copy()
        state.pop("_lists", None)
        return state

    def predict_row(self, row: list[float]) -> np.ndarray:
        """Per-tree predictions for one row, shape ``(n_trees, 1)``.

        Equals ``predict_all`` on that row: the same ``<=`` comparisons
        on the same float values, one tree at a time.
        """
        feature, threshold, value, left, right, roots = self._lists
        leaves = []
        for node in roots:
            f = feature[node]
            while f >= 0:
                node = left[node] if row[f] <= threshold[node] else right[node]
                f = feature[node]
            leaves.append(value[node])
        return np.array(leaves).reshape(len(roots), 1)


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = rng or np.random.default_rng()
        self._trees: list[RegressionTree] = []
        self._stacked: _StackedTrees | None = None
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be 2D and y 1D with matching lengths")
        n = X.shape[0]
        self._trees = []
        self._stacked = None
        importances = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self._rng,
            )
            if self.bootstrap:
                sample = self._rng.integers(0, n, size=n)
                tree.fit(X[sample], y[sample])
            else:
                tree.fit(X, y)
            self._trees.append(tree)
            assert tree.feature_importances_ is not None
            importances += tree.feature_importances_
        self._stacked = _StackedTrees.from_trees(self._trees)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        X = self._trees[0]._validate_X(X)
        if X.shape[0] == 1:
            per_tree = self._stacked.predict_row(X[0].tolist())
        else:
            per_tree = self._stacked.predict_all(X)
        return per_tree.mean(axis=0)

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        Building block for batch consumers that need each row's ensemble
        mean to be bit-identical to a single-row ``predict`` call: reduce
        the *transposed* result row-wise (``ascontiguousarray(out.T)
        .mean(axis=1)``) so every row gets the same contiguous pairwise
        summation a ``(n_trees, 1)`` scalar call gets, instead of the
        column-sequential reduction of a 2D ``mean(axis=0)``.
        """
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        return self._stacked.predict_all(self._trees[0]._validate_X(X))

    def max_leaf_values(self) -> np.ndarray:
        """Each tree's largest leaf value, shape ``(n_trees,)``.

        No row can get a larger per-tree prediction than its tree's
        entry here, so the mean of this array bounds every ensemble mean.
        """
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        return np.array(
            [
                tree.flat.value[tree.flat.feature < 0].max()
                for tree in self._trees
            ]
        )
