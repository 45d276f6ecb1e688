"""CART regression tree with variance-reduction splits.

Implements the regression-tree half of the random forest the paper uses for
GPU-aware execution-time estimation (§3.C.1).  Splits minimize the weighted
sum of squared errors of the children; feature importances accumulate the
impurity decrease of each split, normalized at the end — the same
"importance" definition the paper plots on the right of Fig 4.

Prediction is array-vectorized: ``fit`` flattens the grown node structure
into parallel numpy arrays (feature / threshold / value / left / right in
preorder), and ``predict`` advances every query row one tree level per
iteration (level-synchronous traversal) instead of walking Python nodes one
row at a time.  The per-row node walk it replaced lives on as a test
oracle, and the equivalence tests pin the two bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree as parallel preorder arrays (leaves: feature == -1).

    ``left``/``right`` hold child node indices for internal nodes and -1
    sentinels for leaves (never dereferenced: traversal only advances rows
    whose current node is internal).  The layout is shared with the
    forest's stacked all-trees representation, which concatenates these
    arrays and offsets the child indices.
    """

    feature: np.ndarray  # int64, (n_nodes,)
    threshold: np.ndarray  # float64, (n_nodes,)
    value: np.ndarray  # float64, (n_nodes,)
    left: np.ndarray  # int64, (n_nodes,)
    right: np.ndarray  # int64, (n_nodes,)

    @classmethod
    def from_root(cls, root: _Node) -> "FlatTree":
        features: list[int] = []
        thresholds: list[float] = []
        values: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []

        def emit(node: _Node) -> int:
            index = len(features)
            features.append(node.feature)
            thresholds.append(node.threshold)
            values.append(node.value)
            lefts.append(-1)
            rights.append(-1)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                lefts[index] = emit(node.left)
                rights[index] = emit(node.right)
            return index

        emit(root)
        return cls(
            feature=np.asarray(features, dtype=np.int64),
            threshold=np.asarray(thresholds, dtype=np.float64),
            value=np.asarray(values, dtype=np.float64),
            left=np.asarray(lefts, dtype=np.int64),
            right=np.asarray(rights, dtype=np.int64),
        )

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Level-synchronous vectorized traversal of every row at once.

        Rows sitting on a leaf are frozen; the rest take one left/right
        step per iteration, so the loop runs at most ``depth`` times
        regardless of the batch size.
        """
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while active.size:
            current = node[active]
            go_left = (
                X[active, self.feature[current]] <= self.threshold[current]
            )
            node[active] = np.where(
                go_left, self.left[current], self.right[current]
            )
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, sse_decrease) over the candidate features.

    Uses the classic sorted-prefix-sum sweep so each feature costs
    O(n log n).  Returns ``None`` when no valid split exists.
    """
    n = y.shape[0]
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best: tuple[int, float, float] | None = None
    best_decrease = 1e-12  # require strictly positive improvement
    total_sum = float(y.sum())
    total_sq = float(np.sum(y * y))
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        prefix_sum = np.cumsum(ys)
        prefix_sq = np.cumsum(ys * ys)
        # Candidate split after position i (1-based left size i+1).
        left_sizes = np.arange(1, n)
        # Only split between distinct feature values.
        distinct = xs[:-1] < xs[1:]
        valid = (
            distinct
            & (left_sizes >= min_samples_leaf)
            & ((n - left_sizes) >= min_samples_leaf)
        )
        if not np.any(valid):
            continue
        left_sum = prefix_sum[:-1]
        left_sq = prefix_sq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        left_n = left_sizes.astype(float)
        right_n = float(n) - left_n
        sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
        sse = np.where(valid, sse, np.inf)
        idx = int(np.argmin(sse))
        decrease = parent_sse - float(sse[idx])
        if decrease > best_decrease:
            best_decrease = decrease
            threshold = 0.5 * (xs[idx] + xs[idx + 1])
            best = (int(feature), float(threshold), decrease)
    return best


class RegressionTree:
    """A single CART regression tree.

    Parameters mirror scikit-learn: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, and ``max_features`` (``None`` = all, ``"sqrt"``,
    or an int) with an optional ``rng`` for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: int | str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid min sample constraints")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng()
        self._root: _Node | None = None
        self._flat: FlatTree | None = None
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        count = int(self.max_features)
        if not 1 <= count <= n_features:
            raise ValueError(f"max_features out of range: {self.max_features}")
        return count

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be 2D and y 1D with matching lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty dataset")
        self._n_features = X.shape[1]
        importances = np.zeros(self._n_features)
        self._root = self._grow(X, y, depth=0, importances=importances)
        self._flat = FlatTree.from_root(self._root)
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def _grow(
        self, X: np.ndarray, y: np.ndarray, depth: int, importances: np.ndarray
    ) -> _Node:
        node = _Node(value=float(y.mean()))
        n = y.shape[0]
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or np.all(y == y[0])
        ):
            return node
        k = self._resolve_max_features(self._n_features)
        if k < self._n_features:
            features = self._rng.choice(self._n_features, size=k, replace=False)
        else:
            features = np.arange(self._n_features)
        split = _best_split(X, y, features, self.min_samples_leaf)
        if split is None:
            return node
        feature, threshold, decrease = split
        mask = X[:, feature] <= threshold
        importances[feature] += decrease
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, importances)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, importances)
        return node

    @property
    def flat(self) -> FlatTree:
        """The fitted tree's parallel-array form (for forest stacking)."""
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat

    def _validate_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(f"expected shape (n, {self._n_features})")
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._flat is None:
            raise RuntimeError("tree has not been fitted")
        return self._flat.predict(self._validate_X(X))

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (leaf-only tree has depth 0)."""
        if self._root is None:
            raise RuntimeError("tree has not been fitted")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
