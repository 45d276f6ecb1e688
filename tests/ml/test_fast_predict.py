"""Vectorized predict vs. node-walk reference: bit-for-bit equivalence.

The flat-array traversal (``FlatTree`` / ``_StackedTrees``) is a pure
wall-clock optimization — every prediction must match the original
per-row node walk (kept in :mod:`tests.oracles.reference_paths`)
exactly, or same-seed simulation runs would diverge.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import FlatTree, RegressionTree
from tests.oracles import reference_paths


def _make_data(n, d, seed, constant_features=False):
    rng = np.random.default_rng(seed)
    if constant_features:
        X = np.full((n, d), 0.5)
    else:
        X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = rng.normal(size=n)
    return X, y


class TestTreeEquivalence:
    @given(
        st.integers(2, 60),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_flat_predict_matches_node_walk(
        self, n, d, seed, constant_features
    ):
        X, y = _make_data(n, d, seed, constant_features)
        tree = RegressionTree(
            max_depth=6, rng=np.random.default_rng(seed)
        ).fit(X, y)
        X_query = np.random.default_rng(seed + 1).uniform(
            -3.0, 3.0, size=(17, d)
        )
        assert np.array_equal(
            tree.predict(X_query),
            reference_paths.tree_predict(tree, X_query),
        )

    def test_single_row_and_empty_batch(self):
        X, y = _make_data(40, 3, 7)
        tree = RegressionTree(rng=np.random.default_rng(7)).fit(X, y)
        single = tree.predict(X[:1])
        assert single.shape == (1,)
        assert np.array_equal(
            single, reference_paths.tree_predict(tree, X[:1])
        )
        empty = tree.predict(np.empty((0, 3)))
        assert empty.shape == (0,)

    def test_constant_target_is_single_leaf(self):
        X = np.random.default_rng(3).uniform(size=(20, 2))
        y = np.full(20, 4.25)
        tree = RegressionTree(rng=np.random.default_rng(3)).fit(X, y)
        assert np.array_equal(tree.predict(X), np.full(20, 4.25))

    def test_flat_tree_mirrors_node_structure(self):
        X, y = _make_data(50, 4, 11)
        tree = RegressionTree(
            max_depth=4, rng=np.random.default_rng(11)
        ).fit(X, y)
        flat = tree.flat
        assert isinstance(flat, FlatTree)
        leaves = flat.feature < 0
        # Leaves carry -1 child sentinels; internal nodes point in-bounds.
        assert np.all(flat.left[leaves] == -1)
        assert np.all(flat.right[leaves] == -1)
        internal = ~leaves
        assert np.all(flat.left[internal] >= 0)
        assert np.all(flat.right[internal] < flat.n_nodes)


class TestForestEquivalence:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_forest_predict_matches_reference(self, seed):
        X, y = _make_data(60, 4, seed)
        forest = RandomForestRegressor(
            n_estimators=6, max_depth=5, rng=np.random.default_rng(seed)
        ).fit(X, y)
        X_query = np.random.default_rng(seed + 1).uniform(size=(23, 4))
        assert np.array_equal(
            forest.predict(X_query),
            reference_paths.forest_predict(forest, X_query),
        )

    def test_edge_batches(self):
        X, y = _make_data(40, 3, 5)
        forest = RandomForestRegressor(
            n_estimators=4, rng=np.random.default_rng(5)
        ).fit(X, y)
        assert forest.predict(np.empty((0, 3))).shape == (0,)
        single = forest.predict(X[:1])
        assert np.array_equal(
            single, reference_paths.forest_predict(forest, X[:1])
        )
        per_tree = forest.predict_per_tree(X[:9])
        assert per_tree.shape == (4, 9)
        assert np.array_equal(
            per_tree, reference_paths.forest_predict_per_tree(forest, X[:9])
        )

    def test_fit_rng_determinism(self):
        X, y = _make_data(80, 5, 21)
        forests = [
            RandomForestRegressor(
                n_estimators=5, rng=np.random.default_rng(99)
            ).fit(X, y)
            for _ in range(2)
        ]
        a, b = (f._stacked for f in forests)
        for field in ("feature", "threshold", "value", "left", "right", "roots"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(forests[0].predict(X), forests[1].predict(X))

