"""One-row ``predict`` walks each tree over list copies of the node table.

That path must return exactly the bits the stacked array traversal
returns, and exactly what a batch consumer gets by reducing
``predict_per_tree`` row-wise.  The forest sizes straddle numpy's
pairwise-summation block boundaries (8 and its neighbours), so a
reduction that summed in a different order would show up here.
"""

import pickle

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from tests.oracles import reference_paths


def fitted_forest(n_trees, seed=0, n_features=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(300, n_features))
    y = np.sin(X[:, 0]) * 40.0 + X[:, 1] ** 2 + rng.normal(size=300)
    forest = RandomForestRegressor(
        n_estimators=n_trees, max_depth=10, rng=np.random.default_rng(seed)
    ).fit(X, y)
    return forest, rng


@pytest.mark.parametrize("n_trees", [1, 7, 8, 9, 20, 30])
def test_single_row_bit_identical_to_batched_and_reference(n_trees):
    forest, rng = fitted_forest(n_trees, seed=n_trees)
    rows = rng.uniform(-4.0, 4.0, size=(64, 6))
    batched = np.ascontiguousarray(forest.predict_per_tree(rows).T).mean(
        axis=1
    )
    stacked = forest._stacked
    for i, row in enumerate(rows):
        one = row[np.newaxis, :]
        single = forest.predict(one)
        assert single.shape == (1,)
        assert single.tobytes() == batched[i : i + 1].tobytes()
        # The reference node walk, like every one-row call, reduces a
        # (n_trees, 1) column.
        assert single.tobytes() == (
            reference_paths.forest_predict(forest, one).tobytes()
        )
        assert single.tobytes() == (
            stacked.predict_all(one).mean(axis=0).tobytes()
        )


def test_rows_on_split_thresholds_take_the_same_branch():
    forest, _ = fitted_forest(9, seed=4)
    stacked = forest._stacked
    internal = np.nonzero(stacked.feature >= 0)[0]
    for node in internal[:50]:
        row = np.zeros((1, 6))
        row[0, stacked.feature[node]] = stacked.threshold[node]
        assert forest.predict(row).tobytes() == (
            reference_paths.forest_predict(forest, row).tobytes()
        )


def test_reference_toggle_still_walks_nodes():
    forest, rng = fitted_forest(8, seed=2)
    row = rng.uniform(-3.0, 3.0, size=(1, 6))
    fast = forest.predict(row)
    with reference_paths.patched(simulate=False, migrate=False):
        slow = forest.predict(row)
    assert fast.tobytes() == slow.tobytes()


def test_list_copies_are_not_pickled():
    forest, rng = fitted_forest(7, seed=3)
    row = rng.uniform(-3.0, 3.0, size=(1, 6))
    before = len(pickle.dumps(forest))
    expected = forest.predict(row)  # builds the list copies
    assert len(pickle.dumps(forest)) == before
    clone = pickle.loads(pickle.dumps(forest))
    assert clone.predict(row).tobytes() == expected.tobytes()
