"""Property tests of the replay table against per-trajectory slices.

Every interval of the large-scale loop reads the clients' positions and
mobility windows out of one stacked :class:`ReplayTable`.  Here each
read is checked, bit for bit, against the same slice taken from the
trajectory itself: the tail ``points[replay_cut(n, f):]`` of every
trace with at least two replayed points.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.geo.geometry import BoundingBox
from repro.mobility.trajectory import (
    ReplayTable,
    Trajectory,
    TrajectoryDataset,
    replay_cut,
)


def make_dataset(lengths: list[int], seed: int) -> TrajectoryDataset:
    rng = np.random.default_rng(seed)
    return TrajectoryDataset(
        name="ragged",
        interval_seconds=20.0,
        bbox=BoundingBox(0.0, 0.0, 1000.0, 1000.0),
        trajectories=tuple(
            Trajectory(user, 20.0, rng.uniform(0.0, 1000.0, size=(n, 2)))
            for user, n in enumerate(lengths)
        ),
    )


def reference_tails(
    dataset: TrajectoryDataset, fraction: float
) -> list[np.ndarray]:
    tails = [
        t.points[replay_cut(len(t), fraction):] for t in dataset.trajectories
    ]
    return [tail for tail in tails if len(tail) >= 2]


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    fraction=st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75, 0.9]),
    history=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_every_step_matches_per_trajectory_slices(
    lengths, fraction, history, seed
):
    dataset = make_dataset(lengths, seed)
    table = ReplayTable.from_dataset(dataset, fraction)
    tails = reference_tails(dataset, fraction)
    assert len(table) == len(tails)
    assert table.points.dtype == np.float64
    horizon = max(lengths) + 1
    for step in range(horizon):
        ids = table.active(step)
        expected = [i for i, tail in enumerate(tails) if len(tail) > step]
        assert ids.tolist() == expected
        positions = table.positions(ids, step)
        assert positions.shape == (len(expected), 2)
        assert positions.tolist() == [
            tails[i][step].tolist() for i in expected
        ]
        windows = table.windows(ids, step, history)
        if step + 1 < history:
            assert windows is None
            continue
        assert windows.shape == (len(expected), history, 2)
        for row, i in enumerate(expected):
            window = tails[i][step + 1 - history : step + 1]
            assert np.array_equal(windows[row], window)


@pytest.mark.parametrize("lengths", [[0], [1], [0, 1], [2, 0, 3]])
def test_short_traces_make_no_client(lengths):
    # 0- and 1-point traces replay nothing, a 2-point one replays a
    # single point at any fraction and a 3-point one does at 0.5: too
    # short to move.
    table = ReplayTable.from_dataset(make_dataset(lengths, 0), 0.5)
    assert len(table) == 0
    assert table.points.shape == (0, 2)
    assert table.active(0).size == 0


def test_rejects_fraction_outside_unit_interval():
    with pytest.raises(ValueError):
        ReplayTable.from_dataset(make_dataset([4], 0), 1.0)
