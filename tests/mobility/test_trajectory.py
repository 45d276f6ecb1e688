"""Tests for trajectory containers."""

import numpy as np
import pytest

from repro.geo.geometry import BoundingBox
from repro.mobility.trajectory import Trajectory, TrajectoryDataset


def straight_line(n: int = 10, speed: float = 2.0, dt: float = 10.0) -> Trajectory:
    xs = np.arange(n) * speed * dt
    points = np.stack([xs, np.zeros(n)], axis=1)
    return Trajectory(user_id=0, interval_seconds=dt, points=points)


class TestTrajectory:
    def test_speeds(self):
        trajectory = straight_line(speed=2.0)
        assert np.allclose(trajectory.speeds(), 2.0)
        assert trajectory.average_speed() == pytest.approx(2.0)

    def test_single_point_speed_zero(self):
        trajectory = Trajectory(0, 1.0, np.zeros((1, 2)))
        assert trajectory.average_speed() == 0.0

    def test_subsample(self):
        trajectory = straight_line(n=10, dt=10.0)
        half = trajectory.subsample(2)
        assert len(half) == 5
        assert half.interval_seconds == 20.0
        assert np.allclose(half.points, trajectory.points[::2])

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            straight_line().subsample(0)

    def test_windows_shapes_and_alignment(self):
        trajectory = straight_line(n=8)
        X, y = trajectory.windows(3)
        assert X.shape == (5, 3, 2)
        assert y.shape == (5, 2)
        assert np.allclose(X[0], trajectory.points[:3])
        assert np.allclose(y[0], trajectory.points[3])

    def test_windows_too_short(self):
        X, y = straight_line(n=3).windows(5)
        assert len(X) == 0 and len(y) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(0, 1.0, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Trajectory(0, 0.0, np.zeros((3, 2)))


@pytest.fixture
def dataset():
    trajectories = tuple(
        Trajectory(i, 10.0, np.cumsum(np.full((20, 2), float(i + 1)), axis=0))
        for i in range(4)
    )
    return TrajectoryDataset(
        name="test",
        interval_seconds=10.0,
        bbox=BoundingBox(0, 0, 1000, 1000),
        trajectories=trajectories,
    )


class TestStacked:
    def test_views_equal_constructed_trajectories(self):
        points = np.arange(20.0).reshape(10, 2).copy()
        stacked = Trajectory.stacked([7, 8, 9], 5.0, [3, 0, 7], points)
        expected = (
            Trajectory(7, 5.0, points[:3]),
            Trajectory(8, 5.0, points[3:3]),
            Trajectory(9, 5.0, points[3:]),
        )
        for got, want in zip(stacked, expected, strict=True):
            assert got.user_id == want.user_id
            assert got.interval_seconds == want.interval_seconds
            assert np.array_equal(got.points, want.points)
            assert got.points.base is points

    @pytest.mark.parametrize(
        "args",
        [
            ([0], 5.0, [3], np.zeros((2, 2))),  # lengths add up to 3
            ([0], 5.0, [-1], np.zeros((0, 2))),  # negative length
            ([0, 1], 5.0, [2], np.zeros((2, 2))),  # one id too many
            ([0], 0.0, [2], np.zeros((2, 2))),  # non-positive interval
            ([0], 5.0, [2], np.zeros((2, 2), dtype=np.float32)),
            ([0], 5.0, [2], np.zeros((2, 3))),
        ],
    )
    def test_rejects_inconsistent_columns(self, args):
        with pytest.raises(ValueError):
            Trajectory.stacked(*args)


class TestTrajectoryDataset:
    def test_interval_consistency_enforced(self, dataset):
        with pytest.raises(ValueError):
            TrajectoryDataset(
                name="bad",
                interval_seconds=5.0,
                bbox=dataset.bbox,
                trajectories=dataset.trajectories,
            )

    def test_all_points_stacks_everything(self, dataset):
        assert dataset.all_points().shape == (4 * 20, 2)

    def test_split_users_is_a_partition(self, dataset, rng):
        train, test = dataset.split_users(0.25, rng)
        assert train.num_users + test.num_users == dataset.num_users
        train_ids = {t.user_id for t in train.trajectories}
        test_ids = {t.user_id for t in test.trajectories}
        assert not train_ids & test_ids

    def test_split_time_preserves_users(self, dataset):
        train, test = dataset.split_time(0.4)
        assert train.num_users == test.num_users == dataset.num_users
        for full, head, tail in zip(
            dataset.trajectories, train.trajectories, test.trajectories
        ):
            assert len(head) + len(tail) == len(full)
            assert np.allclose(
                np.concatenate([head.points, tail.points]), full.points
            )

    def test_split_time_validation(self, dataset):
        with pytest.raises(ValueError):
            dataset.split_time(0.0)

    def test_subsample_dataset(self, dataset):
        half = dataset.subsample(2)
        assert half.interval_seconds == 20.0
        assert all(len(t) == 10 for t in half.trajectories)

    def test_average_speed_positive(self, dataset):
        assert dataset.average_speed() > 0.0
