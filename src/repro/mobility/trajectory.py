"""Trajectory containers.

A :class:`Trajectory` is one user's position sequence sampled at a fixed
interval; a :class:`TrajectoryDataset` bundles a region's trajectories with
its bounding box and interval — the shape of the Geolife and KAIST datasets
after the paper's preprocessing (fixed-rate resampling inside a rectangle).
A :class:`ReplayTable` stacks the replayed tails of a dataset's traces,
the positions the simulator's clients move through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.geometry import BoundingBox


@dataclass(frozen=True)
class Trajectory:
    """One user's (x, y) positions, in metres, at a fixed sampling interval."""

    user_id: int
    interval_seconds: float
    points: np.ndarray  # shape (n, 2)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got {points.shape}")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def stacked(
        cls,
        user_ids: list[int],
        interval_seconds: float,
        lengths: list[int],
        points: np.ndarray,
    ) -> tuple["Trajectory", ...]:
        """One trajectory per user over consecutive row blocks of
        ``points``, ``lengths[i]`` rows each, as views into it.

        ``points`` must be an ``(n, 2)`` float64 array whose rows the
        lengths add up to; it and the interval are validated once, for
        every trajectory.
        """
        if not (
            isinstance(points, np.ndarray)
            and points.dtype == np.float64
            and points.ndim == 2
            and points.shape[1] == 2
        ):
            raise ValueError("points must be an (n, 2) float64 array")
        if not interval_seconds > 0:
            raise ValueError("interval_seconds must be positive")
        if len(user_ids) != len(lengths):
            raise ValueError("one length per user id is required")
        if any(length < 0 for length in lengths):
            raise ValueError("lengths must be non-negative")
        if sum(lengths) != points.shape[0]:
            raise ValueError(
                f"lengths add up to {sum(lengths)} rows, not {points.shape[0]}"
            )
        make = object.__new__
        assign = object.__setattr__  # the fields of a frozen dataclass
        trajectories = []
        end = 0
        for user_id, length in zip(user_ids, lengths):
            start, end = end, end + length
            trajectory = make(cls)
            assign(trajectory, "user_id", user_id)
            assign(trajectory, "interval_seconds", interval_seconds)
            assign(trajectory, "points", points[start:end])
            trajectories.append(trajectory)
        return tuple(trajectories)

    def speeds(self) -> np.ndarray:
        """Per-step speeds in m/s (length n-1)."""
        deltas = np.diff(self.points, axis=0)
        return np.hypot(deltas[:, 0], deltas[:, 1]) / self.interval_seconds

    def average_speed(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(self.speeds().mean())

    def subsample(self, factor: int) -> "Trajectory":
        """Keep every ``factor``-th point (interval grows by ``factor``)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        return Trajectory(
            user_id=self.user_id,
            interval_seconds=self.interval_seconds * factor,
            points=self.points[::factor].copy(),
        )

    def windows(self, history: int) -> tuple[np.ndarray, np.ndarray]:
        """Sliding windows: (X of shape (m, history, 2), next points (m, 2))."""
        if history < 1:
            raise ValueError("history must be >= 1")
        n = len(self)
        m = n - history
        if m <= 0:
            return np.empty((0, history, 2)), np.empty((0, 2))
        X = np.stack([self.points[i : i + history] for i in range(m)])
        y = self.points[history:]
        return X, y


def replay_cut(n: int, replay_fraction: float) -> int:
    """Where a length-``n`` trajectory's replayed tail starts.

    ``points[:cut]`` trains the predictor and ``points[cut:]`` is
    replayed; each part keeps at least one point whenever ``n >= 2``.
    """
    return max(1, min(n - 1, int(round(n * (1.0 - replay_fraction)))))


#: A replayed tail needs this many points to make a client: one to
#: associate at and one to move to.
MIN_REPLAY_POINTS = 2


@dataclass(frozen=True)
class ReplayTable:
    """The replayed tails of a dataset, stacked for the interval loop.

    Every tail of at least :data:`MIN_REPLAY_POINTS` points becomes one
    client, numbered in dataset order.  Client ``i`` replays rows
    ``starts[i]`` to ``starts[i] + lengths[i] - 1`` of ``points``, one
    per interval, and is active at interval ``step`` while
    ``step < lengths[i]``.  Every read is a gather of the same float64
    values the trajectories hold.
    """

    points: np.ndarray  # (n, 2) float64, the tails back to back
    starts: np.ndarray  # (clients,) int64, first row of each tail
    lengths: np.ndarray  # (clients,) int64, rows of each tail

    @classmethod
    def from_dataset(
        cls, dataset: TrajectoryDataset, replay_fraction: float
    ) -> ReplayTable:
        """The tails ``points[replay_cut(n, replay_fraction):]``."""
        if not 0.0 < replay_fraction < 1.0:
            raise ValueError("replay_fraction must be in (0, 1)")
        tails = []
        for trajectory in dataset.trajectories:
            cut = replay_cut(len(trajectory), replay_fraction)
            tail = trajectory.points[cut:]
            if len(tail) >= MIN_REPLAY_POINTS:
                tails.append(tail)
        lengths = np.array([len(tail) for tail in tails], dtype=np.int64)
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        points = np.concatenate(tails) if tails else np.empty((0, 2))
        return cls(points, starts, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def active(self, step: int) -> np.ndarray:
        """Ids of the clients still replaying at interval ``step``."""
        return np.flatnonzero(self.lengths > step)

    def positions(self, ids: np.ndarray, step: int) -> np.ndarray:
        """``(k, 2)`` positions of clients ``ids`` at interval ``step``."""
        if step < 0:
            raise ValueError("no client has a position before interval 0")
        return self.points[self.starts[ids] + step]

    def windows(
        self, ids: np.ndarray, step: int, history: int
    ) -> np.ndarray | None:
        """``(k, history, 2)``: each client's positions over the last
        ``history`` intervals up to ``step``, oldest first; None while
        fewer than ``history`` intervals have been replayed."""
        if history < 1:
            raise ValueError("history must be >= 1")
        if step + 1 < history:
            return None
        rows = self.starts[ids] + (step + 1 - history)
        return self.points[rows[:, None] + np.arange(history)]


@dataclass(frozen=True)
class TrajectoryDataset:
    """A named set of trajectories over one evaluation region."""

    name: str
    interval_seconds: float
    bbox: BoundingBox
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        for trajectory in self.trajectories:
            if trajectory.interval_seconds != self.interval_seconds:
                raise ValueError(
                    f"trajectory interval {trajectory.interval_seconds} != "
                    f"dataset interval {self.interval_seconds}"
                )

    @property
    def num_users(self) -> int:
        return len(self.trajectories)

    def all_points(self) -> np.ndarray:
        """Every point of every trajectory, stacked (for server allocation)."""
        return np.concatenate([t.points for t in self.trajectories])

    def average_speed(self) -> float:
        speeds = [t.average_speed() for t in self.trajectories if len(t) > 1]
        return float(np.mean(speeds)) if speeds else 0.0

    def split_users(
        self, test_fraction: float, rng: np.random.Generator
    ) -> tuple["TrajectoryDataset", "TrajectoryDataset"]:
        """Split by *user* so test users were never seen in training."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        order = rng.permutation(self.num_users)
        n_test = max(1, int(round(self.num_users * test_fraction)))
        n_test = min(n_test, self.num_users - 1)
        test_idx = set(order[:n_test].tolist())
        train = tuple(
            t for i, t in enumerate(self.trajectories) if i not in test_idx
        )
        test = tuple(t for i, t in enumerate(self.trajectories) if i in test_idx)
        make = lambda subset, suffix: TrajectoryDataset(
            name=f"{self.name}-{suffix}",
            interval_seconds=self.interval_seconds,
            bbox=self.bbox,
            trajectories=subset,
        )
        return make(train, "train"), make(test, "test")

    def split_time(
        self, test_fraction: float
    ) -> tuple["TrajectoryDataset", "TrajectoryDataset"]:
        """Split every trajectory in time: early part trains the predictor,
        the late part is replayed in the simulation (keeps all users, like
        the paper's replay of held-out trace segments)."""
        return (
            self._time_part(test_fraction, "train"),
            self._time_part(test_fraction, "test"),
        )

    def _time_part(
        self, test_fraction: float, part: str
    ) -> "TrajectoryDataset":
        """The ``train`` (early) or ``test`` (late) part of every trace."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        parts = []
        for trajectory in self.trajectories:
            cut = replay_cut(len(trajectory), test_fraction)
            points = trajectory.points
            parts.append(
                Trajectory(
                    trajectory.user_id,
                    self.interval_seconds,
                    (points[:cut] if part == "train" else points[cut:]).copy(),
                )
            )
        return TrajectoryDataset(
            name=f"{self.name}-{part}",
            interval_seconds=self.interval_seconds,
            bbox=self.bbox,
            trajectories=tuple(parts),
        )

    def subsample(self, factor: int) -> "TrajectoryDataset":
        """Dataset resampled at ``factor`` times the interval."""
        return TrajectoryDataset(
            name=f"{self.name}-x{factor}",
            interval_seconds=self.interval_seconds * factor,
            bbox=self.bbox,
            trajectories=tuple(t.subsample(factor) for t in self.trajectories),
        )
