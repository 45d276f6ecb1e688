"""Merge edge cases: empty datasets, unusable shards, streaming folds.

The sharded merge must behave at the degenerate ends — no trajectories
at all, shards whose every trajectory is too short to replay — and the
registry fold must accept a lazy generator of registries (the streaming
checkpoint path) with byte-identical results to a materialized list.
"""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.geo.geometry import BoundingBox
from repro.mobility.trajectory import Trajectory, TrajectoryDataset
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.sharding import plan_shards, run_large_scale_sharded
from repro.core.config import PerDNNConfig
from repro.telemetry import MetricsRegistry, merge_registries
from repro.trajectories.synthetic import kaist_like


def make_settings(**kwargs):
    kwargs.setdefault("policy", MigrationPolicy.NONE)
    kwargs.setdefault("max_steps", 4)
    kwargs.setdefault("seed", 3)
    return SimulationSettings(**kwargs)


def single_point_dataset(num_users: int) -> TrajectoryDataset:
    """Every trajectory has one point: zero usable replay clients."""
    rng = np.random.default_rng(7)
    trajectories = tuple(
        Trajectory(
            user_id=i,
            interval_seconds=30.0,
            points=rng.uniform(0.0, 500.0, size=(1, 2)),
        )
        for i in range(num_users)
    )
    return TrajectoryDataset(
        name="single-point",
        interval_seconds=30.0,
        bbox=BoundingBox(0.0, 0.0, 500.0, 500.0),
        trajectories=trajectories,
    )


class TestDegenerateDatasets:
    def test_zero_trajectory_dataset(self, tiny_partitioner):
        dataset = TrajectoryDataset(
            name="empty",
            interval_seconds=30.0,
            bbox=BoundingBox(0.0, 0.0, 100.0, 100.0),
            trajectories=(),
        )
        assert plan_shards(
            dataset, PerDNNConfig(), make_settings(), shard_size=4
        ) == []
        result = run_large_scale_sharded(
            dataset, tiny_partitioner, make_settings(), shard_size=4
        )
        assert result.num_clients == 0
        assert result.num_servers == 0
        assert result.total_queries == 0
        info = result.extras["sharding"]
        assert info["shards"] == 0
        assert info["clients_per_shard"] == []
        # The merged telemetry still exports cleanly.
        assert result.telemetry.dumps()

    def test_all_trajectories_unusable(self, tiny_partitioner):
        # One-point trajectories survive planning (grouped by their only
        # point) but no shard has a replayable client.
        dataset = single_point_dataset(6)
        shards = plan_shards(
            dataset, PerDNNConfig(), make_settings(), shard_size=4
        )
        assert sum(s.num_usable for s in shards) == 0
        assert sum(len(s.trajectory_indices) for s in shards) == 6
        result = run_large_scale_sharded(
            dataset, tiny_partitioner, make_settings(), shard_size=4
        )
        assert result.num_clients == 0
        assert result.total_queries == 0
        assert result.telemetry.dumps()

    def test_all_unusable_never_closes_a_shard_early(self):
        # With zero usable clients the greedy packer never reaches
        # shard_size, so the whole population lands in one trailing shard
        # regardless of how many cells it spans.
        dataset = single_point_dataset(9)
        shards = plan_shards(
            dataset, PerDNNConfig(), make_settings(), shard_size=2
        )
        assert len(shards) == 1
        assert shards[0].num_usable == 0
        assert sorted(shards[0].trajectory_indices) == list(range(9))

    def test_zero_point_trajectory_joins_no_shard(self, tiny_partitioner):
        # A trajectory with no points has no home cell: it joins no shard
        # and leaves the sharded bytes as they are without it.
        base = kaist_like(
            np.random.default_rng(5), num_users=4, duration_steps=40
        )
        empty = Trajectory(99, base.interval_seconds, np.empty((0, 2)))
        padded = TrajectoryDataset(
            name=base.name,
            interval_seconds=base.interval_seconds,
            bbox=base.bbox,
            trajectories=base.trajectories + (empty,),
        )
        settings = make_settings()
        shards = plan_shards(padded, PerDNNConfig(), settings, shard_size=2)
        assert sorted(
            i for shard in shards for i in shard.trajectory_indices
        ) == [0, 1, 2, 3]
        unsharded = run_large_scale(padded, tiny_partitioner, settings)
        with_empty = run_large_scale_sharded(
            padded, tiny_partitioner, settings, shard_size=2
        )
        without = run_large_scale_sharded(
            base, tiny_partitioner, settings, shard_size=2
        )
        assert with_empty.telemetry.dumps() == without.telemetry.dumps()
        assert with_empty.num_clients == unsharded.num_clients == 4

    def test_one_cell_larger_than_shard_size(self, tiny_partitioner):
        # Cells are atomic: a single home cell holding more clients than
        # shard_size becomes one oversized shard, never split.
        rng = np.random.default_rng(19)
        trajectories = tuple(
            Trajectory(
                user_id=i,
                interval_seconds=30.0,
                points=np.array([[10.0, 10.0]])
                + rng.uniform(0.0, 1.0, size=(6, 2)).cumsum(axis=0),
            )
            for i in range(10)
        )
        dataset = TrajectoryDataset(
            name="one-cell",
            interval_seconds=30.0,
            bbox=BoundingBox(0.0, 0.0, 100.0, 100.0),
            trajectories=trajectories,
        )
        shards = plan_shards(
            dataset, PerDNNConfig(), make_settings(), shard_size=4
        )
        assert len(shards) == 1
        assert len(shards[0].trajectory_indices) == 10
        assert len(shards[0].cells) == 1
        assert shards[0].num_usable == 10
        result = run_large_scale_sharded(
            dataset, tiny_partitioner, make_settings(), shard_size=4
        )
        assert result.num_clients == 10
        assert result.extras["sharding"]["shards"] == 1

    def test_mixed_usable_and_unusable_worker_invariant(
        self, tiny_partitioner
    ):
        # Sprinkle unusable trajectories into a real dataset: the worker
        # invariance and client accounting must still hold.
        base = kaist_like(
            np.random.default_rng(3), num_users=10, duration_steps=60
        )
        rng = np.random.default_rng(11)
        stubs = tuple(
            Trajectory(
                user_id=100 + i,
                interval_seconds=base.interval_seconds,
                points=rng.uniform(0.0, 400.0, size=(1, 2)),
            )
            for i in range(3)
        )
        dataset = TrajectoryDataset(
            name=base.name,
            interval_seconds=base.interval_seconds,
            bbox=base.bbox,
            trajectories=base.trajectories + stubs,
        )
        settings = make_settings(policy=MigrationPolicy.PERDNN)
        single = run_large_scale_sharded(
            dataset, tiny_partitioner, settings, shard_size=4, workers=1
        )
        multi = run_large_scale_sharded(
            dataset, tiny_partitioner, settings, shard_size=4, workers=2
        )
        assert single.telemetry.dumps() == multi.telemetry.dumps()
        assert single.num_clients == 10  # stubs planned but not replayed
        info = single.extras["sharding"]
        assert sum(info["clients_per_shard"]) == 10


def build_registry(seed: int) -> MetricsRegistry:
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    for i in range(3):
        registry.counter("requests", {"server": str(i)}).inc(
            float(rng.integers(1, 100))
        )
    registry.gauge("depth").set(float(rng.uniform(0, 10)))
    histogram = registry.histogram("latency", (0.1, 1.0, 10.0))
    for value in rng.uniform(0.0, 12.0, size=20):
        histogram.observe(float(value))
    return registry


class TestStreamingMerge:
    def test_generator_input_matches_list(self):
        materialized = [build_registry(seed) for seed in range(5)]
        from_list = merge_registries(materialized)
        from_generator = merge_registries(
            build_registry(seed) for seed in range(5)
        )
        assert from_list.as_dict() == from_generator.as_dict()

    def test_single_pass_consumption(self):
        # The fold must pull each registry exactly once, releasing it
        # before the next is produced (the checkpoint path streams shard
        # files through here).
        produced = []

        def lazy():
            for seed in range(4):
                produced.append(seed)
                yield build_registry(seed)

        merged = merge_registries(lazy())
        assert produced == [0, 1, 2, 3]
        assert merged.value("requests", {"server": "0"}) > 0

    def test_empty_iterable(self):
        merged = merge_registries(iter([]))
        assert len(merged) == 0

    def test_kind_mismatch_detected_streamingly(self):
        a = MetricsRegistry()
        a.counter("metric").inc()
        b = MetricsRegistry()
        b.gauge("metric").set(1.0)
        with pytest.raises(TypeError, match="kind mismatch"):
            merge_registries(iter([a, b]))

    def test_bucket_mismatch_detected_streamingly(self):
        a = MetricsRegistry()
        a.histogram("latency", (0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("latency", (0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_registries(iter([a, b]))

    def test_gauge_rules_still_apply(self):
        registries = []
        for value in (3.0, 7.0, 5.0):
            registry = MetricsRegistry()
            registry.gauge("steps").set(value)
            registries.append(registry)
        merged = merge_registries(
            iter(registries), gauge_rules={"steps": "max"}
        )
        assert merged.value("steps") == 7.0
        with pytest.raises(ValueError, match="unknown gauge rule"):
            merge_registries(iter([]), default_gauge_rule="median")
