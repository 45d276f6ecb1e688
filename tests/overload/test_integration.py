"""End-to-end overload behaviour in the large-scale simulator.

Covers the flash-crowd stress scenario (survivors absorb redirected
clients without dropping a query), same-seed determinism with the
subsystem on, and the strict no-op contract when it is off.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.master import MasterServer, MigrationPolicy
from repro.faults import get_profile
from repro.geo.geometry import BoundingBox
from repro.geo.hexgrid import HexCell, HexGrid
from repro.mobility.trajectory import Trajectory, TrajectoryDataset
from repro.overload import OverloadConfig, SheddingPolicy
from repro.simulation.large_scale import (
    LargeScaleResult,
    SimulationSettings,
    run_large_scale,
)
from repro.trajectories.synthetic import kaist_like

COMPARED_FIELDS = [
    field.name
    for field in dataclasses.fields(LargeScaleResult)
    if field.name != "telemetry"
]


def clustered_dataset(cells, users_per_cell=3, steps=40):
    """Stationary user clusters, one per hex cell — guaranteed crowding."""
    grid = HexGrid(50.0)
    trajectories = []
    for i, cell in enumerate(cells):
        base = grid.center(HexCell(*cell))
        for j in range(users_per_cell):
            trajectories.append(
                Trajectory(i * users_per_cell + j, 30.0,
                           np.tile(base, (steps, 1)))
            )
    return TrajectoryDataset(
        name="clustered",
        interval_seconds=30.0,
        bbox=BoundingBox(-500, -500, 500, 500),
        trajectories=tuple(trajectories),
    )


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(33), num_users=6, duration_steps=90)


def one_run(dataset, partitioner, overload, seed=5, faults=None, steps=20):
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN,
        migration_radius_m=100.0,
        max_steps=steps,
        seed=seed,
        faults=faults,
        overload=overload,
    )
    return run_large_scale(dataset, partitioner, settings)


class TestFlashCrowd:
    @pytest.fixture(scope="class")
    def crowded(self, tiny_partitioner):
        # Two stationary clusters -> two servers; flash-crowd leaves one
        # survivor, so six clients compete for a single admission slot.
        return one_run(
            clustered_dataset([(0, 0), (4, 0)]), tiny_partitioner,
            OverloadConfig(policy=SheddingPolicy.REDIRECT, queue_capacity=1),
            faults=get_profile("flash-crowd"), steps=16,
        )

    def test_crowd_forces_shedding_decisions(self, crowded):
        stats = crowded.extras["overload"]
        assert stats["offered"] > 0
        assert stats["redirected"] + stats["shed"] > 0

    def test_no_query_dropped(self, crowded):
        trace = crowded.telemetry.trace
        windows = list(trace.of_kind("query_window"))
        window_queries = sum(e.queries for e in windows)
        assert window_queries == crowded.total_queries
        assert crowded.total_queries > 0
        registry = crowded.telemetry.registry
        client_intervals = registry.value("resilience.client_intervals")
        assert len(windows) == int(client_intervals)

    def test_outcomes_conserve_offered_windows(self, crowded):
        stats = crowded.extras["overload"]
        assert stats["offered"] == (
            stats["admitted"] + stats["shed"]
            + stats["redirected"] + stats["degraded"]
        )
        assert crowded.shed_queries + crowded.redirected_queries >= 0

    def test_queue_wait_recorded_for_admitted_windows(self, crowded):
        registry = crowded.telemetry.registry
        wait = registry.get("overload.queue_wait_seconds")
        assert wait is not None and wait.count > 0
        assert crowded.queue_wait_p99 >= 0.0


class TestRedirectProbe:
    def test_capacity_probe_wakes_every_live_candidate(
        self, tiny_partitioner, monkeypatch
    ):
        # The simulator's admission redirect scan wakes every live
        # candidate in reach (``master.server``), so each one is
        # instantiated and gets an admission queue (and a queue-depth
        # gauge), not just the chosen target.  That side effect is part
        # of the telemetry bytes; pin it so a faster scan cannot drop it.
        original = MasterServer.redirect_target
        probes = []

        def recording(master, position, interval, radius_m, **kwargs):
            before = {s.server_id for s in master.instantiated_servers}
            target = original(master, position, interval, radius_m, **kwargs)
            if kwargs.get("admission") is not None:
                excluded = set(kwargs.get("exclude", ()))
                live = {
                    server_id
                    for server_id in master.registry.servers_within(
                        position, radius_m
                    )
                    if server_id not in excluded
                    and master.server_available(server_id, interval)
                }
                after = {s.server_id for s in master.instantiated_servers}
                probes.append((before, after, live))
            return target

        monkeypatch.setattr(MasterServer, "redirect_target", recording)
        dataset = kaist_like(
            np.random.default_rng(8), num_users=16, duration_steps=60
        )
        result = one_run(
            dataset, tiny_partitioner,
            OverloadConfig(policy=SheddingPolicy.REDIRECT, queue_capacity=1),
            faults=get_profile("flash-crowd"), steps=20,
        )
        assert probes
        for before, after, live in probes:
            assert after == before | live
        # Some redirect woke a server nobody had used yet.
        assert any(live - before for before, _, live in probes)
        registry = result.telemetry.registry
        for _, _, live in probes:
            for server_id in live:
                assert registry.get(
                    "overload.queue_depth", {"server": str(server_id)}
                ) is not None


class TestDegradePolicy:
    def test_degraded_windows_run_shorter_server_plans(
        self, tiny_partitioner
    ):
        # Three clients on one capacity-1 server: two degrade per interval.
        result = one_run(
            clustered_dataset([(0, 0)]), tiny_partitioner,
            OverloadConfig(policy=SheddingPolicy.DEGRADE, queue_capacity=1),
            steps=12,
        )
        stats = result.extras["overload"]
        assert stats["degraded"] > 0
        assert result.degraded_queries > 0
        # Degrade never sheds or redirects; the breaker stays closed.
        assert stats["shed"] == 0 and stats["redirected"] == 0
        assert result.telemetry.registry.value(
            "overload.breaker_transitions", {"to": "open"}
        ) == 0


class TestDeterminism:
    def test_same_seed_overload_runs_are_identical(
        self, dataset, tiny_partitioner
    ):
        config = OverloadConfig(policy=SheddingPolicy.REDIRECT, queue_capacity=1)
        profile = get_profile("flash-crowd")
        first = one_run(dataset, tiny_partitioner, config, faults=profile)
        second = one_run(dataset, tiny_partitioner, config, faults=profile)
        assert first.telemetry.dumps() == second.telemetry.dumps()
        for name in COMPARED_FIELDS:
            assert getattr(first, name) == getattr(second, name), name


class TestStrictNoOp:
    def test_disabled_run_emits_no_overload_metrics(
        self, dataset, tiny_partitioner
    ):
        result = one_run(dataset, tiny_partitioner, None)
        registry = result.telemetry.registry
        assert not any(
            metric.name.startswith("overload.")
            for metric in registry.metrics()
        )
        assert "overload" not in result.extras
        assert result.shed_queries == 0
        assert result.redirected_queries == 0
        assert result.degraded_queries == 0
        assert result.queue_wait_p99 == 0.0

    def test_availability_gauge_present_without_faults(
        self, dataset, tiny_partitioner
    ):
        result = one_run(dataset, tiny_partitioner, None)
        registry = result.telemetry.registry
        assert registry.value("resilience.availability") == 1.0
