"""End-to-end resilience behaviour under injected faults.

Each scenario drives ``run_large_scale`` with a hand-built
``FaultSchedule`` and checks the recovery contract: crashes wipe caches
(cold restart), outages divert clients to local execution without ever
dropping a query, failed uploads back off exponentially with a cap, and
dead migration targets are skipped.
"""

import numpy as np
import pytest

from repro.core.client import MobileClient
from repro.core.master import MigrationPolicy
from repro.faults import FaultSchedule, ServerCrash, Window
from repro.geo.geometry import BoundingBox
from repro.geo.hexgrid import HexCell, HexGrid
from repro.mobility.trajectory import Trajectory, TrajectoryDataset
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.trajectories.synthetic import kaist_like


def stationary_dataset(num_users=1, steps=40):
    grid = HexGrid(50.0)
    base = grid.center(HexCell(0, 0))
    trajectories = tuple(
        Trajectory(user, 30.0, np.tile(base, (steps, 1)))
        for user in range(num_users)
    )
    return TrajectoryDataset(
        name="stationary",
        interval_seconds=30.0,
        bbox=BoundingBox(-500, -500, 500, 500),
        trajectories=trajectories,
    )


def run(dataset, partitioner, schedule, **settings_kwargs):
    defaults = dict(
        policy=MigrationPolicy.NONE,
        use_contention_estimator=False,
        migration_radius_m=100.0,
        max_steps=12,
        seed=4,
        faults=schedule,
    )
    defaults.update(settings_kwargs)
    settings = SimulationSettings(**defaults)
    return run_large_scale(dataset, partitioner, settings)


class TestCrashColdStart:
    def test_crash_wipes_cache_forcing_second_cold_start(self, tiny_partitioner):
        dataset = stationary_dataset()
        schedule = FaultSchedule(
            server_crashes=(ServerCrash(0, Window(5, 8)),)
        )
        result = run(dataset, tiny_partitioner, schedule)
        baseline = run(dataset, tiny_partitioner, None)
        # Without the crash the stationary client cold-starts exactly once
        # and every later interval is a TTL-protected hit.
        assert baseline.misses == 1
        # The crash at step 5 wipes server 0's cache; on re-association at
        # step 8 the client must cold-start again.
        assert result.misses == 2
        assert result.local_fallback_queries > 0
        assert result.availability < 1.0

    def test_crash_emits_crash_and_restart_events(self, tiny_partitioner):
        dataset = stationary_dataset()
        schedule = FaultSchedule(
            server_crashes=(ServerCrash(0, Window(5, 8)),)
        )
        result = run(dataset, tiny_partitioner, schedule)
        trace = result.telemetry.trace
        faults = [e.fault for e in trace.of_kind("fault")]
        assert faults.count("server_crash") == 1
        assert faults.count("server_restart") == 1
        registry = result.telemetry.registry
        assert registry.value("cache.crash_losses") > 0


class TestLocalFallback:
    def test_outage_diverts_to_local_and_drops_nothing(self, tiny_partitioner):
        dataset = stationary_dataset(num_users=3, steps=30)
        schedule = FaultSchedule(
            server_crashes=tuple(
                ServerCrash(sid, Window(4, 10)) for sid in range(3)
            )
        )
        result = run(dataset, tiny_partitioner, schedule, max_steps=15)
        assert result.local_fallback_queries > 0
        registry = result.telemetry.registry
        client_intervals = registry.value("resilience.client_intervals")
        local_intervals = registry.value("resilience.local_intervals")
        assert 0 < local_intervals < client_intervals
        assert result.availability == pytest.approx(
            1.0 - local_intervals / client_intervals
        )
        # No query dropped: every client interval produced a query window
        # (remote or local) and every window completed its queries.
        windows = list(result.telemetry.trace.of_kind("query_window"))
        assert len(windows) == int(client_intervals)
        assert sum(w.queries for w in windows) == result.total_queries
        assert result.total_queries > 0

    def test_local_windows_tagged_with_null_server(self, tiny_partitioner):
        dataset = stationary_dataset()
        schedule = FaultSchedule(
            server_crashes=(ServerCrash(0, Window(5, 8)),)
        )
        result = run(dataset, tiny_partitioner, schedule)
        local = [
            e for e in result.telemetry.trace.of_kind("query_window")
            if e.server_id is None
        ]
        assert len(local) == 3  # steps 5, 6, 7
        assert all(e.end_bytes == 0.0 and not e.coldstart for e in local)

    def test_availability_one_without_faults(self, tiny_partitioner):
        dataset = stationary_dataset()
        result = run(dataset, tiny_partitioner, None)
        assert result.availability == 1.0
        assert result.local_fallback_queries == 0
        assert result.upload_retries == 0


class TestUploadBackoff:
    def test_total_drop_rate_backs_off_with_cap(self, tiny_partitioner):
        dataset = stationary_dataset()
        schedule = FaultSchedule(seed=4, upload_drop_rate=1.0)
        result = run(dataset, tiny_partitioner, schedule, max_steps=16)
        trace = result.telemetry.trace
        drops = [
            e.interval for e in trace.of_kind("fault")
            if e.fault == "upload_drop"
        ]
        # Every attempt fails, so attempts land at 0, 1, 3, 7, 15 — gaps of
        # 1, 2, 4, 8 intervals, the last capped at DEFAULT_BACKOFF_CAP.
        assert drops == [0, 1, 3, 7, 15]
        assert result.upload_retries == 4
        # The upload never lands, so the client cold-starts but never
        # completes the prefix: zero hits, zero uplink bytes.
        assert result.telemetry.registry.value("resilience.retries") == 4

    def test_successful_upload_resets_backoff(self):
        client = MobileClient(0)
        assert client.upload_allowed(0)
        assert client.record_upload_drop(0) == 1
        assert client.record_upload_drop(1) == 2
        assert not client.upload_allowed(2)
        assert client.upload_allowed(3)
        client.record_upload_success()
        # A success resets the ladder: the next drop starts at gap 1 again.
        assert client.upload_failures == 0
        assert client.record_upload_drop(7) == 1
        assert client.upload_allowed(8)

    def test_partial_drop_rate_still_completes_upload(self, tiny_partitioner):
        dataset = stationary_dataset()
        schedule = FaultSchedule(seed=4, upload_drop_rate=0.5)
        result = run(dataset, tiny_partitioner, schedule, max_steps=20)
        registry = result.telemetry.registry
        drops = registry.value("fault.injected", {"kind": "upload_drop"})
        assert drops > 0
        # Some attempts succeed, so upload bytes do land on the server.
        windows = list(result.telemetry.trace.of_kind("query_window"))
        assert max(w.end_bytes for w in windows) > 0


class TestDeadTargetSkips:
    @pytest.fixture(scope="class")
    def dataset(self):
        return kaist_like(
            np.random.default_rng(33), num_users=8, duration_steps=140
        )

    def test_migration_skips_down_servers(self, dataset, tiny_partitioner):
        baseline = run(
            dataset, tiny_partitioner, None,
            policy=MigrationPolicy.PERDNN, use_contention_estimator=True,
            max_steps=25,
        )
        assert baseline.num_servers > 1
        schedule = FaultSchedule(
            server_crashes=tuple(
                ServerCrash(sid, Window(1, 25))
                for sid in range(1, baseline.num_servers)
            )
        )
        result = run(
            dataset, tiny_partitioner, schedule,
            policy=MigrationPolicy.PERDNN, use_contention_estimator=True,
            max_steps=25,
        )
        registry = result.telemetry.registry
        assert registry.value("resilience.dead_target_skips") > 0
        # No migration event may target a server inside its down window.
        for event in result.telemetry.trace.of_kind("migration"):
            assert not schedule.server_down(event.target, event.interval)
