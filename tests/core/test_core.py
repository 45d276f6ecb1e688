"""Tests for config, edge server, client, and master server."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.client import MobileClient
from repro.core.config import PerDNNConfig
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy
from repro.geo.geometry import BoundingBox, euclidean
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry
from repro.mobility.trajectory import (
    ReplayTable,
    Trajectory,
    TrajectoryDataset,
)
from repro.telemetry import Telemetry


class TestConfig:
    def test_defaults_match_paper(self):
        config = PerDNNConfig()
        assert config.network.uplink_bps == 35e6
        assert config.cell_radius_m == 50.0
        assert config.query_gap_seconds == 0.5
        assert config.prediction_history == 5
        assert config.ttl_intervals == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cell_radius_m=0.0),
            dict(query_gap_seconds=-1.0),
            dict(prediction_history=0),
            dict(migration_radius_m=-1.0),
            dict(migration_radius_m=float("nan")),
            dict(handover_hysteresis_m=-1.0),
            dict(handover_hysteresis_m=float("nan")),
            dict(ttl_intervals=0),
            dict(hit_byte_fraction=0.0),
            dict(hit_byte_fraction=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PerDNNConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "cell_radius_m",
            "backhaul_bps",
            "backhaul_hop_latency_s",
            "query_gap_seconds",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nan_and_infinity(self, field, value):
        with pytest.raises(ValueError, match=field):
            PerDNNConfig(**{field: value})

    def test_zero_gap_and_hop_latency_are_valid(self):
        config = PerDNNConfig(query_gap_seconds=0.0, backhaul_hop_latency_s=0.0)
        assert config.query_gap_seconds == 0.0

    def test_has_no_dead_plan_knobs(self):
        # The partitioner takes its own quantum and chunk cap.
        names = set(asdict(PerDNNConfig()))
        assert not names & {"slowdown_quantum", "max_chunk_bytes"}


class TestEdgeServer:
    @pytest.fixture
    def server(self, rng):
        return EdgeServer(0, HexCell(0, 0), rng)

    def test_cache_accumulates_bytes(self, server):
        assert server.cached_bytes(7) == 0.0
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=5)
        server.add_bytes(7, 50.0, now_interval=1, ttl_intervals=5)
        assert server.cached_bytes(7) == 150.0
        assert server.num_cached_models == 1

    def test_ttl_expiry(self, server):
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=2)
        assert server.expire(1) == []
        assert server.expire(2) == [7]
        assert server.cached_bytes(7) == 0.0

    def test_ttl_refresh_on_new_bytes(self, server):
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=2)
        server.add_bytes(7, 1.0, now_interval=1, ttl_intervals=2)
        assert server.expire(2) == []  # refreshed to expire at 3
        assert server.expire(3) == [7]

    def test_refresh_ttl_without_bytes(self, server):
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=2)
        server.refresh_ttl(7, now_interval=5, ttl_intervals=2)
        assert server.expire(6) == []
        # Refreshing an unknown client is a no-op.
        server.refresh_ttl(99, now_interval=0, ttl_intervals=2)

    def test_associated_client_never_expires(self, server):
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=1)
        server.associate(7)
        assert server.expire(100) == []
        server.dissociate(7)
        assert server.expire(100) == [7]

    def test_clear_client(self, server):
        server.add_bytes(7, 100.0, now_interval=0, ttl_intervals=5)
        server.clear_client(7)
        assert server.cached_bytes(7) == 0.0
        server.clear_client(7)  # idempotent

    def test_gpu_coupling(self, server):
        server.associate(1)
        server.associate(2)
        server.step_gpu()
        stats = server.sample_stats()
        assert stats.num_clients == 2
        assert server.slowdown() >= 1.0

    def test_negative_bytes_rejected(self, server):
        with pytest.raises(ValueError):
            server.add_bytes(7, -1.0, 0, 5)


class TestMobileClient:
    """A client's movement, read from its run's replay table."""

    @pytest.fixture
    def table(self):
        # 8 points with a 0.8 replay fraction: the tail is the last 6.
        points = np.stack([np.arange(-2, 6) * 10.0, np.zeros(8)], axis=1)
        dataset = TrajectoryDataset(
            name="line",
            interval_seconds=20.0,
            bbox=BoundingBox(-20.0, -1.0, 50.0, 1.0),
            trajectories=(Trajectory(0, 20.0, points),),
        )
        return ReplayTable.from_dataset(dataset, 0.8)

    def test_advance_walks_trajectory(self, table):
        ids = table.active(0)
        assert ids.tolist() == [0]
        assert table.positions(ids, 0).tolist() == [[0.0, 0.0]]
        assert table.positions(ids, 1).tolist() == [[10.0, 0.0]]

    def test_finishes_at_end(self, table):
        for step in range(6):
            assert table.active(step).tolist() == [0]
        assert table.active(6).size == 0

    def test_recent_window_fills_up(self, table):
        ids = table.active(0)
        assert table.windows(ids, 0, history=3) is None
        assert table.windows(ids, 1, history=3) is None
        window = table.windows(ids, 2, history=3)
        assert window.shape == (1, 3, 2)
        assert np.allclose(window[0, :, 0], [0.0, 10.0, 20.0])

    def test_window_slides(self, table):
        window = table.windows(table.active(3), 3, history=3)
        assert np.allclose(window[0, :, 0], [10.0, 20.0, 30.0])

    def test_position_before_advance_raises(self, table):
        with pytest.raises(ValueError):
            table.positions(table.active(0), -1)

    def test_history_validation(self, table):
        with pytest.raises(ValueError):
            table.windows(table.active(0), 0, history=0)


class FixedPredictor:
    """Point predictor double that always predicts a fixed location."""

    name = "fixed"
    history = 3

    def __init__(self, point):
        self.point = point

    def fit(self, dataset):
        return self

    def predict_point(self, window):
        return self.point

    def predict_points(self, windows):
        return np.tile(np.asarray(self.point, dtype=float), (len(windows), 1))


@pytest.fixture
def world(tiny_partitioner, rng):
    grid = HexGrid(50.0)
    registry = EdgeServerRegistry(grid)
    cells = [HexCell(0, 0), HexCell(1, 0), HexCell(2, 0), HexCell(3, 0)]
    for cell in cells:
        registry.ensure_server(cell)
    config = PerDNNConfig(prediction_history=3, migration_radius_m=100.0)
    return grid, registry, config, cells


class TestMasterServer:
    def make_master(self, world, tiny_partitioner, rng, **kwargs):
        grid, registry, config, cells = world
        defaults = dict(
            registry=registry,
            partitioner=tiny_partitioner,
            config=config,
            rng=rng,
            policy=MigrationPolicy.PERDNN,
            predictor=FixedPredictor(grid.center(cells[2])),
            telemetry=Telemetry.create(),
        )
        defaults.update(kwargs)
        return MasterServer(**defaults)

    def migrate(self, master, client, interval):
        """One proactive pass for ``client`` over the mobility window
        :meth:`make_client` built; the transfers it traced."""
        trace = master.telemetry.trace
        before = len(trace.of_kind("migration"))
        master.proactive_migrate_batch([client], self.windows, interval)
        return trace.of_kind("migration")[before:]

    def make_client(self, grid, cells):
        # A full 3-position window: two intervals in cell 0, one in cell 1.
        self.windows = np.array(
            [[grid.center(cells[0])] * 2 + [grid.center(cells[1])]],
            dtype=float,
        )
        return MobileClient(0)

    def test_perdnn_requires_predictor(self, world, tiny_partitioner, rng):
        grid, registry, config, _ = world
        with pytest.raises(ValueError):
            MasterServer(
                registry=registry, partitioner=tiny_partitioner,
                config=config, rng=rng, policy=MigrationPolicy.PERDNN,
            )

    def test_server_instances_are_lazy_and_stable(
        self, world, tiny_partitioner, rng
    ):
        master = self.make_master(world, tiny_partitioner, rng)
        assert master.instantiated_servers == []
        server = master.server(0)
        assert master.server(0) is server
        assert len(master.instantiated_servers) == 1

    def test_plan_for_idle_server(self, world, tiny_partitioner, rng):
        master = self.make_master(world, tiny_partitioner, rng)
        server = master.server(0)
        server.step_gpu()
        plan = tiny_partitioner.partition(master.estimate_slowdown(server))
        assert plan.slowdown == pytest.approx(1.0)

    def test_migration_pushes_bytes_to_predicted_servers(
        self, world, tiny_partitioner, rng
    ):
        grid, registry, config, cells = world
        master = self.make_master(world, tiny_partitioner, rng)
        client = self.make_client(grid, cells)
        client.current_server = registry.server_for_cell(cells[1])
        source = master.server(client.current_server)
        source.add_bytes(0, 1e9, now_interval=0, ttl_intervals=5)
        records = self.migrate(master, client, interval=0)
        assert records, "migration must target servers near the prediction"
        target_ids = {r.target_server for r in records}
        assert registry.server_for_cell(cells[2]) in target_ids
        assert client.current_server not in target_ids
        predicted = grid.center(cells[2])
        for target_id in target_ids:
            assert euclidean(
                predicted, registry.server_location(target_id)
            ) <= config.migration_radius_m
        for record in records:
            target = master.server(record.target_server)
            assert target.cached_bytes(0) == pytest.approx(record.nbytes)

    def test_migration_sends_at_most_source_bytes(
        self, world, tiny_partitioner, rng
    ):
        grid, registry, config, cells = world
        master = self.make_master(world, tiny_partitioner, rng)
        client = self.make_client(grid, cells)
        client.current_server = registry.server_for_cell(cells[1])
        source = master.server(client.current_server)
        source.add_bytes(0, 123.0, now_interval=0, ttl_intervals=5)
        records = self.migrate(master, client, interval=0)
        assert all(r.nbytes <= 123.0 + 1e-9 for r in records)

    def test_no_migration_without_source_bytes(
        self, world, tiny_partitioner, rng
    ):
        grid, registry, config, cells = world
        master = self.make_master(world, tiny_partitioner, rng)
        client = self.make_client(grid, cells)
        client.current_server = registry.server_for_cell(cells[1])
        assert self.migrate(master, client, interval=0) == []

    def test_duplicate_sends_avoided_ttl_refreshed(
        self, world, tiny_partitioner, rng
    ):
        grid, registry, config, cells = world
        master = self.make_master(world, tiny_partitioner, rng)
        client = self.make_client(grid, cells)
        client.current_server = registry.server_for_cell(cells[1])
        source = master.server(client.current_server)
        source.add_bytes(0, 1e9, now_interval=0, ttl_intervals=5)
        first = self.migrate(master, client, interval=0)
        second = self.migrate(master, client, interval=1)
        assert first and second == []  # nothing new to send
        for record in first:
            # The duplicate send was skipped but the copy's TTL restarted
            # at interval 1: it outlives the interval-0 expiry horizon.
            target = master.server(record.target_server)
            target.expire(config.ttl_intervals)
            assert target.cached_bytes(0) == pytest.approx(record.nbytes)

    def test_fractional_budget_caps_transfer(
        self, world, tiny_partitioner, rng
    ):
        grid, registry, config, cells = world
        crowded = frozenset(registry.server_ids)
        master = self.make_master(
            world, tiny_partitioner, rng,
            crowded_servers=crowded, crowded_byte_budget=10.0,
        )
        client = self.make_client(grid, cells)
        client.current_server = registry.server_for_cell(cells[1])
        source = master.server(client.current_server)
        source.add_bytes(0, 1e9, now_interval=0, ttl_intervals=5)
        records = self.migrate(master, client, interval=0)
        assert records
        assert all(r.nbytes <= 10.0 for r in records)

    def test_none_policy_never_migrates(self, world, tiny_partitioner, rng):
        master = self.make_master(
            world, tiny_partitioner, rng,
            policy=MigrationPolicy.NONE, predictor=None,
        )
        grid, registry, config, cells = world
        client = self.make_client(grid, cells)
        client.current_server = 0
        master.server(0).add_bytes(0, 1e9, 0, 5)
        assert self.migrate(master, client, interval=0) == []

    def test_slowdown_memoized_per_interval(self, world, tiny_partitioner, rng):
        master = self.make_master(world, tiny_partitioner, rng)
        server = master.server(0)
        server.associate(1)
        server.step_gpu()
        first = master.estimate_slowdown(server)
        server.associate(2)
        server.step_gpu()
        assert master.estimate_slowdown(server) == first  # memoized
        master.begin_interval()
        refreshed = master.estimate_slowdown(server)
        assert refreshed >= first
