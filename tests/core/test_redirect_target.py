"""Unit tests for ``MasterServer.redirect_target``.

The overload layer asks it for a neighbour to take a shed request, and
the flash-crowd path asks it where to steer a client whose server died.
The scan's order and side effects are part of the run's telemetry
bytes: ``require`` may instantiate servers and open admission queues,
so it must see exactly the live, non-excluded candidates, once each, in
cell-sorted order.
"""

import math

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MasterServer, MigrationPolicy
from repro.faults import FaultSchedule, ServerCrash, Window
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry
from tests.oracles import reference_paths

RADIUS = 50.0
#: Allocation order deliberately differs from cell-sorted order, so ids
#: and scan order disagree.
CELLS = [HexCell(2, 0), HexCell(0, 0), HexCell(1, 0), HexCell(1, -1),
         HexCell(-1, 0), HexCell(0, 1), HexCell(6, 0)]
#: Server ids follow allocation order.
ID = {cell: server_id for server_id, cell in enumerate(CELLS)}


def make_master(tiny_partitioner, crashes=()):
    registry = EdgeServerRegistry(HexGrid(RADIUS))
    for cell in CELLS:
        registry.ensure_server(cell)
    schedule = FaultSchedule(
        server_crashes=[ServerCrash(s, Window(0, 10)) for s in crashes]
    )
    return MasterServer(
        registry=registry,
        partitioner=tiny_partitioner,
        config=PerDNNConfig(),
        rng=np.random.default_rng(0),
        policy=MigrationPolicy.NONE,
        fault_schedule=schedule,
    )


def sid(q, r):
    return ID[HexCell(q, r)]


def origin(master):
    return master.registry.server_location(sid(0, 0))


class TestRedirectTarget:
    def test_empty_neighbourhood_returns_none(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        calls = []
        target = master.redirect_target(
            (10_000.0, 10_000.0), 0, 200.0,
            require=lambda s: calls.append(s) or True,
        )
        assert target is None
        assert calls == []

    def test_everything_excluded_or_down_returns_none(self, tiny_partitioner):
        home = sid(0, 0)
        others = [server_id for server_id in ID.values() if server_id != home]
        master = make_master(tiny_partitioner, crashes=others)
        assert master.redirect_target(
            origin(master), 5, 1000.0, exclude=(home,)
        ) is None
        assert master.redirect_target(origin(master), 5, 1000.0) == home

    def test_excluded_and_down_servers_are_skipped(self, tiny_partitioner):
        down = [sid(1, 0), sid(0, 1)]
        master = make_master(tiny_partitioner, crashes=down)
        home = sid(0, 0)
        calls = []
        master.redirect_target(
            origin(master), 3, 200.0, exclude=(home,),
            require=lambda s: calls.append(s) or True,
        )
        assert home not in calls
        assert not set(down) & set(calls)
        # Past the crash window the same servers are candidates again.
        after = []
        master.redirect_target(
            origin(master), 10, 200.0, exclude=(home,),
            require=lambda s: after.append(s) or True,
        )
        assert set(down) <= set(after)

    def test_require_called_once_per_live_candidate_in_cell_order(
        self, tiny_partitioner
    ):
        master = make_master(tiny_partitioner, crashes=[sid(1, -1)])
        home = sid(0, 0)
        calls = []
        master.redirect_target(
            origin(master), 0, 200.0, exclude=(home,),
            require=lambda s: calls.append(s) or False,
        )
        expected = [
            ID[cell]
            for cell in sorted(CELLS)
            if cell not in (HexCell(0, 0), HexCell(1, -1), HexCell(6, 0))
        ]
        assert calls == expected
        assert calls != sorted(calls)  # the order is by cell, not by id

    def test_require_failure_removes_a_candidate(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        east = sid(1, 0)
        target = master.redirect_target(
            origin(master), 0, 200.0,
            load_of=lambda s: 0 if s == east else 1,
            require=lambda s: s != east,
        )
        assert target is not None and target != east

    def test_lowest_load_wins(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        far = sid(2, 0)
        target = master.redirect_target(
            origin(master), 0, 200.0,
            load_of=lambda s: 0 if s == far else 3,
        )
        assert target == far

    def test_load_ties_break_by_distance(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        # Every candidate carries the same load: the home cell's server,
        # at distance 0, is the nearest.
        assert master.redirect_target(
            origin(master), 0, 200.0, load_of=lambda s: 1
        ) == sid(0, 0)

    def test_distance_ties_break_by_id(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        # Cells (0, 1) and (1, -1) mirror each other across y = 0, so a
        # point on that axis is exactly as far from both.  (0, 1) is
        # scanned first but has the larger id.
        a, b = sid(0, 1), sid(1, -1)
        assert a > b
        (ax, ay), (bx, by) = (
            master.registry.server_location(a),
            master.registry.server_location(b),
        )
        assert ax == bx and ay == -by
        target = master.redirect_target(
            (ax, 0.0), 0, 80.0, load_of=lambda s: 0,
            exclude=(sid(0, 0), sid(1, 0)),
        )
        assert target == b

    def test_default_load_is_client_count(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        home = sid(0, 0)
        master.server(home).associate(99)
        target = master.redirect_target(origin(master), 0, 200.0)
        assert target != home

    def test_candidate_exactly_at_radius_is_included(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        home, east = sid(0, 0), sid(1, 0)
        (hx, hy), (ex, ey) = (
            master.registry.server_location(home),
            master.registry.server_location(east),
        )
        edge = math.hypot(ex - hx, ey - hy)
        target = master.redirect_target(
            (hx, hy), 0, edge, exclude=(home,)
        )
        assert target == east
        inside = np.nextafter(edge, 0.0)
        assert master.redirect_target(
            (hx, hy), 0, inside, exclude=(home,)
        ) is None

    def test_without_fault_schedule_every_server_is_live(
        self, tiny_partitioner
    ):
        master = make_master(tiny_partitioner)
        master.fault_schedule = None
        calls = []
        master.redirect_target(
            origin(master), 0, 200.0,
            require=lambda s: calls.append(s) or True,
        )
        assert len(calls) == len(master.registry.servers_within(
            origin(master), 200.0
        ))


class TestServersNear:
    @pytest.mark.parametrize("distance", [0.0, 40.0, 86.6, 150.0, 400.0])
    def test_pairs_match_servers_within_and_euclidean(self, distance):
        registry = EdgeServerRegistry(HexGrid(RADIUS))
        for cell in CELLS:
            registry.ensure_server(cell)
        for point in [(0.0, 0.0), (31.7, -12.25), (90.0, 40.0)]:
            pairs = registry.servers_near(point, distance)
            assert [s for s, _ in pairs] == registry.servers_within(
                point, distance
            )
            assert [s for s, _ in pairs] == (
                reference_paths.servers_within(registry, point, distance)
            )
            for server_id, d in pairs:
                x, y = registry.server_location(server_id)
                assert d == math.hypot(point[0] - x, point[1] - y)
                assert d <= distance
