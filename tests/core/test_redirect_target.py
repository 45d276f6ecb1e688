"""Unit tests for ``MasterServer.redirect_target``.

The overload layer asks it for a neighbour to take a shed request, and
the flash-crowd path asks it where to steer a client whose server died.
The scan's order and side effects are part of the run's telemetry
bytes: with an admission controller it wakes candidates (instantiates
them and opens their admission queues), so it must wake exactly the
live, non-excluded candidates, once each, in cell-sorted order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PerDNNConfig
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy
from repro.faults import FaultSchedule, ServerCrash, Window
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry
from repro.overload import AdmissionController, OverloadConfig
from repro.telemetry.registry import MetricsRegistry
from tests.oracles import overload_paths, reference_paths

RADIUS = 50.0
#: Allocation order deliberately differs from cell-sorted order, so ids
#: and scan order disagree.
CELLS = [HexCell(2, 0), HexCell(0, 0), HexCell(1, 0), HexCell(1, -1),
         HexCell(-1, 0), HexCell(0, 1), HexCell(6, 0)]
#: Server ids follow allocation order.
ID = {cell: server_id for server_id, cell in enumerate(CELLS)}


def make_master(tiny_partitioner, crashes=(), cells=CELLS):
    registry = EdgeServerRegistry(HexGrid(RADIUS))
    for cell in cells:
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


def controller(capacity=8):
    return AdmissionController(OverloadConfig(queue_capacity=capacity))


def fill(master, admission, server_id, requests):
    """Admit ``requests`` windows at a server (sets its queue depth)."""
    for _ in range(requests):
        assert admission.try_admit(master.server(server_id)).admitted


@pytest.fixture
def woken(monkeypatch):
    """Ids of the servers whose admission queues open, in opening order.

    A queue opens on a server's first admission request of the interval,
    which reads its GPU saturation exactly once.
    """
    opened = []
    original = EdgeServer.saturation

    def recording(server):
        opened.append(server.server_id)
        return original(server)

    monkeypatch.setattr(EdgeServer, "saturation", recording)
    return opened


def sid(q, r):
    return ID[HexCell(q, r)]


def origin(master):
    return master.registry.server_location(sid(0, 0))


class TestRedirectTarget:
    def test_empty_neighbourhood_returns_none(
        self, tiny_partitioner, woken
    ):
        master = make_master(tiny_partitioner)
        target = master.redirect_target(
            (10_000.0, 10_000.0), 0, 200.0, admission=controller(),
        )
        assert target is None
        assert woken == []
        assert master.instantiated_servers == []

    def test_everything_excluded_or_down_returns_none(self, tiny_partitioner):
        home = sid(0, 0)
        others = [server_id for server_id in ID.values() if server_id != home]
        master = make_master(tiny_partitioner, crashes=others)
        assert master.redirect_target(
            origin(master), 5, 1000.0, exclude=(home,)
        ) is None
        assert master.redirect_target(origin(master), 5, 1000.0) == home

    def test_excluded_and_down_servers_are_skipped(
        self, tiny_partitioner, woken
    ):
        down = [sid(1, 0), sid(0, 1)]
        master = make_master(tiny_partitioner, crashes=down)
        home = sid(0, 0)
        admission = controller()
        admission.begin_interval(3)
        master.redirect_target(
            origin(master), 3, 200.0, exclude=(home,), admission=admission,
        )
        assert woken
        assert home not in woken
        assert not set(down) & set(woken)
        # Past the crash window the same servers are candidates again.
        woken.clear()
        admission.begin_interval(10)
        master.redirect_target(
            origin(master), 10, 200.0, exclude=(home,), admission=admission,
        )
        assert set(down) <= set(woken)

    def test_require_called_once_per_live_candidate_in_cell_order(
        self, tiny_partitioner, woken
    ):
        # "Woken": instantiated, with an admission queue opened.
        master = make_master(tiny_partitioner, crashes=[sid(1, -1)])
        home = sid(0, 0)
        admission = controller()
        for _ in range(2):  # a repeat in the same interval wakes nobody
            master.redirect_target(
                origin(master), 0, 200.0, exclude=(home,),
                admission=admission,
            )
        expected = [
            ID[cell]
            for cell in sorted(CELLS)
            if cell not in (HexCell(0, 0), HexCell(1, -1), HexCell(6, 0))
        ]
        assert woken == expected
        assert [s.server_id for s in master.instantiated_servers] == expected
        assert woken != sorted(woken)  # the order is by cell, not by id

    def test_require_failure_removes_a_candidate(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        east = sid(1, 0)
        admission = controller(capacity=3)
        # A saturated GPU halves east's capacity to 1: one admitted
        # request fills it while every other queue, at depth 2, still
        # has room.  East carries the lowest load but cannot admit.
        master.server(east).contention.step(40)
        assert master.server(east).saturation() >= 0.85
        fill(master, admission, east, 1)
        assert admission.capacity_of(master.server(east)) == 1
        for server_id in ID.values():
            if server_id != east:
                fill(master, admission, server_id, 2)
        target = master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        )
        assert target is not None and target != east

    def test_lowest_load_wins(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        far = sid(2, 0)
        admission = controller()
        for server_id in ID.values():
            if server_id != far:
                fill(master, admission, server_id, 3)
        target = master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        )
        assert target == far

    def test_load_ties_break_by_distance(self, tiny_partitioner):
        master = make_master(tiny_partitioner)
        admission = controller()
        for server_id in ID.values():
            fill(master, admission, server_id, 1)
        # Every candidate carries the same load: the home cell's server,
        # at distance 0, is the nearest.
        assert master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
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
            (ax, 0.0), 0, 80.0,
            exclude=(sid(0, 0), sid(1, 0)), admission=controller(),
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
        self, tiny_partitioner, woken
    ):
        master = make_master(tiny_partitioner)
        master.fault_schedule = None
        master.redirect_target(
            origin(master), 0, 200.0, admission=controller(),
        )
        assert len(woken) == len(master.registry.servers_within(
            origin(master), 200.0
        ))

    def test_full_server_is_skipped_for_the_rest_of_the_interval(
        self, tiny_partitioner
    ):
        master = make_master(tiny_partitioner)
        home = sid(0, 0)
        admission = controller(capacity=1)
        fill(master, admission, home, 1)

        def candidates():
            return [entry[0] for entry in admission.redirect_pool[1]]

        first = master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        )
        assert first not in (None, home)
        # Full until begin_interval: later scans of the interval skip it.
        assert home not in candidates()
        assert master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        ) == first
        # A server only excluded stays a candidate.
        master.redirect_target(
            origin(master), 0, 200.0, exclude=(first,), admission=admission,
        )
        assert first in candidates()
        # A new interval empties every queue: the home server is back,
        # and at distance 0 it wins the load tie.
        admission.begin_interval(1)
        assert admission.redirect_pool is None
        assert master.redirect_target(
            origin(master), 1, 200.0, admission=admission,
        ) == home
        assert home in candidates()

    def test_full_server_reappears_under_a_fresh_controller(
        self, tiny_partitioner
    ):
        master = make_master(tiny_partitioner)
        home = sid(0, 0)
        admission = controller(capacity=1)
        fill(master, admission, home, 1)
        assert master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        ) != home
        assert master.redirect_target(
            origin(master), 0, 200.0, admission=controller(capacity=1),
        ) == home

    @pytest.mark.parametrize("with_admission", [False, True])
    def test_each_interval_reads_its_own_down_set(
        self, tiny_partitioner, with_admission
    ):
        # One controller across intervals without begin_interval: the
        # live list still follows the interval asked about.
        east = sid(1, 0)
        master = make_master(tiny_partitioner, crashes=[east])
        admission = controller() if with_admission else None
        at_east = master.registry.server_location(east)
        for interval, expected in [(5, None), (10, east), (9, None)]:
            assert master.redirect_target(
                at_east, interval, 0.0, admission=admission,
            ) == expected

    def test_redirect_after_admitting_the_target_moves_on(
        self, tiny_partitioner
    ):
        # The simulator admits each redirect target; once it fills, the
        # next redirect of the interval picks another server, and once
        # every candidate is full there is none.
        master = make_master(tiny_partitioner)
        admission = controller(capacity=1)
        reach = master.registry.servers_within(origin(master), 200.0)
        chosen = []
        for _ in reach:
            target = master.redirect_target(
                origin(master), 0, 200.0, admission=admission,
            )
            assert target is not None and target not in chosen
            assert admission.try_admit(master.server(target)).admitted
            chosen.append(target)
        assert sorted(chosen) == sorted(reach)
        assert master.redirect_target(
            origin(master), 0, 200.0, admission=admission,
        ) is None


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


_CELLS = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
        lambda qr: HexCell(*qr)
    ),
    min_size=1, max_size=24, unique=True,
)
_CALL = st.tuples(
    st.integers(0, 23),  # near which server
    st.floats(-60.0, 60.0), st.floats(-60.0, 60.0),  # offset from it
    st.sampled_from([0.0, 43.3, 86.6, 150.0, 250.0, 500.0]),  # radius
    st.lists(st.integers(0, 23), max_size=2),  # exclude
    st.booleans(),  # with the admission controller
    st.booleans(),  # admit the chosen target, as the simulator does
)


@settings(max_examples=150, deadline=None)
@given(
    cells=_CELLS,
    crashed=st.lists(st.integers(0, 23), max_size=6, unique=True),
    capacity=st.integers(1, 3),
    prefill=st.lists(st.integers(0, 23), max_size=12),
    calls=st.lists(_CALL, min_size=1, max_size=20),
)
def test_redirect_target_matches_the_oracle(
    cells, crashed, capacity, prefill, calls
):
    """Production scan vs the verbatim ``load_of``/``require`` oracle.

    Random registries, down sets, queue states and call sequences in one
    interval: every call returns the same server, wakes servers in the
    same order and leaves the same queues open at the same depths.
    """
    sides = []
    for scan in (MasterServer.redirect_target, overload_paths.redirect_target):
        master = make_master(None, crashes=crashed, cells=cells)
        admission = AdmissionController(
            OverloadConfig(queue_capacity=capacity), MetricsRegistry()
        )
        sides.append((scan, master, admission, []))
    original = EdgeServer.saturation
    recording_into = [None]  # the queue-opening list of the side running

    def recording(server):
        recording_into[0].append(server.server_id)
        return original(server)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EdgeServer, "saturation", recording)
        for scan, master, admission, opened in sides:
            recording_into[0] = opened
            for server_id in prefill:
                if server_id < len(cells):
                    admission.try_admit(master.server(server_id))
        for near, dx, dy, radius, exclude, with_admission, admit in calls:
            cx, cy = sides[0][1].registry.server_location(near % len(cells))
            x, y = cx + dx, cy + dy
            results = []
            for scan, master, admission, opened in sides:
                recording_into[0] = opened
                target = scan(
                    master, (x, y), 0, radius, exclude=tuple(exclude),
                    admission=admission if with_admission else None,
                )
                if admit and with_admission and target is not None:
                    assert admission.try_admit(master.server(target)).admitted
                admission.export_gauges()
                results.append((
                    target,
                    [s.server_id for s in master.instantiated_servers],
                    list(opened),
                    admission.telemetry.series("overload.queue_depth"),
                ))
            assert results[0] == results[1]

