"""Tests for geometry, hex grid, and the edge-server registry."""

import math

import numpy as np
import pytest

from repro.geo.geometry import BoundingBox, euclidean
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry
from tests.oracles import reference_paths


class TestGeometry:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == 5.0

    def test_bbox_properties(self):
        box = BoundingBox(0, 0, 10, 20)
        assert box.width == 10 and box.height == 20 and box.area == 200

    def test_bbox_contains_and_clamp(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains((5, 5))
        assert not box.contains((11, 5))
        assert box.clamp((11, -2)) == (10, 0)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)

    def test_sample_inside(self, rng):
        box = BoundingBox(2, 3, 4, 5)
        for _ in range(20):
            assert box.contains(box.sample(rng))


class TestHexGrid:
    def test_cell_of_center_roundtrip(self):
        grid = HexGrid(50.0)
        for q in range(-3, 4):
            for r in range(-3, 4):
                cell = HexCell(q, r)
                assert grid.cell_of(grid.center(cell)) == cell

    def test_cell_of_is_nearest_center(self, rng):
        grid = HexGrid(50.0)
        for _ in range(100):
            point = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
            cell = grid.cell_of(point)
            own = euclidean(point, grid.center(cell))
            for neighbor in cell.neighbors():
                assert own <= euclidean(point, grid.center(neighbor)) + 1e-9

    def test_neighbor_distance(self):
        grid = HexGrid(50.0)
        origin = HexCell(0, 0)
        for neighbor in origin.neighbors():
            assert grid.center_distance(origin, neighbor) == pytest.approx(
                math.sqrt(3) * 50.0
            )

    def test_cells_within_zero_distance(self):
        grid = HexGrid(50.0)
        cells = grid.cells_within((0.0, 0.0), 0.0)
        assert cells == [HexCell(0, 0)]

    def test_cells_within_counts(self):
        grid = HexGrid(50.0)
        # Radius covering exactly the first ring: 6 neighbors + origin.
        cells = grid.cells_within((0.0, 0.0), math.sqrt(3) * 50.0 + 1.0)
        assert len(cells) == 7

    def test_cells_within_negative_rejected(self):
        with pytest.raises(ValueError):
            HexGrid(50.0).cells_within((0, 0), -1.0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            HexGrid(0.0)


class TestRegistry:
    def test_allocation_from_points(self):
        grid = HexGrid(50.0)
        points = [(0.0, 0.0), (1.0, 1.0), (500.0, 500.0)]
        registry = EdgeServerRegistry.from_visited_points(grid, points)
        assert registry.num_servers == 2  # first two share a cell

    def test_server_ids_stable(self):
        grid = HexGrid(50.0)
        registry = EdgeServerRegistry(grid)
        cell = grid.cell_of((0.0, 0.0))
        first = registry.ensure_server(cell)
        second = registry.ensure_server(cell)
        assert first == second

    def test_server_at_unallocated_cell_is_none(self):
        grid = HexGrid(50.0)
        registry = EdgeServerRegistry.from_visited_points(grid, [(0.0, 0.0)])
        assert registry.server_at((5000.0, 5000.0)) is None

    def test_round_trip_server_cell_location(self):
        grid = HexGrid(50.0)
        registry = EdgeServerRegistry.from_visited_points(grid, [(120.0, 80.0)])
        server_id = registry.server_at((120.0, 80.0))
        assert server_id is not None
        cell = registry.cell_of_server(server_id)
        assert registry.server_for_cell(cell) == server_id
        assert registry.server_location(server_id) == grid.center(cell)

    def test_servers_within_radius(self):
        grid = HexGrid(50.0)
        points = [grid.center(HexCell(q, 0)) for q in range(5)]
        registry = EdgeServerRegistry.from_visited_points(grid, points)
        near = registry.servers_within(grid.center(HexCell(0, 0)), 100.0)
        far = registry.servers_within(grid.center(HexCell(0, 0)), 500.0)
        assert len(near) < len(far) <= 5

    def test_servers_within_matches_reference(self):
        # The vectorized radius query must agree with the cell-enumerating
        # reference exactly — same ids, same (cell-sorted) order — for
        # arbitrary query points and distances, including ones that land
        # exactly on a centre distance (the float comparison on survivors
        # is the reference's own).
        grid = HexGrid(50.0)
        rng = np.random.default_rng(23)
        points = rng.uniform(-1500.0, 1500.0, size=(400, 2))
        registry = EdgeServerRegistry.from_visited_points(grid, points)
        for _ in range(200):
            point = tuple(rng.uniform(-1600.0, 1600.0, size=2))
            distance = float(rng.uniform(0.0, 600.0))
            assert registry.servers_within(point, distance) == (
                reference_paths.servers_within(registry, point, distance)
            )
        # Exact-boundary probes: query from one centre at the exact
        # distance of another.
        centers = [
            registry.server_location(server)
            for server in registry.server_ids[:20]
        ]
        origin = centers[0]
        for target in centers[1:]:
            distance = math.hypot(
                target[0] - origin[0], target[1] - origin[1]
            )
            assert registry.servers_within(origin, distance) == (
                reference_paths.servers_within(registry, origin, distance)
            )

    def test_servers_within_batch_matches_scalar(self):
        # The chunked many-point query must reproduce the per-point query
        # row for row (the proactive migration pass depends on it).
        grid = HexGrid(50.0)
        rng = np.random.default_rng(31)
        seeds = rng.uniform(-1500.0, 1500.0, size=(300, 2))
        registry = EdgeServerRegistry.from_visited_points(grid, seeds)
        probes = [
            tuple(rng.uniform(-1600.0, 1600.0, size=2)) for _ in range(150)
        ]
        for distance in (0.0, 60.0, 100.0, 450.0):
            batch = registry.servers_within_batch(probes, distance)
            assert batch == [
                registry.servers_within(point, distance) for point in probes
            ]
        assert registry.servers_within_batch([], 100.0) == []

    def test_servers_within_batch_chunk_boundaries(self):
        # Point counts that straddle the chunk size — one short of a
        # boundary, exactly on it, one past it, and several chunks plus a
        # remainder — must all reproduce the per-point query row for row.
        grid = HexGrid(50.0)
        rng = np.random.default_rng(41)
        seeds = rng.uniform(-800.0, 800.0, size=(120, 2))
        registry = EdgeServerRegistry.from_visited_points(grid, seeds)
        chunk = 4
        for count in (chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            probes = [
                tuple(rng.uniform(-900.0, 900.0, size=2))
                for _ in range(count)
            ]
            batch = registry.servers_within_batch(
                probes, 150.0, _chunk_rows=chunk
            )
            assert batch == [
                registry.servers_within(point, 150.0) for point in probes
            ]
            assert len(batch) == count

    def test_servers_within_batch_zero_servers(self):
        # A registry with no allocated servers answers every probe with an
        # empty row (and an empty probe list with an empty result).
        registry = EdgeServerRegistry(HexGrid(50.0))
        probes = [(0.0, 0.0), (100.0, -50.0), (1e6, 1e6)]
        assert registry.servers_within_batch(probes, 500.0) == [[], [], []]
        assert registry.servers_within_batch([], 500.0) == []

    def test_servers_within_batch_all_points_filtered(self):
        # Rows whose prefilter keeps no candidates: every probe far from
        # every server, across several chunks, and a mix where only some
        # rows survive — row alignment must not drift when np.nonzero
        # returns nothing for a whole block.
        grid = HexGrid(50.0)
        seeds = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]
        registry = EdgeServerRegistry.from_visited_points(grid, seeds)
        far = [(1e5 + 10.0 * i, -1e5) for i in range(7)]
        assert registry.servers_within_batch(far, 200.0, _chunk_rows=3) == [
            [] for _ in far
        ]
        mixed = [far[0], (0.0, 0.0), far[1], far[2], (100.0, 0.0), far[3]]
        batch = registry.servers_within_batch(mixed, 200.0, _chunk_rows=2)
        assert batch == [
            registry.servers_within(point, 200.0) for point in mixed
        ]
        assert batch[0] == [] and batch[2] == [] and batch[1] != []

    def test_servers_within_index_invalidated_by_allocation(self):
        grid = HexGrid(50.0)
        registry = EdgeServerRegistry.from_visited_points(grid, [(0.0, 0.0)])
        assert len(registry.servers_within((0.0, 0.0), 1000.0)) == 1
        registry.ensure_server(grid.cell_of((200.0, 0.0)))
        assert len(registry.servers_within((0.0, 0.0), 1000.0)) == 2


class TestVectorizedGeo:
    """The array passes must agree with the scalar helpers bit for bit —
    the sharded simulator's byte-identity rests on this."""

    def test_cells_of_matches_cell_of(self):
        grid = HexGrid(50.0)
        rng = np.random.default_rng(11)
        points = rng.uniform(-2000.0, 2000.0, size=(5000, 2))
        cells = grid.cells_of(points)
        for i in range(len(points)):
            scalar = grid.cell_of((points[i, 0], points[i, 1]))
            assert (cells[i, 0], cells[i, 1]) == (scalar.q, scalar.r)

    def test_cells_of_on_cell_boundaries(self):
        # Centers, corners, and edge midpoints stress the rounding
        # tie-break branches of the axial rounder.
        grid = HexGrid(50.0)
        centers = np.array(
            [grid.center(HexCell(q, r)) for q in range(-3, 4)
             for r in range(-3, 4)]
        )
        offsets = np.array(
            [(0.0, 0.0), (25.0, 0.0), (0.0, 25.0), (-25.0, -25.0)]
        )
        points = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        cells = grid.cells_of(points)
        for i in range(len(points)):
            scalar = grid.cell_of((points[i, 0], points[i, 1]))
            assert (cells[i, 0], cells[i, 1]) == (scalar.q, scalar.r)

    def test_cells_of_validates_shape(self):
        grid = HexGrid(50.0)
        with pytest.raises(ValueError):
            grid.cells_of(np.zeros((4, 3)))

    def test_vectorized_registry_allocation_matches_scalar(self):
        grid = HexGrid(50.0)
        rng = np.random.default_rng(12)
        points = rng.uniform(-1500.0, 1500.0, size=(3000, 2))
        vectorized = EdgeServerRegistry.from_visited_points(grid, points)
        scalar = EdgeServerRegistry(grid)
        for point in points:
            scalar.ensure_server(grid.cell_of((point[0], point[1])))
        # Identical server ids in identical first-seen order.
        assert vectorized.num_servers == scalar.num_servers
        for server_id in range(vectorized.num_servers):
            assert vectorized.cell_of_server(server_id) == (
                scalar.cell_of_server(server_id)
            )

    def test_servers_at_points_matches_server_at(self):
        grid = HexGrid(50.0)
        rng = np.random.default_rng(13)
        seen = rng.uniform(-500.0, 500.0, size=(200, 2))
        registry = EdgeServerRegistry.from_visited_points(grid, seen)
        queries = np.vstack(
            [seen[:50], rng.uniform(-4000.0, 4000.0, size=(100, 2))]
        )
        ids = registry.servers_at_points(queries)
        for i in range(len(queries)):
            scalar = registry.server_at((queries[i, 0], queries[i, 1]))
            expected = -1 if scalar is None else scalar
            assert ids[i] == expected
