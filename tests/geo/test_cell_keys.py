"""Packed integer cell keys in the edge-server registry.

``EdgeServerRegistry.from_visited_points`` and ``servers_for_cells``
group cells through :func:`repro.geo.wifi.pack_cells` keys instead of
``np.unique(cells, axis=0)``.  The oracles in
:mod:`tests.oracles.reference_paths` keep the row-wise form; these
properties pin the two to the same ids, order and lookups, including
negative and large-magnitude cells and bounding boxes too wide to pack.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry, pack_cells, unique_cells
from tests.oracles import reference_paths

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

#: Cell coordinates from small clusters up to the int64 extremes.
coords = st.one_of(
    st.integers(-8, 8),
    st.integers(-(2**40), 2**40),
    st.integers(INT64_MIN, INT64_MAX),
)


def cell_arrays(coordinate=coords, max_rows=60):
    return st.lists(
        st.tuples(coordinate, coordinate), min_size=1, max_size=max_rows
    ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2))


def same_registry(a: EdgeServerRegistry, b: EdgeServerRegistry) -> bool:
    return a.num_servers == b.num_servers and all(
        a.cell_of_server(i) == b.cell_of_server(i)
        for i in range(a.num_servers)
    )


class TestPackCells:
    @settings(max_examples=200, deadline=None)
    @given(cell_arrays())
    def test_unique_cells_equals_row_unique(self, cells):
        _, first, inverse = np.unique(
            cells, axis=0, return_index=True, return_inverse=True
        )
        got_first, got_inverse = unique_cells(cells)
        np.testing.assert_array_equal(got_first, first)
        np.testing.assert_array_equal(got_inverse, inverse.reshape(-1))

    @settings(max_examples=200, deadline=None)
    @given(cell_arrays())
    def test_keys_never_collide_and_follow_row_order(self, cells):
        keys = pack_cells(cells)
        if keys is None:
            q_span = int(cells[:, 0].max()) - int(cells[:, 0].min()) + 1
            r_span = int(cells[:, 1].max()) - int(cells[:, 1].min()) + 1
            assert q_span * r_span > INT64_MAX
            return
        rows = [tuple(row) for row in cells.tolist()]
        # Equal keys exactly for equal rows, ordered as the rows sort.
        by_key = sorted(range(len(rows)), key=lambda i: (keys[i], i))
        by_row = sorted(range(len(rows)), key=lambda i: (rows[i], i))
        assert by_key == by_row
        assert len(set(keys.tolist())) == len(set(rows))

    def test_refuses_a_box_too_wide_to_pack(self):
        cells = np.array([[INT64_MIN, 0], [INT64_MAX, 1]], dtype=np.int64)
        assert pack_cells(cells) is None
        # The row-wise fallback still groups them correctly.
        first, inverse = unique_cells(np.vstack([cells, cells[:1]]))
        assert first.tolist() == [0, 1]
        assert inverse.tolist() == [0, 1, 0]

    def test_packs_the_largest_box_that_fits(self):
        cells = np.array([[0, 0], [0, INT64_MAX - 1]], dtype=np.int64)
        assert pack_cells(cells).tolist() == [0, INT64_MAX - 1]
        wider = np.array([[0, 0], [1, INT64_MAX - 1]], dtype=np.int64)
        assert pack_cells(wider) is None

    def test_only_signed_integer_cells_pack(self):
        assert pack_cells(np.array([[1.0, 2.0]])) is None
        assert pack_cells(np.array([[1, 2]], dtype=np.uint64)) is None
        assert pack_cells(np.empty((0, 2), dtype=np.int64)) is None
        assert pack_cells(np.array([[1, 2]], dtype=np.int32)).tolist() == [0]


class TestRegistryMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e9, 1e9, allow_nan=False),
                st.floats(-1e9, 1e9, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from([25.0, 100.0, 1e6]),
    )
    def test_from_visited_points_ids_and_order(self, points, radius):
        grid = HexGrid(radius)
        # Repeat points so first-seen order has duplicates to skip.
        pts = np.array(points + points[::2], dtype=float)
        assert same_registry(
            EdgeServerRegistry.from_visited_points(grid, pts),
            reference_paths.registry_from_visited_points(grid, pts),
        )

    @settings(max_examples=100, deadline=None)
    @given(cell_arrays(max_rows=30), cell_arrays(max_rows=30))
    def test_servers_for_cells(self, allocated, queried):
        registry = EdgeServerRegistry(HexGrid(50.0))
        for q, r in allocated.tolist():
            registry.ensure_server(HexCell(q, r))
        cells = np.vstack([queried, allocated[::-1]])
        np.testing.assert_array_equal(
            registry.servers_for_cells(cells),
            reference_paths.servers_for_cells(registry, cells),
        )

    def test_servers_for_cells_on_a_city(self):
        grid = HexGrid(50.0)
        rng = np.random.default_rng(4)
        seen = rng.uniform(-3000.0, 3000.0, size=(2000, 2))
        registry = EdgeServerRegistry.from_visited_points(grid, seen)
        queries = grid.cells_of(rng.uniform(-4000.0, 4000.0, size=(500, 2)))
        np.testing.assert_array_equal(
            registry.servers_for_cells(queries),
            reference_paths.servers_for_cells(registry, queries),
        )

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_servers_for_cells_validates_shape(self, shape):
        registry = EdgeServerRegistry(HexGrid(50.0))
        with pytest.raises(ValueError):
            registry.servers_for_cells(np.zeros(shape, dtype=np.int64))
