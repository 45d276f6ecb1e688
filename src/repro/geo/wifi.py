"""Edge-server registry: the WiGLE-style mapping from locations to servers.

The master server "finds edge servers around the predicted location by
finding nearby hotspots in the Wi-Fi database" (§3.B.2).  In the evaluation
an edge server is allocated to every hex cell any user trajectory visited
(§4.B.1); this registry owns that allocation and answers the two queries the
master needs: *which server serves this location* and *which servers are
within r metres of this location*.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.geo.hexgrid import HexCell, HexGrid


class _RadiusIndex(NamedTuple):
    centers: np.ndarray  # float64, (n_servers, 2)
    ids: list[int]
    xs: list[float]  # centers[:, 0] as Python floats
    ys: list[float]  # centers[:, 1] as Python floats


def pack_cells(cells: np.ndarray) -> np.ndarray | None:
    """One int64 key per ``(q, r)`` row, ordered as the rows sort, or None.

    Keys are ``(q - q_min) * r_span + (r - r_min)``: injective, and
    increasing in lexicographic ``(q, r)`` order, so ``np.unique`` on the
    keys picks the same first occurrences and groups as ``np.unique(cells,
    axis=0)`` without its row-wise lexsort.  None when the cells are not
    signed integers or their bounding box has more cells than int64 keys.
    """
    if cells.dtype.kind != "i" or cells.shape[0] == 0:
        return None
    q = cells[:, 0].astype(np.int64, copy=False)
    r = cells[:, 1].astype(np.int64, copy=False)
    q_min, r_min = int(q.min()), int(r.min())
    r_span = int(r.max()) - r_min + 1
    if (int(q.max()) - q_min + 1) * r_span > np.iinfo(np.int64).max:
        return None
    # In range by the check above, so the int64 arithmetic is exact.
    return (q - np.int64(q_min)) * np.int64(r_span) + (r - np.int64(r_min))


def unique_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(cells, axis=0, return_index=True, return_inverse=True)``
    minus the unique rows: the first-occurrence index of each distinct
    cell and each row's group, through :func:`pack_cells` keys."""
    keys = pack_cells(cells)
    _, first, inverse = np.unique(
        cells if keys is None else keys,
        axis=0 if keys is None else None,
        return_index=True,
        return_inverse=True,
    )
    return first, inverse.reshape(-1)


class EdgeServerRegistry:
    """Mapping between hex cells, server identifiers, and locations."""

    def __init__(self, grid: HexGrid) -> None:
        self.grid = grid
        self._cell_to_server: dict[HexCell, int] = {}
        self._server_to_cell: dict[int, HexCell] = {}
        # Flat views of every allocated server in cell-sorted order
        # (centre array, ids, and Python-float copies of the centre
        # columns), built lazily for the radius queries and invalidated
        # whenever a server is allocated.
        self._radius_index: _RadiusIndex | None = None

    @classmethod
    def from_visited_points(
        cls, grid: HexGrid, points: Iterable[tuple[float, float]]
    ) -> "EdgeServerRegistry":
        """Allocate one server per cell that any of ``points`` falls in.

        Server ids follow first-seen point order, exactly as the scalar
        per-point loop would assign them (the vectorized path below only
        removes the per-point Python call, not the allocation order).
        """
        registry = cls(grid)
        pts = np.array(
            points if isinstance(points, np.ndarray) else list(points),
            dtype=float,
        ).reshape(-1, 2)
        if pts.shape[0] == 0:
            return registry
        cells = grid.cells_of(pts)
        first_seen, _ = unique_cells(cells)
        for i in np.sort(first_seen):
            registry.ensure_server(HexCell(int(cells[i, 0]), int(cells[i, 1])))
        return registry

    def ensure_server(self, cell: HexCell) -> int:
        """Server id for ``cell``, allocating one if needed."""
        existing = self._cell_to_server.get(cell)
        if existing is not None:
            return existing
        server_id = len(self._cell_to_server)
        self._cell_to_server[cell] = server_id
        self._server_to_cell[server_id] = cell
        self._radius_index = None
        return server_id

    @property
    def num_servers(self) -> int:
        return len(self._cell_to_server)

    @property
    def server_ids(self) -> list[int]:
        return sorted(self._server_to_cell)

    def cell_of_server(self, server_id: int) -> HexCell:
        return self._server_to_cell[server_id]

    def server_location(self, server_id: int) -> tuple[float, float]:
        return self.grid.center(self._server_to_cell[server_id])

    def server_at(self, point: tuple[float, float]) -> int | None:
        """Server covering ``point``'s cell, or None if no server there."""
        return self._cell_to_server.get(self.grid.cell_of(point))

    def servers_for_cells(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized lookup: ``(n, 2)`` axial cells -> ``(n,)`` server ids
        (-1 where the cell has no server).  One dict probe per *distinct*
        cell instead of one per row."""
        cells = np.asarray(cells)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise ValueError(f"cells must be (n, 2), got {cells.shape}")
        if cells.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        first, inverse = unique_cells(cells)
        lut = np.fromiter(
            (
                self._cell_to_server.get(HexCell(int(q), int(r)), -1)
                for q, r in cells[first].tolist()
            ),
            dtype=np.int64,
            count=first.shape[0],
        )
        return lut[inverse]

    def servers_at_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`server_at` over ``(n, 2)`` points (-1 = none)."""
        return self.servers_for_cells(self.grid.cells_of(points))

    def server_for_cell(self, cell: HexCell) -> int | None:
        return self._cell_to_server.get(cell)

    def _build_radius_index(self) -> _RadiusIndex:
        """Centres/ids of every allocated server, sorted by cell ``(q, r)``.

        The sort matches the order :meth:`~repro.geo.hexgrid.HexGrid.cells_within`
        returns cells in, so the vectorized radius query below reproduces
        the reference enumeration order exactly.  The centre columns are
        also kept as Python-float lists: the exact per-survivor distance
        test reads those instead of numpy scalars (same values).
        """
        index = self._radius_index
        if index is not None:
            return index
        cells = sorted(self._cell_to_server)
        ids = [self._cell_to_server[cell] for cell in cells]
        if cells:
            centers = np.array(
                [self.grid.center(cell) for cell in cells], dtype=float
            )
        else:
            centers = np.empty((0, 2), dtype=float)
        index = _RadiusIndex(
            centers, ids, centers[:, 0].tolist(), centers[:, 1].tolist()
        )
        self._radius_index = index
        return index

    def cell_sorted_centres(
        self,
    ) -> tuple[list[int], list[float], list[float]]:
        """``(ids, xs, ys)`` of every allocated server, in cell-sorted order.

        The order :meth:`servers_near` reports servers in, with the centre
        coordinates as the Python floats its exact ``math.hypot`` test
        reads.  The lists are shared (rebuilt only when a server is
        allocated) and must not be mutated.
        """
        _, ids, xs, ys = self._build_radius_index()
        return ids, xs, ys

    def servers_near(
        self, point: tuple[float, float], distance: float
    ) -> list[tuple[int, float]]:
        """``(server_id, centre distance)`` for every server within ``distance``.

        Equivalent to scanning :meth:`HexGrid.cells_within` for allocated
        cells, but instead of enumerating candidate cells it filters the
        allocated-server centre array: a vectorized squared-distance
        prefilter with a safety margin, then the exact ``math.hypot(...)
        <= distance`` comparison the cell scan uses on the few survivors.
        Same servers, same
        (cell-sorted) order, same float comparisons; each pair carries the
        ``hypot`` it was tested with, which equals
        ``euclidean(point, server_location(server_id))``.
        """
        if distance < 0:
            raise ValueError("distance must be non-negative")
        centers, ids, xs, ys = self._build_radius_index()
        if not ids:
            return []
        x, y = float(point[0]), float(point[1])
        dx = centers[:, 0] - x
        dy = centers[:, 1] - y
        # Superset prefilter: hypot is correctly rounded, so anything it
        # reports within `distance` has squared distance at most a hair
        # above distance**2; the margin covers that hair.
        threshold = (distance * (1.0 + 1e-9)) ** 2 + 1e-9
        near = []
        for i in np.nonzero(dx * dx + dy * dy <= threshold)[0].tolist():
            d = math.hypot(xs[i] - x, ys[i] - y)
            if d <= distance:
                near.append((ids[i], d))
        return near

    def servers_within(
        self, point: tuple[float, float], distance: float
    ) -> list[int]:
        """Ids of allocated servers whose cell centre is within ``distance``
        (the ids of :meth:`servers_near`, in its order)."""
        return [server_id for server_id, _ in self.servers_near(point, distance)]

    def servers_within_batch(
        self,
        points: Sequence[tuple[float, float]],
        distance: float,
        *,
        _chunk_rows: int | None = None,
    ) -> list[list[int]]:
        """:meth:`servers_within` for many points in one array pass.

        Row ``i`` of the result equals ``servers_within(points[i],
        distance)`` exactly — the prefilter runs as one chunked
        ``(points, servers)`` distance-squared matrix, and survivors get
        the same scalar ``math.hypot`` comparison (on the same Python
        floats) the per-point query applies.  Used by the proactive
        migration pass, which needs the radius neighbourhood of every
        client's predicted location each interval.
        """
        if distance < 0:
            raise ValueError("distance must be non-negative")
        points = list(points)
        index = self._build_radius_index()
        centers, ids = index.centers, index.ids
        if not ids or not points:
            return [[] for _ in points]
        pts = np.asarray(points, dtype=float).reshape(len(points), 2)
        xs, ys = index.xs, index.ys
        threshold = (distance * (1.0 + 1e-9)) ** 2 + 1e-9
        out: list[list[int]] = []
        # Chunk rows so the candidate matrix stays small regardless of
        # how many points one interval asks about.  ``_chunk_rows`` forces
        # a chunk size (tests pin the boundary behaviour with it).
        chunk = _chunk_rows or max(1, 4_000_000 // max(1, centers.shape[0]))
        cx = centers[:, 0]
        cy = centers[:, 1]
        for start in range(0, pts.shape[0], chunk):
            block = pts[start : start + chunk]
            dx = cx[np.newaxis, :] - block[:, 0][:, np.newaxis]
            dy = cy[np.newaxis, :] - block[:, 1][:, np.newaxis]
            mask = dx * dx + dy * dy <= threshold
            rows, cols = np.nonzero(mask)
            split_at = np.searchsorted(rows, np.arange(1, block.shape[0]))
            for (x, y), candidates in zip(
                block.tolist(), np.split(cols, split_at)
            ):
                out.append(
                    [
                        ids[i]
                        for i in candidates.tolist()
                        if math.hypot(xs[i] - x, ys[i] - y) <= distance
                    ]
                )
        return out
