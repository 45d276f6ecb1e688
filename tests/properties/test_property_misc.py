"""Property-based tests for geometry, ML utilities, and the query loop."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.geo.geometry import euclidean
from repro.geo.hexgrid import HexGrid
from repro.ml.scaler import StandardScaler
from repro.ml.tree import RegressionTree
from repro.network.transfer import transfer_seconds, transferable_bytes
from repro.partitioning.uploading import UploadChunk, UploadSchedule
from repro.simulation.query_loop import run_query_window
from tests.oracles import reference_paths

finite_coord = st.floats(-1e5, 1e5, allow_nan=False)


class TestHexGridProperties:
    @given(finite_coord, finite_coord)
    @settings(max_examples=100)
    def test_point_maps_to_a_nearby_cell(self, x, y):
        grid = HexGrid(50.0)
        cell = grid.cell_of((x, y))
        # The containing cell's centre is within the circumradius.
        assert euclidean((x, y), grid.center(cell)) <= 50.0 + 1e-6

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_center_roundtrip(self, q, r):
        from repro.geo.hexgrid import HexCell

        grid = HexGrid(50.0)
        cell = HexCell(q, r)
        assert grid.cell_of(grid.center(cell)) == cell

    @given(finite_coord, finite_coord, st.floats(0.0, 500.0))
    @settings(max_examples=50)
    def test_cells_within_actually_within(self, x, y, distance):
        grid = HexGrid(50.0)
        for cell in grid.cells_within((x, y), distance):
            assert euclidean((x, y), grid.center(cell)) <= distance + 1e-6


class TestScalerProperties:
    @given(
        st.integers(2, 50),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_roundtrip(self, n, d, seed):
        X = np.random.default_rng(seed).normal(size=(n, d)) * 10 + 3
        scaler = StandardScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X, atol=1e-8)


class TestTreeProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(10, 80))
    @settings(max_examples=25, deadline=None)
    def test_predictions_bounded_by_targets(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        tree = RegressionTree(rng=rng).fit(X, y)
        preds = tree.predict(rng.normal(size=(20, 3)))
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12


class TestTransferProperties:
    @given(st.floats(0.0, 1e9), st.floats(1.0, 1e9))
    def test_roundtrip(self, nbytes, bps):
        seconds = transfer_seconds(nbytes, bps)
        assert transferable_bytes(seconds, bps) == np.float64(
            nbytes
        ) or abs(transferable_bytes(seconds, bps) - nbytes) <= 1e-6 * max(
            1.0, nbytes
        )


class TestQueryLoopProperties:
    @given(
        st.floats(0.01, 5.0),  # best latency
        st.floats(0.0, 5.0),  # extra cold latency
        st.floats(1.0, 1000.0),  # chunk bytes
        st.floats(0.0, 1.0),  # starting fraction
    )
    @settings(max_examples=50)
    def test_more_cache_never_fewer_queries(
        self, best, extra, nbytes, fraction
    ):
        schedule = UploadSchedule(
            chunks=(
                UploadChunk((0,), ("L0",), nbytes, 1.0, 1.0),
            ),
            latencies=(best + extra, best),
        )
        fewer = run_query_window(
            schedule, fraction * nbytes * 0.5, 8.0, 30.0, 0.5
        )
        more = run_query_window(schedule, fraction * nbytes, 8.0, 30.0, 0.5)
        assert more.count >= fewer.count

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_folded_loop_matches_reference(self, data):
        nbytes = data.draw(
            st.lists(st.floats(1.0, 1000.0), min_size=0, max_size=3)
        )
        latencies = data.draw(
            st.lists(
                st.floats(0.05, 5.0),
                min_size=len(nbytes) + 1, max_size=len(nbytes) + 1,
            )
        )
        schedule = UploadSchedule(
            chunks=tuple(
                UploadChunk((i,), (f"L{i}",), b, 1.0, 1.0)
                for i, b in enumerate(nbytes)
            ),
            latencies=tuple(latencies),
        )
        # Exactly on a stage threshold, or anywhere inside or past one.
        start_bytes = data.draw(
            st.sampled_from([0.0, *schedule.cumulative_bytes()])
            | st.floats(0.0, 1.5 * schedule.total_bytes + 10.0)
        )
        kwargs = dict(
            start_bytes=start_bytes,
            uplink_bps=data.draw(st.floats(0.0, 4000.0)),
            duration=data.draw(st.floats(0.0, 60.0)),
            query_gap=data.draw(st.floats(0.0, 2.0)),
            uploading=data.draw(st.booleans()),
            first_gap=data.draw(st.floats(0.0, 5.0)),
            latency_overhead=data.draw(st.floats(0.0, 1.0)),
            queue_wait=data.draw(st.none() | st.floats(0.0, 5.0)),
        )
        slow = reference_paths.run_query_window(schedule, **kwargs)
        fast = run_query_window(schedule, count_memo={}, **kwargs)
        assert fast.count == slow.count
        assert fast.end_bytes == slow.end_bytes
        expanded = [
            latency for latency, times in fast.runs for _ in range(times)
        ]
        assert expanded == [q.latency for q in slow.queries]
