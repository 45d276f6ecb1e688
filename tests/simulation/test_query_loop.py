"""Tests for the query/upload integration loop.

Per-query timelines come from the record-materializing scalar loop in
:mod:`tests.oracles.reference_paths`; the production integrator returns
only the tally and its latency runs, and must agree with it on the count,
the end bytes, and every query's latency.
"""

import pytest

from repro.partitioning.uploading import UploadChunk, UploadSchedule
from repro.simulation.query_loop import run_local_window, run_query_window
from tests.oracles import reference_paths


def make_schedule(
    chunk_bytes: list[float], latencies: list[float]
) -> UploadSchedule:
    """Hand-built schedule: len(latencies) == len(chunk_bytes) + 1."""
    chunks = tuple(
        UploadChunk(
            indices=(i,), layer_names=(f"L{i}",), nbytes=b,
            efficiency=1.0, benefit=1.0,
        )
        for i, b in enumerate(chunk_bytes)
    )
    return UploadSchedule(chunks=chunks, latencies=tuple(latencies))


def assert_matches_scalar(fast, slow) -> None:
    """Same count, end bytes and per-query latencies, runs maximal."""
    assert fast.count == slow.count
    assert fast.end_bytes == slow.end_bytes
    expanded = [latency for latency, times in fast.runs for _ in range(times)]
    assert expanded == [q.latency for q in slow.queries]
    assert all(times > 0 for _, times in fast.runs)
    assert all(a[0] != b[0] for a, b in zip(fast.runs, fast.runs[1:]))


class TestRunQueryWindow:
    def test_fixed_latency_query_count(self):
        schedule = make_schedule([], [1.0])
        outcome = run_query_window(
            schedule, start_bytes=0.0, uplink_bps=8.0,
            duration=10.0, query_gap=0.5,
        )
        # Period 1.5 s, first completes at 1.0: completions at 1, 2.5, 4, ...
        assert outcome.count == 7

    def test_no_queries_fit(self):
        schedule = make_schedule([], [5.0])
        outcome = run_query_window(schedule, 0.0, 8.0, 4.0, 0.5)
        assert outcome.count == 0

    def test_upload_progress_reduces_latency(self):
        # 80 bytes at 8 bps -> chunk completes at t = 80 s.
        schedule = make_schedule([80.0], [10.0, 1.0])
        fast = run_query_window(
            schedule, start_bytes=80.0, uplink_bps=8.0,
            duration=100.0, query_gap=0.0, uploading=False,
        )
        slow = run_query_window(
            schedule, start_bytes=0.0, uplink_bps=8.0,
            duration=100.0, query_gap=0.0, uploading=True,
        )
        assert fast.count > slow.count
        # The slow run must still speed up after the upload finishes.
        timeline = reference_paths.run_query_window(
            schedule, start_bytes=0.0, uplink_bps=8.0,
            duration=100.0, query_gap=0.0, uploading=True,
        )
        assert timeline.count == slow.count
        late_latencies = [
            q.latency for q in timeline.queries if q.start_time > 80
        ]
        assert late_latencies and all(l == 1.0 for l in late_latencies)

    def test_uploading_false_freezes_progress(self):
        schedule = make_schedule([80.0], [10.0, 1.0])
        outcome = run_query_window(
            schedule, start_bytes=0.0, uplink_bps=8.0,
            duration=50.0, query_gap=0.0, uploading=False,
        )
        assert outcome.end_bytes == 0.0
        timeline = reference_paths.run_query_window(
            schedule, start_bytes=0.0, uplink_bps=8.0,
            duration=50.0, query_gap=0.0, uploading=False,
        )
        assert timeline.count == outcome.count
        assert all(q.latency == 10.0 for q in timeline.queries)

    def test_end_bytes_capped_at_total(self):
        schedule = make_schedule([10.0], [1.0, 0.5])
        outcome = run_query_window(schedule, 0.0, 8e6, 10.0, 0.5)
        assert outcome.end_bytes == 10.0

    def test_first_gap_delays_first_query(self):
        schedule = make_schedule([], [1.0])
        without = run_query_window(schedule, 0.0, 8.0, 3.0, 10.0)
        with_gap = run_query_window(schedule, 0.0, 8.0, 3.0, 10.0, first_gap=2.5)
        assert without.count == 1
        assert with_gap.count == 0

    def test_records_are_chronological(self):
        schedule = make_schedule([40.0], [2.0, 1.0])
        outcome = run_query_window(schedule, 0.0, 8.0, 30.0, 0.5)
        timeline = reference_paths.run_query_window(
            schedule, 0.0, 8.0, 30.0, 0.5
        )
        assert timeline.count == outcome.count
        starts = [q.start_time for q in timeline.queries]
        assert starts == sorted(starts)
        received = [q.received_bytes for q in timeline.queries]
        assert received == sorted(received)

    def test_validation(self):
        schedule = make_schedule([], [1.0])
        with pytest.raises(ValueError):
            run_query_window(schedule, -1.0, 8.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            run_query_window(schedule, 0.0, 8.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            run_query_window(schedule, 0.0, 8.0, 10.0, -0.6)
        # A zero-latency schedule would never advance the query clock.
        with pytest.raises(ValueError):
            run_query_window(
                UploadSchedule(chunks=(), latencies=(0.0,)), 0.0, 8.0, 1.0, 0.0
            )
        with pytest.raises(ValueError):
            run_local_window(0.5, 10.0, -0.6)


class TestFastSteadyState:
    """The production integrator must agree with the scalar loop on the
    count, the end bytes, and every query's latency."""

    @pytest.mark.parametrize("duration", [0.0, 4.0, 10.0, 63.7])
    @pytest.mark.parametrize("start_fraction", [0.0, 0.5, 1.0])
    def test_window_count_matches_scalar(self, duration, start_fraction):
        schedule = make_schedule([80.0], [1.0, 0.25])
        start = start_fraction * schedule.total_bytes
        # uploading=False keeps received bytes constant -> steady window.
        slow = reference_paths.run_query_window(
            schedule, start, 8.0, duration, 0.5, uploading=False,
        )
        fast = run_query_window(
            schedule, start, 8.0, duration, 0.5, uploading=False,
        )
        assert_matches_scalar(fast, slow)

    @pytest.mark.parametrize("start_bytes", [0.0, 24.0])
    @pytest.mark.parametrize("uplink_bps", [8.0, 64.0, 1000.0])
    def test_upload_in_progress_matches_scalar(self, start_bytes, uplink_bps):
        schedule = make_schedule([40.0, 40.0], [1.0, 0.5, 0.25])
        # Bytes move during this window, so production runs the exact
        # per-query integration — just without materializing records.
        slow = reference_paths.run_query_window(
            schedule, start_bytes, uplink_bps, 100.0, 0.5,
        )
        fast = run_query_window(
            schedule, start_bytes, uplink_bps, 100.0, 0.5,
        )
        assert fast.count > 0
        assert_matches_scalar(fast, slow)

    def test_queue_wait_recorded_identically(self):
        schedule = make_schedule([], [1.0])
        slow = reference_paths.run_query_window(
            schedule, 0.0, 8.0, 10.0, 0.5, queue_wait=1.25,
        )
        fast = run_query_window(
            schedule, 0.0, 8.0, 10.0, 0.5, queue_wait=1.25,
        )
        assert_matches_scalar(fast, slow)

    def test_local_window_matches_scalar(self):
        for latency, duration, gap in (
            (0.8, 30.0, 0.5), (0.1, 30.0, 0.5), (0.3, 0.2, 0.5),
            (0.25, 30.0, 0.0), (0.7, 0.7, 0.5),
        ):
            slow = reference_paths.run_local_window(latency, duration, gap)
            fast = run_local_window(latency, duration, gap, count_memo={})
            assert fast.end_bytes == 0.0
            assert_matches_scalar(fast, slow)

    def test_memo_is_reused(self):
        schedule = make_schedule([], [1.0])
        memo = {}
        first = run_query_window(
            schedule, 0.0, 8.0, 10.0, 0.5, count_memo=memo,
        )
        assert len(memo) == 1
        second = run_query_window(
            schedule, 0.0, 8.0, 10.0, 0.5, count_memo=memo,
        )
        assert len(memo) == 1
        assert first.count == second.count
