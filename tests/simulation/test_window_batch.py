"""The batched window integrator against the scalar reference loops.

:func:`repro.simulation.query_loop.integrate_windows` integrates a whole
interval's windows in array passes.  Window by window it must agree with
the record-materializing scalar loops in
:mod:`tests.oracles.reference_paths` on the count, the end bytes (value
and type), and every query's latency, whatever mix of served and
on-device windows shares the batch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioning.uploading import UploadChunk, UploadSchedule
from repro.simulation.query_loop import (
    WindowBatch,
    integrate_windows,
    run_local_window,
    run_query_window,
)
from repro.telemetry import Histogram
from tests.oracles import reference_paths

BUCKETS = (0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)


@st.composite
def schedules(draw):
    nbytes = draw(st.lists(st.floats(1.0, 1000.0), min_size=0, max_size=3))
    latencies = draw(
        st.lists(
            st.floats(0.05, 5.0),
            min_size=len(nbytes) + 1, max_size=len(nbytes) + 1,
        )
    )
    return UploadSchedule(
        chunks=tuple(
            UploadChunk((i,), (f"L{i}",), b, 1.0, 1.0)
            for i, b in enumerate(nbytes)
        ),
        latencies=tuple(latencies),
    )


@st.composite
def served_windows(draw, schedule_pool):
    schedule = draw(st.sampled_from(schedule_pool))
    # Exactly on a stage threshold, or anywhere inside or past one.
    start_bytes = draw(
        st.sampled_from([0.0, *schedule.cumulative_bytes()])
        | st.floats(0.0, 1.5 * schedule.total_bytes + 10.0)
    )
    return (
        "served",
        schedule,
        dict(
            start_bytes=start_bytes,
            uplink_bps=draw(st.sampled_from([0.0, 8.0]) | st.floats(0.0, 4000.0)),
            uploading=draw(st.booleans()),
            first_gap=draw(st.sampled_from([0.0]) | st.floats(0.0, 5.0)),
            latency_overhead=draw(
                st.sampled_from([0.0]) | st.floats(0.0, 1.0)
            ),
            queue_wait=draw(st.none() | st.floats(0.0, 5.0)),
        ),
    )


local_windows = st.tuples(st.just("local"), st.floats(0.05, 5.0))


@st.composite
def batches(draw):
    pool = draw(st.lists(schedules(), min_size=1, max_size=3))
    windows = draw(
        st.lists(served_windows(pool) | local_windows, max_size=8)
    )
    return windows


def reference(window, duration, query_gap):
    if window[0] == "local":
        return reference_paths.run_local_window(window[1], duration, query_gap)
    _, schedule, kwargs = window
    return reference_paths.run_query_window(
        schedule, duration=duration, query_gap=query_gap, **kwargs
    )


def batch_of(windows) -> WindowBatch:
    batch = WindowBatch()
    for window in windows:
        if window[0] == "local":
            batch.add_local(window[1])
            continue
        _, schedule, kwargs = window
        batch.add_served(
            schedule,
            min(kwargs["start_bytes"], schedule.total_bytes),
            kwargs["uplink_bps"] / 8.0 if kwargs["uploading"] else 0.0,
            kwargs["first_gap"] + (kwargs["queue_wait"] or 0.0),
            kwargs["latency_overhead"],
        )
    return batch


def expanded(runs):
    return [latency for latency, times in runs for _ in range(times)]


class TestIntegrateWindows:
    @given(
        batches(),
        st.sampled_from([0.0, 10.0]) | st.floats(0.0, 60.0),
        st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_window_equals_the_scalar_loop(
        self, windows, duration, query_gap, memoized
    ):
        memo = {} if memoized else None
        outcome = integrate_windows(
            batch_of(windows), duration, query_gap, count_memo=memo
        )
        assert outcome.counts.shape == (len(windows),)
        assert len(outcome.end_bytes) == len(windows)
        for index, window in enumerate(windows):
            slow = reference(window, duration, query_gap)
            runs = outcome.runs_of(index)
            assert int(outcome.counts[index]) == slow.count
            assert outcome.end_bytes[index] == slow.end_bytes
            assert type(outcome.end_bytes[index]) is type(slow.end_bytes)
            assert expanded(runs) == [q.latency for q in slow.queries]
            assert all(times > 0 for _, times in runs)
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        # Runs are window-major, and a memo filled by this batch gives
        # the same answer again.
        assert (np.diff(outcome.run_windows) >= 0).all()
        assert outcome.run_counts.sum() == outcome.counts.sum()
        if memo is not None:
            again = integrate_windows(
                batch_of(windows), duration, query_gap, count_memo=memo
            )
            assert again.counts.tolist() == outcome.counts.tolist()
            assert again.run_latencies.tolist() == (
                outcome.run_latencies.tolist()
            )

    @given(batches(), st.floats(0.0, 60.0), st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_one_window_calls_match(self, windows, duration, query_gap):
        for window in windows:
            slow = reference(window, duration, query_gap)
            if window[0] == "local":
                fast = run_local_window(
                    window[1], duration, query_gap, count_memo={}
                )
            else:
                fast = run_query_window(
                    window[1], duration=duration, query_gap=query_gap,
                    count_memo={}, **window[2],
                )
            assert fast.count == slow.count
            assert fast.end_bytes == slow.end_bytes
            assert type(fast.end_bytes) is type(slow.end_bytes)
            assert expanded(fast.runs) == [q.latency for q in slow.queries]

    def test_empty_batch(self):
        outcome = integrate_windows(WindowBatch(), 10.0, 0.5, count_memo={})
        assert outcome.counts.tolist() == []
        assert outcome.end_bytes == []
        assert outcome.run_latencies.size == outcome.run_counts.size == 0

    def test_empty_schedule_ends_on_int_zero(self):
        # ``total_bytes`` of no chunks is ``sum(())``, the int 0; the
        # window's end bytes carry it, as the scalar loop's did.
        schedule = UploadSchedule(chunks=(), latencies=(0.5,))
        batch = WindowBatch()
        batch.add_served(schedule, 0.0, 1e6)
        batch.add_local(0.5)
        outcome = integrate_windows(batch, 10.0, 0.5)
        assert outcome.end_bytes == [0, 0.0]
        assert type(outcome.end_bytes[0]) is int
        assert type(outcome.end_bytes[1]) is float
        assert outcome.counts.tolist() == [10, 10]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.add_local(0.0), "local_latency"),
            (lambda b: b.add_served(
                UploadSchedule((), (1.0,)), -1.0, 1.0), "start_bytes"),
            (lambda b: b.add_served(
                UploadSchedule((), (1.0,)), 0.0, 1.0, -1.0), "first_gap"),
            (lambda b: b.add_served(
                UploadSchedule((), (1.0,)), 0.0, 1.0, 0.0, -1.0),
             "latency_overhead"),
        ],
    )
    def test_invalid_windows_rejected(self, edit, message):
        batch = WindowBatch()
        edit(batch)
        with pytest.raises(ValueError, match=message):
            integrate_windows(batch, 10.0, 0.5)

    def test_invalid_shared_parameters_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            integrate_windows(WindowBatch(), -1.0, 0.5)
        with pytest.raises(ValueError, match="query_gap"):
            integrate_windows(WindowBatch(), 1.0, -0.5)


class TestObserveRunsOnArrays:
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.05, 0.1, 0.4000001, 7.0]),
                    st.floats(0.0, 10.0),
                ),
                st.integers(0, 40),
            ),
            max_size=40,
        ),
        st.floats(-1e3, 1e3),
    )
    @settings(max_examples=200)
    def test_equals_an_observe_loop_bit_for_bit(self, runs, start):
        batched, looped = Histogram("h", BUCKETS), Histogram("h", BUCKETS)
        for hist in (batched, looped):
            hist.observe(start)
        batched.observe_runs(
            np.array([value for value, _ in runs], dtype=float),
            np.array([times for _, times in runs], dtype=np.int64),
        )
        for value, times in runs:
            for _ in range(times):
                looped.observe(value)
        assert batched.counts == looped.counts
        assert batched.count == looped.count
        assert batched.sum == looped.sum
        assert math.copysign(1.0, batched.sum) == math.copysign(
            1.0, looped.sum
        )
        assert type(batched.sum) is float
