"""Continuous query/upload integration.

The paper's workload: a mobile cognitive-assistance client raises a DNN
query 0.5 s after the previous one completed, while (in the background) it
incrementally uploads the not-yet-present server-side layers over the
wireless uplink.  Query latency at any moment is determined by how much of
the upload schedule has arrived; each completed chunk unlocks a faster
plan (IONN's incremental offloading).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.overload.admission import QUEUE_WAIT_BUCKETS
from repro.partitioning.uploading import UploadSchedule
from repro.telemetry.registry import MetricsRegistry

#: Fixed bucket bounds (seconds) for the query-latency histogram; spans
#: on-device MobileNet (~tens of ms) through cold-start ResNet (~1 s+).
QUERY_LATENCY_BUCKETS: tuple[float, ...] = (
    0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2,
)


@dataclass(frozen=True)
class WindowOutcome:
    """Result of integrating one query window."""

    count: int  # queries completed inside the window
    end_bytes: float  # upload progress at window end


def _steady_query_count(
    first_start: float,
    latency: float,
    query_gap: float,
    duration: float,
    count_memo: dict | None,
) -> int:
    """Queries completed by the scalar loop when latency is constant.

    Replays the exact serial float recurrence ``t += latency + query_gap``
    (closed forms can land on the other side of a float boundary), but
    memoized on the tuple of inputs so each distinct window shape is
    integrated once per run.
    """
    key = (first_start, latency, query_gap, duration)
    if count_memo is not None:
        cached = count_memo.get(key)
        if cached is not None:
            return cached
    count = 0
    t = first_start
    while t + latency <= duration:
        count += 1
        t += latency + query_gap
    if count_memo is not None:
        count_memo[key] = count
    return count


def run_query_window(
    schedule: UploadSchedule,
    start_bytes: float,
    uplink_bps: float,
    duration: float,
    query_gap: float,
    uploading: bool = True,
    first_gap: float = 0.0,
    latency_overhead: float = 0.0,
    queue_wait: float | None = None,
    telemetry: MetricsRegistry | None = None,
    count_memo: dict | None = None,
) -> WindowOutcome:
    """Integrate the query loop over ``duration`` seconds.

    ``start_bytes`` of the schedule are already at the server; when
    ``uploading`` the client pushes the remainder at ``uplink_bps``.  A
    query counts when it *completes* inside the window.  ``first_gap``
    delays the first query (used to stitch consecutive windows);
    ``latency_overhead`` is added to every query (e.g. backhaul routing
    cost when the serving cell is remote).  ``queue_wait`` — only passed
    by the overload layer — delays the window's first query behind the
    server's admission queue and is observed into the
    ``overload.queue_wait_seconds`` histogram.  With ``telemetry`` the
    window records each completed query and its (simulated) latency.

    No per-query records are materialized.  When no bytes move during
    the window (nothing left to upload, or not uploading at all) every
    query has the same latency and the count comes from the memoized
    serial recurrence (``count_memo``, shared across a run); windows
    with upload progress replay the exact serial integration.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if start_bytes < 0:
        raise ValueError("start_bytes must be non-negative")
    if latency_overhead < 0:
        raise ValueError("latency_overhead must be non-negative")
    if queue_wait is not None and queue_wait < 0:
        raise ValueError("queue_wait must be non-negative")
    total = schedule.total_bytes
    start_bytes = min(start_bytes, total)
    byte_rate = uplink_bps / 8.0 if uploading else 0.0
    if byte_rate == 0.0 or start_bytes >= total:
        # received is constant: min(total, start_bytes + rate*t) equals the
        # clamped start_bytes at every query start time.
        latency = schedule.latency_after_bytes(start_bytes) + latency_overhead
        first_start = first_gap + (queue_wait or 0.0)
        count = _steady_query_count(
            first_start, latency, query_gap, duration, count_memo
        )
        end_bytes = min(total, start_bytes + byte_rate * duration)
        if telemetry is not None:
            telemetry.counter("query.windows").inc()
            if queue_wait is not None:
                telemetry.histogram(
                    "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
                ).observe(queue_wait)
            if count:
                telemetry.counter("query.completed").inc(count)
                telemetry.histogram(
                    "query.latency_seconds", QUERY_LATENCY_BUCKETS
                ).observe_repeated(latency, count)
        return WindowOutcome(count=count, end_bytes=end_bytes)
    # Upload in progress: the exact serial integration ``t += latency +
    # gap`` with ``latency_after_bytes(received)`` per query.  The latency
    # stage advances incrementally (received bytes are nondecreasing, so
    # the stage index only moves right, landing exactly where bisect
    # would) and consecutive queries at the same latency collapse into
    # one ``observe_repeated`` replay, which is bit-identical to the
    # per-query ``observe`` sequence.
    cumulative = schedule._cumulative_list
    latencies = schedule.latencies
    num_stages = len(cumulative)
    stage = 0
    count = 0
    runs: list[tuple[float, int]] = []  # (latency, consecutive queries)
    run_latency = 0.0
    run_count = 0
    t = first_gap + (queue_wait or 0.0)
    # Cache the next stage threshold so the (frequent) queries that do
    # not cross one skip the stage walk; ``nudged >= next_bound`` is
    # the same float comparison the walk's first iteration would make.
    next_bound = cumulative[0] if num_stages else None
    latency = latencies[0] + latency_overhead
    while True:
        received = min(total, start_bytes + byte_rate * t)
        nudged = received + 1e-9
        if next_bound is not None and nudged >= next_bound:
            while stage < num_stages and cumulative[stage] <= nudged:
                stage += 1
            next_bound = (
                cumulative[stage] if stage < num_stages else None
            )
            latency = latencies[stage] + latency_overhead
        if stage == num_stages:
            # Past the last threshold the stage can never advance
            # again: every remaining query repeats at this latency, so
            # the tail is the steady recurrence starting at ``t`` —
            # the memoized replay performs the identical serial
            # ``t += latency + gap`` walk the loop below would.
            tail = _steady_query_count(
                t, latency, query_gap, duration, count_memo
            )
            if tail:
                count += tail
                if run_count and latency == run_latency:
                    run_count += tail
                else:
                    if run_count:
                        runs.append((run_latency, run_count))
                    run_latency = latency
                    run_count = tail
            break
        if t + latency > duration:
            break
        if run_count and latency == run_latency:
            run_count += 1
        else:
            if run_count:
                runs.append((run_latency, run_count))
            run_latency = latency
            run_count = 1
        count += 1
        t += latency + query_gap
    if run_count:
        runs.append((run_latency, run_count))
    end_bytes = min(total, start_bytes + byte_rate * duration)
    if telemetry is not None:
        telemetry.counter("query.windows").inc()
        if queue_wait is not None:
            telemetry.histogram(
                "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
            ).observe(queue_wait)
        if count:
            telemetry.counter("query.completed").inc(count)
            histogram = telemetry.histogram(
                "query.latency_seconds", QUERY_LATENCY_BUCKETS
            )
            for run_latency, run_count in runs:
                histogram.observe_repeated(run_latency, run_count)
    return WindowOutcome(count=count, end_bytes=end_bytes)


def run_local_window(
    local_latency: float,
    duration: float,
    query_gap: float,
    count_memo: dict | None = None,
) -> WindowOutcome:
    """Integrate one interval of queries executed fully on the client.

    The graceful-degradation path: when no live edge server is reachable
    (crash, blackout) or overload protection sheds the window, the client
    answers every query with the partitioner's all-local plan at
    ``local_latency`` per query — slower, but no query is ever dropped.
    Counting rules match :func:`run_query_window`; the caller records the
    window's telemetry.
    """
    if local_latency <= 0:
        raise ValueError("local_latency must be positive")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    # Local windows are always steady state (constant latency, no
    # upload), so the memoized count recurrence applies unconditionally.
    count = _steady_query_count(
        0.0, local_latency, query_gap, duration, count_memo
    )
    return WindowOutcome(count=count, end_bytes=0.0)
