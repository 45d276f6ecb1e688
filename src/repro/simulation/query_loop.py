"""Continuous query/upload integration.

The paper's workload: a mobile cognitive-assistance client raises a DNN
query 0.5 s after the previous one completed, while (in the background) it
incrementally uploads the not-yet-present server-side layers over the
wireless uplink.  Query latency at any moment is determined by how much of
the upload schedule has arrived; each completed chunk unlocks a faster
plan (IONN's incremental offloading).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.partitioning.uploading import UploadSchedule

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
    # The completed queries in order, consecutive equal latencies merged
    # into one ``(latency, queries)`` pair.
    runs: tuple[tuple[float, int], ...] = ()


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
    server's admission queue.  The caller records the window's telemetry
    from the returned ``runs``.

    This is the exact serial integration ``t += latency + gap`` with
    ``latency_after_bytes(received)`` per query, without per-query
    records.  Received bytes are nondecreasing, so the latency stage only
    moves right, landing exactly where bisect would.  Once it can no
    longer move (the whole schedule is at the server, or no bytes flow)
    every remaining query repeats one latency, and the tail's count comes
    from the memoized serial recurrence (``count_memo``, shared across a
    run).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if start_bytes < 0:
        raise ValueError("start_bytes must be non-negative")
    if query_gap < 0 or first_gap < 0:
        raise ValueError("query_gap and first_gap must be non-negative")
    if latency_overhead < 0:
        raise ValueError("latency_overhead must be non-negative")
    if queue_wait is not None and queue_wait < 0:
        raise ValueError("queue_wait must be non-negative")
    total = schedule.total_bytes
    start_bytes = min(start_bytes, total)
    byte_rate = uplink_bps / 8.0 if uploading else 0.0
    cumulative = schedule._cumulative_list
    num_stages = len(cumulative)
    # The index ``latency_after_bytes(start_bytes)`` computes; received
    # bytes never fall below ``start_bytes``, so no query sits earlier.
    stage = bisect_right(cumulative, start_bytes + 1e-9)
    latency = schedule.latencies[stage] + latency_overhead
    runs: list[tuple[float, int]] = []  # (latency, consecutive queries)
    run_latency = 0.0
    run_count = 0
    count = 0
    t = first_gap + (queue_wait or 0.0)
    while stage < num_stages and byte_rate != 0.0:
        # ``nudged >= cumulative[stage]`` is the same float comparison the
        # walk's first iteration makes, so queries that cross no
        # threshold skip the walk.
        nudged = min(total, start_bytes + byte_rate * t) + 1e-9
        if nudged >= cumulative[stage]:
            while stage < num_stages and cumulative[stage] <= nudged:
                stage += 1
            latency = schedule.latencies[stage] + latency_overhead
            if stage == num_stages:
                continue  # the steady tail takes over from ``t``
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
    else:
        # The latency can no longer change: every remaining query
        # repeats it, so the memoized replay performs the identical
        # serial ``t += latency + gap`` walk this loop would.
        tail = _steady_query_count(t, latency, query_gap, duration, count_memo)
        if tail:
            count += tail
            if run_count and latency == run_latency:
                run_count += tail
            else:
                if run_count:
                    runs.append((run_latency, run_count))
                run_latency = latency
                run_count = tail
    if run_count:
        runs.append((run_latency, run_count))
    end_bytes = min(total, start_bytes + byte_rate * duration)
    return WindowOutcome(count, end_bytes, tuple(runs))


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
    if query_gap < 0:
        raise ValueError("query_gap must be non-negative")
    # Local windows are always steady state (constant latency, no
    # upload), so the memoized count recurrence applies unconditionally.
    count = _steady_query_count(
        0.0, local_latency, query_gap, duration, count_memo
    )
    return WindowOutcome(
        count, 0.0, ((local_latency, count),) if count else ()
    )
