"""Continuous query/upload integration.

The paper's workload: a mobile cognitive-assistance client raises a DNN
query 0.5 s after the previous one completed, while (in the background) it
incrementally uploads the not-yet-present server-side layers over the
wireless uplink.  Query latency at any moment is determined by how much of
the upload schedule has arrived; each completed chunk unlocks a faster
plan (IONN's incremental offloading).

:func:`integrate_windows` integrates a whole batch of windows (one
interval of the large-scale simulation) in array passes;
:func:`run_query_window` and :func:`run_local_window` are its one-window
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass(eq=False)
class WindowBatch:
    """Query windows in window order, one row each: ``(schedule,
    start_bytes, byte_rate, first_start, extra_latency)``.

    A served window (:meth:`add_served`) integrates ``schedule`` from
    ``start_bytes`` (at most the schedule's total) while ``byte_rate``
    bytes/s arrive; its first query starts at ``first_start`` and
    ``extra_latency`` is added to every query.  An on-device window
    (:meth:`add_local`) has no schedule: every query takes its
    ``extra_latency`` seconds, from t = 0.  Hot callers append rows to
    :attr:`rows` directly.
    """

    rows: list[tuple] = field(default_factory=list)

    def add_served(
        self,
        schedule: UploadSchedule,
        start_bytes: float,
        byte_rate: float,
        first_start: float = 0.0,
        extra_latency: float = 0.0,
    ) -> None:
        self.rows.append(
            (schedule, start_bytes, byte_rate, first_start, extra_latency)
        )

    def add_local(self, latency: float) -> None:
        self.rows.append((None, 0.0, 0.0, 0.0, latency))


@dataclass(frozen=True)
class BatchOutcome:
    """Result of :func:`integrate_windows`, one entry per window.

    ``run_windows``, ``run_latencies`` and ``run_counts`` list every
    window's completed queries window by window, in query order, with
    consecutive equal latencies of one window merged into one run.
    """

    counts: np.ndarray  # int64: queries completed inside each window
    end_bytes: list  # upload progress at window end (0.0 on-device)
    run_windows: np.ndarray  # int64
    run_latencies: np.ndarray  # float64
    run_counts: np.ndarray  # int64, all >= 1

    def runs_of(self, window: int) -> tuple[tuple[float, int], ...]:
        """One window's runs, as :attr:`WindowOutcome.runs`."""
        rows = self.run_windows == window
        return tuple(zip(
            self.run_latencies[rows].tolist(), self.run_counts[rows].tolist()
        ))


#: Queries per array step of :func:`_steady_counts`.
_STEADY_BLOCK = 64

#: The latency table of an on-device window: one stage, no chunks, so
#: every query takes ``0.0 + extra_latency`` (exactly ``extra_latency``).
_NO_SCHEDULE = ((), (0.0,), 0.0)


def _steady_counts(
    t: np.ndarray, latency: np.ndarray, query_gap: float, duration: float
) -> np.ndarray:
    """Queries the scalar loop completes when latency is constant.

    The exact serial float recurrence ``t += latency + query_gap``
    (closed forms can land on the other side of a float boundary), a
    block of :data:`_STEADY_BLOCK` queries at a time: ``np.add.accumulate``
    along a row is that serial fold, and ``t`` only grows, so the queries
    that fit are a prefix of each row.
    """
    count = np.zeros(t.shape[0], dtype=np.int64)
    step = latency + query_gap
    t = t.copy()
    rows = np.arange(t.shape[0])
    while rows.size:
        walk = np.empty((rows.size, _STEADY_BLOCK + 1))
        walk[:, 0] = t[rows]
        walk[:, 1:] = step[rows, None]
        walk = np.add.accumulate(walk, axis=1)
        fits = (
            walk[:, :_STEADY_BLOCK] + latency[rows, None] <= duration
        ).sum(axis=1)
        count[rows] += fits
        more = fits == _STEADY_BLOCK
        t[rows[more]] = walk[more, _STEADY_BLOCK]
        rows = rows[more]
    return count


def _tail_counts(
    t: np.ndarray,
    latency: np.ndarray,
    query_gap: float,
    duration: float,
    count_memo: dict | None,
) -> np.ndarray:
    """:func:`_steady_counts` of every distinct ``(t, latency)`` pair,
    memoized on ``(t, latency, query_gap, duration)`` so each distinct
    window shape is integrated once per run."""
    pairs = np.empty(t.shape[0], dtype=complex)
    pairs.real = t
    pairs.imag = latency
    distinct, inverse = np.unique(pairs, return_inverse=True)
    t, latency = distinct.real.copy(), distinct.imag.copy()
    if count_memo is None:
        return _steady_counts(t, latency, query_gap, duration)[inverse]
    keys = [
        (start, lat, query_gap, duration)
        for start, lat in zip(t.tolist(), latency.tolist())
    ]
    counts = [count_memo.get(key) for key in keys]
    missing = [i for i, count in enumerate(counts) if count is None]
    if missing:
        fresh = _steady_counts(
            t[missing], latency[missing], query_gap, duration
        ).tolist()
        for i, count in zip(missing, fresh):
            count_memo[keys[i]] = counts[i] = count
    return np.array(counts, dtype=np.int64)[inverse]


def integrate_windows(
    batch: WindowBatch,
    duration: float,
    query_gap: float,
    count_memo: dict | None = None,
) -> BatchOutcome:
    """Integrate every window of ``batch`` over ``duration`` seconds.

    A query counts when it *completes* inside its window.  Each window is
    the exact serial integration ``t += latency + gap`` with the latency
    stage set by the bytes received when the query starts, carried out
    for all windows at once: one array step per query index, each float
    operation the scalar loop's, applied elementwise.  The stage is the
    number of cumulative chunk bytes ``<= min(total, start + rate * t) +
    1e-9`` (what bisect finds on the schedule).  Once a window's stage
    can no longer move (the whole schedule is at the server, or no bytes
    flow) every remaining query repeats one latency, and that steady
    tail's count comes from the memoized recurrence (``count_memo``,
    shared across a run).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if query_gap < 0:
        raise ValueError("query_gap and first_gap must be non-negative")
    n = len(batch.rows)
    schedules, start, rate, t0, extra = (
        zip(*batch.rows) if n else ((),) * 5
    )
    start = np.array(start, dtype=float)
    rate = np.array(rate, dtype=float)
    t0 = np.array(t0, dtype=float)
    extra = np.array(extra, dtype=float)
    if (start < 0).any():
        raise ValueError("start_bytes must be non-negative")
    if (t0 < 0).any():
        raise ValueError("query_gap and first_gap must be non-negative")
    if (extra < 0).any():
        raise ValueError("latency_overhead must be non-negative")
    # One row of chunk thresholds and stage latencies per distinct
    # schedule, thresholds padded with +inf (never reached).
    keys = list(map(id, schedules))
    distinct = dict(zip(keys, schedules))
    rows = {key: row for row, key in enumerate(distinct)}
    tables = [
        _NO_SCHEDULE if schedule is None
        else (
            schedule._cumulative_list, schedule.latencies,
            schedule.total_bytes,
        )
        for schedule in distinct.values()
    ]
    width = max((len(table[0]) for table in tables), default=0)
    thresholds = np.full((len(tables), width), np.inf)
    latencies = np.zeros((len(tables), width + 1))
    stages = np.empty(len(tables), dtype=np.int64)
    totals = np.empty(len(tables))
    for row, (cumulative, stage_latencies, total) in enumerate(tables):
        thresholds[row, : len(cumulative)] = cumulative
        latencies[row, : len(stage_latencies)] = stage_latencies
        stages[row] = len(cumulative)
        totals[row] = total
    row_of = np.fromiter(map(rows.__getitem__, keys), dtype=np.int64, count=n)
    local_rows = np.array(
        [schedule is None for schedule in distinct.values()], dtype=bool
    )
    if (extra[local_rows[row_of]] <= 0).any():
        raise ValueError("local_latency must be positive")
    total = totals[row_of]
    start = np.minimum(start, total)

    # Received bytes never fall below ``start``, so no query sits at an
    # earlier stage than the one ``start`` reaches.
    stage = (thresholds[row_of] <= (start + 1e-9)[:, None]).sum(axis=1)
    latency = latencies[row_of, stage] + extra
    steady = (stage == stages[row_of]) | (rate == 0.0)
    tail_w = [np.flatnonzero(steady)]
    tail_t = [t0[steady]]
    tail_latency = [latency[steady]]
    query_w: list[np.ndarray] = []
    query_latency: list[np.ndarray] = []
    w = np.flatnonzero(~steady)
    t = t0[w]
    while w.size:
        row = row_of[w]
        nudged = np.fmin(total[w], start[w] + rate[w] * t) + 1e-9
        stage = (thresholds[row] <= nudged[:, None]).sum(axis=1)
        latency = latencies[row, stage] + extra[w]
        steady = stage == stages[row]
        if steady.any():
            tail_w.append(w[steady])
            tail_t.append(t[steady])
            tail_latency.append(latency[steady])
        go = ~steady & ~(t + latency > duration)
        w, t, latency = w[go], t[go], latency[go]
        query_w.append(w)
        query_latency.append(latency)
        t = t + (latency + query_gap)

    tail_w = np.concatenate(tail_w)
    tail_latency = np.concatenate(tail_latency)
    tail_counts = _tail_counts(
        np.concatenate(tail_t), tail_latency, query_gap, duration, count_memo
    )
    counts = np.zeros(n, dtype=np.int64)
    counts[tail_w] = tail_counts
    for ws in query_w:
        counts[ws] += 1  # a window completes at most one query per step
    # Every query window-major, in query order: query k of window w sorts
    # at w * (k_max + 2) + k, its steady tail last.
    kept = tail_counts > 0
    span = len(query_w) + 1
    order = np.argsort(
        np.concatenate(
            [ws * (span + 1) + k for k, ws in enumerate(query_w)]
            + [tail_w[kept] * (span + 1) + span]
        ),
        kind="stable",
    )
    run_w = np.concatenate(query_w + [tail_w[kept]])[order]
    run_latency = np.concatenate(query_latency + [tail_latency[kept]])[order]
    run_count = np.concatenate(
        [np.ones(ws.size, dtype=np.int64) for ws in query_w]
        + [tail_counts[kept]]
    )[order]
    if run_w.size:
        new = np.ones(run_w.size, dtype=bool)
        new[1:] = (run_w[1:] != run_w[:-1]) | (
            run_latency[1:] != run_latency[:-1]
        )
        firsts = np.flatnonzero(new)
        run_count = np.add.reduceat(run_count, firsts)
        run_w, run_latency = run_w[firsts], run_latency[firsts]
    # ``min(total, start + rate * duration)``; the values agree with
    # numpy's, but an empty schedule's total is the int 0 (``sum`` of no
    # chunks), which Python's ``min`` hands back as it is.
    end_bytes = np.fmin(total, start + rate * duration).tolist()
    int_rows = [row for row, table in enumerate(tables) if type(table[2]) is int]
    if int_rows:
        for i in np.flatnonzero(np.isin(row_of, int_rows)).tolist():
            end_bytes[i] = min(tables[row_of[i]][2], end_bytes[i])
    return BatchOutcome(counts, end_bytes, run_w, run_latency, run_count)


def _one_window(
    batch: WindowBatch, duration: float, query_gap: float,
    count_memo: dict | None,
) -> WindowOutcome:
    outcome = integrate_windows(batch, duration, query_gap, count_memo)
    return WindowOutcome(
        int(outcome.counts[0]), outcome.end_bytes[0], outcome.runs_of(0)
    )


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
    from the returned ``runs``.  A one-window :func:`integrate_windows`.
    """
    if start_bytes < 0:
        raise ValueError("start_bytes must be non-negative")
    if first_gap < 0:
        raise ValueError("query_gap and first_gap must be non-negative")
    if queue_wait is not None and queue_wait < 0:
        raise ValueError("queue_wait must be non-negative")
    batch = WindowBatch()
    batch.add_served(
        schedule,
        min(start_bytes, schedule.total_bytes),
        uplink_bps / 8.0 if uploading else 0.0,
        first_gap + (queue_wait or 0.0),
        latency_overhead,
    )
    return _one_window(batch, duration, query_gap, count_memo)


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
    window's telemetry.  A one-window :func:`integrate_windows`.
    """
    if local_latency <= 0:
        raise ValueError("local_latency must be positive")
    batch = WindowBatch()
    batch.add_local(local_latency)
    return _one_window(batch, duration, query_gap, count_memo)
