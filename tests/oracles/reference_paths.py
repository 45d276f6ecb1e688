"""Oracles for the scalar reference paths the simulator replaced.

Verbatim copies of the code each layer ran before its array-form
production path took over, minus the module-global switch that used to
select them:

* :func:`walk_nodes`, :func:`tree_predict`, :func:`forest_predict` and
  :func:`forest_predict_per_tree` — the per-row Python node walk of
  ``RegressionTree`` and the per-tree ensemble of
  ``RandomForestRegressor``;
* :func:`servers_within` — ``EdgeServerRegistry``'s cell-enumerating
  radius query;
* :func:`registry_from_visited_points` and :func:`servers_for_cells` —
  the registry's allocation and cell lookup on ``np.unique(cells,
  axis=0)`` rows instead of packed integer keys;
* :class:`QueryRecord`, :func:`run_query_window` and
  :func:`run_local_window` — the query-window integrators that
  materialize one record per query;
* :func:`per_client_query_windows` and :func:`plan_for` — the
  one-client-at-a-time query-window phase (overload gate, shedding,
  redirection, degraded plans, routed backhaul) and the master's
  per-client planning call;
* :func:`proactive_migrate`, :func:`migrate_to_predicted` and
  :func:`proactive_migrate_batch` — the per-client migration loop;
* :func:`propose_associations` — the per-client
  :func:`~repro.core.association.decide_association` the interval loop
  called before the struct-of-arrays pass.

:func:`patched` installs them on the production modules and classes for
the duration of a ``with`` block.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.association import decide_association
from repro.core.client import MobileClient
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy
from repro.core.routing import routed_tensors, routing_overhead_seconds
from repro.faults import record_fault
from repro.geo.hexgrid import HexCell, HexGrid
from repro.geo.wifi import EdgeServerRegistry
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree
from repro.overload import (
    SheddingPolicy,
    record_breaker_transition,
)
from repro.overload.admission import QUEUE_WAIT_BUCKETS
from repro.partitioning.partitioner import PartitionResult
from repro.partitioning.uploading import UploadSchedule
from repro.simulation import large_scale
from repro.simulation.query_loop import QUERY_LATENCY_BUCKETS, WindowOutcome
from repro.telemetry import (
    ColdStartEvent,
    FractionalTruncationEvent,
    MigrationEvent,
    QueryWindowEvent,
)
from repro.telemetry.registry import MetricsRegistry


# ----------------------------------------------------------------------
# Forest prediction
# ----------------------------------------------------------------------
def walk_nodes(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Per-row Python node walk (``RegressionTree._walk_nodes``)."""
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def tree_predict(self: RegressionTree, X: np.ndarray) -> np.ndarray:
    """``RegressionTree._predict_reference``: validate, then walk."""
    if self._root is None:
        raise RuntimeError("tree has not been fitted")
    return walk_nodes(self, self._validate_X(X))


def forest_predict(self: RandomForestRegressor, X: np.ndarray) -> np.ndarray:
    """Per-tree node-walk ensemble mean (the pre-vectorization path)."""
    if not self._trees:
        raise RuntimeError("forest has not been fitted")
    X = np.asarray(X, dtype=float)
    predictions = np.stack([tree_predict(tree, X) for tree in self._trees])
    return predictions.mean(axis=0)


def forest_predict_per_tree(
    self: RandomForestRegressor, X: np.ndarray
) -> np.ndarray:
    if not self._trees:
        raise RuntimeError("forest has not been fitted")
    X = self._trees[0]._validate_X(X)
    return np.stack([tree_predict(tree, X) for tree in self._trees])


# ----------------------------------------------------------------------
# Radius query
# ----------------------------------------------------------------------
def servers_within(
    registry: EdgeServerRegistry, point: tuple[float, float], distance: float
) -> list[int]:
    """Reference radius query: enumerate cells, probe the allocation."""
    servers = []
    for cell in registry.grid.cells_within(point, distance):
        server_id = registry.server_for_cell(cell)
        if server_id is not None:
            servers.append(server_id)
    return servers


def registry_from_visited_points(
    grid: HexGrid, points: np.ndarray
) -> EdgeServerRegistry:
    """Reference allocation: one server per visited cell, first-seen ids
    from ``np.unique`` over ``(q, r)`` rows."""
    registry = EdgeServerRegistry(grid)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return registry
    cells = grid.cells_of(pts)
    _, first_seen = np.unique(cells, axis=0, return_index=True)
    for i in np.sort(first_seen):
        registry.ensure_server(HexCell(int(cells[i, 0]), int(cells[i, 1])))
    return registry


def servers_for_cells(
    registry: EdgeServerRegistry, cells: np.ndarray
) -> np.ndarray:
    """Reference cell lookup: one dict probe per ``np.unique`` row."""
    cells = np.asarray(cells)
    if cells.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    unique, inverse = np.unique(cells, axis=0, return_inverse=True)
    lut = np.fromiter(
        (
            registry._cell_to_server.get(HexCell(int(q), int(r)), -1)
            for q, r in unique
        ),
        dtype=np.int64,
        count=unique.shape[0],
    )
    return lut[inverse.reshape(-1)]


# ----------------------------------------------------------------------
# Query windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRecord:
    """One executed query."""

    start_time: float  # seconds from window start
    latency: float
    received_bytes: float  # upload progress when the query started


@dataclass(frozen=True)
class RecordedWindow(WindowOutcome):
    """A :class:`WindowOutcome` that also carries every query's record."""

    queries: tuple[QueryRecord, ...] = ()


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
) -> RecordedWindow:
    """The scalar query loop, one :class:`QueryRecord` per query.

    ``count_memo`` is accepted for call compatibility and unused.
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
    records: list[QueryRecord] = []
    t = first_gap + (queue_wait or 0.0)
    while True:
        received = min(total, start_bytes + byte_rate * t)
        latency = schedule.latency_after_bytes(received) + latency_overhead
        if t + latency > duration:
            break
        records.append(
            QueryRecord(start_time=t, latency=latency, received_bytes=received)
        )
        t += latency + query_gap
    end_bytes = min(total, start_bytes + byte_rate * duration)
    if telemetry is not None:
        telemetry.counter("query.windows").inc()
        if queue_wait is not None:
            telemetry.histogram(
                "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
            ).observe(queue_wait)
        if records:
            telemetry.counter("query.completed").inc(len(records))
            latencies = telemetry.histogram(
                "query.latency_seconds", QUERY_LATENCY_BUCKETS
            )
            for record in records:
                latencies.observe(record.latency)
    return RecordedWindow(
        count=len(records), end_bytes=end_bytes, queries=tuple(records)
    )


def run_local_window(
    local_latency: float,
    duration: float,
    query_gap: float,
    telemetry: MetricsRegistry | None = None,
    record_fallback: bool = True,
    count_memo: dict | None = None,
) -> RecordedWindow:
    """The scalar on-device loop, one :class:`QueryRecord` per query."""
    if local_latency <= 0:
        raise ValueError("local_latency must be positive")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    records: list[QueryRecord] = []
    t = 0.0
    while t + local_latency <= duration:
        records.append(
            QueryRecord(start_time=t, latency=local_latency, received_bytes=0.0)
        )
        t += local_latency + query_gap
    if telemetry is not None:
        telemetry.counter("query.windows").inc()
        if records:
            telemetry.counter("query.completed").inc(len(records))
            if record_fallback:
                telemetry.counter("query.local_fallback").inc(len(records))
            latencies = telemetry.histogram(
                "query.latency_seconds", QUERY_LATENCY_BUCKETS
            )
            for record in records:
                latencies.observe(record.latency)
    return RecordedWindow(
        count=len(records), end_bytes=0.0, queries=tuple(records)
    )


# ----------------------------------------------------------------------
# Query-window phase
# ----------------------------------------------------------------------
def plan_for(
    master: MasterServer, server: EdgeServer, client_id: int | None = None
) -> PartitionResult:
    """``MasterServer.plan_for``: one client's current plan (§3.B.1).

    Counts ``master.plan.calls`` as the master's scoped planning timer
    did (its wall-clock side never entered the bytes).
    """
    master.telemetry.registry.counter("master.plan.calls").inc()
    return master.partitioner_for(client_id).partition(
        master.estimate_slowdown(server)
    )


def per_client_query_windows(run: large_scale._Run) -> None:
    """Phase 3 (query windows), one client at a time.

    With ``run.admission`` the breaker, admission control and shedding
    policy decide per client whether (and where, and under which plan)
    its window is served, and ``run.routing`` meters each client's relayed
    tensors over the backhaul.  A client's position is read from
    ``run.table`` by scalar index.  ``large_scale._query_windows`` batches
    this loop; the equivalence suites pin the two byte for byte.
    """
    active, master, metrics = run.active, run.master, run.metrics
    telemetry, config, interval = run.telemetry, run.config, run.interval
    step, optimal, routing = run.step, run.optimal, run.routing
    faults_on, fault_schedule = run.faults_on, run.fault_schedule
    local_this_step = run.local_this_step
    associated_this_step = run.associated_this_step
    count_memo, admission = run.count_memo, run.admission
    overload_on = admission is not None
    overload_cfg = admission.config if overload_on else None
    registry = master.registry
    grid = registry.grid
    meter = master.traffic_meter
    table = run.table

    def position_of(client: MobileClient) -> list[float]:
        return table.points[table.starts[client.client_id] + step].tolist()

    for client in active:
        if faults_on:
            metrics.counter("resilience.client_intervals").inc()
            if client.client_id in local_this_step:
                # Graceful degradation: every query still completes,
                # on-device at the partitioner's all-local latency.
                client_partitioner = master.partitioner_for(
                    client.client_id
                )
                outcome = run_local_window(
                    client_partitioner.local_latency(),
                    interval,
                    config.query_gap_seconds,
                    telemetry=metrics,
                    count_memo=count_memo,
                )
                metrics.counter("resilience.local_intervals").inc()
                metrics.counter(
                    "sim.queries",
                    {"model": client_partitioner.graph.name},
                ).inc(outcome.count)
                telemetry.trace.record(
                    QueryWindowEvent(
                        interval=step,
                        client_id=client.client_id,
                        server_id=None,
                        queries=outcome.count,
                        coldstart=False,
                        end_bytes=0.0,
                    )
                )
                continue
        assert client.current_server is not None
        server = master.server(client.current_server)
        # Overload protection: breaker gate, then admission control,
        # then the shedding policy.  ``overload_label`` partitions every
        # offered window into admitted/shed/redirected/degraded.
        overload_label: str | None = None
        queue_wait: float | None = None
        if overload_on:
            metrics.counter("overload.offered").inc()
            breaker = client.breaker_for(
                server.server_id,
                overload_cfg.breaker_failure_threshold,
                overload_cfg.breaker_open_intervals,
            )
            before = breaker.state
            allowed = breaker.allows(step)
            record_breaker_transition(
                telemetry, step, client.client_id, server.server_id,
                before, breaker.state,
            )
            decision = admission.try_admit(server) if allowed else None
            if decision is not None and decision.admitted:
                before = breaker.state
                breaker.record_success(step)
                record_breaker_transition(
                    telemetry, step, client.client_id, server.server_id,
                    before, breaker.state,
                )
                overload_label = "admitted"
                queue_wait = decision.queue_wait
            elif (
                decision is not None
                and overload_cfg.policy is SheddingPolicy.DEGRADE
            ):
                # Still served here, under a client-heavier plan; the
                # breaker stays untouched — the query was not refused.
                overload_label = "degraded"
            else:
                # Rejected (queue full) or skipped (breaker open).
                if decision is not None:
                    before = breaker.state
                    breaker.record_failure(step)
                    record_breaker_transition(
                        telemetry, step, client.client_id,
                        server.server_id, before, breaker.state,
                    )
                target_id = None
                if overload_cfg.policy is SheddingPolicy.REDIRECT:
                    target_id = master.redirect_target(
                        position_of(client), step,
                        overload_cfg.redirect_radius_m,
                        exclude=(server.server_id,),
                        admission=admission,
                    )
                if target_id is not None:
                    target = master.server(target_id)
                    target_decision = admission.try_admit(target)
                    assert target_decision.admitted
                    server = target  # served by the neighbour
                    overload_label = "redirected"
                    queue_wait = target_decision.queue_wait
                else:
                    overload_label = "shed"
            metrics.counter(f"overload.{overload_label}").inc()
        if overload_label == "shed":
            # Load shedding: the window completes on the client, at
            # the all-local latency — no query is ever dropped.
            client_partitioner = master.partitioner_for(client.client_id)
            outcome = run_local_window(
                client_partitioner.local_latency(),
                interval,
                config.query_gap_seconds,
                telemetry=metrics,
                record_fallback=False,
                count_memo=count_memo,
            )
            metrics.counter(
                "overload.queries", {"outcome": "shed"}
            ).inc(outcome.count)
            metrics.counter(
                "sim.queries", {"model": client_partitioner.graph.name}
            ).inc(outcome.count)
            telemetry.trace.record(
                QueryWindowEvent(
                    interval=step,
                    client_id=client.client_id,
                    server_id=None,
                    queries=outcome.count,
                    coldstart=False,
                    end_bytes=0.0,
                )
            )
            continue
        if overload_label == "degraded":
            plan = master.partitioner_for(client.client_id).degraded(
                master.estimate_slowdown(server),
                overload_cfg.degrade_inflation,
            )
        else:
            plan = plan_for(master, server, client.client_id)
        total_bytes = plan.server_bytes
        if optimal:
            cached = total_bytes
        else:
            cached = min(
                server.cached_bytes(
                    client.client_id, client.model_version
                ),
                total_bytes,
            )
        # Redirected windows are served away from the association, so
        # they carry no cold-start verdict for the associated server.
        if (
            client.client_id in associated_this_step
            and overload_label != "redirected"
        ):
            threshold = config.hit_byte_fraction * total_bytes
            hit = total_bytes <= 0 or cached + 1e-6 >= threshold
            coldstart_label = "hit" if hit else "miss"
            metrics.counter("sim.cold_start", {"outcome": coldstart_label}).inc()
            telemetry.trace.record(
                ColdStartEvent(
                    interval=step,
                    client_id=client.client_id,
                    server_id=server.server_id,
                    hit=hit,
                    cached_bytes=cached,
                    required_bytes=total_bytes,
                )
            )
        overhead = 0.0
        hops = 0
        tensors = None
        if routing:
            access_cell = grid.cell_of(position_of(client))
            home_cell = registry.cell_of_server(server.server_id)
            hops = grid.hop_distance(access_cell, home_cell)
            tensors = routed_tensors(plan.costs, plan.plan)
            overhead = routing_overhead_seconds(config, hops, tensors)
        uploading = not optimal
        uplink_bps = config.network.uplink_bps
        if faults_on and uploading:
            if not client.upload_allowed(step):
                uploading = False  # backing off after dropped uploads
            else:
                if client.upload_failures > 0:
                    metrics.counter("resilience.retries").inc()
                if fault_schedule.upload_dropped(client.client_id, step):
                    client.record_upload_drop(step)
                    record_fault(
                        telemetry, step, "upload_drop",
                        server_id=client.current_server,
                        client_id=client.client_id,
                    )
                    uploading = False
                else:
                    client.record_upload_success()
                    factor = fault_schedule.uplink_factor(step)
                    if factor < 1.0:
                        uplink_bps = config.network.degraded(
                            factor
                        ).uplink_bps
        outcome = run_query_window(
            plan.schedule,
            start_bytes=cached,
            uplink_bps=uplink_bps,
            duration=interval,
            query_gap=config.query_gap_seconds,
            uploading=uploading,
            latency_overhead=overhead,
            queue_wait=queue_wait,
            telemetry=metrics,
            count_memo=count_memo,
        )
        if routing and hops > 0 and outcome.count and tensors is not None:
            access_server = registry.server_at(position_of(client))
            if access_server is not None and access_server != server.server_id:
                if tensors.uplink_bytes > 0:
                    meter.record(
                        step, access_server, server.server_id,
                        outcome.count * tensors.uplink_bytes,
                    )
                if tensors.downlink_bytes > 0:
                    meter.record(
                        step, server.server_id, access_server,
                        outcome.count * tensors.downlink_bytes,
                    )
        model_name = master.partitioner_for(client.client_id).graph.name
        metrics.counter("sim.queries", {"model": model_name}).inc(
            outcome.count
        )
        if overload_label is not None:
            metrics.counter(
                "overload.queries", {"outcome": overload_label}
            ).inc(outcome.count)
        coldstart = client.client_id in associated_this_step
        if coldstart:
            metrics.counter("sim.coldstart_queries").inc(outcome.count)
        telemetry.trace.record(
            QueryWindowEvent(
                interval=step,
                client_id=client.client_id,
                server_id=server.server_id,
                queries=outcome.count,
                coldstart=coldstart,
                end_bytes=outcome.end_bytes,
            )
        )
        if not optimal:
            delta = outcome.end_bytes - cached
            if delta > 0:
                server.add_bytes(
                    client.client_id, delta, step, config.ttl_intervals,
                    client.model_version,
                )
            else:
                server.refresh_ttl(
                    client.client_id, step, config.ttl_intervals,
                    client.model_version,
                )


# ----------------------------------------------------------------------
# Proactive migration
# ----------------------------------------------------------------------
def byte_budget(
    self: MasterServer, source_id: int, target_id: int, plan_bytes: float
) -> float:
    """Fractional migration: crowded endpoints cap the transfer."""
    if source_id in self.crowded_servers or target_id in self.crowded_servers:
        return min(plan_bytes, self.crowded_byte_budget)
    return plan_bytes


def proactive_migrate(
    self: MasterServer, client: MobileClient, window: np.ndarray, interval: int
) -> None:
    """Predict the client's next location from its ``(history, 2)``
    mobility window and push layers ahead (§3.B.2)."""
    if self.policy is not MigrationPolicy.PERDNN:
        return
    assert self.predictor is not None
    if client.current_server is None:
        return
    if not self.server_available(client.current_server, interval):
        return  # the source is dark; nothing can be pushed from it
    if (
        self.fault_schedule is not None
        and not self.fault_schedule.backhaul_available(interval)
    ):
        # Backhaul outage: every proactive transfer is blocked this
        # interval.  Record it once per client — the master retries
        # naturally at the next interval.
        record_fault(
            self.telemetry, interval, "backhaul_blocked",
            server_id=client.current_server,
            client_id=client.client_id,
        )
        return
    predicted = self.predictor.predict_point(window)
    migrate_to_predicted(self, client, interval, predicted)


def proactive_migrate_batch(
    self: MasterServer,
    clients: Sequence[MobileClient],
    windows: np.ndarray,
    interval: int,
) -> None:
    """Batched predictions, then the per-client transfer tail."""
    if self.policy is not MigrationPolicy.PERDNN:
        return
    assert self.predictor is not None
    eligible: list[tuple[MobileClient, np.ndarray]] = []
    for index, client in enumerate(clients):
        window = windows[index]
        if client.current_server is None:
            continue
        if not self.server_available(client.current_server, interval):
            continue
        eligible.append((client, window))
    if not eligible:
        return
    if (
        self.fault_schedule is not None
        and not self.fault_schedule.backhaul_available(interval)
    ):
        for client, _ in eligible:
            record_fault(
                self.telemetry, interval, "backhaul_blocked",
                server_id=client.current_server,
                client_id=client.client_id,
            )
        return
    predictions = self.predictor.predict_points(
        np.stack([window for _, window in eligible])
    )
    points = [
        (float(point[0]), float(point[1])) for point in predictions
    ]
    targets_list = self.registry.servers_within_batch(
        points, self.config.migration_radius_m
    )
    for (client, _), point, targets in zip(eligible, points, targets_list):
        migrate_to_predicted(self, client, interval, point, targets)


def scalar_migrate_batch(
    self: MasterServer,
    clients: Sequence[MobileClient],
    windows: np.ndarray,
    interval: int,
) -> None:
    """The interval loop's scalar migration phase: one call per client,
    each with its own window."""
    for index, client in enumerate(clients):
        proactive_migrate(self, client, windows[index], interval)


def migrate_to_predicted(
    self: MasterServer,
    client: MobileClient,
    interval: int,
    predicted: tuple[float, float],
    targets: list[int] | None = None,
) -> None:
    """Transfer layers toward one client's predicted next location.

    ``targets`` lets the batched caller hand in a precomputed
    ``servers_within(predicted, migration_radius_m)`` row.
    """
    if targets is None:
        targets = self.registry.servers_within(
            predicted, self.config.migration_radius_m
        )
    source = self.server(client.current_server)
    version = client.model_version
    source_bytes = source.cached_bytes(client.client_id, version)
    if source_bytes <= 0:
        return  # nothing to send yet (client still uploading)
    backhaul_factor = (
        self.fault_schedule.backhaul_factor(interval)
        if self.fault_schedule is not None else 1.0
    )
    # Live targets are resolved first so all their GPU pings happen in
    # one batched slowdown prediction; the per-target transfer work
    # below draws no randomness, so the batched ping order equals the
    # scalar loop's order and same-seed runs are unchanged.
    live_targets: list[EdgeServer] = []
    for target_id in targets:
        if target_id == source.server_id:
            continue
        if not self.server_available(target_id, interval):
            # Dead servers get no future plans — migrating to them
            # would burn backhaul bytes into the void.
            self.telemetry.registry.counter(
                "resilience.dead_target_skips"
            ).inc()
            continue
        live_targets.append(self.server(target_id))
    slowdowns = self.estimate_slowdowns(live_targets)
    partition = self.partitioner_for(client.client_id).partition
    for target in live_targets:
        target_id = target.server_id
        # Future partitioning plan, with the *current* GPU workload of
        # the target (assumed stable over the next interval, §3.C.2).
        future_plan = partition(slowdowns[target_id])
        needed = byte_budget(
            self, source.server_id, target_id, future_plan.server_bytes
        )
        if backhaul_factor < 1.0:
            # Degraded backhaul: only a fraction of the plan fits in
            # this interval's transfer budget (fractional migration
            # under duress, same mechanism as crowded servers).
            needed = min(needed, backhaul_factor * future_plan.server_bytes)
        if needed < future_plan.server_bytes:
            self.telemetry.trace.record(
                FractionalTruncationEvent(
                    interval=interval,
                    client_id=client.client_id,
                    source_server=source.server_id,
                    target_server=target_id,
                    plan_bytes=future_plan.server_bytes,
                    budget_bytes=needed,
                )
            )
            self.telemetry.registry.counter(
                "migration.fractional_truncations"
            ).inc()
        already = target.cached_bytes(client.client_id, version)
        if already >= needed - 1e-6:
            # Duplicate send avoided; just reset the TTL (§3.B.2).
            target.refresh_ttl(
                client.client_id, interval, self.config.ttl_intervals,
                version,
            )
            continue
        # Send as much as the source holds, up to what is needed.
        sendable = min(needed, source_bytes)
        delta = sendable - already
        if delta <= 0:
            target.refresh_ttl(
                client.client_id, interval, self.config.ttl_intervals,
                version,
            )
            continue
        if (
            self.fault_schedule is not None
            and self.fault_schedule.migration_dropped(
                client.client_id, source.server_id, target_id, interval
            )
        ):
            # The transfer fails in flight: no bytes land, no traffic
            # is billed.  The master retries at the next interval's
            # proactive pass (the target still lacks the bytes).
            record_fault(
                self.telemetry, interval, "migration_drop",
                server_id=target_id, client_id=client.client_id,
            )
            continue
        target.add_bytes(
            client.client_id, delta, interval, self.config.ttl_intervals,
            version,
        )
        if self.traffic_meter is not None:
            self.traffic_meter.record(
                interval, source.server_id, target_id, delta
            )
        self.telemetry.registry.counter("migration.count").inc()
        self.telemetry.registry.counter("migration.bytes").inc(delta)
        self.telemetry.trace.record(
            MigrationEvent(
                interval=interval,
                client_id=client.client_id,
                source_server=source.server_id,
                target_server=target_id,
                nbytes=delta,
            )
        )


# ----------------------------------------------------------------------
# Association
# ----------------------------------------------------------------------
def propose_associations(
    registry: EdgeServerRegistry,
    positions: np.ndarray,
    current: np.ndarray,
    hysteresis_m: float,
) -> np.ndarray:
    """One :func:`decide_association` call per client, in client order."""
    out = np.empty(positions.shape[0], dtype=np.int64)
    for i, (x, y) in enumerate(positions.tolist()):
        server = int(current[i])
        proposed = decide_association(
            registry, (x, y), None if server < 0 else server, hysteresis_m
        )
        out[i] = -1 if proposed is None else proposed
    return out


@contextmanager
def patched(
    *, simulate: bool = True, predict: bool = True, migrate: bool = True
) -> Iterator[None]:
    """Run the block on the reference paths.

    ``simulate`` replaces the interval loop's array passes: per-client
    association, :func:`per_client_query_windows` for every run (plain,
    fault, overload and routing), the record-materializing window
    integrators, and one :func:`proactive_migrate` call per client.  ``predict`` replaces
    forest prediction with the node walk; ``migrate`` replaces the
    array-form migration tail with :func:`migrate_to_predicted` (the
    per-client ``simulate`` migration phase takes precedence).

    Forked shard workers inherit the patches, so sharded runs at
    ``workers > 1`` use the oracles too.
    """
    with pytest.MonkeyPatch.context() as mp:
        if predict:
            mp.setattr(RegressionTree, "predict", tree_predict)
            mp.setattr(RandomForestRegressor, "predict", forest_predict)
            mp.setattr(
                RandomForestRegressor, "predict_per_tree",
                forest_predict_per_tree,
            )
        if migrate:
            mp.setattr(
                MasterServer, "proactive_migrate_batch",
                proactive_migrate_batch,
            )
        if simulate:
            mp.setattr(
                large_scale, "propose_associations", propose_associations
            )
            mp.setattr(
                large_scale, "_query_windows", per_client_query_windows
            )
            mp.setattr(large_scale, "run_query_window", run_query_window)
            mp.setattr(large_scale, "run_local_window", run_local_window)
            mp.setattr(
                MasterServer, "proactive_migrate_batch", scalar_migrate_batch
            )
        yield
