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
* :class:`QueryRecord`, :func:`run_query_window` and
  :func:`run_local_window` — the query-window integrators that
  materialize one record per query;
* :func:`proactive_migrate`, :func:`migrate_to_predicted` and
  :func:`proactive_migrate_batch` — the per-client migration loop;
* :func:`propose_associations` — the per-client
  :func:`~repro.core.association.decide_association` the interval loop
  called before the struct-of-arrays pass.

:func:`patched` installs them on the production modules and classes for
the duration of a ``with`` block.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.association import decide_association
from repro.core.client import MobileClient
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy, MigrationRecord
from repro.faults import record_fault
from repro.geo.wifi import EdgeServerRegistry
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree
from repro.overload.admission import QUEUE_WAIT_BUCKETS
from repro.partitioning.uploading import UploadSchedule
from repro.simulation import large_scale
from repro.simulation.query_loop import QUERY_LATENCY_BUCKETS, WindowOutcome
from repro.telemetry import FractionalTruncationEvent, MigrationEvent
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
    self: MasterServer, client: MobileClient, interval: int
) -> list[MigrationRecord]:
    """Predict the client's next location and push layers ahead (§3.B.2)."""
    if self.policy is not MigrationPolicy.PERDNN:
        return []
    assert self.predictor is not None
    window = client.recent_window()
    if window is None or client.current_server is None:
        return []
    if not self.server_available(client.current_server, interval):
        return []  # the source is dark; nothing can be pushed from it
    if (
        self.fault_schedule is not None
        and not self.fault_schedule.backhaul_available(interval)
    ):
        # Backhaul outage: every proactive transfer is blocked this
        # interval.  Record it once per client — the master retries
        # naturally at the next interval.
        if self.telemetry is not None:
            record_fault(
                self.telemetry, interval, "backhaul_blocked",
                server_id=client.current_server,
                client_id=client.client_id,
            )
        return []
    predicted = self.predictor.predict_point(window)
    return migrate_to_predicted(self, client, interval, predicted)


def proactive_migrate_batch(
    self: MasterServer, clients: Iterable[MobileClient], interval: int
) -> None:
    """Batched predictions, then the per-client transfer tail."""
    if self.policy is not MigrationPolicy.PERDNN:
        return
    assert self.predictor is not None
    eligible: list[tuple[MobileClient, np.ndarray]] = []
    for client in clients:
        window = client.recent_window()
        if window is None or client.current_server is None:
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
        if self.telemetry is not None:
            for client, _ in eligible:
                record_fault(
                    self.telemetry, interval, "backhaul_blocked",
                    server_id=client.current_server,
                    client_id=client.client_id,
                )
        return
    windows = np.stack([window for _, window in eligible])
    predictions = self.predictor.predict_points(windows)
    points = [
        (float(point[0]), float(point[1])) for point in predictions
    ]
    targets_list = self.registry.servers_within_batch(
        points, self.config.migration_radius_m
    )
    for (client, _), point, targets in zip(eligible, points, targets_list):
        migrate_to_predicted(self, client, interval, point, targets)


def scalar_migrate_batch(
    self: MasterServer, clients: Iterable[MobileClient], interval: int
) -> None:
    """The interval loop's scalar migration phase: one call per client."""
    for client in clients:
        proactive_migrate(self, client, interval)


def migrate_to_predicted(
    self: MasterServer,
    client: MobileClient,
    interval: int,
    predicted: tuple[float, float],
    targets: list[int] | None = None,
) -> list[MigrationRecord]:
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
        return []  # nothing to send yet (client still uploading)
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
            if self.telemetry is not None:
                self.telemetry.registry.counter(
                    "resilience.dead_target_skips"
                ).inc()
            continue
        live_targets.append(self.server(target_id))
    slowdowns = self.estimate_slowdowns(live_targets)
    partition = self.partitioner_for(client.client_id).partition
    records: list[MigrationRecord] = []
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
        if (
            self.telemetry is not None
            and needed < future_plan.server_bytes
        ):
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
            if self.telemetry is not None:
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
        record = MigrationRecord(
            client_id=client.client_id,
            source_server=source.server_id,
            target_server=target_id,
            nbytes=delta,
            interval=interval,
        )
        records.append(record)
        self.migrations.append(record)
        if self.telemetry is not None:
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
    return records


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
    association, the per-client query-window phase for every run, the
    record-materializing window integrators, and one
    :func:`proactive_migrate` call per client.  ``predict`` replaces
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
                large_scale, "_batched_query_windows",
                large_scale._per_client_query_windows,
            )
            mp.setattr(large_scale, "run_query_window", run_query_window)
            mp.setattr(large_scale, "run_local_window", run_local_window)
            mp.setattr(
                MasterServer, "proactive_migrate_batch", scalar_migrate_batch
            )
        yield
