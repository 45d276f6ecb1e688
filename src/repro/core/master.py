"""The master server: planning, prediction, and proactive migration (§3.B).

The master keeps the global view: the server registry (Wi-Fi database), a
lazily-instantiated :class:`~repro.core.edge_server.EdgeServer` per
allocated cell, the GPU-aware execution-time estimator, one
:class:`~repro.partitioning.partitioner.DNNPartitioner` per DNN profile,
and the mobility predictor.  Every simulation interval it:

1. answers *current partitioning plan* requests using the pinged GPU
   statistics of the client's current server, and
2. predicts each client's next location, derives *future partitioning
   plans* for all servers within the migration radius of the prediction,
   and schedules backhaul transfers of the server-side layers from the
   client's current server (fractionally, for crowded servers).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.core.client import MobileClient
from repro.core.config import PerDNNConfig
from repro.core.edge_server import CachedModel, EdgeServer
from repro.estimation.estimator import ContentionEstimator
from repro.faults import FaultSchedule, record_fault
from repro.geo.wifi import EdgeServerRegistry
from repro.mobility.predictor import PointPredictor
from repro.network.traffic import TrafficMeter
from repro.partitioning.partitioner import DNNPartitioner
from repro.telemetry import (
    CacheEvictionEvent,
    FractionalTruncationEvent,
    MigrationEvent,
    NullEventTrace,
    Telemetry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overload.admission import AdmissionController


class MigrationPolicy(str, Enum):
    """What the system does ahead of a client's next move."""

    NONE = "none"  # IONN baseline: no proactive transmission
    PERDNN = "perdnn"  # predict + migrate within the radius
    OPTIMAL = "optimal"  # oracle: every server always holds every model
    ROUTING = "routing"  # §3.A alternative: stay on the first server,
    # relay queries over the backhaul as the user moves


class MasterServer:
    """Global controller for one simulated region."""

    def __init__(
        self,
        registry: EdgeServerRegistry,
        partitioner: DNNPartitioner | Mapping[int, DNNPartitioner],
        config: PerDNNConfig,
        rng: np.random.Generator,
        predictor: PointPredictor | None = None,
        contention_estimator: ContentionEstimator | None = None,
        policy: MigrationPolicy = MigrationPolicy.PERDNN,
        traffic_meter: TrafficMeter | None = None,
        crowded_servers: frozenset[int] = frozenset(),
        crowded_byte_budget: float = float("inf"),
        telemetry: Telemetry | None = None,  # None: a fresh Telemetry
        fault_schedule: FaultSchedule | None = None,
    ) -> None:
        if policy is MigrationPolicy.PERDNN and predictor is None:
            raise ValueError("PERDNN policy requires a mobility predictor")
        self.registry = registry
        self.partitioner = partitioner
        self.config = config
        self.policy = policy
        self.predictor = predictor
        self.contention_estimator = contention_estimator
        self.traffic_meter = traffic_meter
        self.crowded_servers = crowded_servers
        self.crowded_byte_budget = crowded_byte_budget
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.create()
        )
        self.fault_schedule = fault_schedule
        self._rng = rng
        self._servers: dict[int, EdgeServer] = {}
        self._slowdown_cache: dict[int, float] = {}
        # (interval, registry id list, live servers) of the last redirect.
        self._live: (
            tuple[int, list[int], list[tuple[int, float, float]]] | None
        ) = None

    # ------------------------------------------------------------------
    # Server management
    # ------------------------------------------------------------------
    def server(self, server_id: int) -> EdgeServer:
        existing = self._servers.get(server_id)
        if existing is not None:
            return existing
        cell = self.registry.cell_of_server(server_id)
        server = EdgeServer(
            server_id, cell, self._rng, telemetry=self.telemetry.registry
        )
        self._servers[server_id] = server
        return server

    @property
    def instantiated_servers(self) -> list[EdgeServer]:
        return list(self._servers.values())

    def server_available(self, server_id: int, interval: int) -> bool:
        """Is the server up at ``interval`` under the run's fault schedule?"""
        if self.fault_schedule is None:
            return True
        return server_id not in self.fault_schedule.servers_down(interval)

    def crash_server(self, server_id: int) -> int:
        """Wipe a crashed server's state; returns the cached models lost.

        Servers never instantiated (no clients, no cache) lose nothing.
        """
        server = self._servers.get(server_id)
        return server.crash() if server is not None else 0

    # ------------------------------------------------------------------
    # Load-aware redirection (overload protection)
    # ------------------------------------------------------------------
    def association_load(self, server_id: int) -> int:
        """Instantaneous client load on a server (0 if never instantiated).

        Reading the load does not instantiate the server.  An admission
        scan in :meth:`redirect_target` does: it wakes every live
        candidate in reach (instantiates it and opens its admission
        queue, so each gets an ``overload.queue_depth`` gauge that
        interval).  That side effect is part of the run's telemetry
        bytes, so it stays; probing without waking would be a telemetry
        change of its own.
        """
        server = self._servers.get(server_id)
        return len(server.active_clients) if server is not None else 0

    def _live_servers(self, interval: int) -> list[tuple[int, float, float]]:
        """``(server id, centre x, centre y)`` of every server up at
        ``interval``, in cell-sorted order.

        Built on the interval's first redirect and reused until the
        interval (or the registry) changes.
        """
        ids, xs, ys = self.registry.cell_sorted_centres()
        cached = self._live
        if cached is not None and cached[0] == interval and cached[1] is ids:
            return cached[2]
        down = (
            self.fault_schedule.servers_down(interval)
            if self.fault_schedule is not None else frozenset()
        )
        live = [
            (server_id, x, y)
            for server_id, x, y in zip(ids, xs, ys)
            if server_id not in down
        ]
        self._live = (interval, ids, live)
        return live

    def redirect_target(
        self,
        position: tuple[float, float],
        interval: int,
        radius_m: float,
        exclude: Iterable[int] = (),
        admission: AdmissionController | None = None,
    ) -> int | None:
        """Least-loaded reachable live server for a redirected client.

        Candidates are the servers within ``radius_m`` of ``position``
        that are up at ``interval``, minus ``exclude`` (typically the
        saturated home server).  Without ``admission`` the load is the
        client count (crash-time steering).  With it the load is the
        server's queue depth, and a candidate needs open capacity: each
        one in reach is woken (``master.server(id)``, which opens its
        admission queue) in cell-sorted order, once.

        The scan walks the interval's live list and applies the exact
        ``math.hypot(...) <= radius_m`` test of
        :meth:`EdgeServerRegistry.servers_near`, so candidates, order and
        distances match it; the lowest ``(load, distance, server id)``
        wins.  A queue's capacity is fixed at first touch and its depth
        only rises until :meth:`AdmissionController.begin_interval`, so a
        server found full is dropped from the controller's candidates for
        the rest of its interval (it was already woken, so nothing with
        a side effect is skipped).  Returns ``None`` when no candidate
        qualifies.
        """
        if radius_m < 0:
            raise ValueError("distance must be non-negative")
        live = self._live_servers(interval)
        x, y = float(position[0]), float(position[1])
        excluded = set(exclude)
        hypot = math.hypot
        best: tuple[float, float, int] | None = None
        if admission is None:
            for server_id, cx, cy in live:
                if server_id in excluded:
                    continue
                distance = hypot(cx - x, cy - y)
                if distance > radius_m:
                    continue
                key = (self.association_load(server_id), distance, server_id)
                if best is None or key < best:
                    best = key
            return None if best is None else best[2]
        pool = admission.redirect_pool
        if pool is None or pool[0] is not live:
            pool = admission.redirect_pool = (
                live,
                [[server_id, cx, cy, None] for server_id, cx, cy in live],
            )
        candidates = pool[1]
        full = []
        for entry in candidates:
            server_id, cx, cy, queue = entry
            if server_id in excluded:
                continue
            distance = hypot(cx - x, cy - y)
            if distance > radius_m:
                continue
            if queue is None:
                # Wake: instantiate the server and open its queue.
                queue = entry[3] = admission.queue(self.server(server_id))
            depth, capacity = queue
            if depth >= capacity:
                full.append(entry)
                continue
            key = (depth, distance, server_id)
            if best is None or key < best:
                best = key
        for entry in full:
            candidates.remove(entry)
        return None if best is None else best[2]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def begin_interval(self) -> None:
        """Reset per-interval memoization (GPU stats are re-pinged once per
        server per interval, matching the 'stable within 30 s' assumption)."""
        self._slowdown_cache.clear()

    def estimate_slowdown(self, server: EdgeServer) -> float:
        """The master's view of a server's GPU contention.

        With a trained estimator, the master pings the server for nvml
        statistics and predicts the slowdown (the paper's GPU-aware path);
        without one it falls back to the analytic expectation.  Memoized per
        interval — call :meth:`begin_interval` at each simulation step.
        """
        cached = self._slowdown_cache.get(server.server_id)
        if cached is not None:
            return cached
        self.telemetry.registry.counter("master.gpu_pings").inc()
        if self.contention_estimator is not None:
            slowdown = self.contention_estimator.predict_slowdown(
                server.sample_stats()
            )
        else:
            slowdown = server.contention.expected_slowdown_for_clients(
                len(server.active_clients)
            )
        self._slowdown_cache[server.server_id] = slowdown
        return slowdown

    def estimate_slowdowns(
        self, servers: Iterable[EdgeServer]
    ) -> dict[int, float]:
        """Batched :meth:`estimate_slowdown` over many candidate servers.

        Pings every not-yet-memoized server once (in iteration order, so
        the shared RNG consumes noise draws in exactly the sequence the
        scalar path would) and predicts all slowdowns in a single forest
        call; already-cached servers are returned from the per-interval
        memo.  ``master.gpu_pings`` advances by the number of fresh pings,
        matching the scalar path's one-increment-per-uncached-server
        semantics, and each predicted value is bit-identical to what
        :meth:`estimate_slowdown` would have produced — batching is a pure
        wall-clock optimization.
        """
        out: dict[int, float] = {}
        # Keyed by server id: a repeated server is pinged once, and dict
        # order keeps the first-seen ping order.
        pending: dict[int, EdgeServer] = {}
        for server in servers:
            cached = self._slowdown_cache.get(server.server_id)
            if cached is not None:
                out[server.server_id] = cached
            else:
                pending.setdefault(server.server_id, server)
        if not pending:
            return out
        self.telemetry.registry.counter("master.gpu_pings").inc(len(pending))
        if self.contention_estimator is not None:
            stats = [server.sample_stats() for server in pending.values()]
            slowdowns = self.contention_estimator.predict_slowdown_batch(
                stats
            )
            for server, slowdown in zip(pending.values(), slowdowns):
                value = float(slowdown)
                self._slowdown_cache[server.server_id] = value
                out[server.server_id] = value
        else:
            for server in pending.values():
                value = server.contention.expected_slowdown_for_clients(
                    len(server.active_clients)
                )
                self._slowdown_cache[server.server_id] = value
                out[server.server_id] = value
        return out

    def partitioner_for(self, client_id: int | None = None) -> DNNPartitioner:
        """The partitioner of one client's DNN model.

        Every client has its own (personal, non-shared) model in the paper;
        homogeneous simulations pass a single partitioner, heterogeneous
        ones a mapping from client id to that client's partitioner.
        """
        if isinstance(self.partitioner, Mapping):
            if client_id is None:
                raise ValueError(
                    "client_id required with per-client partitioners"
                )
            return self.partitioner[client_id]
        return self.partitioner

    # ------------------------------------------------------------------
    # Proactive migration
    # ------------------------------------------------------------------
    def proactive_migrate_batch(
        self,
        clients: Sequence[MobileClient],
        windows: np.ndarray,
        interval: int,
    ) -> None:
        """Predict every client's next location and push layers ahead (§3.B.2).

        ``windows`` is ``(len(clients), prediction_history, 2)``: each
        client's last positions, oldest first.  Clients without a server,
        or on a dark server, are skipped.  A backhaul outage blocks every
        transfer of the interval (one ``backhaul_blocked`` fault per
        eligible client; the master retries at the next interval).
        Otherwise all next locations come from a single
        :meth:`PointPredictor.predict_points` call (whose per-row output is
        bit-identical to the scalar ``predict_point`` — the predictors
        compute row-independently) and :meth:`_migrate_batch` pushes the
        server-side layers to every live server within the migration
        radius of each prediction.
        """
        if self.policy is not MigrationPolicy.PERDNN:
            return
        assert self.predictor is not None
        eligible: list[MobileClient] = []
        rows: list[int] = []
        for row, client in enumerate(clients):
            server_id = client.current_server
            if server_id is None or not self.server_available(
                server_id, interval
            ):
                continue
            eligible.append(client)
            rows.append(row)
        if not eligible:
            return
        if (
            self.fault_schedule is not None
            and not self.fault_schedule.backhaul_available(interval)
        ):
            for client in eligible:
                record_fault(
                    self.telemetry, interval, "backhaul_blocked",
                    server_id=client.current_server,
                    client_id=client.client_id,
                )
            return
        predictions = self.predictor.predict_points(windows[rows])
        # One chunked radius query for every predicted location; each row
        # equals the scalar ``servers_within`` call.
        targets_list = self.registry.servers_within_batch(
            predictions.tolist(), self.config.migration_radius_m
        )
        self._migrate_batch(eligible, targets_list, interval)

    def _migrate_batch(
        self,
        clients: list[MobileClient],
        targets_list: list[list[int]],
        interval: int,
    ) -> None:
        """Push each client's server-side layers to its live targets.

        Per (client, target) pair, in client order: the target should
        hold the client's future plan at the target's current slowdown
        (§3.C.2), capped by the crowded-server budget and the backhaul
        factor (fractional migration, recorded as a truncation).  The
        source sends what the target lacks, up to what the source holds;
        a target that already holds enough only has its TTL refreshed
        (duplicate send avoided, §3.B.2), a dropped transfer lands
        nothing, and dead targets are skipped.

        The work is laid out for throughput, byte-identical to a
        per-client transfer loop (the equivalence tests keep one as
        their oracle):

        * **Pass 1** (client order) resolves each client's source and
          live targets, instantiating servers in the scalar loop's order
          (``step_gpu``/``expire`` iteration and traces depend on it);
        * **Pass 2** predicts every fresh target's slowdown in one
          :meth:`estimate_slowdowns` call; first-seen order across
          clients is the scalar loop's ping order, so the shared RNG
          draws the same noise sequence;
        * **Pass 3** probes one plan per distinct ``(partitioner,
          target)`` pair, adding the skipped per-client calls to the plan
          cache's hit counter (each would hit the same key: slowdowns are
          memoized per interval), and computes the ``sendable`` caps in
          one vectorized ``minimum`` (IEEE-identical to the scalar
          ``min``);
        * **Pass 4** replays the order-sensitive state in (client,
          target) order: cache entries, TTL refreshes, traffic records,
          float-counter increments (accumulation order matters) and
          trace events.

        Int counters (dead-target skips, cache lookups, migrations,
        truncations) are exact under batching: each is tallied and added
        once.  Crowded-server runs fall back to per-pair budget arithmetic
        (budgets then depend on the *source* too, which the
        per-(partitioner, target) grouping cannot capture); the
        expressions match the scalar path exactly, so bytes still agree.
        """
        fault_schedule = self.fault_schedule
        telemetry = self.telemetry
        registry = telemetry.registry
        backhaul_factor = (
            fault_schedule.backhaul_factor(interval)
            if fault_schedule is not None else 1.0
        )
        faults_on = fault_schedule is not None
        # Pass 1: sources and live targets, in client order.
        pending: list[
            tuple[MobileClient, EdgeServer, float, list[EdgeServer]]
        ] = []
        dead_skips = hits = misses = 0
        ping_order: list[EdgeServer] = []
        fresh_targets: set[int] = set()
        slowdown_memo = self._slowdown_cache
        servers = self._servers
        for client, targets in zip(clients, targets_list):
            source = self.server(client.current_server)
            entry = source.cache.get(client.client_id)
            if entry is None or entry.version != client.model_version:
                misses += 1
                continue  # nothing to send yet (client still uploading)
            hits += 1
            source_bytes = entry.received_bytes
            if source_bytes <= 0:
                continue
            source_id = source.server_id
            live: list[EdgeServer] = []
            for target_id in targets:
                if target_id == source_id:
                    continue
                if faults_on and fault_schedule.server_down(
                    target_id, interval
                ):
                    dead_skips += 1
                    continue
                target = servers.get(target_id) or self.server(target_id)
                live.append(target)
                if (
                    target_id not in fresh_targets
                    and target_id not in slowdown_memo
                ):
                    fresh_targets.add(target_id)
                    ping_order.append(target)
            if live:
                pending.append((client, source, source_bytes, live))
        # Pass 2: one slowdown batch; afterwards every live target is in
        # the per-interval memo, which pass 3 reads directly.
        if pending:
            self.estimate_slowdowns(ping_order)
        # Pass 3: grouped plan probes and byte budgets.  ``plan_info``
        # maps (partitioner id, target id) to (plan bytes, budget after
        # backhaul truncation, truncated flag); the crowded path keeps
        # budgets per pair.
        crowded_on = bool(self.crowded_servers)
        degraded = backhaul_factor < 1.0
        plan_info: dict[tuple[int, int], tuple[float, float]] = {}
        pair_clients: list[int] = []  # index into ``pending``
        pair_targets: list[EdgeServer] = []
        pair_needed: list[float] = []
        pair_plan_bytes: list[float] = []
        source_bytes_by_client: list[float] = []
        for client_index, (client, source, source_bytes, live) in enumerate(
            pending
        ):
            partitioner = self.partitioner_for(client.client_id)
            pid = id(partitioner)
            source_id = source.server_id
            source_crowded = crowded_on and source_id in self.crowded_servers
            source_bytes_by_client.append(source_bytes)
            for target in live:
                target_id = target.server_id
                key = (pid, target_id)
                info = plan_info.get(key)
                if info is None:
                    future_plan = partitioner.partition(
                        slowdown_memo[target_id]
                    )
                    plan_bytes = future_plan.server_bytes
                    needed = plan_bytes
                    if degraded:
                        needed = min(needed, backhaul_factor * plan_bytes)
                    info = (plan_bytes, needed)
                    plan_info[key] = info
                else:
                    # A scalar partition() call here would be a hit.
                    partitioner.cache_hits += 1
                plan_bytes, needed = info
                if crowded_on and (
                    source_crowded or target_id in self.crowded_servers
                ):
                    needed = min(plan_bytes, self.crowded_byte_budget)
                    if degraded:
                        needed = min(needed, backhaul_factor * plan_bytes)
                pair_clients.append(client_index)
                pair_targets.append(target)
                pair_needed.append(needed)
                pair_plan_bytes.append(plan_bytes)
        # Vectorized transfer caps over every (client, target) pair of
        # the interval: np.minimum on float64 equals the scalar min().
        sendable = np.minimum(
            np.asarray(pair_needed, dtype=np.float64),
            np.asarray(source_bytes_by_client, dtype=np.float64)[
                np.asarray(pair_clients, dtype=np.intp)
            ],
        ).tolist()
        # Pass 4: order-sensitive replay in (client, target) order.
        ttl_intervals = self.config.ttl_intervals
        traffic_meter = self.traffic_meter
        trace = telemetry.trace
        events_on = not isinstance(trace, NullEventTrace)
        counter_bytes = None
        truncations = migrations = 0
        for pair_index, client_index in enumerate(pair_clients):
            client, source, _, _ = pending[client_index]
            target = pair_targets[pair_index]
            target_id = target.server_id
            client_id = client.client_id
            version = client.model_version
            needed = pair_needed[pair_index]
            if needed < pair_plan_bytes[pair_index]:
                truncations += 1
                trace.record(
                    FractionalTruncationEvent(
                        interval=interval,
                        client_id=client_id,
                        source_server=source.server_id,
                        target_server=target_id,
                        plan_bytes=pair_plan_bytes[pair_index],
                        budget_bytes=needed,
                    )
                )
            entry = target.cache.get(client_id)
            if entry is not None and entry.version == version:
                hits += 1
                already = entry.received_bytes
            else:
                misses += 1
                entry = None
                already = 0.0
            delta = sendable[pair_index] - already
            if already >= needed - 1e-6 or delta <= 0:
                # Nothing to send (duplicate avoided, §3.B.2): refresh.
                if entry is not None:
                    entry.refresh(interval, ttl_intervals)
                continue
            if faults_on and fault_schedule.migration_dropped(
                client_id, source.server_id, target_id, interval
            ):
                record_fault(
                    telemetry, interval, "migration_drop",
                    server_id=target_id, client_id=client_id,
                )
                continue
            if entry is None:  # ``target.add_bytes``, inline
                entry = target.cache[client_id] = CachedModel(0.0, 0, version)
            entry.received_bytes += delta
            entry.refresh(interval, ttl_intervals)
            if traffic_meter is not None:
                traffic_meter.record(
                    interval, source.server_id, target_id, delta
                )
            migrations += 1
            if counter_bytes is None:
                counter_added = registry.counter("cache.bytes_added")
                counter_bytes = registry.counter("migration.bytes")
            # One float inc per record, in record order (it matters).
            counter_added.inc(delta)
            counter_bytes.inc(delta)
            if events_on:
                trace.record(
                    MigrationEvent(
                        interval=interval,
                        client_id=client_id,
                        source_server=source.server_id,
                        target_server=target_id,
                        nbytes=delta,
                    )
                )
        for name, labels, tally in (
            ("resilience.dead_target_skips", None, dead_skips),
            ("cache.lookups", {"outcome": "hit"}, hits),
            ("cache.lookups", {"outcome": "miss"}, misses),
            ("migration.count", None, migrations),
            ("migration.fractional_truncations", None, truncations),
        ):
            if tally:
                registry.counter(name, labels).inc(tally)

    def expire_caches(self, interval: int) -> None:
        for server in self._servers.values():
            for client_id in server.expire(interval):
                self.telemetry.trace.record(
                    CacheEvictionEvent(
                        interval=interval,
                        server_id=server.server_id,
                        client_id=client_id,
                    )
                )
