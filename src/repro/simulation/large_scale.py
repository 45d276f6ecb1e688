"""Large-scale smart-city simulation (§4.B: Fig 9, §4.B.4, Fig 10).

Replays every user of a trajectory dataset simultaneously.  Each interval:

1. clients move to their next trace point and (re-)associate with the edge
   server of their hex cell — each association to a *different* server is a
   potential cold start;
2. server GPUs advance their contention state under the current client
   load;
3. every client runs its query loop for one interval, uploading missing
   layers in the background (its plan comes from the master's GPU-aware
   partitioner);
4. under the PerDNN policy the master predicts each client's next location
   and proactively migrates layers to all servers within the migration
   radius (fractionally for crowded servers);
5. cached models past their TTL are evicted.

Metrics follow the paper: cold-start hits/misses and the number of queries
executed during the interval right after each association (Fig 9), plus
per-server per-interval backhaul traffic (§4.B.4, Fig 10).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.client import MobileClient
from repro.core.config import PerDNNConfig
from repro.core.edge_server import EdgeServer
from repro.core.master import MasterServer, MigrationPolicy
from repro.core.routing import routed_tensors, routing_overhead_seconds
from repro.estimation.estimator import ContentionEstimator
from repro.faults import FaultProfile, FaultSchedule, record_fault
from repro.geo.hexgrid import HexGrid
from repro.geo.wifi import EdgeServerRegistry
from repro.mobility.predictor import PointPredictor
from repro.mobility.svr import SVRPredictor
from repro.mobility.trajectory import TrajectoryDataset
from repro.network.traffic import TrafficMeter, TrafficSummary
from repro.overload import (
    QUEUE_WAIT_BUCKETS,
    AdmissionController,
    OverloadConfig,
    SheddingPolicy,
    record_breaker_transition,
)
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.profiler import generate_contention_dataset
from repro.simulation.query_loop import (
    QUERY_LATENCY_BUCKETS,
    _steady_query_count,
    run_local_window,
    run_query_window,
)
from repro.simulation.vectorized import ClientArrays, propose_associations
from repro.telemetry import (
    AssociationEvent,
    ColdStartEvent,
    Histogram,
    NullEventTrace,
    QueryWindowEvent,
    Telemetry,
)

@dataclass(frozen=True)
class SimulationSettings:
    """Per-run knobs of the large-scale simulation."""

    policy: MigrationPolicy
    migration_radius_m: float = 100.0
    replay_fraction: float = 0.4  # tail share of each trace that is replayed
    max_steps: int | None = None  # cap on replayed intervals (None = all)
    seed: int = 0
    crowded_servers: frozenset[int] = frozenset()
    crowded_byte_budget: float = float("inf")
    use_contention_estimator: bool = True
    # Clients retrain/replace their personal models every this many
    # intervals (paper §I: models change after deployment), invalidating
    # every cached copy.  None = models never change (the paper's setup).
    model_update_every: int | None = None
    # Fault injection: a built-in profile (instantiated with this run's
    # servers/seed/horizon), a pre-built schedule, or None for the
    # paper's perfect world.  A noop schedule is equivalent to None —
    # the fault layer leaves a disabled run byte-identical.
    faults: FaultProfile | FaultSchedule | None = None
    # Overload protection: admission control + circuit breakers +
    # load-shedding policy.  None disables the subsystem entirely (a
    # strict no-op, like a disabled fault layer).
    overload: OverloadConfig | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.replay_fraction <= 1.0:
            raise ValueError("replay_fraction must be in (0, 1]")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 (or None for all)")
        if self.migration_radius_m < 0:
            raise ValueError("migration_radius_m must be non-negative")
        if self.crowded_byte_budget < 0:
            raise ValueError("crowded_byte_budget must be non-negative")
        if self.model_update_every is not None and self.model_update_every < 1:
            raise ValueError("model_update_every must be >= 1 (or None)")


@dataclass
class LargeScaleResult:
    """Everything §4.B reports about one simulation run.

    The per-run counters (hits, misses, queries, migrations, ...) are
    *derived views* of the run's telemetry registry — ``from_telemetry``
    reads them out once the simulation loop finishes, so the registry is
    the single source of truth and exported snapshots always agree with
    the reported result.
    """

    policy: str
    dataset: str
    model: str
    steps: int = 0
    num_servers: int = 0
    num_clients: int = 0
    hits: int = 0
    misses: int = 0
    coldstart_queries: int = 0  # queries during post-association intervals
    total_queries: int = 0
    migrations: int = 0
    migrated_bytes: float = 0.0
    uplink: TrafficSummary | None = None
    downlink: TrafficSummary | None = None
    server_changes: int = 0
    # Resilience view (all trivial when no faults were injected): queries
    # answered on-device because no live server was reachable, the share
    # of client-intervals served remotely, and upload retry attempts.
    local_fallback_queries: int = 0
    availability: float = 1.0
    upload_retries: int = 0
    # Overload-protection view (all zero when admission control is off):
    # queries completed in windows that were shed to local execution,
    # served by a redirect target, or served under a degraded plan, plus
    # the p99 of the modelled admission-queue wait.
    shed_queries: int = 0
    redirected_queries: int = 0
    degraded_queries: int = 0
    queue_wait_p99: float = 0.0
    extras: dict = field(default_factory=dict)
    telemetry: Telemetry | None = None

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fill_from_telemetry(self) -> None:
        """Read the reported counters out of the run's registry."""
        assert self.telemetry is not None
        registry = self.telemetry.registry
        self.hits = int(registry.value("sim.cold_start", {"outcome": "hit"}))
        self.misses = int(
            registry.value("sim.cold_start", {"outcome": "miss"})
        )
        self.server_changes = int(registry.value("sim.server_changes"))
        self.total_queries = int(registry.value("query.completed"))
        self.coldstart_queries = int(registry.value("sim.coldstart_queries"))
        self.migrations = int(registry.value("migration.count"))
        self.migrated_bytes = registry.value("migration.bytes")
        self.steps = int(registry.value("sim.steps"))
        per_model = {
            labels["model"]: int(value)
            for labels, value in registry.series("sim.queries")
        }
        if per_model:
            self.extras["per_model_queries"] = per_model
        model_updates = int(registry.value("sim.model_updates"))
        if model_updates:
            self.extras["model_updates"] = model_updates
        self.local_fallback_queries = int(
            registry.value("query.local_fallback")
        )
        self.upload_retries = int(registry.value("resilience.retries"))
        client_intervals = registry.value("resilience.client_intervals")
        local_intervals = registry.value("resilience.local_intervals")
        self.availability = (
            1.0 - local_intervals / client_intervals
            if client_intervals else 1.0
        )
        fault_counts = {
            labels["kind"]: int(value)
            for labels, value in registry.series("fault.injected")
        }
        if fault_counts:
            self.extras["faults"] = fault_counts
        per_outcome = {
            labels["outcome"]: int(value)
            for labels, value in registry.series("overload.queries")
        }
        self.shed_queries = per_outcome.get("shed", 0)
        self.redirected_queries = per_outcome.get("redirected", 0)
        self.degraded_queries = per_outcome.get("degraded", 0)
        wait = registry.get("overload.queue_wait_seconds")
        if isinstance(wait, Histogram) and wait.count:
            self.queue_wait_p99 = wait.quantile(0.99)
        offered = int(registry.value("overload.offered"))
        if offered:
            self.extras["overload"] = {
                "offered": offered,
                "admitted": int(registry.value("overload.admitted")),
                "shed": int(registry.value("overload.shed")),
                "redirected": int(registry.value("overload.redirected")),
                "degraded": int(registry.value("overload.degraded")),
                "steered_associations": int(
                    registry.value("overload.steered")
                ),
            }


def _resolve_fault_schedule(
    settings: SimulationSettings,
    registry: EdgeServerRegistry,
    replay: TrajectoryDataset,
) -> FaultSchedule | None:
    """Instantiate the run's fault schedule (None = fault layer off).

    Profiles are built from the run's allocated servers, seed, and replay
    horizon; a schedule that can never inject anything collapses to None
    so a disabled fault layer is a strict no-op.
    """
    faults = settings.faults
    if faults is None:
        return None
    if isinstance(faults, FaultProfile):
        horizon = settings.max_steps
        if horizon is None:
            horizon = max(
                (len(t) for t in replay.trajectories if len(t) >= 2),
                default=1,
            )
        faults = faults.build(
            registry.server_ids, settings.seed, max(1, horizon)
        )
    return None if faults.is_noop else faults


def train_default_predictor(
    train: TrajectoryDataset, history: int, rng: np.random.Generator
) -> PointPredictor:
    """The paper's deployed predictor: linear SVR on recent coordinates."""
    predictor = SVRPredictor(history=history, rng=rng)
    predictor.fit(train)
    return predictor


def train_default_estimator(
    partitioner: DNNPartitioner, rng: np.random.Generator
) -> ContentionEstimator:
    """Offline profiling campaign -> GPU-stats-to-slowdown estimator."""
    samples = generate_contention_dataset(
        partitioner.profile.graph,
        partitioner.profile.server_device,
        rng,
        client_counts=(1, 2, 4, 8, 12, 16),
        rounds_per_count=6,
    )
    return ContentionEstimator(rng=rng).fit(samples)


def _overload_gate(
    client: MobileClient,
    server: EdgeServer,
    master: MasterServer,
    admission: AdmissionController,
    telemetry: Telemetry,
    step: int,
) -> tuple[str, EdgeServer, float | None]:
    """Breaker gate, admission control and shedding policy for one window.

    Returns the window's overload outcome (``admitted``, ``degraded``,
    ``redirected`` or ``shed``), the server that serves it (a redirect
    target takes over from the saturated one) and its admission-queue
    wait (``None`` unless some server admitted it).
    """
    overload_cfg = admission.config
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
        return "admitted", server, decision.queue_wait
    if decision is not None and overload_cfg.policy is SheddingPolicy.DEGRADE:
        # Still served here, under a client-heavier plan; the breaker
        # stays untouched — the query was not refused.
        return "degraded", server, None
    # Rejected (queue full) or skipped (breaker open).
    if decision is not None:
        before = breaker.state
        breaker.record_failure(step)
        record_breaker_transition(
            telemetry, step, client.client_id, server.server_id,
            before, breaker.state,
        )
    if overload_cfg.policy is SheddingPolicy.REDIRECT:
        target_id = master.redirect_target(
            client.position, step,
            overload_cfg.redirect_radius_m,
            load_of=admission.depth_of,
            exclude=(server.server_id,),
            require=lambda s: admission.has_capacity(master.server(s)),
        )
        if target_id is not None:
            target = master.server(target_id)
            target_decision = admission.try_admit(target)
            assert target_decision.admitted
            return "redirected", target, target_decision.queue_wait
    return "shed", server, None


def _query_windows(
    active: list[MobileClient],
    master: MasterServer,
    metrics,
    telemetry: Telemetry,
    config: PerDNNConfig,
    interval: float,
    step: int,
    optimal: bool,
    faults_on: bool,
    fault_schedule: FaultSchedule | None,
    local_this_step: set[int],
    associated_this_step: set[int],
    count_memo: dict,
    admission: AdmissionController | None,
    routing: bool,
) -> None:
    """Phase 3: one query window per active client, in one pass.

    A window runs on the device (at the partitioner's all-local latency)
    when no live server was reachable or when overload protection
    (``admission``) shed it; otherwise the client's server serves it, or
    a redirect target does, under the full plan or a degraded one.  With
    ``routing`` the client stays on its first server and each query's
    tensors are relayed over the backhaul (§3.A): the relay adds latency
    and is metered as backhaul traffic.

    Clients are walked in order.  Order-*sensitive* steps stay inline in
    that walk: the breaker gate, admission and redirect probe (which
    instantiates servers), lazy slowdown estimates (shared RNG draws),
    every trace event, upload backoff, routed backhaul transfers, server
    cache updates, and the ``query.latency_seconds`` and
    ``overload.queue_wait_seconds`` histograms (float sums).  Everything
    else is batched:

    * one partitioning plan per distinct ``(server, partitioner)`` pair
      instead of one ``partition()`` call per window, with the
      partitioner's plan-cache hit counter compensated so the per-run
      cache stats keep the one-call-per-window semantics (degraded plans
      are derived per window);
    * order-free int counters (windows, completed queries, per-model and
      per-outcome tallies, cold-start verdicts, plan calls) accumulated
      locally and incremented once per interval;
    * steady windows (nothing left to upload, or uploads gated off)
      resolved via the shared memoized count recurrence without calling
      :func:`run_query_window` (the routing overhead offsets the
      latency, the queue wait the first start); windows with upload
      progress fall through to its exact integrator, which emits its own
      telemetry in place.  Consecutive steady windows observing the same
      latency collapse into one ``observe_repeated`` call without moving
      a bit.

    ``tests/oracles/reference_paths.py`` keeps the one-client-at-a-time
    loop this pass replaced; the equivalence suites pin the two byte for
    byte.
    """
    trace = telemetry.trace
    events_on = not isinstance(trace, NullEventTrace)
    query_gap = config.query_gap_seconds
    ttl = config.ttl_intervals
    hit_fraction = config.hit_byte_fraction
    uplink_default = config.network.uplink_bps
    partitioner_for = master.partitioner_for
    # Homogeneous runs share one partitioner across every client; hoist
    # the per-call Mapping check out of the per-client loop.
    shared_partitioner = (
        None if isinstance(master.partitioner, Mapping) else master.partitioner
    )
    server_of = master.server
    registry = master.registry
    grid = registry.grid
    memo_get = count_memo.get
    latency_hist: Histogram | None = None
    queue_wait_hist: Histogram | None = None
    pending_value = 0.0
    pending_times = 0

    n_windows = 0
    completed_total = 0
    local_fallback_total = 0
    n_local = 0
    retries = 0
    plan_calls = 0
    coldstart_hits = 0
    coldstart_misses = 0
    any_coldstart = False
    coldstart_queries = 0
    per_model: dict[str, int] = {}
    # Overload outcome -> offered windows / completed queries.
    outcome_windows: dict[str, int] = {}
    outcome_queries: dict[str, int] = {}
    # id(partitioner) -> [model_name, local_latency | None]; plans per
    # (server, partitioner) pair are per-interval (slowdowns re-ping).
    partitioner_info: dict[int, list] = {}
    plan_cache: dict[tuple[int, int], object] = {}

    for client in active:
        cid = client.client_id
        client_partitioner = (
            shared_partitioner if shared_partitioner is not None
            else partitioner_for(cid)
        )
        pid = id(client_partitioner)
        info = partitioner_info.get(pid)
        if info is None:
            info = [client_partitioner.graph.name, None]
            partitioner_info[pid] = info
        model_name = info[0]
        server = None
        outcome = None
        queue_wait = None
        if not (faults_on and cid in local_this_step):
            assert client.current_server is not None
            server_id = client.current_server
            server = server_of(server_id)
            if admission is not None:
                outcome, server, queue_wait = _overload_gate(
                    client, server, master, admission, telemetry, step
                )
                outcome_windows[outcome] = outcome_windows.get(outcome, 0) + 1
        if server is None or outcome == "shed":
            # On-device window: graceful degradation when no live server
            # is reachable, or load shedding — no query is ever dropped.
            if info[1] is None:
                info[1] = client_partitioner.local_latency()
            local_latency = info[1]
            # The count only: the pass records the window's telemetry.
            count = run_local_window(
                local_latency, interval, query_gap, count_memo=count_memo
            ).count
            n_windows += 1
            if outcome is None:
                n_local += 1
                local_fallback_total += count
            else:
                # Shedding is a capacity decision, not lost availability.
                outcome_queries[outcome] = (
                    outcome_queries.get(outcome, 0) + count
                )
            if count:
                completed_total += count
                if latency_hist is None:
                    latency_hist = metrics.histogram(
                        "query.latency_seconds", QUERY_LATENCY_BUCKETS
                    )
                if pending_times and pending_value != local_latency:
                    latency_hist.observe_repeated(pending_value, pending_times)
                    pending_times = 0
                pending_value = local_latency
                pending_times += count
            per_model[model_name] = per_model.get(model_name, 0) + count
            if events_on:
                trace.record(
                    QueryWindowEvent(
                        interval=step,
                        client_id=cid,
                        server_id=None,
                        queries=count,
                        coldstart=False,
                        end_bytes=0.0,
                    )
                )
            continue
        if outcome == "degraded":
            plan = client_partitioner.degraded(
                master.estimate_slowdown(server),
                admission.config.degrade_inflation,
            )
        else:
            plan_key = (server.server_id, pid)
            plan = plan_cache.get(plan_key)
            if plan is None:
                plan = client_partitioner.partition(
                    master.estimate_slowdown(server)
                )
                plan_cache[plan_key] = plan
            else:
                # One partition() call per window would hit the plan
                # cache on the same quantized key from the second on.
                client_partitioner.cache_hits += 1
            plan_calls += 1
        schedule = plan.schedule
        total_bytes = schedule.total_bytes
        if optimal:
            cached = total_bytes
        else:
            cached = server.cached_bytes(cid, client.model_version)
            if cached > total_bytes:
                cached = total_bytes
        coldstart = cid in associated_this_step
        # Redirected windows are served away from the association, so
        # they carry no cold-start verdict for the associated server.
        if coldstart and outcome != "redirected":
            threshold = hit_fraction * total_bytes
            hit = total_bytes <= 0 or cached + 1e-6 >= threshold
            if hit:
                coldstart_hits += 1
            else:
                coldstart_misses += 1
            if events_on:
                trace.record(
                    ColdStartEvent(
                        interval=step,
                        client_id=cid,
                        server_id=server.server_id,
                        hit=hit,
                        cached_bytes=cached,
                        required_bytes=total_bytes,
                    )
                )
        overhead = 0.0
        hops = 0
        if routing:
            hops = grid.hop_distance(
                grid.cell_of(client.position),
                registry.cell_of_server(server.server_id),
            )
            tensors = routed_tensors(plan.costs, plan.plan)
            overhead = routing_overhead_seconds(config, hops, tensors)
        uploading = not optimal
        uplink_bps = uplink_default
        if faults_on and uploading:
            if not client.upload_allowed(step):
                uploading = False  # backing off after dropped uploads
            else:
                if client.upload_failures > 0:
                    retries += 1
                if fault_schedule.upload_dropped(cid, step):
                    client.record_upload_drop(step)
                    record_fault(
                        telemetry, step, "upload_drop",
                        server_id=server_id, client_id=cid,
                    )
                    uploading = False
                else:
                    client.record_upload_success()
                    factor = fault_schedule.uplink_factor(step)
                    if factor < 1.0:
                        uplink_bps = config.network.degraded(factor).uplink_bps
        if not uploading or uplink_bps == 0.0 or cached >= total_bytes:
            # Steady window: constant latency, no byte movement (matches
            # run_query_window's steady branch value for value).
            latency = schedule.latency_after_bytes(cached) + overhead
            first_start = queue_wait or 0.0
            key = (first_start, latency, query_gap, interval)
            count = memo_get(key)
            if count is None:
                count = _steady_query_count(
                    first_start, latency, query_gap, interval, count_memo
                )
            n_windows += 1
            if queue_wait is not None:
                if queue_wait_hist is None:
                    queue_wait_hist = metrics.histogram(
                        "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
                    )
                queue_wait_hist.observe(queue_wait)
            if count:
                completed_total += count
                if latency_hist is None:
                    latency_hist = metrics.histogram(
                        "query.latency_seconds", QUERY_LATENCY_BUCKETS
                    )
                if pending_times and pending_value != latency:
                    latency_hist.observe_repeated(pending_value, pending_times)
                    pending_times = 0
                pending_value = latency
                pending_times += count
            end_bytes = (
                total_bytes if uploading and uplink_bps != 0.0 else cached
            )
        else:
            if pending_times:
                # run_query_window observes the same histogram in-place;
                # drain the grouped tail first to keep the serial order.
                latency_hist.observe_repeated(pending_value, pending_times)
                pending_times = 0
            window = run_query_window(
                schedule,
                start_bytes=cached,
                uplink_bps=uplink_bps,
                duration=interval,
                query_gap=query_gap,
                uploading=uploading,
                latency_overhead=overhead,
                queue_wait=queue_wait,
                telemetry=metrics,
                count_memo=count_memo,
            )
            count = window.count
            end_bytes = window.end_bytes
        if hops > 0 and count:
            access_server = registry.server_at(client.position)
            if access_server is not None and access_server != server.server_id:
                if tensors.uplink_bytes > 0:
                    master.traffic_meter.record(
                        step, access_server, server.server_id,
                        count * tensors.uplink_bytes,
                    )
                if tensors.downlink_bytes > 0:
                    master.traffic_meter.record(
                        step, server.server_id, access_server,
                        count * tensors.downlink_bytes,
                    )
        per_model[model_name] = per_model.get(model_name, 0) + count
        if outcome is not None:
            outcome_queries[outcome] = outcome_queries.get(outcome, 0) + count
        if coldstart:
            any_coldstart = True
            coldstart_queries += count
        if events_on:
            trace.record(
                QueryWindowEvent(
                    interval=step,
                    client_id=cid,
                    server_id=server.server_id,
                    queries=count,
                    coldstart=coldstart,
                    end_bytes=end_bytes,
                )
            )
        if not optimal:
            if end_bytes - cached > 0:
                server.add_bytes(cid, end_bytes - cached, step, ttl,
                                 client.model_version)
            else:
                server.refresh_ttl(cid, step, ttl, client.model_version)

    if pending_times:
        latency_hist.observe_repeated(pending_value, pending_times)
    if faults_on:
        metrics.counter("resilience.client_intervals").inc(len(active))
        if n_local:
            metrics.counter("resilience.local_intervals").inc(n_local)
        if retries:
            metrics.counter("resilience.retries").inc(retries)
    if outcome_windows:
        metrics.counter("overload.offered").inc(sum(outcome_windows.values()))
    for outcome, windows in outcome_windows.items():
        metrics.counter(f"overload.{outcome}").inc(windows)
    for outcome, count in outcome_queries.items():
        metrics.counter("overload.queries", {"outcome": outcome}).inc(count)
    if plan_calls:
        metrics.counter("master.plan.calls").inc(plan_calls)
    if n_windows:
        metrics.counter("query.windows").inc(n_windows)
    if completed_total:
        metrics.counter("query.completed").inc(completed_total)
    if local_fallback_total:
        metrics.counter("query.local_fallback").inc(local_fallback_total)
    for model_name, count in per_model.items():
        metrics.counter("sim.queries", {"model": model_name}).inc(count)
    if coldstart_hits:
        metrics.counter("sim.cold_start", {"outcome": "hit"}).inc(
            coldstart_hits
        )
    if coldstart_misses:
        metrics.counter("sim.cold_start", {"outcome": "miss"}).inc(
            coldstart_misses
        )
    if any_coldstart:
        metrics.counter("sim.coldstart_queries").inc(coldstart_queries)


def run_large_scale(
    dataset: TrajectoryDataset,
    partitioner: DNNPartitioner | list[DNNPartitioner],
    settings: SimulationSettings,
    config: PerDNNConfig | None = None,
    predictor: PointPredictor | None = None,
    contention_estimator: ContentionEstimator | None = None,
    telemetry: Telemetry | None = None,
) -> LargeScaleResult:
    """Run one policy over one dataset and collect the §4.B metrics.

    ``partitioner`` is either one shared partitioner (the paper's setup:
    every client runs the same architecture, though each client's model is
    private) or a list of partitioners assigned to clients round-robin —
    the heterogeneous-workload extension the paper lists as future work.

    Every run instruments itself into a :class:`~repro.telemetry.Telemetry`
    bundle (pass one to share a registry across runs or export it; a fresh
    one is created otherwise).  The returned result's counters are read
    out of that registry, and the bundle itself rides along as
    ``result.telemetry``.
    """
    config = config or PerDNNConfig(migration_radius_m=settings.migration_radius_m)
    telemetry = telemetry or Telemetry.create()
    metrics = telemetry.registry
    rng = np.random.default_rng(settings.seed)
    grid = HexGrid(config.cell_radius_m)
    registry = EdgeServerRegistry.from_visited_points(grid, dataset.all_points())
    if settings.policy is MigrationPolicy.PERDNN and predictor is None:
        train, replay = dataset.split_time(settings.replay_fraction)
        predictor = train_default_predictor(train, config.prediction_history, rng)
    else:
        # Pre-trained predictor (or a policy that never predicts): only
        # the replay half is ever read, so skip building the train half —
        # at shard fan-out that is half the split cost per shard.
        replay = dataset.replay_split(settings.replay_fraction)
    partitioner_pool = (
        list(partitioner) if isinstance(partitioner, list) else [partitioner]
    )
    if not partitioner_pool:
        raise ValueError("at least one partitioner is required")
    if contention_estimator is None and settings.use_contention_estimator:
        contention_estimator = train_default_estimator(partitioner_pool[0], rng)
    num_replay_clients = sum(
        1 for trajectory in replay.trajectories if len(trajectory) >= 2
    )
    if len(partitioner_pool) == 1:
        master_partitioner = partitioner_pool[0]
    else:
        master_partitioner = {
            client_id: partitioner_pool[client_id % len(partitioner_pool)]
            for client_id in range(num_replay_clients)
        }
    # Plan-cache counters accumulate for the life of a partitioner; diff
    # against this baseline so the reported stats are per-run.
    cache_baseline = [
        (p.cache_hits, p.cache_misses) for p in partitioner_pool
    ]
    fault_schedule = _resolve_fault_schedule(settings, registry, replay)
    faults_on = fault_schedule is not None
    overload_cfg = settings.overload
    overload_on = overload_cfg is not None
    admission = (
        AdmissionController(overload_cfg, metrics) if overload_on else None
    )
    meter = TrafficMeter(dataset.interval_seconds, telemetry=metrics)
    master = MasterServer(
        registry=registry,
        partitioner=master_partitioner,
        config=config,
        rng=rng,
        predictor=predictor,
        contention_estimator=contention_estimator,
        policy=settings.policy,
        traffic_meter=meter,
        crowded_servers=settings.crowded_servers,
        crowded_byte_budget=settings.crowded_byte_budget,
        telemetry=telemetry,
        fault_schedule=fault_schedule,
    )
    usable = [t for t in replay.trajectories if len(t) >= 2]
    clients = [
        MobileClient(i, trajectory, config.prediction_history)
        for i, trajectory in enumerate(usable)
    ]
    arrays = ClientArrays.from_clients(clients)
    # Steady-state query-window counts recur across clients and steps;
    # one memo per run amortizes the serial integration.
    count_memo: dict = {}
    model_names = sorted({p.graph.name for p in partitioner_pool})
    result = LargeScaleResult(
        policy=settings.policy.value,
        dataset=dataset.name,
        model="+".join(model_names),
        num_servers=registry.num_servers,
        num_clients=len(clients),
        telemetry=telemetry,
    )
    metrics.gauge("sim.num_servers").set(registry.num_servers)
    metrics.gauge("sim.num_clients").set(len(clients))
    interval = dataset.interval_seconds
    optimal = settings.policy is MigrationPolicy.OPTIMAL
    baseline = settings.policy is MigrationPolicy.NONE
    routing = settings.policy is MigrationPolicy.ROUTING
    step = 0
    while True:
        if settings.max_steps is not None and step >= settings.max_steps:
            break
        active = [c for c in clients if not c.finished]
        if not active:
            break
        master.begin_interval()
        if overload_on:
            admission.begin_interval(step)
        # 0a. Fault transitions: restarts come back cold; crashes lose
        # their caches and orphan their clients (re-associated below).
        local_this_step: set[int] = set()
        if faults_on:
            for server_id in fault_schedule.restarts(step):
                record_fault(
                    telemetry, step, "server_restart", server_id=server_id
                )
            crashed_now = fault_schedule.crash_starts(step)
            for server_id in crashed_now:
                record_fault(
                    telemetry, step, "server_crash", server_id=server_id
                )
                master.crash_server(server_id)
            if crashed_now:
                crashed_set = set(crashed_now)
                for client in active:
                    if client.current_server in crashed_set:
                        client.current_server = None
        # 0b. Periodic model retraining: new weights, stale caches.
        if (
            settings.model_update_every is not None
            and step > 0
            and step % settings.model_update_every == 0
        ):
            for client in active:
                client.update_model()
                metrics.counter("sim.model_updates").inc()
        # 1. Movement and (re-)association.  Advancing first (no client
        # observes another's move) lets one struct-of-arrays pass propose
        # every client's next association; the loop below applies them.
        associated_this_step: set[int] = set()
        positions = [client.advance() for client in active]
        ids = arrays.refresh(active, positions)
        proposals = propose_associations(
            registry,
            arrays.positions[ids],
            arrays.current_server[ids],
            config.handover_hysteresis_m,
        )
        for index, client in enumerate(active):
            position = positions[index]
            assert position is not None
            if routing and client.current_server is not None:
                # §3.A routing: stay on the first server; only the access
                # cell changes as the user moves.
                continue
            proposed = int(proposals[index])
            server_id = None if proposed < 0 else proposed
            assert server_id is not None, "registry covers every trace point"
            if faults_on and fault_schedule.server_down(server_id, step):
                current = client.current_server
                if current is not None and not fault_schedule.server_down(
                    current, step
                ):
                    # The covering cell's server is dark but the old one
                    # still lives: hold it (out-of-coverage stickiness)
                    # rather than degrading to local execution.
                    server_id = current
                else:
                    # With overload protection the master steers orphaned
                    # clients to the least-loaded reachable live server
                    # (the flash-crowd path); otherwise — or when nothing
                    # is in reach — this interval runs fully on-device
                    # (graceful degradation, never an error).
                    steered = (
                        master.redirect_target(
                            position, step, overload_cfg.redirect_radius_m,
                            exclude=(server_id,),
                        )
                        if overload_on else None
                    )
                    if steered is None:
                        if current is not None:
                            master.server(current).dissociate(client.client_id)
                            client.current_server = None
                        local_this_step.add(client.client_id)
                        continue
                    metrics.counter("overload.steered").inc()
                    server_id = steered
            if server_id != client.current_server:
                previous_server = client.current_server
                if previous_server is not None:
                    old = master.server(previous_server)
                    old.dissociate(client.client_id)
                    if baseline:
                        # IONN re-uploads from scratch after a server change.
                        old.clear_client(client.client_id)
                    metrics.counter("sim.server_changes").inc()
                master.server(server_id).associate(client.client_id)
                client.current_server = server_id
                associated_this_step.add(client.client_id)
                metrics.counter("sim.associations").inc()
                telemetry.trace.record(
                    AssociationEvent(
                        interval=step,
                        client_id=client.client_id,
                        server_id=server_id,
                        previous_server=previous_server,
                    )
                )
        # 2. GPU contention advances under the new load (down servers
        # are powered off; their GPUs do not run).
        for server in master.instantiated_servers:
            if faults_on and fault_schedule.server_down(
                server.server_id, step
            ):
                continue
            server.step_gpu()
        # 2b. Batched interval planning: every server that will be planned
        # for this interval is pinged and its slowdown predicted in one
        # vectorized forest call, in the same first-seen order the lazy
        # per-client path would use (the shared RNG sees identical draws,
        # so same-seed output is byte-identical).  Overload runs keep the
        # lazy path: shedding/redirection decides per client whether a
        # server is planned at all.
        if contention_estimator is not None and not overload_on:
            seen_servers: set[int] = set()
            planned_servers = []
            for client in active:
                server_id = client.current_server
                if (
                    server_id is None
                    or client.client_id in local_this_step
                    or server_id in seen_servers
                ):
                    continue
                seen_servers.add(server_id)
                planned_servers.append(master.server(server_id))
            master.estimate_slowdowns(planned_servers)
        # 3. Query loops — one pass over every client.
        _query_windows(
            active, master, metrics, telemetry, config, interval, step,
            optimal, faults_on, fault_schedule, local_this_step,
            associated_this_step, count_memo, admission, routing,
        )
        if overload_on:
            admission.export_gauges()
        # 4. Proactive migration (records its own telemetry): one batched
        # prediction for every client, transfers replayed in client order.
        if settings.policy is MigrationPolicy.PERDNN:
            master.proactive_migrate_batch(active, step)
        # 5. TTL eviction.
        master.expire_caches(step)
        step += 1
    metrics.gauge("sim.steps").set(step)
    # Emitted even without fault injection (reporting 1.0) so snapshot
    # schemas match across fault and no-fault runs.
    client_intervals = metrics.value("resilience.client_intervals")
    local_intervals = metrics.value("resilience.local_intervals")
    metrics.gauge("resilience.availability").set(
        1.0 - local_intervals / client_intervals
        if client_intervals else 1.0
    )
    result.fill_from_telemetry()
    cache_hits = sum(
        p.cache_hits - before_hits
        for p, (before_hits, _) in zip(partitioner_pool, cache_baseline)
    )
    cache_misses = sum(
        p.cache_misses - before_misses
        for p, (_, before_misses) in zip(partitioner_pool, cache_baseline)
    )
    result.extras["partition_cache"] = {
        "hits": cache_hits,
        "misses": cache_misses,
        "hit_ratio": (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses
            else 0.0
        ),
    }
    result.uplink = meter.uplink_summary()
    result.downlink = meter.downlink_summary()
    return result
