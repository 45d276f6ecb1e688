"""Large-scale smart-city simulation (§4.B: Fig 9, §4.B.4, Fig 10).

Replays every user of a trajectory dataset simultaneously.  Each interval
runs five phases over one per-run :class:`_Run` state: fault transitions
and model updates (:func:`_fault_phase`); movement and (re-)association,
where each association to a *different* server is a potential cold start
(:func:`_association_phase`); the GPU step and slowdown estimates
(:func:`_contention_phase`); one query window per client, uploading
missing layers in the background (:func:`_query_windows`); and
proactive migration to every server within the migration radius of each
client's predicted location, then TTL eviction (:func:`_migration_phase`).

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
from repro.mobility.trajectory import ReplayTable, TrajectoryDataset
from repro.network.traffic import TrafficMeter
from repro.overload import (
    QUEUE_WAIT_BUCKETS,
    AdmissionController,
    OverloadConfig,
    SheddingPolicy,
    record_breaker_transition,
)
from repro.partitioning.partitioner import DNNPartitioner
# ``run_query_window`` and ``run_local_window`` stay importable here: they
# are the names the reference paths and the tracer patch on this module.
from repro.simulation.query_loop import (  # noqa: F401
    QUERY_LATENCY_BUCKETS,
    WindowBatch,
    integrate_windows,
    run_local_window,
    run_query_window,
)
from repro.simulation.result import LargeScaleResult, assemble_result
# The trainers are re-exported: callers import them from this module.
from repro.simulation.training import (  # noqa: F401
    train_default_estimator,
    train_default_models,
    train_default_predictor,
)
from repro.simulation.vectorized import propose_associations
from repro.telemetry import (
    AssociationEvent,
    ColdStartEvent,
    NullEventTrace,
    QueryWindowEvent,
    Telemetry,
)
from repro.telemetry.registry import MetricsRegistry


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
        # The time split needs both a train and a replay part.
        if not 0.0 < self.replay_fraction < 1.0:
            raise ValueError("replay_fraction must be in (0, 1)")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 (or None for all)")
        if not self.migration_radius_m >= 0:  # NaN too
            raise ValueError("migration_radius_m must be non-negative")
        if self.crowded_byte_budget < 0:
            raise ValueError("crowded_byte_budget must be non-negative")
        if self.model_update_every is not None and self.model_update_every < 1:
            raise ValueError("model_update_every must be >= 1 (or None)")


def _resolve_fault_schedule(
    settings: SimulationSettings,
    registry: EdgeServerRegistry,
    table: ReplayTable,
) -> FaultSchedule | None:
    """Instantiate the run's fault schedule (None = fault layer off).

    Profiles are built from the run's allocated servers, seed, and replay
    horizon (the longest replayed trace); a schedule that can never
    inject anything collapses to None so a disabled fault layer is a
    strict no-op.
    """
    faults = settings.faults
    if faults is None:
        return None
    if isinstance(faults, FaultProfile):
        horizon = settings.max_steps or int(table.lengths.max(initial=1))
        faults = faults.build(registry.server_ids, settings.seed, horizon)
    return None if faults.is_noop else faults


@dataclass(eq=False)
class _Run:
    """One run's interval-loop state: built by :func:`_set_up`, moved on
    by :meth:`begin_interval`, read and filled by the phase functions."""

    settings: SimulationSettings
    config: PerDNNConfig
    telemetry: Telemetry
    master: MasterServer
    table: ReplayTable
    clients: list[MobileClient]  # client i replays tail i of ``table``
    fault_schedule: FaultSchedule | None
    admission: AdmissionController | None
    partitioners: list[DNNPartitioner]
    # Plan-cache counters accumulate for the life of a partitioner; the
    # reported stats are diffed against this per-run (hits, misses).
    cache_baseline: tuple[int, int]
    interval: float
    # Steady-state query-window counts recur across clients and steps;
    # one memo per run amortizes the serial integration.
    count_memo: dict = field(default_factory=dict)
    # The current interval: its index, the clients still replaying (and
    # their ids), their positions (gathered by the association phase),
    # the ones running on-device and the ones that (re-)associated.
    step: int = 0
    active: list[MobileClient] = field(default_factory=list)
    active_ids: np.ndarray = field(init=False)
    positions: np.ndarray = field(init=False)
    local_this_step: set[int] = field(default_factory=set)
    associated_this_step: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        policy = self.settings.policy
        self.metrics = self.telemetry.registry
        self.faults_on = self.fault_schedule is not None
        self.optimal = policy is MigrationPolicy.OPTIMAL
        self.baseline = policy is MigrationPolicy.NONE
        self.routing = policy is MigrationPolicy.ROUTING

    def begin_interval(self, step: int) -> bool:
        """Move to interval ``step``; False once every client finished."""
        ids = self.table.active(step)
        if not ids.size:
            return False
        clients = self.clients
        self.active_ids = ids
        self.active = [clients[i] for i in ids.tolist()]
        self.step = step
        self.local_this_step = set()
        self.associated_this_step = set()
        self.master.begin_interval()
        if self.admission is not None:
            self.admission.begin_interval(step)
        return True


def _set_up(
    dataset: TrajectoryDataset,
    partitioner: DNNPartitioner | list[DNNPartitioner],
    settings: SimulationSettings,
    config: PerDNNConfig,
    predictor: PointPredictor | None,
    contention_estimator: ContentionEstimator | None,
    telemetry: Telemetry,
) -> _Run:
    """Servers, models, master and clients of one run."""
    metrics = telemetry.registry
    rng = np.random.default_rng(settings.seed)
    grid = HexGrid(config.cell_radius_m)
    registry = EdgeServerRegistry.from_visited_points(grid, dataset.all_points())
    pool = list(partitioner) if isinstance(partitioner, list) else [partitioner]
    if not pool:
        raise ValueError("at least one partitioner is required")
    predictor, contention_estimator = train_default_models(
        dataset, pool[0], settings, config, rng,
        predictor, contention_estimator,
    )
    table = ReplayTable.from_dataset(dataset, settings.replay_fraction)
    if len(pool) == 1:
        master_partitioner = pool[0]
    else:
        master_partitioner = {
            client_id: pool[client_id % len(pool)]
            for client_id in range(len(table))
        }
    fault_schedule = _resolve_fault_schedule(settings, registry, table)
    master = MasterServer(
        registry=registry,
        partitioner=master_partitioner,
        config=config,
        rng=rng,
        predictor=predictor,
        contention_estimator=contention_estimator,
        policy=settings.policy,
        traffic_meter=TrafficMeter(dataset.interval_seconds, metrics),
        crowded_servers=settings.crowded_servers,
        crowded_byte_budget=settings.crowded_byte_budget,
        telemetry=telemetry,
        fault_schedule=fault_schedule,
    )
    clients = [MobileClient(i) for i in range(len(table))]
    metrics.gauge("sim.num_servers").set(registry.num_servers)
    metrics.gauge("sim.num_clients").set(len(clients))
    return _Run(
        settings=settings,
        config=config,
        telemetry=telemetry,
        master=master,
        table=table,
        clients=clients,
        fault_schedule=fault_schedule,
        admission=(
            None if settings.overload is None
            else AdmissionController(settings.overload, metrics)
        ),
        partitioners=pool,
        cache_baseline=(
            sum(p.cache_hits for p in pool),
            sum(p.cache_misses for p in pool),
        ),
        interval=dataset.interval_seconds,
    )


def _fault_phase(run: _Run) -> None:
    """Phase 0: fault transitions, then periodic model updates.

    Restarts come back cold; crashes lose their caches and orphan their
    clients (re-associated next phase).  Model updates mean new weights
    and stale caches.
    """
    step, active, telemetry = run.step, run.active, run.telemetry
    if run.faults_on:
        fault_schedule = run.fault_schedule
        for server_id in fault_schedule.restarts(step):
            record_fault(
                telemetry, step, "server_restart", server_id=server_id
            )
        crashed_now = fault_schedule.crash_starts(step)
        for server_id in crashed_now:
            record_fault(
                telemetry, step, "server_crash", server_id=server_id
            )
            run.master.crash_server(server_id)
        if crashed_now:
            crashed_set = set(crashed_now)
            for client in active:
                if client.current_server in crashed_set:
                    client.current_server = None
    update_every = run.settings.model_update_every
    if update_every is not None and step > 0 and step % update_every == 0:
        for client in active:
            client.update_model()
            run.metrics.counter("sim.model_updates").inc()


def _association_phase(run: _Run) -> None:
    """Phase 1: movement and (re-)association.

    Every active client's position is gathered from the replay table
    first (no client observes another's move), so one array pass
    proposes every association; the loop applies them in client order,
    filling ``run.associated_this_step`` and, with clients left without
    a live server, ``run.local_this_step``.
    It visits only the clients with something to apply: a proposal that
    differs from their server, or a proposed server that is down.
    """
    step, active, master = run.step, run.active, run.master
    metrics, telemetry = run.metrics, run.telemetry
    registry = master.registry
    faults_on, fault_schedule = run.faults_on, run.fault_schedule
    overload_cfg = run.settings.overload
    overload_on = overload_cfg is not None
    routing, baseline = run.routing, run.baseline
    local_this_step = run.local_this_step
    associated_this_step = run.associated_this_step
    positions = run.positions = run.table.positions(run.active_ids, step)
    current_servers = np.fromiter(
        (
            -1 if client.current_server is None else client.current_server
            for client in active
        ),
        dtype=np.int64,
        count=len(active),
    )
    proposals = propose_associations(
        registry, positions, current_servers,
        run.config.handover_hysteresis_m,
    )
    # Only clients whose proposal differs from their server, or whose
    # proposed server is down, have anything to apply.  (The fault phase
    # already orphans the clients of a crashing server, so a proposal
    # equal to a down current server does not arise; the down check
    # keeps the loop correct without relying on that.)
    visit = (proposals != current_servers) | (proposals < 0)
    if faults_on:
        down = fault_schedule.servers_down(step)
        if down:
            visit |= np.isin(proposals, np.fromiter(down, dtype=np.int64))
    if routing:
        # §3.A routing: stay on the first server; only the access cell
        # changes as the user moves.
        visit &= current_servers < 0
    events_on = not isinstance(telemetry.trace, NullEventTrace)
    steered_count = server_changes = 0
    for index in np.flatnonzero(visit).tolist():
        client = active[index]
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
                        positions[index].tolist(), step,
                        overload_cfg.redirect_radius_m,
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
                steered_count += 1
                server_id = steered
        if server_id != client.current_server:
            previous_server = client.current_server
            if previous_server is not None:
                old = master.server(previous_server)
                old.dissociate(client.client_id)
                if baseline:
                    # IONN re-uploads from scratch after a server change.
                    old.clear_client(client.client_id)
                server_changes += 1
            master.server(server_id).associate(client.client_id)
            client.current_server = server_id
            associated_this_step.add(client.client_id)
            if events_on:
                telemetry.trace.record(
                    AssociationEvent(
                        interval=step,
                        client_id=client.client_id,
                        server_id=server_id,
                        previous_server=previous_server,
                    )
                )
    # Int counters, one increment each per interval.
    if steered_count:
        metrics.counter("overload.steered").inc(steered_count)
    if server_changes:
        metrics.counter("sim.server_changes").inc(server_changes)
    if associated_this_step:
        metrics.counter("sim.associations").inc(len(associated_this_step))


def _contention_phase(run: _Run) -> None:
    """Phase 2: the GPUs of live servers advance under the new load, then
    every server this interval plans for is pinged and its slowdown
    predicted in one vectorized forest call, in the first-seen order the
    lazy per-client path would use (the shared RNG sees the same draws).
    """
    step, master = run.step, run.master
    faults_on, fault_schedule = run.faults_on, run.fault_schedule
    for server in master.instantiated_servers:
        if faults_on and fault_schedule.server_down(server.server_id, step):
            continue
        server.step_gpu()
    # Overload runs keep the lazy per-client estimates: shedding and
    # redirection decide per client whether a server is planned at all.
    if master.contention_estimator is None or run.admission is not None:
        return
    local_this_step = run.local_this_step
    seen_servers: set[int] = set()
    planned_servers = []
    for client in run.active:
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


def _overload_gate(
    client: MobileClient,
    position: list[float],
    server: EdgeServer,
    master: MasterServer,
    admission: AdmissionController,
    telemetry: Telemetry,
    step: int,
) -> tuple[str, EdgeServer, float | None]:
    """Breaker gate, admission control and shedding policy for one window.

    ``position`` is the client's position, as Python floats.  Returns
    the window's overload outcome (``admitted``, ``degraded``,
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
            position, step,
            overload_cfg.redirect_radius_m,
            exclude=(server.server_id,),
            admission=admission,
        )
        if target_id is not None:
            target = master.server(target_id)
            target_decision = admission.try_admit(target)
            assert target_decision.admitted
            return "redirected", target, target_decision.queue_wait
    return "shed", server, None


class _PartitionerUse:
    """One partitioner's state in one interval's query-window pass: its
    model name, all-local latency (resolved on first use), plan per
    server (slowdowns re-ping each interval) and plan-cache hits owed."""

    __slots__ = ("partitioner", "model", "local_latency", "plans", "plan_hits")

    def __init__(self, partitioner: DNNPartitioner) -> None:
        self.partitioner = partitioner
        self.model = partitioner.graph.name
        self.local_latency: float | None = None
        self.plans: dict[int, object] = {}
        self.plan_hits = 0


def _query_windows(run: _Run) -> None:
    """Phase 3: one query window per active client, in three passes.

    A window runs on the device (at the partitioner's all-local latency)
    when no live server was reachable or ``run.admission`` shed it;
    otherwise the client's server, or a redirect target, serves it under
    the full plan or a degraded one.  Under ``run.routing`` each query's
    tensors are relayed over the backhaul (§3.A), which adds latency and
    is metered as backhaul traffic.

    * **Decide**: one walk in client order keeps every order-sensitive
      step inline (breaker gate, admission and redirect probes, lazy
      slowdown estimates, plan lookups, cache reads, cold-start verdicts,
      upload faults and their trace events) and emits each window's
      parameters into a :class:`WindowBatch`.  It integrates nothing.
    * **Integrate**: one :func:`integrate_windows` call over the batch.
    * **Account**: int counters are array sums over the windows' counts,
      incremented once per interval; cache writes and TTL refreshes,
      routed traffic records and the queue-wait observations keep client
      order; the latency runs are observed once with ``observe_runs``.
      Each ``QueryWindowEvent`` is spliced in right after its client's
      decide-pass events.

    One plan serves each ``(server, partitioner)`` pair, with the plan
    cache's hit counter compensated to one call per window.
    ``tests/oracles/reference_paths.py`` keeps the one-client-at-a-time
    loop; the equivalence suites pin the two byte for byte.  The decide
    walk is the hot path: it reads ``run`` through locals.
    """
    active, master, metrics = run.active, run.master, run.metrics
    telemetry, config, interval = run.telemetry, run.config, run.interval
    step, optimal, routing = run.step, run.optimal, run.routing
    faults_on, fault_schedule = run.faults_on, run.fault_schedule
    local_this_step = run.local_this_step
    associated_this_step = run.associated_this_step
    admission = run.admission
    trace = telemetry.trace
    events_on = not isinstance(trace, NullEventTrace)
    query_gap = config.query_gap_seconds
    hit_fraction = config.hit_byte_fraction
    uplink_default = config.network.uplink_bps
    partitioner_for = master.partitioner_for
    # Homogeneous runs share one partitioner across every client; hoist
    # the per-call Mapping check out of the per-client loop.
    shared = (
        None if isinstance(master.partitioner, Mapping)
        else _PartitionerUse(master.partitioner)
    )
    uses: dict[int, _PartitionerUse] = (
        {} if shared is None else {id(shared.partitioner): shared}
    )
    server_of = master.server
    registry = master.registry
    grid = registry.grid
    # Python-float positions for the scalar redirect and routing helpers.
    positions = (
        run.positions.tolist() if admission is not None or routing else None
    )

    batch = WindowBatch()
    add_window = batch.rows.append
    # Per window, for the account pass: the partitioner's model name
    # (unless one is shared), under overload the outcome (None when no
    # server was reachable) and, with the trace on, the serving server's
    # id (None on the device); window indices of on-device fallbacks and
    # of cold starts.
    window_models: list[str] = []
    window_outcomes: list[str | None] = []
    window_server_ids: list[int | None] = []
    fallback_windows: list[int] = []
    coldstart_windows: list[int] = []
    # (window, server, client, start bytes, valid cache entry or None)
    # of every served window that uploads into a cache.
    cache_rows: list[tuple] = []
    routed_rows: list[tuple] = []  # (window, client, server id, tensors)
    queue_waits: list[float] = []
    marks: list[int] = []  # trace length after each client's events

    retries = 0
    plan_calls = 0
    coldstart_hits = 0
    coldstart_misses = 0
    lookup_hits = 0
    lookup_misses = 0
    # Overload outcome -> offered windows.
    outcome_windows: dict[str, int] = {}

    for index, client in enumerate(active):
        cid = client.client_id
        use = shared
        if use is None:
            client_partitioner = partitioner_for(cid)
            use = uses.get(id(client_partitioner))
            if use is None:
                use = _PartitionerUse(client_partitioner)
                uses[id(client_partitioner)] = use
            window_models.append(use.model)
        client_partitioner = use.partitioner
        server = None
        outcome = None
        queue_wait = None
        if not (faults_on and cid in local_this_step):
            assert client.current_server is not None
            server_id = client.current_server
            server = server_of(server_id)
            if admission is not None:
                outcome, server, queue_wait = _overload_gate(
                    client, positions[index], server, master, admission,
                    telemetry, step,
                )
                outcome_windows[outcome] = outcome_windows.get(outcome, 0) + 1
                if queue_wait is not None:
                    queue_waits.append(queue_wait)
        if admission is not None:
            window_outcomes.append(outcome)
        if server is None or outcome == "shed":
            # On-device window: graceful degradation when no live server
            # is reachable, or load shedding — no query is ever dropped.
            server = None  # the device serves it
            if use.local_latency is None:
                use.local_latency = client_partitioner.local_latency()
            add_window((None, 0.0, 0.0, 0.0, use.local_latency))
            # Shedding is a capacity decision, not lost availability.
            if outcome is None:
                fallback_windows.append(index)
        else:
            if outcome == "degraded":
                plan = client_partitioner.degraded(
                    master.estimate_slowdown(server),
                    admission.config.degrade_inflation,
                )
            else:
                plan = use.plans.get(server.server_id)
                if plan is None:
                    plan = client_partitioner.partition(
                        master.estimate_slowdown(server)
                    )
                    use.plans[server.server_id] = plan
                else:
                    # One partition() call per window would hit the plan
                    # cache on the same quantized key from the second on.
                    use.plan_hits += 1
                plan_calls += 1
            schedule = plan.schedule
            total_bytes = schedule.total_bytes
            entry = None
            if optimal:
                cached = total_bytes
            else:
                # ``server.cached_bytes``, with the lookup tallied.
                entry = server.cache.get(cid)
                if entry is None or entry.version != client.model_version:
                    entry = None
                    lookup_misses += 1
                    cached = 0.0
                else:
                    lookup_hits += 1
                    cached = entry.received_bytes
                if cached > total_bytes:
                    cached = total_bytes
            if cid in associated_this_step:
                coldstart_windows.append(index)
                # Redirected windows are served away from the association,
                # so they carry no cold-start verdict for its server.
                if outcome != "redirected":
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
            if routing:
                hops = grid.hop_distance(
                    grid.cell_of(positions[index]),
                    registry.cell_of_server(server.server_id),
                )
                tensors = routed_tensors(plan.costs, plan.plan)
                overhead = routing_overhead_seconds(config, hops, tensors)
                if hops > 0:
                    routed_rows.append((index, server.server_id, tensors))
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
                            uplink_bps = config.network.degraded(
                                factor
                            ).uplink_bps
            add_window((
                schedule, cached, uplink_bps / 8.0 if uploading else 0.0,
                queue_wait or 0.0, overhead,
            ))
            if not optimal:
                cache_rows.append((index, server, client, cached, entry))
        if events_on:
            window_server_ids.append(None if server is None else server.server_id)
            marks.append(len(trace))

    for use in uses.values():
        use.partitioner.cache_hits += use.plan_hits
    windows = integrate_windows(
        batch, interval, query_gap, count_memo=run.count_memo
    )
    counts, end_bytes = windows.counts, windows.end_bytes

    # The account pass: what needs client order first.
    ttl = config.ttl_intervals
    for index, server, client, cached, entry in cache_rows:
        delta = end_bytes[index] - cached
        if delta > 0:
            server.add_bytes(
                client.client_id, delta, step, ttl, client.model_version
            )
        elif entry is not None:
            entry.refresh(step, ttl)  # ``server.refresh_ttl``, inline
    for index, server_id, tensors in routed_rows:
        count = int(counts[index])
        if not count:
            continue
        access_server = registry.server_at(positions[index])
        if access_server is not None and access_server != server_id:
            if tensors.uplink_bytes > 0:
                master.traffic_meter.record(
                    step, access_server, server_id,
                    count * tensors.uplink_bytes,
                )
            if tensors.downlink_bytes > 0:
                master.traffic_meter.record(
                    step, server_id, access_server,
                    count * tensors.downlink_bytes,
                )
    if events_on:
        coldstarts = set(coldstart_windows)
        trace.splice(marks, [
            QueryWindowEvent(
                interval=step,
                client_id=client.client_id,
                server_id=server_id,
                queries=count,
                coldstart=index in coldstarts,
                end_bytes=end_bytes[index],
            )
            for index, (client, server_id, count) in enumerate(
                zip(active, window_server_ids, counts.tolist())
            )
        ])
    if queue_waits:
        metrics.histogram(
            "overload.queue_wait_seconds", QUEUE_WAIT_BUCKETS
        ).observe_runs(queue_waits, [1] * len(queue_waits))
    if windows.run_counts.size:
        metrics.histogram(
            "query.latency_seconds", QUERY_LATENCY_BUCKETS
        ).observe_runs(windows.run_latencies, windows.run_counts)

    # Order-free int counters, one increment each per interval.
    completed_total = int(counts.sum())
    if faults_on:
        metrics.counter("resilience.client_intervals").inc(len(active))
        if fallback_windows:
            metrics.counter("resilience.local_intervals").inc(
                len(fallback_windows)
            )
        if retries:
            metrics.counter("resilience.retries").inc(retries)
    if outcome_windows:
        metrics.counter("overload.offered").inc(sum(outcome_windows.values()))
        for outcome, windows_offered in outcome_windows.items():
            metrics.counter(f"overload.{outcome}").inc(windows_offered)
        _inc_grouped(
            metrics, "overload.queries", "outcome", window_outcomes, counts
        )
    if plan_calls:
        metrics.counter("master.plan.calls").inc(plan_calls)
    if lookup_hits:
        metrics.counter("cache.lookups", {"outcome": "hit"}).inc(lookup_hits)
    if lookup_misses:
        metrics.counter("cache.lookups", {"outcome": "miss"}).inc(
            lookup_misses
        )
    if active:
        metrics.counter("query.windows").inc(len(active))
    if completed_total:
        metrics.counter("query.completed").inc(completed_total)
    local_fallback_total = int(counts[fallback_windows].sum())
    if local_fallback_total:
        metrics.counter("query.local_fallback").inc(local_fallback_total)
    if shared is None:
        _inc_grouped(metrics, "sim.queries", "model", window_models, counts)
    else:
        metrics.counter("sim.queries", {"model": shared.model}).inc(
            completed_total
        )
    if coldstart_hits:
        metrics.counter("sim.cold_start", {"outcome": "hit"}).inc(
            coldstart_hits
        )
    if coldstart_misses:
        metrics.counter("sim.cold_start", {"outcome": "miss"}).inc(
            coldstart_misses
        )
    if coldstart_windows:
        metrics.counter("sim.coldstart_queries").inc(
            int(counts[coldstart_windows].sum())
        )


def _inc_grouped(
    metrics: MetricsRegistry,
    name: str,
    label: str,
    keys: list[str | None],
    counts: np.ndarray,
) -> None:
    """Add each window's query count to the ``name{label: key}`` counter
    of its key (``keys[i]`` for window ``i``; None = no counter).

    Every key seen gets its counter, even when its windows completed no
    query, as one ``inc`` per key would.
    """
    groups = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(
        map(groups.__getitem__, keys), dtype=np.int64, count=len(keys)
    )
    sums = np.bincount(codes, weights=counts, minlength=len(groups))
    for key, code in groups.items():
        if key is not None:
            metrics.counter(name, {label: key}).inc(int(sums[code]))


def _migration_phase(run: _Run) -> None:
    """Phase 4: close the interval — publish the admission gauges, migrate
    proactively (PerDNN: once every client has a full mobility window,
    one batched prediction from the replay table's windows, transfers
    replayed in client order), then evict expired caches."""
    if run.admission is not None:
        run.admission.export_gauges()
    if run.settings.policy is MigrationPolicy.PERDNN:
        windows = run.table.windows(
            run.active_ids, run.step, run.config.prediction_history
        )
        if windows is not None:
            run.master.proactive_migrate_batch(run.active, windows, run.step)
    run.master.expire_caches(run.step)


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
    run = _set_up(
        dataset, partitioner, settings, config, predictor,
        contention_estimator, telemetry,
    )
    step = 0
    while settings.max_steps is None or step < settings.max_steps:
        if not run.begin_interval(step):
            break
        _fault_phase(run)
        _association_phase(run)
        _contention_phase(run)
        _query_windows(run)
        _migration_phase(run)
        step += 1
    telemetry.registry.gauge("sim.steps").set(step)
    meter = run.master.traffic_meter
    pool = run.partitioners
    hits, misses = run.cache_baseline
    return assemble_result(
        telemetry,
        sum(p.cache_hits for p in pool) - hits,
        sum(p.cache_misses for p in pool) - misses,
        policy=settings.policy.value,
        dataset=dataset.name,
        model="+".join(sorted({p.graph.name for p in pool})),
        num_servers=run.master.registry.num_servers,
        num_clients=len(run.clients),
        uplink=meter.uplink_summary(),
        downlink=meter.downlink_summary(),
    )
