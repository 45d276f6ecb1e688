"""City-scale sharded simulation driver.

:func:`run_large_scale_sharded` scales :func:`~repro.simulation.
large_scale.run_large_scale` past the single-process interval loop by
splitting the client population into *spatial shards* — trajectories
grouped by the hex cell their replay starts in — and running each shard
as an independent sub-simulation, optionally fanned out over
``multiprocessing`` workers.  Per-shard telemetry is folded back with the
order-independent registry merge, so the combined snapshot is
byte-identical no matter how many workers ran or in what order shards
finished.

Semantics: a shard simulates only its own clients against its own server
fleet (the cells those clients visit), with a seed derived
deterministically from ``(run seed, shard index)``.  That makes shards
embarrassingly parallel — there is no cross-shard GPU contention or
migration — which is the standard population-split approximation for
city-scale mobile simulation.  What *is* pinned exactly, by tests:

* the decomposition and merge depend only on ``(dataset, settings,
  shard_size)`` — ``workers`` 1, 2, or 4 export the same bytes;
* each shard obeys the equivalence of the unsharded loop, so a sharded
  run with the scalar reference oracles patched in is byte-identical to
  the production one;
* merged counters satisfy the same conservation and no-query-dropped
  invariants as the scalar path (property suite).

Client and server ids are rebased by per-shard offsets (shard order) so
merged traces, per-server metric labels, and traffic summaries stay
collision-free.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

import numpy as np

from repro.core.config import PerDNNConfig
from repro.estimation.estimator import ContentionEstimator
from repro.faults import FaultSchedule
from repro.geo.hexgrid import HexGrid
from repro.mobility.predictor import PointPredictor
from repro.mobility.trajectory import (
    MIN_REPLAY_POINTS,
    TrajectoryDataset,
    replay_cut,
)
from repro.network.traffic import TrafficFold
from repro.partitioning.partitioner import DNNPartitioner
from repro.simulation.checkpoint import (
    CheckpointStore,
    ShardDatasetStore,
    ShardRecord,
    run_fingerprint,
)
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.result import LargeScaleResult, assemble_result
from repro.simulation.training import train_default_models
from repro.simulation.supervisor import (
    SupervisionReport,
    SupervisorConfig,
    supervise,
)
from repro.telemetry import (
    Event,
    EventTrace,
    MetricsRegistry,
    Telemetry,
    merge_registries,
)

#: Gauges that are not per-shard additive under :func:`merge_registries`.
#: ``sim.steps`` is the longest shard's horizon; everything else defaults
#: to "sum" (client/server totals, per-server queue depths — whose labels
#: are disjoint after rebasing anyway).  ``resilience.availability`` is a
#: ratio and is recomputed from merged counters after the fold.
GAUGE_MERGE_RULES: dict[str, str] = {"sim.steps": "max"}

#: Target clients per shard when the caller names none.
DEFAULT_SHARD_SIZE = 256

#: Event fields that carry client/server identifiers (rebased on merge).
_CLIENT_ID_FIELDS = frozenset({"client_id"})
_SERVER_ID_FIELDS = frozenset(
    {"server_id", "previous_server", "source_server", "target_server"}
)


@dataclass(frozen=True)
class ShardPlan:
    """One spatial shard: which trajectories it simulates."""

    index: int
    trajectory_indices: tuple[int, ...]
    cells: tuple[tuple[int, int], ...]  # home cells, sorted axial (q, r)
    num_usable: int  # trajectories with >= MIN_REPLAY_POINTS replay points


def shard_seed(seed: int, shard_index: int) -> int:
    """Deterministic, worker-independent per-shard seed.

    The *full* run seed feeds the :class:`~numpy.random.SeedSequence`,
    so seeds that differ only above bit 32 derive different per-shard
    seeds, while a seed below 2**32 is the same single entropy word it
    would be masked; the regression suite pins both properties.
    """
    sequence = np.random.SeedSequence([seed, shard_index])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def plan_shards(
    dataset: TrajectoryDataset,
    config: PerDNNConfig,
    settings: SimulationSettings,
    shard_size: int,
) -> list[ShardPlan]:
    """Spatially decompose the client population into shards.

    Each trajectory's *home cell* is the hex cell of its first replayed
    point (where the client enters the simulation), or of its only point
    when it replays none; a trajectory with no points has no home cell
    and joins no shard.  A trajectory makes a client when its tail is
    usable by the :class:`~repro.mobility.trajectory.ReplayTable` rule
    (at least ``MIN_REPLAY_POINTS`` points).  Home cells are visited in
    sorted axial order and packed greedily until a shard holds at least
    ``shard_size`` usable clients; a cell's clients always land
    in the same shard.  The plan depends only on the dataset, the cell
    radius, the replay split, and ``shard_size`` — never on worker count.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    grid = HexGrid(config.cell_radius_m)
    n = len(dataset.trajectories)
    if n == 0:
        return []
    # Only the replay tail's length and first point matter: compute each
    # trajectory's cut instead of copying every replay half.
    firsts = np.zeros((n, 2), dtype=float)
    usable = np.zeros(n, dtype=bool)
    homed = np.zeros(n, dtype=bool)
    for i, trajectory in enumerate(dataset.trajectories):
        points = len(trajectory)
        if not points:
            continue
        cut = replay_cut(points, settings.replay_fraction)
        usable[i] = points - cut >= MIN_REPLAY_POINTS
        homed[i] = True
        firsts[i] = trajectory.points[min(cut, points - 1)]
    cells = grid.cells_of(firsts)
    groups: dict[tuple[int, int], list[int]] = {}
    for i in np.flatnonzero(homed).tolist():
        groups.setdefault((int(cells[i, 0]), int(cells[i, 1])), []).append(i)
    shards: list[ShardPlan] = []
    pending: list[int] = []
    pending_cells: list[tuple[int, int]] = []
    pending_usable = 0

    def close() -> None:
        nonlocal pending, pending_cells, pending_usable
        shards.append(
            ShardPlan(
                index=len(shards),
                trajectory_indices=tuple(pending),
                cells=tuple(pending_cells),
                num_usable=pending_usable,
            )
        )
        pending, pending_cells, pending_usable = [], [], 0

    for cell in sorted(groups):
        members = groups[cell]
        pending.extend(members)
        pending_cells.append(cell)
        pending_usable += int(usable[members].sum())
        if pending_usable >= shard_size:
            close()
    if pending:
        close()
    return shards


@dataclass(frozen=True)
class _ShardJob:
    """One shard's work: its data, the driver's warmed template pool and
    live models (shared inline, inherited by a fork, pickled by spawn)."""

    index: int
    dataset: TrajectoryDataset | None  # None when spilled to dataset_path
    partitioners: list[DNNPartitioner]  # the warmed template pool
    predictor: PointPredictor | None
    contention_estimator: ContentionEstimator | None
    settings: SimulationSettings
    config: PerDNNConfig
    record_events: bool
    dataset_path: str | None = None  # spilled sub-dataset pickle


def _fork(pool: list[DNNPartitioner]) -> list[DNNPartitioner]:
    """Fork each distinct pool member (one listed twice stays one
    object, as it would in a pickled copy)."""
    forks = {id(member): member.fork() for member in pool}
    return [forks[id(member)] for member in pool]


def _run_shard_job(job: _ShardJob) -> LargeScaleResult:
    """Worker entry point: run one shard as a full sub-simulation.

    The shard plans on its own fork of the template, so no shard sees a
    key another shard planned lazily.  A spilled job carries only
    ``dataset_path``: the worker loads its own subset from disk, so the
    parent never held it.
    """
    dataset = job.dataset
    if dataset is None:
        if job.dataset_path is None:
            raise ValueError(
                f"shard {job.index} has neither an in-memory dataset "
                "nor a dataset_path"
            )
        dataset = ShardDatasetStore.read(job.dataset_path)
    return run_large_scale(
        dataset,
        _fork(job.partitioners),
        job.settings,
        config=job.config,
        predictor=job.predictor,
        contention_estimator=job.contention_estimator,
        telemetry=Telemetry.create(record_events=job.record_events),
    )


def _sub_dataset(
    dataset: TrajectoryDataset, indices: tuple[int, ...]
) -> TrajectoryDataset:
    return TrajectoryDataset(
        name=dataset.name,
        interval_seconds=dataset.interval_seconds,
        bbox=dataset.bbox,
        trajectories=tuple(dataset.trajectories[i] for i in indices),
    )


def _rebase_registry(
    registry: MetricsRegistry, server_offset: int
) -> MetricsRegistry:
    """Copy a shard registry, shifting ``server`` labels into the merged
    id space so per-server metrics from different shards never collide."""
    rebased = MetricsRegistry()
    for metric in registry.metrics():
        labels = dict(metric.labels)
        if "server" in labels:
            labels["server"] = str(int(labels["server"]) + server_offset)
        if hasattr(metric, "buckets"):
            copy = rebased.histogram(metric.name, metric.buckets, labels)
            copy.counts = list(metric.counts)
            copy.sum = metric.sum
            copy.count = metric.count
        elif hasattr(metric, "set"):
            rebased.gauge(metric.name, labels).set(metric.value)
        else:
            rebased.counter(metric.name, labels).value = metric.value
    return rebased


def _rebase_event(event: Event, client_offset: int, server_offset: int) -> Event:
    changes: dict[str, int] = {}
    for field_info in fields(event):
        name = field_info.name
        value = getattr(event, name)
        if value is None:
            continue
        if name in _CLIENT_ID_FIELDS:
            changes[name] = value + client_offset
        elif name in _SERVER_ID_FIELDS:
            changes[name] = value + server_offset
    return replace(event, **changes) if changes else event


def _merge_records(
    dataset_name: str,
    settings: SimulationSettings,
    model: str,
    records: Iterable[ShardRecord],
    shard_size: int,
    workers: int,
) -> LargeScaleResult:
    """Fold per-shard records into one region-wide ``LargeScaleResult``.

    ``records`` is consumed *streamingly*, one shard at a time, in shard
    order: the registry fold (:func:`merge_registries`) pulls rebased
    registries from a generator that computes cumulative id offsets,
    rebases trace events into the merged trace, and folds traffic
    summaries into incremental :class:`TrafficFold` accumulators as side
    effects.  With a checkpoint store behind the iterable, no two shard
    records ever co-reside in memory — for *any* of the telemetry
    (registries, events, traffic): merge peak memory is the merged
    footprint plus a single shard, independent of shard count.
    """
    trace = EventTrace()
    uplink_fold = TrafficFold()
    downlink_fold = TrafficFold()
    totals = {
        "clients": 0, "servers": 0, "hits": 0, "misses": 0, "shards": 0,
    }
    clients_per_shard: list[int] = []

    def rebased_registries() -> Iterator[MetricsRegistry]:
        for record in records:
            client_offset = totals["clients"]
            server_offset = totals["servers"]
            totals["clients"] += record.num_clients
            totals["servers"] += record.num_servers
            totals["hits"] += record.cache_hits
            totals["misses"] += record.cache_misses
            totals["shards"] += 1
            clients_per_shard.append(record.num_clients)
            trace.extend(
                _rebase_event(event, client_offset, server_offset)
                for event in record.events
            )
            uplink_fold.add(record.uplink, server_offset)
            downlink_fold.add(record.downlink, server_offset)
            yield _rebase_registry(record.registry, server_offset)

    # The fold drains ``records``; the totals are complete after it.
    registry = merge_registries(rebased_registries(), GAUGE_MERGE_RULES)
    merged = assemble_result(
        Telemetry(registry=registry, trace=trace),
        totals["hits"],
        totals["misses"],
        policy=settings.policy.value,
        dataset=dataset_name,
        model=model,
        num_servers=totals["servers"],
        num_clients=totals["clients"],
        uplink=uplink_fold.summary(),
        downlink=downlink_fold.summary(),
    )
    merged.extras["sharding"] = {
        "shards": totals["shards"],
        "shard_size": shard_size,
        "workers": workers,
        "clients_per_shard": clients_per_shard,
    }
    return merged


def run_large_scale_sharded(
    dataset: TrajectoryDataset,
    partitioner: DNNPartitioner | list[DNNPartitioner],
    settings: SimulationSettings,
    config: PerDNNConfig | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    workers: int = 1,
    predictor: PointPredictor | None = None,
    contention_estimator: ContentionEstimator | None = None,
    record_events: bool = True,
    supervision: SupervisorConfig | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
    spill_datasets: bool = False,
) -> LargeScaleResult:
    """Run the large-scale simulation sharded over supervised workers.

    Drop-in sibling of :func:`run_large_scale` for populations far past
    what one interval loop can replay.  The predictor and contention
    estimator are trained once here (through the
    :func:`~repro.simulation.training.train_default_models` seam the
    unsharded entry point uses too) and read live by every shard: their
    predict paths draw no randomness.  Each shard plans on its own
    :meth:`~repro.partitioning.partitioner.DNNPartitioner.fork` of one
    template: a fork of the caller's partitioner(s), which stay as
    passed, warmed with a contention estimator over every slowdown key up
    to :meth:`~repro.estimation.estimator.ContentionEstimator.max_slowdown`.
    No shard re-solves a plan the driver solved, and keys outside the
    bound (the analytic fallback, degraded re-plans) are planned lazily
    per shard.  Plans are a pure function of their key, so warming
    changes no merged bytes; ``extras["partition_cache"]["prewarmed"]``
    counts the warm-up's plans.

    Shards run under :func:`~repro.simulation.supervisor.supervise`:
    worker crashes and per-shard timeouts are retried with
    capped-exponential backoff in a fresh process (``supervision``
    configures attempts/timeout/backoff), and a shard that exhausts its
    budget either raises a typed
    :class:`~repro.simulation.supervisor.ShardError` or — under
    ``supervision.allow_partial`` — is dropped from the merge with its
    missing coverage accounted in ``extras["sharding"]``
    (``failed_shards``/``failed_clients``).  A retried shard re-runs the
    same deterministic :func:`shard_seed`, so retries never change the
    merged bytes.

    With ``checkpoint_dir`` every completed shard is spilled to disk the
    moment it lands and the merge *streams* from those files (constant
    memory in the shard count); ``resume=True`` skips shards already
    completed by an earlier interrupted run, after a settings-fingerprint
    check rejects checkpoints from any different run.

    ``record_events=False`` drops the structured event trace (counters
    and histograms are unaffected) — at hundreds of thousands of client
    windows the trace dominates memory and inter-process transfer.

    ``spill_datasets=True`` writes each shard's trajectory subset to
    disk once at plan time (under ``datasets/`` in ``checkpoint_dir``, or
    in a temporary scratch directory) and hands jobs the *path*; workers
    load their own file, the driver drops its dataset reference after
    planning, and the spilled subsets are removed when the run ends,
    however it ends.  Without a ``checkpoint_dir``, completed shards are
    spilled to the scratch directory (removed on return too) and merged
    streamingly, so the driver process holds only the plan, one
    in-flight shard record, and the merged result regardless of
    population size.  Pickle round-trips the trajectory
    arrays bit-exactly: spilled runs export the same bytes as in-memory
    ones (pinned by the equivalence suite).

    The returned result is the deterministic, order-independent merge of
    the per-shard results; ``result.extras["sharding"]`` records the
    decomposition and the supervision outcome.  Exported telemetry bytes
    depend on ``shard_size`` but not on ``workers``, retries, chaos, or
    whether the run was checkpointed or resumed.
    """
    # Validate everything cheap *before* the expensive predictor and
    # estimator training, so a bad invocation fails in milliseconds.
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if isinstance(settings.faults, FaultSchedule):
        raise ValueError(
            "sharded runs need a FaultProfile (schedules are built from "
            "each shard's own servers); pass the profile instead"
        )
    pool = list(partitioner) if isinstance(partitioner, list) else [partitioner]
    if not pool:
        raise ValueError("at least one partitioner is required")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    supervision = supervision or SupervisorConfig()
    # Fail fast on an unusable directory, before the expensive training.
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.prepare()
    config = config or PerDNNConfig(
        migration_radius_m=settings.migration_radius_m
    )
    shards = plan_shards(dataset, config, settings, shard_size)
    kills = supervision.chaos.always_kill if supervision.chaos else ()
    missing = [index for index in kills if not 0 <= index < len(shards)]
    if missing:
        raise ValueError(
            f"chaos always_kill names shard index(es) {missing}, but the "
            f"run plans {len(shards)} shard(s)"
        )
    model_names = sorted({p.graph.name for p in pool})
    predictor, contention_estimator = train_default_models(
        dataset, pool[0], settings, config,
        np.random.default_rng(settings.seed),
        predictor, contention_estimator,
    )
    # Every shard forks this warmed template, so each key is planned
    # once per run instead of once per shard.
    template = _fork(pool)
    prewarmed = 0
    if contention_estimator is not None:
        bound = contention_estimator.max_slowdown()
        prewarmed = sum(member.warm(bound) for member in template)
    dataset_name = dataset.name

    completed: set[int] = set()
    if store is not None:
        fingerprint = run_fingerprint(
            dataset, settings, config, shard_size, model_names, record_events
        )
        if resume:
            store.check_fingerprint(fingerprint)
            completed = store.completed_shards(len(shards))
        elif store.has_manifest():
            raise ValueError(
                f"checkpoint directory {store.directory!r} already holds a "
                "run; pass resume=True to continue it or use a fresh "
                "directory"
            )
        store.write_manifest(
            fingerprint, len(shards), shard_size, record_events
        )
    elif spill_datasets:
        # A spilled run streams its results from disk too, through a
        # scratch root, so the driver's client-scale footprint is one
        # in-flight shard plus the merged result whatever the population.
        store = CheckpointStore(tempfile.mkdtemp(prefix="repro-shard-spill-"))
    # Dataset spill: sub-datasets go to disk at plan time and jobs carry
    # only paths.  They are scratch under either root, removed in finally.
    datasets = None
    if spill_datasets:
        datasets = ShardDatasetStore(store.path("datasets"))

    try:
        if datasets is not None:
            datasets.prepare()
        jobs = []
        for shard in shards:
            if shard.index in completed:
                continue
            job_dataset = _sub_dataset(dataset, shard.trajectory_indices)
            job_path = None
            if datasets is not None:
                job_path = datasets.store(shard.index, job_dataset)
                job_dataset = None
            jobs.append(
                _ShardJob(
                    index=shard.index,
                    dataset=job_dataset,
                    partitioners=template,
                    predictor=predictor,
                    contention_estimator=contention_estimator,
                    settings=replace(
                        settings, seed=shard_seed(settings.seed, shard.index)
                    ),
                    config=config,
                    record_events=record_events,
                    dataset_path=job_path,
                )
            )
        if spill_datasets:
            # Every subset is on disk; the driver no longer needs the
            # population (the caller may drop its own reference too).
            dataset = None  # type: ignore[assignment]

        def spill(index: int, result: LargeScaleResult) -> None:
            store.write_shard(ShardRecord.from_result(index, result))

        results, report = supervise(
            jobs,
            _run_shard_job,
            workers=workers,
            config=supervision,
            on_result=spill if store is not None else None,
            # With a store the merge streams from disk; holding every
            # shard result in memory as well would defeat the point.
            keep_results=store is None,
        )

        surviving = sorted(completed | set(results))
        if store is not None:
            records: Iterable[ShardRecord] = (
                store.load_shard(index) for index in surviving
            )
        else:
            records = (
                ShardRecord.from_result(index, results[index])
                for index in surviving
            )
        merged = _merge_records(
            dataset_name,
            settings,
            "+".join(model_names),
            records,
            shard_size=shard_size,
            workers=workers,
        )
    finally:
        if datasets is not None:
            datasets.cleanup("dataset-")
        if store is not None and checkpoint_dir is None:
            store.cleanup("shard-")  # the scratch root goes with them
    _annotate_supervision(merged, shards, completed, report)
    merged.extras["partition_cache"]["prewarmed"] = prewarmed
    merged.extras["sharding"]["spill_datasets"] = spill_datasets
    return merged


def _annotate_supervision(
    merged: LargeScaleResult,
    shards: list[ShardPlan],
    resumed: set[int],
    report: SupervisionReport,
) -> None:
    """Record the supervision outcome in ``extras["sharding"]``.

    ``extras`` never enter the exported telemetry snapshot, so the
    accounting can mention retries/resumes without breaking the
    byte-identity invariants.  Conservation: ``sum(clients_per_shard) +
    failed_clients`` equals the planned usable-client total even under a
    partial merge.
    """
    by_index = {shard.index: shard for shard in shards}
    info = merged.extras["sharding"]
    info["planned_shards"] = len(shards)
    info["failed_shards"] = list(report.quarantined)
    info["failed_clients"] = sum(
        by_index[index].num_usable for index in report.quarantined
    )
    info["retries"] = report.retries
    info["resumed_shards"] = sorted(resumed)
