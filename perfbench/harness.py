"""Workloads, inputs, correctness checks and metrics of the city-scale
benchmark around :func:`repro.simulation.sharding.run_large_scale_sharded`.

:func:`measure` is the whole measurement of one run: it builds the inputs
from the seed (timed as ``setup_s``, several times), calls the sharded
simulator repeatedly for the requested seconds, checks every call's
output, and turns the calls into the end-to-end metrics (tracing off) or
the per-layer metrics (tracing on, in calls alternating with untraced
ones so the tracing overhead is measured on the same inputs).

Set-up and calls are timed in CPU seconds of the driver and the shard
workers it reaps (:func:`cpu_seconds`): on a shared host of a few cores,
wall time mostly measured how busy the neighbours were.  Throughput is
that of the fastest call, with the medians beside it in the report.
Span busy times of the traced run stay wall seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Any

from tracing import Tracer, traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Checkpoint directories of the spill workload and the digest ledger.
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed untraced calls per run, whatever ``--seconds`` says.
MIN_CALLS = 3
#: Users of the train split the mobility predictor is fitted on.  SVR
#: training costs ~3.6 ms per user on a 2-core x86 host, so the 10k-user
#: subsample of ``repro bench`` (~37 s) would not fit several set-ups
#: into one run.
TRAIN_USERS = 250
MIGRATION_RADIUS_M = 100.0
#: The synthetic city (its points of interest) is part of the workload:
#: every seed replays users drawn from one population synthesized from
#: this seed, ``POOL_FACTOR`` times the workload's user count.  Letting
#: the seed move the city changed the shard count by +-20% and with it
#: the per-shard fixed cost, which swamped the run-to-run comparison.
CITY_SEED = 2020
POOL_FACTOR = 1.5


@dataclass(frozen=True)
class Workload:
    """One benchmark shape of the sharded simulator."""

    name: str
    policy: str  # MigrationPolicy value
    users: int
    dataset_steps: int
    max_steps: int
    shard_size: int
    workers: int
    spill: bool = False
    flash_crowd: bool = False  # flash-crowd faults + redirect overload


#: The benchmark's workloads.  Populations are scaled down from the shapes
#: they are named after (100k -> 5k, 250k -> 25k, 20k -> 2k users) so a
#: run holds several calls, with shard sizes scaled so the shard count
#: and structure stay: ~49 shards for 100k's 56, 8 for 250k's 8, ~26 for
#: 20k's 27.  Why each exists is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("perdnn-100k", "perdnn", 5_000, 25, 8, 32, 1),
        Workload(
            "perdnn-spill-250k", "perdnn", 25_000, 12, 4, 2950, 2,
            spill=True,
        ),
        Workload(
            "baseline-flashcrowd-20k", "none", 2_000, 25, 8, 48, 1,
            flash_crowd=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one sharded call consumes, built from the seed."""

    workload: Workload
    dataset: Any
    settings: Any
    config: Any
    predictor: Any
    estimator: Any
    planned_usable: int = 0


def build_partitioner():
    """The mobilenet partitioner on the paper's client/server pair."""
    from repro.core.config import PerDNNConfig
    from repro.dnn.models import build_model
    from repro.partitioning.partitioner import DNNPartitioner
    from repro.profiling.hardware import odroid_xu4, titan_xp_server
    from repro.profiling.profiler import ExecutionProfile

    network = PerDNNConfig().network
    profile = ExecutionProfile.build(
        build_model("mobilenet"), odroid_xu4(), titan_xp_server()
    )
    return DNNPartitioner(profile, network.uplink_bps, network.downlink_bps)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Synthesize the trace, build the partitioner, train the models."""
    import numpy as np

    from repro.core.config import PerDNNConfig
    from repro.core.master import MigrationPolicy
    from repro.faults import get_profile
    from repro.mobility.trajectory import TrajectoryDataset
    from repro.overload import OverloadConfig, SheddingPolicy
    from repro.simulation.large_scale import (
        SimulationSettings,
        train_default_estimator,
        train_default_predictor,
    )
    from repro.trajectories.synthetic import kaist_like

    city = kaist_like(
        np.random.default_rng(CITY_SEED),
        num_users=round(POOL_FACTOR * workload.users),
        duration_steps=workload.dataset_steps,
    )
    chosen = np.sort(
        np.random.default_rng(seed).choice(
            len(city.trajectories), size=workload.users, replace=False
        )
    )
    dataset = TrajectoryDataset(
        name=city.name,
        interval_seconds=city.interval_seconds,
        bbox=city.bbox,
        trajectories=tuple(city.trajectories[i] for i in chosen),
    )
    config = PerDNNConfig(migration_radius_m=MIGRATION_RADIUS_M)
    settings = SimulationSettings(
        policy=MigrationPolicy(workload.policy),
        migration_radius_m=MIGRATION_RADIUS_M,
        max_steps=workload.max_steps,
        seed=seed,
        faults=get_profile("flash-crowd") if workload.flash_crowd else None,
        overload=(
            OverloadConfig(policy=SheddingPolicy.REDIRECT, queue_capacity=2)
            if workload.flash_crowd
            else None
        ),
    )
    partitioner = build_partitioner()
    rng = np.random.default_rng(seed)
    predictor = None
    if settings.policy is MigrationPolicy.PERDNN:
        train, _ = dataset.split_time(settings.replay_fraction)
        subsample = TrajectoryDataset(
            name=train.name,
            interval_seconds=train.interval_seconds,
            bbox=train.bbox,
            trajectories=train.trajectories[:TRAIN_USERS],
        )
        predictor = train_default_predictor(
            subsample, config.prediction_history, rng
        )
    estimator = train_default_estimator(partitioner, rng)
    return Inputs(
        workload, dataset, settings, config, predictor, estimator
    )


def planned_usable(inputs: Inputs) -> int:
    """Usable clients the shard plan covers (the conservation target)."""
    from repro.simulation.sharding import plan_shards

    plan = plan_shards(
        inputs.dataset, inputs.config, inputs.settings,
        inputs.workload.shard_size,
    )
    return sum(shard.num_usable for shard in plan)


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    The shard worker processes a sharded call starts are joined before it
    returns, so the difference across a call is the CPU the call cost in
    the driver and in every worker.
    """
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run_sharded(inputs: Inputs, scratch: str):
    """One timed sharded call; returns ``(wall_s, cpu_s, result)``.

    Each call gets a fresh partitioner (a cold plan cache, as a new run
    of the simulator has), a collected heap, and, when spilling, a fresh
    checkpoint directory that is removed afterwards.  None of that is
    timed.
    """
    from repro.simulation import sharding

    workload = inputs.workload
    partitioner = build_partitioner()
    checkpoint_dir = (
        tempfile.mkdtemp(prefix="checkpoint-", dir=scratch)
        if workload.spill
        else None
    )
    gc.collect()
    try:
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        result = sharding.run_large_scale_sharded(
            inputs.dataset,
            partitioner,
            inputs.settings,
            config=inputs.config,
            shard_size=workload.shard_size,
            workers=workload.workers,
            predictor=inputs.predictor,
            contention_estimator=inputs.estimator,
            record_events=False,
            checkpoint_dir=checkpoint_dir,
            spill_datasets=workload.spill,
        )
        wall = time.perf_counter() - start
        return wall, cpu_seconds() - cpu_start, result
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def telemetry_digest(result) -> str:
    """sha256 of the merged telemetry snapshot's canonical JSON."""
    return hashlib.sha256(result.telemetry.dumps().encode()).hexdigest()


def check_result(result, inputs: Inputs) -> list[str]:
    """Invariants every merged result must satisfy; [] when it does."""
    problems = []
    info = result.extras["sharding"]
    covered = sum(info["clients_per_shard"]) + info["failed_clients"]
    if covered != inputs.planned_usable:
        problems.append(
            f"clients_per_shard + failed_clients = {covered}, "
            f"planned usable clients = {inputs.planned_usable}"
        )
    if info["failed_shards"]:
        problems.append(f"quarantined shards {info['failed_shards']}")
    if result.total_queries <= 0:
        problems.append("no query completed")
    if inputs.workload.flash_crowd:
        overload = result.extras.get("overload")
        if not overload:
            problems.append("flash crowd offered no window to admission")
        else:
            outcomes = sum(
                overload[key]
                for key in ("admitted", "shed", "redirected", "degraded")
            )
            if overload["offered"] != outcomes:
                problems.append(
                    f"offered {overload['offered']} != admitted + shed + "
                    f"redirected + degraded = {outcomes}"
                )
    return problems


class DigestLedger:
    """Telemetry digest per ``workload/seed``, kept across benchmark runs.

    The first run of a seed records its digest; every later call of that
    seed, in this run or a later one, must reproduce it byte for byte.
    """

    def __init__(self, path: str):
        self.path = path

    def load(self) -> dict[str, str]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                known = json.load(handle)
        except FileNotFoundError:
            return {}
        if not isinstance(known, dict):
            raise ValueError(f"{self.path} is not a digest ledger")
        return known

    def record(self, key: str, digest: str) -> None:
        known = self.load()
        known[key] = digest
        temp = f"{self.path}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(known, handle, indent=1, sort_keys=True)
        os.replace(temp, self.path)


def git_sha(root: str = ROOT) -> str | None:
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def _peak_rss_mb() -> tuple[float, float]:
    """(largest process of the run, this driver process) high-water MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, workers), own


def _outcomes(result) -> dict[str, float]:
    """The paper's simulated outcomes of one merged result."""
    info = result.extras["sharding"]
    total = result.total_queries
    return {
        "completed_shard_frac": 1.0 - len(info["failed_shards"])
        / max(1, info["planned_shards"]),
        # The miss side of the paper's cold-start hit ratio: the IONN
        # baseline hits ~4% of cold starts, a ratio whose seed-to-seed
        # spread (~27%) no bound could hold; its complement moves ~1%.
        "coldstart_miss_ratio": result.misses
        / max(1, result.hits + result.misses),
        "coldstart_query_frac": result.coldstart_queries / total,
        "availability": result.availability,
        "unshed_query_frac": 1.0 - result.shed_queries / total,
    }


#: Per-layer metrics read straight off one span, per traced call:
#: metric -> (span, field); field is "s" (busy seconds), "calls" or "rows".
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "sharding.plan_shards.s": ("sharding.plan_shards", "s"),
    "sharding.supervise.s": ("sharding.supervise", "s"),
    "checkpoint.dataset_store.s": ("checkpoint.dataset_store", "s"),
    "checkpoint.dataset_read.s": ("checkpoint.dataset_read", "s"),
    "checkpoint.write_shard.s": ("checkpoint.write_shard", "s"),
    "checkpoint.load_shard.s": ("checkpoint.load_shard", "s"),
    "telemetry.merge_registries.s": ("telemetry.merge_registries", "s"),
    "geo.registry_build.s": ("geo.registry_build", "s"),
    "vectorized.propose_associations.s": (
        "vectorized.propose_associations", "s"
    ),
    "edge_server.step_gpu.s": ("edge_server.step_gpu", "s"),
    "master.estimate_slowdowns.s": ("master.estimate_slowdowns", "s"),
    "estimation.predict_slowdown_batch.rows": (
        "estimation.predict_slowdown_batch", "rows"
    ),
    "ml.forest_predict.s": ("ml.forest_predict", "s"),
    "ml.forest_predict.rows": ("ml.forest_predict", "rows"),
    "master.expire_caches.s": ("master.expire_caches", "s"),
    "master.proactive_migrate_batch.s": (
        "master.proactive_migrate_batch", "s"
    ),
    "mobility.predict_points.s": ("mobility.predict_points", "s"),
    "mobility.predict_points.rows": ("mobility.predict_points", "rows"),
    "geo.servers_within_batch.s": ("geo.servers_within_batch", "s"),
    "geo.servers_within_batch.rows": ("geo.servers_within_batch", "rows"),
    "partitioning.partition.calls": ("partitioning.partition", "calls"),
    "partitioning.partition.s": ("partitioning.partition", "s"),
    "query_loop.run_query_window.calls": (
        "query_loop.run_query_window", "calls"
    ),
    "query_loop.run_query_window.s": ("query_loop.run_query_window", "s"),
    "query_loop.run_local_window.calls": (
        "query_loop.run_local_window", "calls"
    ),
    "overload.try_admit.calls": ("overload.try_admit", "calls"),
    "overload.try_admit.s": ("overload.try_admit", "s"),
    "master.redirect_target.calls": ("master.redirect_target", "calls"),
    "master.redirect_target.s": ("master.redirect_target", "s"),
    "master.estimate_slowdown.calls": ("master.estimate_slowdown", "calls"),
}


def layer_metrics(
    tracer: Tracer,
    traced_calls: list[dict],
    untraced_calls: list[dict],
) -> dict[str, float]:
    """Per-layer metrics, each per traced sharded call."""
    n = len(traced_calls)
    read = {"s": tracer.seconds, "calls": tracer.calls, "rows": tracer.rows}
    metrics = {
        name: read[field](span) / n
        for name, (span, field) in SPAN_METRICS.items()
    }
    metrics["sharding.shard_run.s_p50"] = statistics.median(
        c["shard_p50"] for c in traced_calls
    )
    metrics["sharding.shard_run.s_max"] = statistics.median(
        c["shard_max"] for c in traced_calls
    )
    driver_other = tracer.self_seconds("sharding.run") / n
    shard_self = tracer.self_seconds("large_scale.run") / n
    busy = (tracer.seconds("sharding.run") + tracer.worker_busy) / n
    metrics["sharding.driver_other.s"] = driver_other
    metrics["large_scale.self.s"] = shard_self
    metrics["trace.unattributed_frac"] = (driver_other + shard_self) / busy
    metrics["checkpoint.bytes_written"] = (
        tracer.rows("checkpoint.dataset_store")
        + tracer.rows("checkpoint.write_shard")
    ) / n
    metrics["supervisor.attempts"] = statistics.median(
        c["attempts"] for c in traced_calls
    )
    metrics["supervisor.retries"] = statistics.median(
        c["retries"] for c in traced_calls
    )
    first = traced_calls[0]
    for key in (
        "partitioning.cache_hit_ratio", "migration.count", "migration.mb",
        "migration.peak_uplink_mbps",
    ):
        metrics[key] = first[key]
    traced_rate = statistics.median(c["rate"] for c in traced_calls)
    untraced_rate = statistics.median(c["rate"] for c in untraced_calls)
    metrics["trace_overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics


def _call_record(wall: float, cpu: float, result, traced_call: bool) -> dict:
    info = result.extras["sharding"]
    client_steps = result.num_clients * result.steps
    record = {
        "seconds": wall,
        "cpu_seconds": cpu,
        "traced": traced_call,
        "rate": client_steps / cpu,
        "wall_rate": client_steps / wall,
        "shards": info["planned_shards"],
        "attempts": info["planned_shards"] - len(info["resumed_shards"])
        + info["retries"],
        "retries": info["retries"],
        "partitioning.cache_hit_ratio": (
            result.extras["partition_cache"]["hit_ratio"]
        ),
        "migration.count": result.migrations,
        "migration.mb": result.migrated_bytes / 1e6,
        "migration.peak_uplink_mbps": result.uplink.peak_mbps,
        "outcomes": _outcomes(result),
    }
    return record


def _median_or_none(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str = SCRATCH,
) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns ``(report, result_line)``.

    ``result_line`` is the contract's last line (``correct``,
    ``attempted``, ``failed``, ``metrics``); ``report`` carries the host
    block, every call's timing, and what each statistic is.
    """
    import repro.simulation.sharding  # noqa: F401 - imports stay untimed

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        inputs = build_inputs(workload, seed)
        setup_times.append(cpu_seconds() - start)
    inputs.planned_usable = planned_usable(inputs)
    # The caller's heap (the inputs and whatever set-up left behind) is
    # not the simulator's work: freeze it out of the cyclic collector so
    # neither the driver's collections nor those of forked shard workers
    # (which would copy every inherited page they scan) walk it.
    gc.collect()
    gc.freeze()
    try:
        return _measure_calls(inputs, seed, seconds, trace, scratch,
                              setup_times)
    finally:
        gc.unfreeze()


def _measure_calls(
    inputs: Inputs,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str,
    setup_times: list[float],
) -> tuple[dict, dict]:
    """The timed calls of :func:`measure` and the report built on them."""
    workload = inputs.workload
    os.makedirs(scratch, exist_ok=True)
    ledger = DigestLedger(os.path.join(scratch, "digests.json"))
    key = f"{workload.name}/seed={seed}"
    reference = ledger.load().get(key)
    recorded = reference is not None

    tracer = Tracer() if trace else None
    calls: list[dict] = []
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    min_calls = 2 * MIN_CALLS if trace else MIN_CALLS
    while (
        attempted < min_calls
        or time.perf_counter() < deadline
        or (trace and attempted % 2)
    ):
        traced_call = trace and attempted % 2 == 1
        attempted += 1
        try:
            if traced_call:
                with traced(tracer):
                    wall, cpu, result = run_sharded(inputs, scratch)
            else:
                wall, cpu, result = run_sharded(inputs, scratch)
        except Exception as exc:  # a failed call is a failed operation
            failures.append(f"call {attempted}: {type(exc).__name__}: {exc}")
            continue
        shards = tracer.samples.pop("large_scale.run", []) if trace else []
        problems = check_result(result, inputs)
        digest = telemetry_digest(result)
        if reference is None:
            reference = digest
        if digest != reference:
            problems.append(
                f"telemetry digest {digest[:16]} != {reference[:16]} "
                f"of seed {seed}"
            )
        if problems:
            failures.append(f"call {attempted}: " + "; ".join(problems))
            continue
        record = _call_record(wall, cpu, result, traced_call)
        if traced_call:
            record["shard_p50"] = statistics.median(shards)
            record["shard_max"] = max(shards)
        calls.append(record)
    if reference is not None and not recorded and not failures:
        ledger.record(key, reference)

    untraced = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    peak_rss_mb, driver_rss_mb = _peak_rss_mb()
    metrics: dict[str, float] = {}
    if trace and traced_calls and untraced:
        metrics = layer_metrics(tracer, traced_calls, untraced)
    elif not trace and untraced:
        metrics = {
            # The fastest call: every call does the same work (the
            # telemetry digest shows it), and a busy neighbour only ever
            # adds CPU time; its bursts moved run medians by up to 35%.
            "client_steps_per_cpu_s": max(c["rate"] for c in untraced),
            "peak_rss_mb": peak_rss_mb,
            "driver_rss_mb": driver_rss_mb,
            "setup_s": statistics.median(setup_times),
            **untraced[0]["outcomes"],
        }
    statistics_block = {
        "client_steps_per_cpu_s": {
            "statistic": "max (fastest call)", "samples": len(untraced),
            "median": _median_or_none(c["rate"] for c in untraced),
            "wall_median": _median_or_none(
                c["wall_rate"] for c in untraced
            ),
        },
        "setup_s": {"statistic": "median", "samples": len(setup_times)},
        "clock": "CPU seconds, user + system, of the driver and the shard "
        "workers it reaped; wall seconds are reported beside them",
        "peak_rss_mb": {"statistic": "max ru_maxrss over processes"},
        "driver_rss_mb": {"statistic": "ru_maxrss of the driver"},
        "per_layer": {
            "statistic": "total per traced call, mean over calls; shard_run "
            "percentiles are the median over calls of each call's "
            "per-shard p50 / max",
            "samples": len(traced_calls),
        },
    }
    report = {
        "report": {
            "workload": workload.name,
            "seed": seed,
            "trace": trace,
            "shape": {
                "users": workload.users,
                "dataset_steps": workload.dataset_steps,
                "max_steps": workload.max_steps,
                "shard_size": workload.shard_size,
                "workers": workload.workers,
                "spill": workload.spill,
                "train_users": TRAIN_USERS,
                "shards": calls[0]["shards"] if calls else None,
            },
            "host": host_block(),
            "statistics": statistics_block,
            "setup_cpu_seconds": setup_times,
            "call_seconds": [
                {
                    "seconds": c["seconds"],
                    "cpu_seconds": c["cpu_seconds"],
                    "traced": c["traced"],
                }
                for c in calls
            ],
            "telemetry_sha256": reference,
            "failures": failures,
            "spans": tracer.export()["totals"] if tracer else None,
        }
    }
    failed = attempted - len(calls)
    units = metric_units()
    line = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    return report, line


def metric_units() -> dict[str, str]:
    """Unit of every metric declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
