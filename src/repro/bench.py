"""Performance benchmark harness for the planner hot paths (BENCH trajectory).

Times the code the large-scale simulator leans on hardest — random-forest
fit/predict (single-row and batched), partition planning, and a small
end-to-end :func:`~repro.simulation.large_scale.run_large_scale` run — on
deterministic seeded inputs, reporting wall-clock medians over repeats.

``repro bench [--quick] [--out BENCH_perf.json]`` is the CLI entry point;
``benchmarks/bench_perf_hotpaths.py`` wraps the same functions as pytest
benchmarks.  Each PR's committed ``BENCH_perf.json`` is the perf
trajectory: regenerate it (full mode) when a PR claims a perf win.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable

import numpy as np

SCHEMA = "perdnn-bench/1"

#: benchmark name -> metric keys that must exist and be positive.
REQUIRED_RESULTS: dict[str, tuple[str, ...]] = {
    "forest_fit": ("seconds_median",),
    "forest_predict_single": ("seconds_median",),
    "forest_predict_batch": ("seconds_median",),
    "partition_planning": ("seconds_median", "cached_seconds_median"),
    "large_scale": ("seconds_median",),
    "large_scale_sharded": ("seconds_median", "clients_steps_per_second"),
    "large_scale_sharded_checkpointed": (
        "seconds_median",
        "seconds_min",
        "baseline_seconds_median",
        "clients_steps_per_second",
    ),
    "large_scale_sharded_100k": (
        "seconds_median",
        "seconds_min",
        "clients_steps_per_second",
        "clients_steps_per_second_per_worker",
        "speedup_vs_10k_per_worker",
        "peak_rss_mb",
    ),
    "large_scale_sharded_1m": (
        "seconds_median",
        "seconds_min",
        "clients_steps_per_second",
        "clients_steps_per_second_per_worker",
        "speedup_vs_100k_per_worker",
        "peak_rss_mb",
    ),
}

#: Per-worker throughput (clients x steps / second / worker) of the 10k
#: ``large_scale_sharded`` case as committed before the 100k scaling work
#: (BENCH_perf.json at commit 93e7bec).  The 100k case reports its own
#: per-worker throughput normalized against this fixed trajectory point,
#: so the speedup is comparable across machines of different core counts
#: and across reruns of the harness.
SEED_10K_CLIENT_STEPS_PER_WORKER = 6056.5

#: Per-worker throughput of the ``large_scale_sharded_100k`` case as
#: committed by the 100k scaling PR (BENCH_perf.json at commit d0ab55b).
#: The 1M-shape case normalizes against this fixed point the same way the
#: 100k case normalizes against the 10k seed, giving a machine-portable
#: per-client-step speedup chain: 10k -> 100k -> 1M.
SEED_100K_CLIENT_STEPS_PER_WORKER = 23805.876


def _repeat_seconds(times: list[float]) -> dict:
    """The labelled statistics of a case's timed repeats.

    ``seconds_min`` is the noise-floor figure the throughput numbers
    use; ``seconds_median`` is the true median, and ``seconds_all``
    keeps every repeat so the spread stays visible.
    """
    return {
        "seconds_min": min(times),
        "seconds_median": float(statistics.median(times)),
        "seconds_all": list(times),
    }


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls (after one warmup)."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def bench_forest(quick: bool, seed: int, repeats: int) -> dict:
    """Forest fit + single/batch predict timings.

    The batch workload is the acceptance workload: a 1000x8 query matrix
    against a 40-tree forest (the planner's per-interval shape at scale).
    """
    from repro.ml.forest import RandomForestRegressor

    n_train = 200 if quick else 400
    n_trees = 10 if quick else 40
    n_rows, n_features = 1000, 8
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n_train, n_features))
    y = (
        np.sin(3.0 * X[:, 0])
        + X[:, 1] * X[:, 2]
        + 0.1 * rng.normal(size=n_train)
    )
    X_query = rng.uniform(size=(n_rows, n_features))

    def fit() -> RandomForestRegressor:
        return RandomForestRegressor(
            n_estimators=n_trees,
            max_depth=16,
            max_features=None,
            rng=np.random.default_rng(seed + 1),
        ).fit(X, y)

    fit_seconds = _median_seconds(fit, max(1, repeats // 2))
    forest = fit()
    single_calls = 20 if quick else 100

    def predict_single() -> None:
        for i in range(single_calls):
            forest.predict(X_query[i : i + 1])

    batch_seconds = _median_seconds(lambda: forest.predict(X_query), repeats)
    return {
        "forest_fit": {
            "seconds_median": fit_seconds,
            "n_train": n_train,
            "trees": n_trees,
        },
        "forest_predict_single": {
            "seconds_median": _median_seconds(predict_single, repeats),
            "calls": single_calls,
        },
        "forest_predict_batch": {
            "seconds_median": batch_seconds,
            "rows": n_rows,
            "features": n_features,
            "trees": n_trees,
        },
    }


def _build_partitioner(model: str):
    from repro.core.config import PerDNNConfig
    from repro.dnn.models import build_model
    from repro.partitioning.partitioner import DNNPartitioner
    from repro.profiling.hardware import odroid_xu4, titan_xp_server
    from repro.profiling.profiler import ExecutionProfile

    config = PerDNNConfig()
    profile = ExecutionProfile.build(
        build_model(model), odroid_xu4(), titan_xp_server()
    )
    return DNNPartitioner(
        profile, config.network.uplink_bps, config.network.downlink_bps
    )


def bench_partition(quick: bool, seed: int, repeats: int) -> dict:
    """Partition planning: a cold sweep of slowdown levels, then the same
    sweep answered from the quantized plan cache."""
    from repro.partitioning.partitioner import DNNPartitioner

    template = _build_partitioner("mobilenet" if quick else "inception")
    slowdowns = [1.0 + 0.25 * i for i in range(13)]  # 1.0 .. 4.0

    def cold_sweep() -> None:
        fresh = DNNPartitioner(
            template.profile,
            template.uplink_bps,
            template.downlink_bps,
            max_chunk_bytes=template.max_chunk_bytes,
        )
        for slowdown in slowdowns:
            fresh.partition(slowdown)

    def cached_sweep() -> None:
        for slowdown in slowdowns:
            template.partition(slowdown)

    cached_sweep()  # populate the template's cache before timing hits
    return {
        "partition_planning": {
            "seconds_median": _median_seconds(cold_sweep, repeats),
            "cached_seconds_median": _median_seconds(cached_sweep, repeats),
            "plans": len(slowdowns),
        }
    }


def bench_large_scale(quick: bool, seed: int, repeats: int) -> dict:
    """Small end-to-end run.

    The predictor and contention estimator are trained once and shared, so
    the timed region is the simulation loop itself — association, batched
    interval planning, query windows, proactive migration.
    """
    from repro.core.config import PerDNNConfig
    from repro.core.master import MigrationPolicy
    from repro.simulation.large_scale import (
        SimulationSettings,
        run_large_scale,
        train_default_models,
    )
    from repro.trajectories.synthetic import kaist_like

    # Full mode uses the paper's KAIST user count so each interval plans
    # across enough servers for the batched path to matter end to end.
    users, dataset_steps, max_steps = (
        (4, 40, 4) if quick else (31, 120, 20)
    )
    rng = np.random.default_rng(seed)
    dataset = kaist_like(rng, num_users=users, duration_steps=dataset_steps)
    config = PerDNNConfig(migration_radius_m=100.0)
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=max_steps, seed=seed
    )
    predictor, estimator = train_default_models(
        dataset, _build_partitioner("mobilenet"), settings, config,
        np.random.default_rng(seed),
    )

    def run() -> None:
        run_large_scale(
            dataset,
            _build_partitioner("mobilenet"),
            settings,
            config=config,
            predictor=predictor,
            contention_estimator=estimator,
        )

    return {
        "large_scale": {
            "seconds_median": _median_seconds(run, repeats),
            "clients": users,
            "steps": max_steps,
        }
    }


def _sharded_workload(quick: bool, seed: int) -> dict:
    """The shared city-scale workload of the sharded benchmarks.

    Built once per `repro bench` invocation: dataset generation and
    predictor/estimator training at the 10k-client shape dominate setup
    time, and sharing them keeps the in-memory and checkpointed benches
    timing the identical simulation.
    """
    from repro.core.config import PerDNNConfig
    from repro.core.master import MigrationPolicy
    from repro.simulation.large_scale import (
        SimulationSettings,
        train_default_models,
    )
    from repro.trajectories.synthetic import kaist_like

    users, dataset_steps, max_steps, shard_size = (
        (1000, 12, 3, 128) if quick else (10000, 25, 8, 512)
    )
    workers = max(1, min(os.cpu_count() or 1, 8))
    rng = np.random.default_rng(seed)
    dataset = kaist_like(rng, num_users=users, duration_steps=dataset_steps)
    config = PerDNNConfig(migration_radius_m=100.0)
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=max_steps, seed=seed
    )
    predictor, estimator = train_default_models(
        dataset, _build_partitioner("mobilenet"), settings, config,
        np.random.default_rng(seed),
    )
    return {
        "dataset": dataset,
        "config": config,
        "settings": settings,
        "predictor": predictor,
        "estimator": estimator,
        "max_steps": max_steps,
        "shard_size": shard_size,
        "workers": workers,
    }


def _run_sharded_workload(workload: dict, checkpoint_dir=None):
    from repro.simulation.sharding import run_large_scale_sharded

    return run_large_scale_sharded(
        workload["dataset"],
        _build_partitioner("mobilenet"),
        workload["settings"],
        config=workload["config"],
        shard_size=workload["shard_size"],
        workers=workload["workers"],
        predictor=workload["predictor"],
        contention_estimator=workload["estimator"],
        record_events=False,
        checkpoint_dir=checkpoint_dir,
    )


def bench_large_scale_sharded(
    quick: bool, seed: int, repeats: int, workload: dict | None = None
) -> dict:
    """City-scale run through the sharded multiprocessing driver.

    The headline number is throughput — client-intervals simulated per
    wall-clock second — at a population the single-process loop cannot
    sustain interactively (10k+ clients in full mode; a 1k smoke in
    quick/CI mode).

    Predictor and contention estimator are trained once and shared, so
    the timed region is the simulation itself; the run drops the event
    trace (``record_events=False``) — counters are unaffected and at
    city scale the trace dominates inter-process transfer.
    """
    workload = workload or _sharded_workload(quick, seed)
    max_steps = workload["max_steps"]

    seconds = _median_seconds(lambda: _run_sharded_workload(workload), repeats)
    result = _run_sharded_workload(workload)
    num_clients = result.num_clients
    return {
        "large_scale_sharded": {
            "seconds_median": seconds,
            "clients_steps_per_second": num_clients * max_steps / seconds,
            "clients": num_clients,
            "steps": max_steps,
            "shards": result.extras["sharding"]["shards"],
            "shard_size": workload["shard_size"],
            "workers": workload["workers"],
        }
    }


def bench_large_scale_sharded_checkpointed(
    quick: bool,
    seed: int,
    repeats: int,
    workload: dict | None = None,
) -> dict:
    """The sharded workload again, with per-shard checkpoint spill.

    Every timed run writes each completed shard to a fresh temporary
    checkpoint directory and streams the merge back from those files —
    the full fault-tolerant path (supervisor + spill + streaming fold).
    ``overhead_fraction`` tracks its cost against the in-memory merge on
    the identical workload; the acceptance target is < 5% wall-clock at
    the 10k-client shape.

    Both sides are measured *inside this case*, after one shared warmup
    run, so they see identical process state (import caches, allocator
    high-water marks, trained models).  Importing the earlier
    ``large_scale_sharded`` median as the baseline — measured minutes
    earlier in a colder process — used to report a *negative* overhead,
    i.e. the delta was warmup noise, not spill cost.  The sides are
    also *interleaved* pair by pair, and ``overhead_fraction`` is the
    *median of the pairwise ratios*: a block of baseline runs followed
    by a block of spill runs puts each side in a different multi-minute
    host scheduling window, which swamps a ratio this small (observed
    ±20% on identical work), whereas the two halves of an adjacent pair
    almost always share a window — the ratio cancels it — and the
    median rejects the occasional pair a window shift lands inside.
    Each side reports its minimum (``seconds_min``/
    ``baseline_seconds_min``, the noise-floor figures the throughput
    uses) and its true median next to every repeat.
    """
    import shutil
    import tempfile

    workload = workload or _sharded_workload(quick, seed)
    max_steps = workload["max_steps"]

    def run():
        scratch = tempfile.mkdtemp(prefix="bench-ckpt-")
        try:
            return _run_sharded_workload(workload, checkpoint_dir=scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # Shared warmup: one spill run touches every code path both sides
    # use (the plain run's paths are a strict subset), so the baseline
    # and checkpointed medians below start from the same warm state.
    result = run()
    baseline_times: list[float] = []
    spill_times: list[float] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        _run_sharded_workload(workload)
        baseline_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        run()
        spill_times.append(time.perf_counter() - start)
    spill_stats = _repeat_seconds(spill_times)
    baseline_stats = _repeat_seconds(baseline_times)
    seconds = spill_stats["seconds_min"]
    ratios = sorted(
        spill / base for spill, base in zip(spill_times, baseline_times)
    )
    mid = len(ratios) // 2
    median_ratio = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    entry = {
        **spill_stats,
        **{f"baseline_{key}": value for key, value in baseline_stats.items()},
        "clients_steps_per_second": result.num_clients * max_steps / seconds,
        "clients": result.num_clients,
        "steps": max_steps,
        "shards": result.extras["sharding"]["shards"],
        "shard_size": workload["shard_size"],
        "workers": workload["workers"],
        "overhead_fraction": median_ratio - 1.0,
    }
    return {"large_scale_sharded_checkpointed": entry}


def _child_entry(conn, fn: Callable[[], dict]) -> None:
    import resource

    start = time.perf_counter()
    payload = fn()
    seconds = time.perf_counter() - start
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    conn.send(
        {
            "seconds": seconds,
            "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
            "payload": payload,
        }
    )
    conn.close()


def _child_entry_repeats(conn, setup, run, repeats: int) -> None:
    import resource

    state = setup()
    runs = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        payload = run(state)
        runs.append({"seconds": time.perf_counter() - start, "payload": payload})
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    conn.send({"runs": runs, "peak_rss_mb": max(self_kb, child_kb) / 1024.0})
    conn.close()


def _measure_repeats_in_child(setup, run, repeats: int) -> dict:
    """Fork first, then build ``state = setup()`` and time ``run(state)``
    ``repeats`` times in that one child.

    Forking *before* setup matters beyond the fresh ``ru_maxrss`` mark:
    when the parent builds population-scale state and the child only
    inherits it, CPython's refcount updates write to every inherited page
    that holds a dataset object, so the child spends the whole run
    copy-on-write-faulting gigabytes and the measured time tracks the
    parent's heap size (observed 10-25% inflation at the 1M shape,
    growing with how many earlier cases the bench process had run).  A
    child that builds the state itself owns those pages outright.
    Repeats share the one setup; the reported ``peak_rss_mb`` covers
    setup plus the largest shard worker, as before.  Falls back to an
    in-process loop where fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        import resource

        state = setup()
        runs = []
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            payload = run(state)
            runs.append(
                {"seconds": time.perf_counter() - start, "payload": payload}
            )
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"runs": runs, "peak_rss_mb": max(self_kb, child_kb) / 1024.0}
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_child_entry_repeats, args=(child_conn, setup, run, repeats)
    )
    process.start()
    child_conn.close()
    try:
        measured = parent_conn.recv()
    finally:
        process.join()
        parent_conn.close()
    return measured


def _measure_in_child(fn: Callable[[], dict]) -> dict:
    """Time ``fn`` in a forked child and report its peak RSS.

    ``ru_maxrss`` is a process-lifetime high-water mark, so measuring in
    the bench process itself would report whatever earlier cases peaked
    at; a fresh fork gives the case its own zeroed mark.  The reported
    figure is the max of the child's own peak (the parent side of the
    sharded run: setup, supervisor, streaming merge) and its waited-for
    children's peak (the shard workers) — i.e. the largest single process
    the run ever needed, which is what a memory ceiling bounds.  Falls
    back to an in-process run (RSS of this process, high-water caveat and
    all) where fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        import resource

        start = time.perf_counter()
        payload = fn()
        seconds = time.perf_counter() - start
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "seconds": seconds,
            "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
            "payload": payload,
        }
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(target=_child_entry, args=(child_conn, fn))
    process.start()
    child_conn.close()
    try:
        measured = parent_conn.recv()
    finally:
        process.join()
        parent_conn.close()
    return measured


def bench_large_scale_sharded_100k(quick: bool, seed: int, repeats: int) -> dict:
    """The 100k-client shape through the sharded driver.

    The scaling headline of ROADMAP item 1: a population an order of
    magnitude past the 10k case, run with ``record_events=False`` through
    the batched query-window/migration paths and the streaming merge.
    Reported per-worker throughput is normalized against the committed
    pre-scaling 10k baseline (:data:`SEED_10K_CLIENT_STEPS_PER_WORKER`).
    Measured with :func:`_measure_repeats_in_child`: one forked child
    builds the dataset and models itself (no copy-on-write refcount
    penalty on inherited state, and a fresh ``ru_maxrss`` mark), then
    times ``repeats`` full runs.  The throughput figures use the
    *minimum* wall-clock (``seconds_min``) — for CPU-bound work slowdowns
    are additive and speedups are not, so the minimum is the noise-robust
    estimator against multi-minute host scheduling windows — and the true
    median is reported next to it as ``seconds_median``.

    Setup is untimed and deliberately amortized: the mobility predictor
    trains on the train split of the first 10k users (SVR training is
    superlinear in users and contributes nothing to the timed region —
    the broadcast blob the shards receive is identical in size either
    way).  Quick mode scales the population down for CI smoke runs.
    """
    from repro.core.config import PerDNNConfig
    from repro.core.master import MigrationPolicy
    from repro.mobility.trajectory import TrajectoryDataset
    from repro.simulation.large_scale import (
        SimulationSettings,
        train_default_models,
    )
    from repro.simulation.sharding import run_large_scale_sharded
    from repro.trajectories.synthetic import kaist_like

    users, dataset_steps, max_steps, shard_size = (
        (2000, 12, 3, 128) if quick else (100_000, 25, 8, 512)
    )
    workers = max(1, min(os.cpu_count() or 1, 8))
    config = PerDNNConfig(migration_radius_m=100.0)
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=max_steps, seed=seed
    )

    def setup():
        rng = np.random.default_rng(seed)
        dataset = kaist_like(
            rng, num_users=users, duration_steps=dataset_steps
        )
        head = TrajectoryDataset(
            name=dataset.name,
            interval_seconds=dataset.interval_seconds,
            bbox=dataset.bbox,
            trajectories=dataset.trajectories[:10_000],
        )
        predictor, estimator = train_default_models(
            head, _build_partitioner("mobilenet"), settings, config,
            np.random.default_rng(seed),
        )
        return dataset, predictor, estimator

    def run(state) -> dict:
        dataset, predictor, estimator = state
        result = run_large_scale_sharded(
            dataset,
            _build_partitioner("mobilenet"),
            settings,
            config=config,
            shard_size=shard_size,
            workers=workers,
            predictor=predictor,
            contention_estimator=estimator,
            record_events=False,
        )
        info = result.extras["sharding"]
        return {"clients": result.num_clients, "shards": info["shards"]}

    measured = _measure_repeats_in_child(setup, run, repeats)
    best = min(measured["runs"], key=lambda m: m["seconds"])
    seconds = best["seconds"]
    repeat_stats = _repeat_seconds([m["seconds"] for m in measured["runs"]])
    num_clients = best["payload"]["clients"]
    per_second = num_clients * max_steps / seconds
    per_worker = per_second / workers
    return {
        "large_scale_sharded_100k": {
            **repeat_stats,
            "clients_steps_per_second": per_second,
            "clients_steps_per_second_per_worker": per_worker,
            "speedup_vs_10k_per_worker": (
                per_worker / SEED_10K_CLIENT_STEPS_PER_WORKER
            ),
            "peak_rss_mb": measured["peak_rss_mb"],
            "clients": num_clients,
            "steps": max_steps,
            "shards": best["payload"]["shards"],
            "shard_size": shard_size,
            "workers": workers,
        }
    }


def bench_large_scale_sharded_1m(quick: bool, seed: int, repeats: int) -> dict:
    """The 1M-client shape: spill-backed sharding at metropolitan scale.

    The next order of magnitude past the 100k case, run with
    ``spill_datasets=True`` so the driver never holds per-shard
    trajectory slices (the dataset is spilled to per-shard files at plan
    time and released before any shard runs).  Full mode uses a
    reduced-step shape — 12 trace steps, a 4-step horizon, 32768-client
    shards (at metropolitan density the hex cells are big enough that
    smaller shard sizes just multiply per-shard setup: registry build,
    spill load, client construction) — because at one million clients
    the per-client-step cost,
    not the horizon, is what the case exists to measure; throughput is
    normalized per client-step and per worker, and
    ``speedup_vs_100k_per_worker`` tracks it against the committed 100k
    figure (:data:`SEED_100K_CLIENT_STEPS_PER_WORKER`).  The reported
    step count is the number of steps the replay actually simulated
    (the throughput figures use it, never the requested horizon).

    Measured with :func:`_measure_repeats_in_child`: one forked child
    builds the million-user dataset and the models itself — forking
    *after* parent-side setup made the child pay copy-on-write refcount
    faults across the whole inherited population for the entire run,
    inflating this case 10-25% depending on the bench parent's heap —
    then times ``repeats`` full runs; the throughput figures use the
    *minimum* wall-clock (``seconds_min``, with the true median as
    ``seconds_median``).  At a couple of minutes per run the measurement
    is exposed to multi-minute host scheduling windows (observed spread
    on the same workload exceeds 1.5x), and for CPU-bound work the
    minimum is the standard noise-robust estimator — slowdowns are
    additive, speedups are not.  Setup (trace synthesis, predictor
    training on a 10k-user subsample) stays untimed and is shared across
    the repeats.
    """
    from repro.core.config import PerDNNConfig
    from repro.core.master import MigrationPolicy
    from repro.mobility.trajectory import TrajectoryDataset
    from repro.simulation.large_scale import (
        SimulationSettings,
        train_default_models,
    )
    from repro.simulation.sharding import run_large_scale_sharded
    from repro.trajectories.synthetic import kaist_like

    users, dataset_steps, max_steps, shard_size = (
        (4000, 12, 4, 1024) if quick else (1_000_000, 12, 4, 32768)
    )
    workers = max(1, min(os.cpu_count() or 1, 8))
    config = PerDNNConfig(migration_radius_m=100.0)
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=max_steps, seed=seed
    )

    def setup():
        rng = np.random.default_rng(seed)
        dataset = kaist_like(
            rng, num_users=users, duration_steps=dataset_steps
        )
        head = TrajectoryDataset(
            name=dataset.name,
            interval_seconds=dataset.interval_seconds,
            bbox=dataset.bbox,
            trajectories=dataset.trajectories[:10_000],
        )
        predictor, estimator = train_default_models(
            head, _build_partitioner("mobilenet"), settings, config,
            np.random.default_rng(seed),
        )
        return dataset, predictor, estimator

    def run(state) -> dict:
        dataset, predictor, estimator = state
        result = run_large_scale_sharded(
            dataset,
            _build_partitioner("mobilenet"),
            settings,
            config=config,
            shard_size=shard_size,
            workers=workers,
            predictor=predictor,
            contention_estimator=estimator,
            record_events=False,
            spill_datasets=True,
        )
        info = result.extras["sharding"]
        return {
            "clients": result.num_clients,
            "steps": result.steps,
            "shards": info["shards"],
        }

    measured = _measure_repeats_in_child(setup, run, repeats)
    best = min(measured["runs"], key=lambda m: m["seconds"])
    seconds = best["seconds"]
    repeat_stats = _repeat_seconds([m["seconds"] for m in measured["runs"]])
    peak_rss_mb = measured["peak_rss_mb"]
    num_clients = best["payload"]["clients"]
    steps_simulated = best["payload"]["steps"]
    per_second = num_clients * steps_simulated / seconds
    per_worker = per_second / workers
    return {
        "large_scale_sharded_1m": {
            **repeat_stats,
            "clients_steps_per_second": per_second,
            "clients_steps_per_second_per_worker": per_worker,
            "speedup_vs_100k_per_worker": (
                per_worker / SEED_100K_CLIENT_STEPS_PER_WORKER
            ),
            "peak_rss_mb": peak_rss_mb,
            "clients": num_clients,
            "steps": steps_simulated,
            "shards": best["payload"]["shards"],
            "shard_size": shard_size,
            "workers": workers,
        }
    }


#: ``--only`` case name -> standalone runner (each builds its own
#: workload; the all-cases path below shares setup between the sharded
#: cases instead).  A case may emit several result entries (``forest``
#: produces the four forest_* timings).
BENCH_CASES: dict[str, Callable[[bool, int, int], dict]] = {
    "forest": bench_forest,
    "partition": bench_partition,
    "large_scale": bench_large_scale,
    "large_scale_sharded": bench_large_scale_sharded,
    "large_scale_sharded_checkpointed": bench_large_scale_sharded_checkpointed,
    "large_scale_sharded_100k": bench_large_scale_sharded_100k,
    "large_scale_sharded_1m": bench_large_scale_sharded_1m,
}


def run_benchmarks(
    quick: bool = False,
    seed: int = 0,
    repeats: int | None = None,
    only: str | None = None,
) -> dict:
    """Run the hot-path benchmarks; returns the BENCH_perf document.

    ``only`` selects a single :data:`BENCH_CASES` entry — the document
    then carries just that case's results and is marked ``"only"`` so
    schema validation does not demand the absent entries (a partial
    document is for iterating on one case, not for committing as
    ``BENCH_perf.json``).
    """
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if only is not None and only not in BENCH_CASES:
        raise ValueError(
            f"unknown benchmark case {only!r}; available: "
            + ", ".join(sorted(BENCH_CASES))
        )
    results: dict[str, dict] = {}
    if only is not None:
        results.update(BENCH_CASES[only](quick, seed, repeats))
    else:
        results.update(bench_forest(quick, seed, repeats))
        results.update(bench_partition(quick, seed, repeats))
        results.update(bench_large_scale(quick, seed, repeats))
        workload = _sharded_workload(quick, seed)
        results.update(
            bench_large_scale_sharded(quick, seed, repeats, workload=workload)
        )
        results.update(
            bench_large_scale_sharded_checkpointed(
                quick, seed, repeats, workload=workload,
            )
        )
        results.update(bench_large_scale_sharded_100k(quick, seed, repeats))
        results.update(bench_large_scale_sharded_1m(quick, seed, repeats))
    doc = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "seed": seed,
        "repeats": repeats,
        "results": results,
    }
    if only is not None:
        doc["only"] = only
    assert_schema(doc)
    return doc


def assert_schema(doc: dict) -> None:
    """Validate a BENCH_perf document: schema tag, required benchmark
    entries, and strictly positive timings.  Raises ``ValueError`` so the
    CI smoke step (and tests) fail loudly if the harness rots.  A
    document marked ``"only"`` (from ``repro bench --only CASE``) is
    validated over the entries it carries; full documents must carry
    every required entry."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema tag: {doc.get('schema')!r}")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise ValueError("missing results mapping")
    partial = doc.get("only") is not None
    if partial and not results:
        raise ValueError("partial document carries no results")
    for name, keys in REQUIRED_RESULTS.items():
        entry = results.get(name)
        if not isinstance(entry, dict):
            if partial:
                continue
            raise ValueError(f"missing benchmark entry: {name}")
        for key in keys:
            value = entry.get(key)
            if not isinstance(value, (int, float)) or not value > 0:
                raise ValueError(
                    f"benchmark {name}.{key} must be a positive number, "
                    f"got {value!r}"
                )


def write_results(doc: dict, path: str | os.PathLike) -> str:
    """Write a BENCH_perf document as deterministic-layout JSON."""
    target = os.fspath(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def summary_lines(doc: dict) -> list[str]:
    """Human-readable one-liners for the CLI.

    Covers whatever entries the document carries, so partial ``--only``
    documents summarize cleanly.
    """
    results = doc["results"]
    lines = [
        f"mode: {doc['mode']} (repeats: {doc['repeats']}, seed: {doc['seed']})",
    ]
    fit = results.get("forest_fit")
    if fit is not None:
        lines.append(
            f"forest fit ({fit['trees']} trees, {fit['n_train']} rows):"
            f" {fit['seconds_median'] * 1e3:9.1f} ms"
        )
    single = results.get("forest_predict_single")
    if single is not None:
        lines.append(
            f"forest predict, {single['calls']} single rows:"
            f" {single['seconds_median'] * 1e3:9.1f} ms"
        )
    batch = results.get("forest_predict_batch")
    if batch is not None:
        lines.append(
            f"forest predict, batch {batch['rows']}x{batch['features']}:"
            f" {batch['seconds_median'] * 1e3:9.1f} ms"
        )
    plan = results.get("partition_planning")
    if plan is not None:
        lines.append(
            f"partition sweep ({plan['plans']} plans):"
            f" {plan['seconds_median'] * 1e3:9.1f} ms cold,"
            f" {plan['cached_seconds_median'] * 1e3:.2f} ms cached"
        )
    sim = results.get("large_scale")
    if sim is not None:
        lines.append(
            f"large scale ({sim['clients']} clients, {sim['steps']} steps):"
            f" {sim['seconds_median'] * 1e3:9.1f} ms"
        )
    sharded = results.get("large_scale_sharded")
    if sharded is not None:
        lines.append(
            f"sharded ({sharded['clients']} clients, {sharded['steps']} steps,"
            f" {sharded['shards']} shards x {sharded['workers']} workers):"
            f" {sharded['seconds_median']:9.2f} s"
            f" ({sharded['clients_steps_per_second']:,.0f} client-steps/s)"
        )
    checkpointed = results.get("large_scale_sharded_checkpointed")
    if checkpointed is not None:
        lines.append(
            f"sharded + checkpoint spill:"
            f" {checkpointed['seconds_min']:9.2f} s min,"
            f" {checkpointed['seconds_median']:.2f} s median"
            f" ({checkpointed.get('overhead_fraction', checkpointed['seconds_median'] / checkpointed['baseline_seconds_median'] - 1.0):+.1%}"
            f" vs in-memory merge)"
        )
    hundred_k = results.get("large_scale_sharded_100k")
    if hundred_k is not None:
        lines.append(
            f"sharded 100k shape ({hundred_k['clients']} clients,"
            f" {hundred_k['steps']} steps, {hundred_k['shards']} shards x"
            f" {hundred_k['workers']} workers):"
            f" {hundred_k['seconds_min']:9.2f} s min,"
            f" {hundred_k['seconds_median']:.2f} s median"
            f" ({hundred_k['clients_steps_per_second_per_worker']:,.0f}"
            f" client-steps/s/worker,"
            f" {hundred_k['speedup_vs_10k_per_worker']:.2f}x vs committed 10k,"
            f" peak RSS {hundred_k['peak_rss_mb']:,.0f} MB)"
        )
    one_m = results.get("large_scale_sharded_1m")
    if one_m is not None:
        lines.append(
            f"sharded 1M shape ({one_m['clients']} clients,"
            f" {one_m['steps']} steps, {one_m['shards']} shards x"
            f" {one_m['workers']} workers, dataset spill):"
            f" {one_m['seconds_min']:9.2f} s min,"
            f" {one_m['seconds_median']:.2f} s median"
            f" ({one_m['clients_steps_per_second_per_worker']:,.0f}"
            f" client-steps/s/worker,"
            f" {one_m['speedup_vs_100k_per_worker']:.2f}x vs committed 100k,"
            f" peak RSS {one_m['peak_rss_mb']:,.0f} MB)"
        )
    return lines
