"""Performance benchmark harness for the planner hot paths (BENCH trajectory).

Times the code the large-scale simulator leans on hardest — random-forest
fit/predict (single-row and batched), partition planning, and a small
end-to-end :func:`~repro.simulation.large_scale.run_large_scale` run — on
deterministic seeded inputs, reporting wall-clock medians over repeats,
plus the city-scale rows of :data:`SCALE_SPECS` through the sharded
driver, each timed by :func:`measure_scale`.

``repro bench [--quick] [--out BENCH_perf.json]`` is the CLI entry point;
``benchmarks/bench_perf_hotpaths.py`` wraps the same functions as pytest
benchmarks.  Each PR's committed ``BENCH_perf.json`` is the perf
trajectory: regenerate it (full mode) when a PR claims a perf win.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import statistics
import tempfile
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.simulation.spec import RunSpec, build_partitioner

SCHEMA = "perdnn-bench/1"

_SCALE_KEYS = (
    "seconds_median",
    "seconds_min",
    "clients_steps_per_second",
    "clients_steps_per_second_per_worker",
    "peak_rss_mb",
)

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
    "large_scale_sharded_100k": _SCALE_KEYS,
    "large_scale_sharded_1m": _SCALE_KEYS,
}


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


def bench_partition(quick: bool, seed: int, repeats: int) -> dict:
    """Partition planning: a cold sweep of slowdown levels, then the same
    sweep answered from the quantized plan cache."""
    from repro.partitioning.partitioner import DNNPartitioner

    template = build_partitioner("mobilenet" if quick else "inception")
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
    # Full mode uses the paper's KAIST user count so each interval plans
    # across enough servers for the batched path to matter end to end.
    users, dataset_steps, steps = (4, 40, 4) if quick else (31, 120, 20)
    spec = RunSpec(
        model="mobilenet", users=users, dataset_steps=dataset_steps,
        steps=steps, seed=seed,
    )
    dataset = spec.trajectories()
    predictor, estimator = spec.train_models(dataset)
    seconds = _median_seconds(
        lambda: spec.run(predictor, estimator, dataset=dataset), repeats
    )
    return {
        "large_scale": {
            "seconds_median": seconds,
            "clients": users,
            "steps": steps,
        }
    }


def _scale_spec(users, dataset_steps, steps, shard_size, **extra) -> RunSpec:
    return RunSpec(
        model="mobilenet", users=users, dataset_steps=dataset_steps,
        steps=steps, shard_size=shard_size, record_events=False, **extra,
    )


#: The city-scale cases ``repro bench`` times: case name -> (quick spec,
#: full spec).  ``measure_scale`` replaces each spec's seed and worker
#: count with its own.  The 1M row keeps a reduced-step shape with
#: 32768-client shards and dataset spill: at metropolitan density the
#: hex cells are big enough that smaller shards only multiply per-shard
#: setup (registry build, spill load, client construction), and the
#: per-client-step cost, not the horizon, is what the row exists to
#: measure.
SCALE_SPECS: dict[str, tuple[RunSpec, RunSpec]] = {
    "large_scale_sharded": (
        _scale_spec(1000, 12, 3, 128), _scale_spec(10_000, 25, 8, 512)
    ),
    "large_scale_sharded_100k": (
        _scale_spec(2000, 12, 3, 128), _scale_spec(100_000, 25, 8, 512)
    ),
    "large_scale_sharded_1m": (
        _scale_spec(4000, 12, 4, 1024, spill_datasets=True),
        _scale_spec(1_000_000, 12, 4, 32768, spill_datasets=True),
    ),
}

#: Cases whose spec is also timed with every shard spilled to a fresh
#: checkpoint directory and merged back from it, as ``<name>_checkpointed``.
CHECKPOINTED = ("large_scale_sharded",)


def in_forked_child(fn: Callable[[], object]):
    """``fn()`` run in a forked child process; its result comes back
    pickled through a pipe.  Needs a Unix host with ``fork``."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=lambda: sender.send(fn()))
    process.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        process.join()
        receiver.close()


def measure_scale(
    name: str,
    quick: bool,
    seed: int,
    repeats: int,
    workers: int | None = None,
    snapshot: str | None = None,
) -> dict:
    """Time the :data:`SCALE_SPECS` row ``name`` in one forked child.

    The child builds the dataset and models itself: a child that merely
    inherits parent-built state pays copy-on-write refcount faults on
    every page holding a dataset object for the whole run (observed
    10-25% inflation at the 1M shape, growing with the parent's heap).
    After one untimed warm-up round (so no timed run pays first-touch
    costs), it times ``repeats`` rounds of one run per mode, with
    ``record_events=False`` (counters and histograms are unaffected; at
    city scale the trace dominates inter-process transfer).  Training is
    untimed.  ``snapshot`` receives the warm-up round's telemetry.

    Every entry reports ``seconds_min``, ``seconds_median`` and
    ``seconds_all``; the throughput figures divide the client-steps the
    replay actually simulated by the minimum, the noise-robust estimator
    for CPU-bound work (slowdowns are additive, speedups are not).
    ``peak_rss_mb`` is the child's ``ru_maxrss``: the larger of its own
    peak (setup, supervisor, streaming merge) and its shard workers'.

    A :data:`CHECKPOINTED` row's checkpoint runs, interleaved pair by
    pair with the spec's own, report as ``<name>_checkpointed``, with the
    spec's timings as ``baseline_*`` and ``overhead_fraction``, the
    median of the pairwise ratios minus one: the two runs of a pair
    almost always share a host scheduling window, so their ratio cancels
    it, and the median rejects the odd pair a window shift lands inside.
    """
    import resource

    quick_spec, full_spec = SCALE_SPECS[name]
    workers = workers or max(1, min(os.cpu_count() or 1, 8))
    spec = replace(quick_spec if quick else full_spec, seed=seed, workers=workers)
    checkpointed = name in CHECKPOINTED
    modes = (False, True) if checkpointed else (False,)

    def time_modes() -> dict:
        dataset = spec.trajectories()
        predictor, estimator = spec.train_models(dataset)
        times: list[list[float]] = [[] for _ in modes]
        for round_ in range(repeats + 1):  # round 0 is an untimed warm-up
            for checkpoint, seconds in zip(modes, times):
                start = time.perf_counter()
                with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
                    timed = replace(spec, checkpoint_dir=tmp) if checkpoint else spec
                    result = timed.run(predictor, estimator, dataset=dataset)
                if round_:
                    seconds.append(time.perf_counter() - start)
                elif snapshot is not None:
                    with open(snapshot, "w", encoding="utf-8") as handle:
                        handle.write(result.telemetry.dumps())
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        entries = {}
        for suffix, seconds in zip(("", "_checkpointed"), times):
            per_second = result.num_clients * result.steps / min(seconds)
            entries[name + suffix] = {
                **_repeat_seconds(seconds),
                "clients_steps_per_second": per_second,
                "clients_steps_per_second_per_worker": per_second / workers,
                "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
                "clients": result.num_clients,
                "steps": result.steps,
                "shards": result.extras["sharding"]["shards"],
                "shard_size": spec.shard_size,
                "workers": workers,
            }
        if checkpointed:
            baseline, paired = times
            entry = entries[f"{name}_checkpointed"]
            for key, value in _repeat_seconds(baseline).items():
                entry[f"baseline_{key}"] = value
            entry["overhead_fraction"] = statistics.median(
                run / base for run, base in zip(paired, baseline)
            ) - 1.0
        return entries

    return in_forked_child(time_modes)


#: ``--only`` case name -> runner.  A case may emit several result
#: entries: ``forest`` produces the three forest_* timings, and the 10k
#: row the in-memory and the checkpointed entry under either name.
BENCH_CASES: dict[str, Callable[[bool, int, int], dict]] = {
    "forest": bench_forest,
    "partition": bench_partition,
    "large_scale": bench_large_scale,
    **{name: functools.partial(measure_scale, name) for name in SCALE_SPECS},
}
BENCH_CASES["large_scale_sharded_checkpointed"] = BENCH_CASES[
    "large_scale_sharded"
]


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
    cases = dict.fromkeys(BENCH_CASES.values())  # both 10k names share one
    if only is not None:
        cases = [BENCH_CASES[only]]
    results: dict[str, dict] = {}
    for case in cases:
        results.update(case(quick, seed, repeats))
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
    for name, entry in results.items():
        if "clients_steps_per_second" not in entry:
            continue
        line = (
            f"{name} ({entry['clients']} clients, {entry['steps']} steps,"
            f" {entry['shards']} shards x {entry['workers']} workers):"
            f" {entry['seconds_min']:.2f} s min,"
            f" {entry['seconds_median']:.2f} s median"
            f" ({entry['clients_steps_per_second_per_worker']:,.0f}"
            f" client-steps/s/worker, peak RSS {entry['peak_rss_mb']:,.0f} MB"
        )
        if "overhead_fraction" in entry:
            line += f", {entry['overhead_fraction']:+.1%} vs in-memory merge"
        lines.append(line + ")")
    return lines
