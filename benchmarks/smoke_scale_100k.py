"""CI smoke for the 100k-scale sharded path, at the quick shape.

Runs ``repro bench``'s ``large_scale_sharded_100k`` row at its quick
shape (read from :data:`repro.bench.SCALE_SHAPES`) through
:func:`repro.bench.measure_scale`, once per requested worker count, and
asserts the guarantees the full-scale run depends on:

- **Worker-count invariance**: every run exports byte-identical
  telemetry JSON (the sharded snapshot is a pure function of
  ``(dataset, settings, shard_size)``).
- **Bounded peak memory**: each run's peak RSS — measured in a forked
  child so the figure is the run's own high-water mark, covering the
  parent-side streaming merge and the largest shard worker — stays
  under ``--rss-ceiling-mb``.
- **Dataset spill controls the driver's memory**: the driver process's
  own population-attributable RSS growth (``RUSAGE_SELF``, workers in
  separate processes, measured over the quick-shape 2000-client run as
  each mode's population-independent baseline) under
  ``spill_datasets=True`` is at least 40% below the non-spill path,
  and growing the population grows the spill driver's RSS at most half
  as fast as the non-spill driver's.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/smoke_scale_100k.py \
        --workers 1 2 --rss-ceiling-mb 1024 --out-dir smoke-100k
"""

import argparse
import os
import sys

import numpy as np

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, REPO_SRC)

from repro.bench import (  # noqa: E402
    SCALE_SHAPES,
    _build_partitioner,
    measure_scale,
)
from repro.core.config import PerDNNConfig  # noqa: E402
from repro.core.master import MigrationPolicy  # noqa: E402
from repro.simulation.large_scale import SimulationSettings  # noqa: E402
from repro.simulation.sharding import run_large_scale_sharded  # noqa: E402
from repro.simulation.training import train_default_models  # noqa: E402
from repro.trajectories.synthetic import kaist_like  # noqa: E402

CASE = "large_scale_sharded_100k"
USERS, DATASET_STEPS, MAX_STEPS, SHARD_SIZE = SCALE_SHAPES[CASE].quick

#: Populations for the spill-vs-in-memory driver-RSS comparison.  The
#: first (the quick-shape population) estimates each mode's
#: population-independent baseline — trained models, supervision
#: machinery — and the larger two carry the assertion: there per-shard
#: records dominate the driver's allocations, because the in-memory
#: path accumulates every shard's result (events and all) before
#: merging, while the spill path streams each completed shard through
#: the scratch store and holds at most one in flight.
SPILL_USERS = (2_000, 15_000, 30_000)
SPILL_SHARD_SIZE = 2048
SPILL_MAX_STEPS = 2


def _measure_driver_rss_mb(run) -> float | None:
    """``run()``'s RSS growth in the driver process alone, in MB.

    Forks a child, snapshots its ``RUSAGE_SELF`` high-water mark before
    and after the run, and reports the delta — shard workers are
    separate processes and deliberately excluded, so the figure is what
    the *driver* (plan, dispatch, spill, streaming merge) needed.
    Returns None where fork is unavailable.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def child(conn) -> None:
        import resource

        base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        run()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        conn.send(max(0, peak_kb - base_kb) / 1024.0)
        conn.close()

    process = context.Process(target=child, args=(sender,))
    process.start()
    sender.close()
    try:
        grown = receiver.recv()
    finally:
        process.join()
        receiver.close()
    return grown


def check_spill_rss(seed: int, failures: list[str]) -> None:
    """Assert dataset spill keeps the driver's RSS flat-ish and small."""
    config = PerDNNConfig(migration_radius_m=100.0)
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=SPILL_MAX_STEPS, seed=seed
    )
    partitioner = _build_partitioner("mobilenet")
    growth: dict[tuple[int, bool], float] = {}
    for users in SPILL_USERS:
        rng = np.random.default_rng(seed)
        dataset = kaist_like(
            rng, num_users=users, duration_steps=DATASET_STEPS
        )
        predictor, estimator = train_default_models(
            dataset, partitioner, settings, config,
            np.random.default_rng(seed),
        )
        for spill in (False, True):

            def run(spill: bool = spill) -> None:
                run_large_scale_sharded(
                    dataset,
                    partitioner,
                    settings,
                    config=config,
                    shard_size=SPILL_SHARD_SIZE,
                    workers=2,
                    predictor=predictor,
                    contention_estimator=estimator,
                    spill_datasets=spill,
                )

            grown = _measure_driver_rss_mb(run)
            if grown is None:
                print("driver-RSS check skipped: no fork start method")
                return
            growth[(users, spill)] = grown
            label = "spill" if spill else "in-memory"
            print(
                f"driver RSS growth, {users} clients, {label}: "
                f"{grown:.1f} MB"
            )
    base, mid, big = SPILL_USERS
    # Each mode's quick-shape run is its population-independent floor;
    # what's left above it is the memory the population itself costs.
    in_memory = growth[(big, False)] - growth[(base, False)]
    spilled = growth[(big, True)] - growth[(base, True)]
    print(
        f"population-attributable driver RSS at {big} clients: "
        f"{in_memory:.1f} MB in-memory vs {spilled:.1f} MB spill"
    )
    if spilled > 0.6 * in_memory:
        failures.append(
            f"spill driver RSS at {big} clients grows {spilled:.1f} MB "
            f"above the {base}-client floor, needs >= 40% below "
            f"in-memory ({in_memory:.1f} MB)"
        )
    in_memory_delta = growth[(big, False)] - growth[(mid, False)]
    spill_delta = growth[(big, True)] - growth[(mid, True)]
    if spill_delta > 0.5 * in_memory_delta + 4.0:
        failures.append(
            f"spill driver RSS still scales with clients: "
            f"+{spill_delta:.1f} MB from {mid} to {big} clients vs "
            f"+{in_memory_delta:.1f} MB in-memory (must be <= half, "
            "+4 MB noise margin)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2],
        help="worker counts to run and compare (default: 1 2)",
    )
    parser.add_argument(
        "--rss-ceiling-mb", type=float, default=1024.0,
        help="fail if any run's peak RSS exceeds this (default: 1024)",
    )
    parser.add_argument(
        "--out-dir", default="smoke-100k",
        help="directory for telemetry snapshots",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--check-spill-rss", action="store_true",
        help="also compare driver RSS growth with and without dataset "
        "spill at 25k/50k clients (adds a few minutes)",
    )
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)

    snapshots: dict[int, str] = {}
    failures: list[str] = []
    for workers in args.workers:
        path = os.path.join(args.out_dir, f"smoke-w{workers}.telemetry.json")
        entry = measure_scale(
            CASE, quick=True, seed=args.seed, repeats=1, workers=workers,
            snapshot=path,
        )[CASE]
        with open(path, encoding="utf-8") as handle:
            snapshots[workers] = handle.read()
        print(
            f"workers={workers}: {entry['clients']} clients / "
            f"{entry['shards']} shards in {entry['seconds_min']:.1f}s, "
            f"peak RSS {entry['peak_rss_mb']:.0f} MB "
            f"(ceiling {args.rss_ceiling_mb:.0f} MB)"
        )
        if entry["peak_rss_mb"] > args.rss_ceiling_mb:
            failures.append(
                f"workers={workers} peak RSS {entry['peak_rss_mb']:.0f} MB "
                f"exceeds ceiling {args.rss_ceiling_mb:.0f} MB"
            )

    baseline_workers = args.workers[0]
    baseline = snapshots[baseline_workers]
    for workers, snapshot in snapshots.items():
        if snapshot != baseline:
            failures.append(
                f"telemetry for workers={workers} differs from "
                f"workers={baseline_workers} (must be byte-identical)"
            )
    if args.check_spill_rss:
        check_spill_rss(args.seed, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(snapshots)} worker counts byte-identical, "
        "peak RSS under ceiling"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
