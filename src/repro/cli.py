"""Command-line interface: run PerDNN experiments without writing code.

Usage (after ``pip install -e .``)::

    python -m repro models
    python -m repro partition --model inception --slowdown 2.0
    python -m repro handoff --model resnet --fraction 0.2
    python -m repro simulate --dataset kaist --model inception \
        --policy perdnn --radius 100 --steps 60 \
        --faults flash-crowd --overload redirect \
        --telemetry run.telemetry.json
    python -m repro faults --list
    python -m repro predictors --dataset geolife
    python -m repro telemetry run.telemetry.json

Every command is a thin wrapper over the library API used by the
benchmarks; see benchmarks/ for the full paper-reproduction harness.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from repro.bench import (
    BENCH_CASES,
    run_benchmarks,
    summary_lines,
    write_results,
)
from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.dnn.models import MODEL_BUILDERS, build_model
from repro.dnn.zoo_extra import EXTRA_MODEL_BUILDERS
from repro.faults import BUILTIN_PROFILES, get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.hardware import odroid_xu4, titan_xp_server
from repro.profiling.profiler import ExecutionProfile

ALL_MODELS = {**MODEL_BUILDERS, **EXTRA_MODEL_BUILDERS}


def _int_at_least(text: str, low: int, noun: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {noun} (got {value})")
    return value


def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, rejected with a clear
    one-line error instead of a deep simulation traceback."""
    return _int_at_least(text, 1, "positive integer")


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (numpy refuses negative seeds)."""
    return _int_at_least(text, 0, "non-negative integer")


def _float_within(text: str, low: float, high: float, noun: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and low <= value <= high):
        raise argparse.ArgumentTypeError(f"must be {noun} (got {text})")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a finite float >= 0; NaN and infinity are refused."""
    return _float_within(text, 0.0, math.inf, "a finite non-negative number")


def slowdown_factor(text: str) -> float:
    """argparse type: a finite GPU slowdown factor >= 1."""
    return _float_within(text, 1.0, math.inf, "a finite number >= 1")


def unit_fraction(text: str) -> float:
    """argparse type: a finite share in [0, 1]."""
    return _float_within(text, 0.0, 1.0, "a number in [0, 1]")


def _make_partitioner(model: str, config: PerDNNConfig) -> DNNPartitioner:
    profile = ExecutionProfile.build(
        build_model(model), odroid_xu4(), titan_xp_server()
    )
    return DNNPartitioner(
        profile, config.network.uplink_bps, config.network.downlink_bps
    )


def _make_dataset(name: str, users: int, steps: int, seed: int):
    from repro.trajectories.synthetic import geolife_like, kaist_like

    rng = np.random.default_rng(seed)
    if name == "kaist":
        return kaist_like(rng, num_users=users, duration_steps=steps)
    if name == "geolife":
        return geolife_like(rng, num_users=users, duration_steps=steps).subsample(4)
    raise ValueError(f"unknown dataset {name!r} (kaist | geolife)")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_models(args: argparse.Namespace) -> int:
    print(f"{'model':<12s} {'layers':>7s} {'size MB':>8s} {'GFLOPs':>7s}")
    for name in sorted(ALL_MODELS):
        graph = build_model(name)
        print(
            f"{name:<12s} {len(graph):>7d} {graph.size_mb:>8.1f} "
            f"{graph.total_flops / 1e9:>7.2f}"
        )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    config = PerDNNConfig()
    partitioner = _make_partitioner(args.model, config)
    result = partitioner.partition(args.slowdown)
    plan, schedule = result.plan, result.schedule
    print(f"model: {args.model}, server slowdown: {result.slowdown:.2f}x")
    print(f"local latency:     {partitioner.local_latency() * 1e3:8.1f} ms")
    print(f"plan latency:      {plan.latency * 1e3:8.1f} ms")
    print(f"server layers:     {len(plan.server_indices)}/{len(partitioner.graph)}")
    print(f"upload volume:     {schedule.total_bytes / 1e6:8.1f} MB "
          f"in {len(schedule.chunks)} chunks")
    if args.verbose:
        for i, chunk in enumerate(schedule.chunks):
            print(
                f"  [{i:3d}] {chunk.layer_names[0]} .. {chunk.layer_names[-1]} "
                f"({chunk.nbytes / 1e6:.2f} MB) -> "
                f"{schedule.latencies[i + 1] * 1e3:.1f} ms"
            )
    return 0


def cmd_handoff(args: argparse.Namespace) -> int:
    from repro.simulation.single_client import simulate_handoff

    if args.switch_after >= args.queries:
        print(
            f"error: --switch-after ({args.switch_after}) must be below "
            f"--queries ({args.queries})",
            file=sys.stderr,
        )
        return 2
    config = PerDNNConfig()
    partitioner = _make_partitioner(args.model, config)
    total = partitioner.partition(1.0).schedule.total_bytes
    result = simulate_handoff(
        partitioner,
        config,
        num_queries=args.queries,
        switch_after=args.switch_after,
        premigrated_bytes=args.fraction * total,
    )
    print(
        f"model: {args.model}, migrated ahead: {args.fraction:.0%} "
        f"({result.migrated_bytes / 1e6:.1f} MB)"
    )
    for i, latency in enumerate(result.latencies, start=1):
        marker = "  <- server change" if i == args.switch_after + 1 else ""
        print(f"  query {i:3d}: {latency * 1e3:8.1f} ms{marker}")
    print(f"peak after switch: {result.peak_latency_after_switch * 1e3:.1f} ms")
    return 0


def _print_profiles(stream) -> None:
    width = max(len(name) for name in BUILTIN_PROFILES) + 2
    print(f"{'profile':<{width}s} description", file=stream)
    for name in sorted(BUILTIN_PROFILES):
        print(
            f"{name:<{width}s} {BUILTIN_PROFILES[name].description}",
            file=stream,
        )


def _build_supervision(args: argparse.Namespace):
    """Translate the simulate supervision/chaos flags into configs."""
    from repro.faults import WorkerChaos
    from repro.simulation.supervisor import SupervisorConfig

    chaos = None
    if args.chaos_kill or args.chaos_hang or args.chaos_kill_shard:
        chaos = WorkerChaos(
            seed=args.chaos_seed,
            kill_rate=args.chaos_kill,
            hang_rate=args.chaos_hang,
            max_injections_per_shard=args.chaos_max_injections,
            hang_seconds=args.chaos_hang_seconds,
            always_kill=tuple(args.chaos_kill_shard or ()),
        )
    return SupervisorConfig(
        max_attempts=args.shard_attempts,
        timeout_seconds=args.shard_timeout,
        allow_partial=args.allow_partial,
        chaos=chaos,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.large_scale import SimulationSettings, run_large_scale
    from repro.simulation.sharding import run_large_scale_sharded
    from repro.simulation.supervisor import ShardError, runs_inline

    config = PerDNNConfig(
        migration_radius_m=args.radius,
        handover_hysteresis_m=args.hysteresis,
    )
    try:
        profile = get_profile(args.faults)
    except ValueError:
        print(
            f"error: unknown fault profile {args.faults!r}; built-in "
            "profiles are:", file=sys.stderr,
        )
        _print_profiles(sys.stderr)
        return 2
    overload = None
    if args.overload != "off":
        overload = OverloadConfig(
            policy=SheddingPolicy(args.overload),
            queue_capacity=args.queue_capacity,
        )
    sharded = (
        args.workers > 1
        or args.shard_size is not None
        or args.checkpoint_dir is not None
        or args.spill_datasets
    )
    sharded_only = {
        "--resume": args.resume,
        "--allow-partial": args.allow_partial,
        "--shard-timeout": args.shard_timeout is not None,
        "--shard-attempts": args.shard_attempts != 3,
        "--chaos-kill": bool(args.chaos_kill),
        "--chaos-hang": bool(args.chaos_hang),
        "--chaos-kill-shard": bool(args.chaos_kill_shard),
    }
    misused = [flag for flag, used in sharded_only.items() if used]
    if misused and not sharded:
        print(
            f"error: {', '.join(misused)} only apply to sharded runs; "
            "add --shard-size, --workers, or --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    try:
        supervision = _build_supervision(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (
        args.profile_top is not None
        and sharded
        and not runs_inline(args.workers, supervision)
    ):
        print(
            "error: --profile sees only this process; run the shards in it "
            "with --workers 1 and no --shard-timeout or chaos",
            file=sys.stderr,
        )
        return 2
    partitioner = _make_partitioner(args.model, config)
    dataset = _make_dataset(args.dataset, args.users, args.dataset_steps, args.seed)
    settings = SimulationSettings(
        policy=MigrationPolicy(args.policy),
        migration_radius_m=args.radius,
        max_steps=args.steps,
        seed=args.seed,
        faults=profile,
        overload=overload,
    )
    profiler = None
    if args.profile_top is not None:
        # Every shard runs in this process (checked above), so one
        # profile covers training, the shards and the merge.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if sharded:
            result = run_large_scale_sharded(
                dataset,
                partitioner,
                settings,
                config=config,
                shard_size=args.shard_size or 256,
                workers=args.workers,
                supervision=supervision,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                spill_datasets=args.spill_datasets,
            )
        else:
            result = run_large_scale(dataset, partitioner, settings, config)
    except ShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        if args.checkpoint_dir:
            print(
                f"completed shards are checkpointed in "
                f"{args.checkpoint_dir!r}; rerun with --resume to "
                "continue, or add --allow-partial to merge without the "
                "poison shard",
                file=sys.stderr,
            )
        return 1
    except ValueError as exc:
        # Stale checkpoint, unwritable directory, bad arguments, traces
        # too short to train on.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if profiler is not None:
        import pstats

        profiler.disable()
        print(f"profile (top {args.profile_top} by cumulative time):")
        pstats.Stats(profiler, stream=sys.stdout).strip_dirs().sort_stats(
            "cumulative"
        ).print_stats(args.profile_top)
    if args.telemetry:
        assert result.telemetry is not None
        meta = {
            "command": "simulate",
            "dataset": args.dataset,
            "model": args.model,
            "policy": args.policy,
            "seed": args.seed,
        }
        if args.faults != "none":
            meta["faults"] = args.faults
        if overload is not None:
            meta["overload"] = args.overload
        if sharded:
            # Only the decomposition goes into the snapshot — never the
            # worker count, so runs with different --workers stay
            # byte-for-byte comparable (the CI smoke `cmp`s them).
            meta["shard_size"] = args.shard_size or 256
        try:
            path = result.telemetry.write(args.telemetry, meta=meta)
        except OSError as exc:
            print(
                f"error: cannot write telemetry snapshot: {exc}",
                file=sys.stderr,
            )
            return 1
        print(f"telemetry snapshot: {path}")
    print(f"dataset: {result.dataset}, model: {result.model}, "
          f"policy: {result.policy}")
    print(f"servers: {result.num_servers}, clients: {result.num_clients}, "
          f"steps: {result.steps}")
    if sharded:
        info = result.extras["sharding"]
        print(f"sharding:           {info['shards']} shards "
              f"(target size {info['shard_size']}), "
              f"{info['workers']} worker(s)")
        if info.get("spill_datasets"):
            print("dataset spill:      on (per-shard subsets streamed "
                  "from disk)")
        if info.get("retries"):
            print(f"shard retries:      {info['retries']}")
        if info.get("resumed_shards"):
            print(f"resumed shards:     {len(info['resumed_shards'])} "
                  f"of {info['planned_shards']} (from checkpoint)")
        if info.get("failed_shards"):
            print(f"failed shards:      {info['failed_shards']} "
                  f"({info['failed_clients']} clients dropped; "
                  "partial merge)")
    print(f"hit ratio:          {result.hit_ratio:6.2f} "
          f"({result.hits} hits / {result.misses} misses)")
    print(f"cold-start queries: {result.coldstart_queries}")
    print(f"total queries:      {result.total_queries}")
    cache = result.extras.get("partition_cache")
    if cache is not None:
        replans = f"{cache['misses']} replans"
        if "prewarmed" in cache:  # sharded: the driver's warm-up plans
            replans += f", {cache['prewarmed']} prewarmed"
        print(f"plan cache:         {cache['hit_ratio']:6.2%} hit ratio "
              f"({cache['hits']} hits / {replans})")
    assert result.uplink is not None
    print(f"backhaul peak:      {result.uplink.peak_mbps:.0f} Mbps uplink, "
          f"{result.uplink.total_bytes / 1e9:.2f} GB total")
    if args.faults != "none":
        print(f"faults profile:     {args.faults}")
        print(f"availability:       {result.availability:6.2%}")
        print(f"local fallback:     {result.local_fallback_queries} queries")
        print(f"upload retries:     {result.upload_retries}")
    if overload is not None:
        stats = result.extras.get("overload", {})
        print(f"overload policy:    {args.overload} "
              f"(queue capacity {args.queue_capacity})")
        print(f"offered windows:    {stats.get('offered', 0)} "
              f"({stats.get('admitted', 0)} admitted, "
              f"{stats.get('shed', 0)} shed, "
              f"{stats.get('redirected', 0)} redirected, "
              f"{stats.get('degraded', 0)} degraded)")
        print(f"shed queries:       {result.shed_queries}")
        print(f"redirected queries: {result.redirected_queries}")
        print(f"degraded queries:   {result.degraded_queries}")
        print(f"queue wait p99:     {result.queue_wait_p99 * 1e3:.0f} ms")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    _print_profiles(sys.stdout)
    return 0


def cmd_predictors(args: argparse.Namespace) -> int:
    from repro.geo.hexgrid import HexGrid
    from repro.geo.wifi import EdgeServerRegistry
    from repro.mobility.evaluation import evaluate_predictor
    from repro.mobility.markov import MarkovPredictor
    from repro.mobility.modes import ModeAwareSVRPredictor
    from repro.mobility.svr import SVRPredictor

    rng = np.random.default_rng(args.seed)
    dataset = _make_dataset(args.dataset, args.users, args.dataset_steps, args.seed)
    grid = HexGrid(50.0)
    registry = EdgeServerRegistry.from_visited_points(grid, dataset.all_points())
    train, test = dataset.split_users(0.3, rng)
    print(f"{'predictor':<10s} {'top-1 %':>8s} {'top-2 %':>8s} {'MAE m':>7s}")
    for predictor in (
        MarkovPredictor(grid),
        SVRPredictor(rng=rng),
        ModeAwareSVRPredictor(rng=rng),
    ):
        predictor.fit(train)
        accuracy = evaluate_predictor(predictor, test, registry)
        mae = f"{accuracy.mae_meters:7.1f}" if accuracy.mae_meters else "      -"
        print(
            f"{accuracy.predictor:<10s} {accuracy.top_k_accuracy[1]:>8.1f} "
            f"{accuracy.top_k_accuracy[2]:>8.1f} {mae}"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        doc = run_benchmarks(
            quick=args.quick, seed=args.seed, repeats=args.repeats,
            only=args.only,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(doc):
        print(line)
    if args.out:
        path = write_results(doc, args.out)
        print(f"wrote {path}")
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import read_snapshot, summarize_snapshot

    try:
        doc = read_snapshot(args.snapshot)
    except FileNotFoundError:
        print(f"error: no such snapshot: {args.snapshot}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read snapshot {args.snapshot}: {exc.strerror}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summarize_snapshot(doc, top=args.top):
        print(line)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PerDNN reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the evaluation model zoo")

    partition = sub.add_parser("partition", help="partition a model")
    partition.add_argument("--model", default="inception",
                           choices=sorted(ALL_MODELS))
    partition.add_argument("--slowdown", type=slowdown_factor, default=1.0,
                           help="server GPU contention factor (>= 1)")
    partition.add_argument("--verbose", action="store_true",
                           help="print the full upload schedule")

    handoff = sub.add_parser("handoff", help="single-client server change")
    handoff.add_argument("--model", default="inception",
                         choices=sorted(ALL_MODELS))
    handoff.add_argument("--fraction", type=unit_fraction, default=0.0,
                         help="share of the model migrated ahead (0..1)")
    handoff.add_argument("--queries", type=positive_int, default=40)
    handoff.add_argument("--switch-after", type=positive_int, default=20,
                         help="queries served before the server change "
                              "(below --queries)")

    simulate = sub.add_parser("simulate", help="large-scale simulation")
    simulate.add_argument("--dataset", default="kaist",
                          choices=("kaist", "geolife"))
    simulate.add_argument("--model", default="inception",
                          choices=sorted(ALL_MODELS))
    simulate.add_argument("--policy", default="perdnn",
                          choices=[p.value for p in MigrationPolicy])
    simulate.add_argument("--radius", type=non_negative_float, default=100.0)
    simulate.add_argument("--hysteresis", type=non_negative_float,
                          default=0.0,
                          help="handover hysteresis margin in metres")
    simulate.add_argument("--steps", type=positive_int, default=60,
                          help="simulated intervals (cap)")
    simulate.add_argument("--users", type=positive_int, default=20)
    simulate.add_argument("--dataset-steps", type=positive_int, default=300)
    simulate.add_argument("--seed", type=non_negative_int, default=0)
    simulate.add_argument("--faults", default="none", metavar="PROFILE",
                          help="fault-injection profile (default: none; "
                               "see `repro faults --list`)")
    simulate.add_argument("--overload", default="off",
                          choices=("off", *sorted(p.value for p in SheddingPolicy)),
                          help="overload protection: shedding policy to run "
                               "admission control with (default: off)")
    simulate.add_argument("--queue-capacity", type=positive_int, default=8,
                          help="per-server admission queue capacity "
                               "(with --overload; default: 8)")
    simulate.add_argument("--workers", type=positive_int, default=1,
                          help="worker processes for the sharded runner "
                               "(>1 implies sharding; default: 1)")
    simulate.add_argument("--shard-size", type=positive_int, default=None,
                          help="target clients per spatial shard; setting "
                               "this enables the sharded runner even with "
                               "one worker (default: 256 when sharded)")
    simulate.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                          help="spill each completed shard here and merge "
                               "streamingly from disk (implies sharding)")
    simulate.add_argument("--resume", action="store_true",
                          help="skip shards already completed in "
                               "--checkpoint-dir by an interrupted run "
                               "(settings fingerprint must match)")
    simulate.add_argument("--spill-datasets", action="store_true",
                          help="spill each shard's trajectory subset to "
                               "disk at plan time and stream results, so "
                               "the parent's memory stays flat in the "
                               "client count (implies sharding)")
    simulate.add_argument("--profile", type=positive_int, default=None,
                          metavar="N", dest="profile_top",
                          help="run under cProfile and print the top N "
                               "functions by cumulative time (sharded "
                               "runs need --workers 1 without "
                               "--shard-timeout or chaos, so every shard "
                               "runs in this process)")
    simulate.add_argument("--allow-partial", action="store_true",
                          help="merge without shards that exhausted their "
                               "retry budget instead of failing the run; "
                               "missing coverage is reported explicitly")
    simulate.add_argument("--shard-attempts", type=positive_int, default=3,
                          help="executions granted per shard before "
                               "quarantine (default: 3)")
    simulate.add_argument("--shard-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-shard wall-clock cap; a shard past it "
                               "is killed and retried (default: none)")
    simulate.add_argument("--chaos-kill", type=float, default=0.0,
                          metavar="RATE",
                          help="chaos testing: per-attempt probability of "
                               "killing the worker process (default: 0)")
    simulate.add_argument("--chaos-hang", type=float, default=0.0,
                          metavar="RATE",
                          help="chaos testing: per-attempt probability of "
                               "hanging the worker (needs --shard-timeout; "
                               "default: 0)")
    simulate.add_argument("--chaos-seed", type=non_negative_int, default=0,
                          help="seed of the chaos schedule (default: 0)")
    simulate.add_argument("--chaos-kill-shard", type=non_negative_int,
                          action="append", metavar="INDEX", default=None,
                          help="kill every attempt of this shard index "
                               "(repeatable); forces quarantine")
    simulate.add_argument("--chaos-max-injections", type=non_negative_int,
                          default=1,
                          help="sabotaged attempts per shard before the "
                               "chaos schedule lets it through (default: 1)")
    simulate.add_argument("--chaos-hang-seconds", type=float, default=3600.0,
                          help="how long a chaos hang sleeps (default: 3600)")
    simulate.add_argument("--telemetry", metavar="PATH", default=None,
                          help="write the run's telemetry snapshot (JSON)")

    faults = sub.add_parser(
        "faults", help="list built-in fault-injection profiles"
    )
    faults.add_argument("--list", action="store_true",
                        help="list the profiles (the default action)")

    telemetry = sub.add_parser(
        "telemetry", help="summarize an exported telemetry snapshot"
    )
    telemetry.add_argument("snapshot", help="path to a *.telemetry.json file")
    telemetry.add_argument("--top", type=non_negative_int, default=10,
                           help="show the N largest counters")

    bench = sub.add_parser(
        "bench", help="time the planner hot paths (perf harness)"
    )
    bench.add_argument("--quick", action="store_true",
                       help="scaled-down workloads for CI smoke runs")
    bench.add_argument("--repeats", type=positive_int, default=None,
                       help="timing repeats per benchmark "
                            "(default: 5, or 3 with --quick)")
    bench.add_argument("--seed", type=non_negative_int, default=0)
    bench.add_argument("--only", metavar="CASE", default=None,
                       help="run a single benchmark case "
                            f"({', '.join(BENCH_CASES)}); the document "
                            "is marked partial")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="write the BENCH_perf.json document here")

    predictors = sub.add_parser("predictors", help="compare mobility predictors")
    predictors.add_argument("--dataset", default="kaist",
                            choices=("kaist", "geolife"))
    predictors.add_argument("--users", type=positive_int, default=20)
    predictors.add_argument("--dataset-steps", type=positive_int, default=300)
    predictors.add_argument("--seed", type=non_negative_int, default=0)

    return parser


_COMMANDS = {
    "models": cmd_models,
    "partition": cmd_partition,
    "handoff": cmd_handoff,
    "simulate": cmd_simulate,
    "faults": cmd_faults,
    "telemetry": cmd_telemetry,
    "bench": cmd_bench,
    "predictors": cmd_predictors,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
