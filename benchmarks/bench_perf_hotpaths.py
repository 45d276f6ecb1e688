"""Perf harness: planner hot paths.

Unlike the figure/table benchmarks, this one regenerates no paper plot —
it times the code paths the large-scale simulator spends its wall clock
in (forest fit/predict, partition planning, a small end-to-end run).
The same harness backs ``repro bench``; run full scale with
``PERDNN_BENCH_FULL=1``.
"""

from repro.bench import (
    assert_schema,
    bench_forest,
    bench_large_scale,
    bench_partition,
    run_benchmarks,
    summary_lines,
)

from conftest import FULL_SCALE

QUICK = not FULL_SCALE
SEED = 0
REPEATS = 5 if FULL_SCALE else 3


def test_forest_hot_path(benchmark, report):
    results = benchmark.pedantic(
        lambda: bench_forest(QUICK, SEED, REPEATS), rounds=1, iterations=1
    )
    batch = results["forest_predict_batch"]
    single = results["forest_predict_single"]
    report(
        "Perf: forest predict",
        [
            f"batch {batch['rows']}x{batch['features']}, "
            f"{batch['trees']} trees: "
            f"{batch['seconds_median'] * 1e3:.2f} ms",
            f"{single['calls']} single rows: "
            f"{single['seconds_median'] * 1e3:.2f} ms",
        ],
    )
    assert batch["seconds_median"] > 0
    assert single["seconds_median"] > 0


def test_partition_plan_cache(benchmark, report):
    results = benchmark.pedantic(
        lambda: bench_partition(QUICK, SEED, REPEATS), rounds=1, iterations=1
    )
    plan = results["partition_planning"]
    report(
        "Perf: partition planning sweep",
        [
            f"{plan['plans']} plans: {plan['seconds_median'] * 1e3:.1f} ms "
            f"cold, {plan['cached_seconds_median'] * 1e3:.3f} ms cached",
        ],
    )
    assert plan["cached_seconds_median"] < plan["seconds_median"]


def test_large_scale_end_to_end(benchmark, report):
    results = benchmark.pedantic(
        lambda: bench_large_scale(QUICK, SEED, REPEATS), rounds=1, iterations=1
    )
    sim = results["large_scale"]
    report(
        "Perf: large-scale run",
        [
            f"{sim['clients']} clients, {sim['steps']} steps: "
            f"{sim['seconds_median'] * 1e3:.1f} ms",
        ],
    )
    assert sim["seconds_median"] > 0


def test_bench_document_schema(report):
    doc = run_benchmarks(quick=True, seed=SEED, repeats=1)
    assert_schema(doc)
    report("Perf: bench harness (quick)", summary_lines(doc))
