"""Order-independence of the registry merge used by the sharded runner.

Shard results arrive in whatever order the worker pool yields them, so
the merge that folds their registries must be a pure function of the
*set* of inputs: every permutation has to export byte-identical JSON and
CSV.  These tests pin that property of :func:`merge_registries`.
"""

import itertools

import numpy as np
import pytest

from repro.telemetry import (
    EventTrace,
    MetricsRegistry,
    dumps_snapshot,
    merge_registries,
    metrics_csv,
)

BUCKETS = (0.1, 1.0, 10.0)


def make_shard_registry(seed: int) -> MetricsRegistry:
    """A registry shaped like one shard's output, with awkward floats."""
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    registry.counter("query.completed").inc(int(rng.integers(1, 500)))
    registry.counter("migration.bytes").inc(float(rng.uniform(0, 1e9)) + 0.1)
    registry.counter(
        "sim.cold_start", {"outcome": "hit"}
    ).inc(int(rng.integers(0, 9)) + 1)
    registry.gauge("sim.steps").set(int(rng.integers(1, 12)))
    registry.gauge("sim.num_clients").set(int(rng.integers(1, 40)))
    registry.gauge(
        "overload.queue_depth", {"server": str(seed)}
    ).set(int(rng.integers(0, 8)))
    histogram = registry.histogram("query.latency_seconds", BUCKETS)
    for _ in range(int(rng.integers(1, 30))):
        histogram.observe(float(rng.uniform(0.01, 20.0)))
    return registry


@pytest.fixture()
def shards():
    return [make_shard_registry(seed) for seed in range(5)]


RULES = {"sim.steps": "max"}


class TestPermutationInvariance:
    def test_json_export_identical_for_every_permutation(self, shards):
        baseline = None
        for permutation in itertools.permutations(shards):
            merged = merge_registries(permutation, RULES)
            text = dumps_snapshot(merged, EventTrace())
            if baseline is None:
                baseline = text
            assert text == baseline

    def test_csv_export_identical_for_every_permutation(self, shards):
        baseline = None
        for permutation in itertools.permutations(shards):
            text = metrics_csv(merge_registries(permutation, RULES))
            if baseline is None:
                baseline = text
            assert text == baseline


class TestMergeSemantics:
    def test_counters_sum_exactly(self, shards):
        merged = merge_registries(shards)
        assert merged.value("query.completed") == sum(
            s.value("query.completed") for s in shards
        )

    def test_gauge_rules(self, shards):
        steps = [s.value("sim.steps") for s in shards]
        assert merge_registries(shards, {"sim.steps": "max"}).value(
            "sim.steps"
        ) == max(steps)
        assert merge_registries(shards, {"sim.steps": "min"}).value(
            "sim.steps"
        ) == min(steps)
        assert merge_registries(shards).value("sim.steps") == sum(steps)

    def test_labelled_series_stay_disjoint(self, shards):
        merged = merge_registries(shards, RULES)
        series = dict(
            (labels["server"], value)
            for labels, value in merged.series("overload.queue_depth")
        )
        assert sorted(series) == [str(seed) for seed in range(5)]
        for seed, shard in enumerate(shards):
            assert series[str(seed)] == shard.value(
                "overload.queue_depth", {"server": str(seed)}
            )

    def test_histograms_sum_bucket_by_bucket(self, shards):
        merged = merge_registries(shards)
        histogram = merged.get("query.latency_seconds")
        parts = [s.get("query.latency_seconds") for s in shards]
        assert histogram.count == sum(p.count for p in parts)
        for i, tally in enumerate(histogram.counts):
            assert tally == sum(p.counts[i] for p in parts)

    def test_empty_input_gives_empty_registry(self):
        merged = merge_registries([])
        assert list(merged.metrics()) == []

    def test_single_input_roundtrips(self, shards):
        merged = merge_registries([shards[0]])
        assert metrics_csv(merged) == metrics_csv(shards[0])


class TestMergeValidation:
    def test_kind_mismatch_rejected(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        b = MetricsRegistry()
        b.gauge("x").set(1.0)
        with pytest.raises(TypeError, match="kind mismatch"):
            merge_registries([a, b])

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", (1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", (1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            merge_registries([a, b])

    def test_unknown_gauge_rule_rejected(self):
        with pytest.raises(ValueError, match="gauge rule"):
            merge_registries([], {"sim.steps": "median"})
        with pytest.raises(ValueError, match="gauge rule"):
            merge_registries([], default_gauge_rule="average")
