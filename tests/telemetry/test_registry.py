"""Unit tests for counters, gauges, histograms, and the registry."""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
    normalize_labels,
)
from repro.trajectories.synthetic import kaist_like


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("hits")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_reset_zeroes_value(self):
        c = Counter("hits")
        c.inc(7)
        c.reset()
        assert c.value == 0.0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("load")
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5

    def test_reset(self):
        g = Gauge("load")
        g.set(9.0)
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            h.observe(value)
        # <=1: {0.5, 1.0}; <=2: {1.5, 2.0}; <=4: {3.0, 4.0}; overflow: {5.0}
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(17.0)

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(2.0, 1.0))

    def test_empty_bounds_allowed(self):
        h = Histogram("lat", buckets=())
        h.observe(3.0)
        assert h.counts == [1]
        assert h.mean == 3.0

    def test_reset_keeps_buckets(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.reset()
        assert h.counts == [0, 0]
        assert h.count == 0 and h.sum == 0.0
        assert h.buckets == (1.0,)

    def test_merge_requires_matching_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", (1.0,))
        b.histogram("lat", (2.0,))
        with pytest.raises(ValueError):
            merge_registries([a, b])


class TestLabels:
    def test_normalization_is_order_insensitive(self):
        assert normalize_labels({"b": "2", "a": "1"}) == normalize_labels(
            {"a": "1", "b": "2"}
        )
        assert normalize_labels(None) == ()
        assert normalize_labels({}) == ()

    def test_values_coerced_to_str(self):
        assert normalize_labels({"n": 3}) == (("n", "3"),)

    def test_distinct_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"model": "a"}).inc()
        reg.counter("hits", {"model": "b"}).inc(2)
        assert reg.value("hits", {"model": "a"}) == 1.0
        assert reg.value("hits", {"model": "b"}) == 2.0
        assert reg.value("hits") == 0.0  # unlabelled series never touched
        assert reg.series("hits") == [
            ({"model": "a"}, 1.0),
            ({"model": "b"}, 2.0),
        ]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1.0,)) is reg.histogram("h", (1.0,))

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x", (1.0,))

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (1.0, 3.0))

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_value_of_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0,))
        with pytest.raises(TypeError):
            reg.value("h")

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2)
        reg.histogram("h", (1.0,)).observe(0.5)
        reg.reset()
        assert len(reg) == 3
        assert reg.value("c") == 0.0
        assert reg.value("g") == 0.0
        assert reg.histogram("h", (1.0,)).count == 0

    def test_clear_drops_registrations(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.clear()
        assert len(reg) == 0

    def test_as_dict_is_sorted_and_grouped(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("g").set(1)
        reg.histogram("h", (1.0,)).observe(2.0)
        doc = reg.as_dict()
        assert [c["name"] for c in doc["counters"]] == ["a", "b"]
        assert [g["name"] for g in doc["gauges"]] == ["g"]
        assert doc["histograms"][0]["counts"] == [0, 1]


class TestNoWallClock:
    def test_run_counts_plan_calls_without_wall_clock(self, tiny_partitioner):
        """Planning is counted, never timed: the export holds no clock."""
        dataset = kaist_like(
            np.random.default_rng(0), num_users=4, duration_steps=30
        )
        settings = SimulationSettings(
            policy=MigrationPolicy.NONE, max_steps=3,
            use_contention_estimator=False,
        )
        result = run_large_scale(dataset, tiny_partitioner, settings)
        registry = result.telemetry.registry
        assert registry.value("master.plan.calls") > 0
        assert not any(m.name.endswith(".seconds") for m in registry.metrics())


class TestMerge:
    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc()
        a.histogram("h", (1.0,)).observe(0.5)
        b.histogram("h", (1.0,)).observe(2.0)
        merged = merge_registries([a, b])
        assert merged.value("c") == 5.0
        assert merged.value("only_b") == 1.0
        h = merged.histogram("h", (1.0,))
        assert h.counts == [1, 1] and h.count == 2

    def test_merge_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(TypeError):
            merge_registries([a, b])


class TestObserveRepeated:
    def test_identical_to_observe_loop(self):
        buckets = (0.1, 1.0, 10.0)
        repeated = Histogram("h", buckets)
        looped = Histogram("h", buckets)
        for value, times in ((0.05, 3), (0.7, 0), (2.0, 7), (50.0, 2)):
            repeated.observe_repeated(value, times)
            for _ in range(times):
                looped.observe(value)
        assert repeated.counts == looped.counts
        assert repeated.sum == looped.sum  # bitwise: same serial adds
        assert repeated.count == looped.count

    def test_zero_times_is_a_noop(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe_repeated(0.5, 0)
        assert histogram.count == 0
        assert histogram.sum == 0.0

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0,)).observe_repeated(0.5, -1)


class TestObserveRuns:
    def test_takes_the_query_loop_run_lists(self):
        values = np.array([0.05, 0.7, 2.0, 0.05])
        counts = np.array([3, 0, 7, 2])
        histogram = Histogram("h", (0.1, 1.0, 10.0))
        histogram.observe_runs(values, counts)
        assert histogram.counts == [5, 0, 7, 0]
        assert histogram.count == 12
        assert values.tolist() == [0.05, 0.7, 2.0, 0.05]
        assert counts.tolist() == [3, 0, 7, 2]

    def test_negative_times_rejected_before_recording(self):
        histogram = Histogram("h", (1.0,))
        with pytest.raises(ValueError):
            histogram.observe_runs([0.5, 0.5], [2, -1])
        assert histogram.count == 0 and histogram.sum == 0.0
        assert histogram.counts == [0, 0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0,)).observe_runs([0.5, 0.7], [1])

    def test_equals_an_observe_loop(self):
        buckets = (0.1, 1.0, 10.0)
        values = [1.0, 0.1, 0.1 + 1e-16, 10.0, 50.0, -0.0, 0.3, 1e-17]
        counts = [2, 1, 4, 0, 3, 1, 5, 7]
        batched, looped = Histogram("h", buckets), Histogram("h", buckets)
        for hist in (batched, looped):
            hist.observe(0.7)
        batched.observe_runs(values, counts)
        for value, times in zip(values, counts):
            for _ in range(times):
                looped.observe(value)
        assert batched.counts == looped.counts
        assert batched.count == looped.count
        assert batched.sum == looped.sum  # bitwise: same serial adds

    def test_nan_lands_in_the_overflow_bucket(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe_runs([float("nan")], [2])
        assert histogram.counts == [0, 2]
