"""Hypothesis property tests for the metrics registry.

Invariants pinned here:

* counters are monotone and equal the sum of their increments;
* a histogram's bucket counts always sum to its observation count, and
  its ``sum`` is the exact (float) running total of observations;
* merging two registries that recorded disjoint halves of an operation
  stream equals one registry that recorded the whole stream interleaved.
"""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.telemetry import Histogram, MetricsRegistry

amounts = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)
observations = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

# Small pools keep collision (same metric touched from both halves) likely.
metric_names = st.sampled_from(["a", "b", "c"])
label_sets = st.sampled_from([None, {"k": "x"}, {"k": "y"}])

counter_ops = st.tuples(
    st.just("counter"), metric_names, label_sets, amounts
)
histogram_ops = st.tuples(
    st.just("histogram"), metric_names, label_sets, observations
)
ops_lists = st.lists(st.one_of(counter_ops, histogram_ops), max_size=60)

BUCKETS = (-10.0, 0.0, 10.0, 1e3)


def apply(registry: MetricsRegistry, op) -> None:
    kind, name, labels, value = op
    if kind == "counter":
        registry.counter(f"c.{name}", labels).inc(value)
    else:
        registry.histogram(f"h.{name}", BUCKETS, labels).observe(value)


class TestCounterProperties:
    @given(st.lists(amounts, max_size=50))
    @settings(max_examples=100)
    def test_monotone_and_equals_sum(self, increments):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        running = 0.0
        for amount in increments:
            before = counter.value
            counter.inc(amount)
            running += amount
            assert counter.value >= before  # never decreases
        assert counter.value == running  # same float additions, same result


class TestHistogramProperties:
    @given(st.lists(observations, max_size=50))
    @settings(max_examples=100)
    def test_count_sum_invariants(self, values):
        hist = Histogram("h", BUCKETS)
        running = 0.0
        for value in values:
            hist.observe(value)
            running += value
        assert sum(hist.counts) == hist.count == len(values)
        assert hist.sum == running
        if values:
            assert min(values) <= hist.mean <= max(values) or math.isclose(
                hist.mean, running / len(values)
            )

    @given(observations)
    def test_observation_lands_in_first_covering_bucket(self, value):
        hist = Histogram("h", BUCKETS)
        hist.observe(value)
        expected = len(BUCKETS)
        for i, bound in enumerate(BUCKETS):
            if value <= bound:
                expected = i
                break
        assert hist.counts[expected] == 1


class TestMergeProperties:
    @given(ops_lists, st.lists(st.booleans(), max_size=60))
    @settings(max_examples=100)
    def test_merge_of_halves_equals_interleaved(self, ops, coin_flips):
        """Split one op stream across two registries; merging them must
        reproduce the registry that saw every op in order."""
        left, right, whole = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        for i, op in enumerate(ops):
            goes_left = coin_flips[i] if i < len(coin_flips) else True
            apply(left if goes_left else right, op)
            apply(whole, op)
        merged = left.merge(right)
        # Float addition is not associative in general, so compare with a
        # tolerance on values and exactly on structure/counts.
        got = merged.as_dict()
        want = whole.as_dict()
        assert [c["name"] for c in got["counters"]] == [
            c["name"] for c in want["counters"]
        ]
        for mine, theirs in zip(got["counters"], want["counters"]):
            assert mine["labels"] == theirs["labels"]
            assert math.isclose(
                mine["value"], theirs["value"], rel_tol=1e-9, abs_tol=1e-6
            )
        assert [h["name"] for h in got["histograms"]] == [
            h["name"] for h in want["histograms"]
        ]
        for mine, theirs in zip(got["histograms"], want["histograms"]):
            assert mine["labels"] == theirs["labels"]
            assert mine["counts"] == theirs["counts"]  # exact
            assert mine["count"] == theirs["count"]
            assert math.isclose(
                mine["sum"], theirs["sum"], rel_tol=1e-9, abs_tol=1e-6
            )

    @given(ops_lists)
    @settings(max_examples=50)
    def test_merge_into_empty_is_identity(self, ops):
        source, target = MetricsRegistry(), MetricsRegistry()
        for op in ops:
            apply(source, op)
        target.merge(source)
        assert target.as_dict() == source.as_dict()


class TestObserveRunsProperties:
    @given(
        st.lists(
            st.tuples(
                # Few distinct values, so runs repeat bucket walks.
                st.one_of(st.sampled_from([0.5, 0.5001, 7.0]), observations),
                st.integers(0, 40),
            ),
            max_size=40,
        ),
        observations,
    )
    @settings(max_examples=200)
    def test_equals_observe_repeated_loop_bit_for_bit(self, runs, start):
        batched, repeated, single = (
            Histogram("h", BUCKETS) for _ in range(3)
        )
        for hist in (batched, repeated, single):
            hist.observe(start)  # a non-zero running sum to fold onto
        batched.observe_runs(
            [value for value, _ in runs], [times for _, times in runs]
        )
        for value, times in runs:
            repeated.observe_repeated(value, times)
            for _ in range(times):
                single.observe(value)
        for looped in (repeated, single):
            assert batched.counts == looped.counts
            assert batched.count == looped.count
            assert math.copysign(1.0, batched.sum) == math.copysign(
                1.0, looped.sum
            )
            assert batched.sum == looped.sum
