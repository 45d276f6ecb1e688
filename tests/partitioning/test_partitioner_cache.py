"""Cache-equivalence of the partitioner's quantized-slowdown memoization.

The large-scale simulator calls ``partition`` for every client every
interval; correctness of the memoization means (a) a slowdown and its
quantized key are indistinguishable (same cached object), and (b) results
on opposite sides of a quantum boundary differ only when the optimal plan
actually changes — never because of stale cache contents.
"""

import numpy as np
import pytest

from repro.partitioning.partitioner import DNNPartitioner
from repro.partitioning.shortest_path import optimal_plan


@pytest.fixture
def partitioner(tiny_profile):
    return DNNPartitioner(tiny_profile, 35e6, 50e6)


class TestQuantize:
    def test_quantize_is_idempotent(self, partitioner):
        rng = np.random.default_rng(17)
        for slowdown in rng.uniform(0.5, 8.0, size=100):
            key = partitioner.quantize(slowdown)
            assert partitioner.quantize(key) == key

    def test_quantize_clamps_below_one(self, partitioner):
        assert partitioner.quantize(0.1) == 1.0
        assert partitioner.quantize(-3.0) == 1.0


class TestCacheEquivalence:
    def test_partition_of_quantized_is_same_object(self, partitioner):
        """For random slowdowns, partition(s) is partition(quantize(s))."""
        rng = np.random.default_rng(23)
        for slowdown in rng.uniform(0.5, 8.0, size=200):
            direct = partitioner.partition(slowdown)
            via_key = partitioner.partition(partitioner.quantize(slowdown))
            assert direct is via_key
            assert direct.slowdown == partitioner.quantize(slowdown)

    def test_same_bucket_same_object(self, partitioner):
        quantum = partitioner._quantum
        base = 2.0  # a bucket centre
        for offset in (-0.49, -0.25, 0.0, 0.25, 0.49):
            result = partitioner.partition(base + offset * quantum)
            assert result is partitioner.partition(base)

    def test_cached_results_are_never_stale(self, partitioner):
        """Each cached result equals a fresh computation at its key: the
        plan is the true optimum for that bucket's scaled costs."""
        keys = [1.0 + 0.25 * i for i in range(16)]
        for key in keys:
            cached = partitioner.partition(key)
            fresh_costs = partitioner._base_costs.scaled_server(key)
            fresh_plan = optimal_plan(fresh_costs)
            assert cached.plan.server_indices == fresh_plan.server_indices
            assert cached.plan.latency == pytest.approx(fresh_plan.latency)

    def test_hit_miss_counters(self, partitioner):
        assert partitioner.cache_hits == 0
        assert partitioner.cache_misses == 0
        assert partitioner.cache_hit_ratio == 0.0
        partitioner.partition(1.0)
        assert (partitioner.cache_hits, partitioner.cache_misses) == (0, 1)
        partitioner.partition(1.0)
        partitioner.partition(1.1)  # quantizes to the same 1.0 bucket
        assert (partitioner.cache_hits, partitioner.cache_misses) == (2, 1)
        partitioner.partition(2.0)
        assert (partitioner.cache_hits, partitioner.cache_misses) == (2, 2)
        assert partitioner.cache_hit_ratio == pytest.approx(0.5)

    def test_degraded_shares_counters(self, partitioner):
        partitioner.partition(1.0)
        partitioner.degraded(1.0, inflation=2.0)  # new 2.0 bucket: miss
        partitioner.degraded(1.0, inflation=2.0)  # cached now: hit
        assert (partitioner.cache_hits, partitioner.cache_misses) == (1, 2)

    def test_across_boundary_differs_only_when_plan_changes(self, partitioner):
        """Walk adjacent quantum buckets: either the optimal plan changed
        (different server layer set) or the cached artefacts are
        structurally identical apart from the slowdown key."""
        keys = [1.0 + 0.25 * i for i in range(20)]
        results = [partitioner.partition(k) for k in keys]
        changes = 0
        for before, after in zip(results, results[1:]):
            assert before is not after  # distinct buckets, distinct entries
            if before.plan.server_indices == after.plan.server_indices:
                # Plan unchanged => same uploaded content (the greedy chunk
                # *order* may shift, as efficiency depends on server speed).
                assert (
                    before.schedule.total_bytes == after.schedule.total_bytes
                )
                uploaded_before = {
                    name
                    for chunk in before.schedule.chunks
                    for name in chunk.layer_names
                }
                uploaded_after = {
                    name
                    for chunk in after.schedule.chunks
                    for name in chunk.layer_names
                }
                assert uploaded_before == uploaded_after
            else:
                changes += 1
        # Over a 1x..5.75x sweep the tiny model's plan must actually move
        # at least once (otherwise this test exercises nothing).
        assert changes >= 1


class TestWarm:
    @pytest.mark.parametrize("quantum", [0.25, 0.1, 0.3, 0.07])
    @pytest.mark.parametrize("bound", [0.4, 1.0, 3.3, 9.181104918377715])
    def test_warms_exactly_the_reachable_keys(
        self, tiny_profile, quantum, bound
    ):
        partitioner = DNNPartitioner(
            tiny_profile, 35e6, 50e6, slowdown_quantum=quantum
        )
        planned = partitioner.warm(bound)
        grid = np.linspace(1.0, max(1.0, bound), 20_001)
        reachable = {partitioner.quantize(s) for s in grid}
        # No key skipped, none extra, and each planned exactly once.
        assert set(partitioner._cache) == reachable
        assert planned == len(reachable) == partitioner.cache_misses
        assert partitioner.warm(bound) == 0
        misses = partitioner.cache_misses
        for s in grid[::97]:
            partitioner.partition(s)
        assert partitioner.cache_misses == misses

    def test_warmed_plans_equal_lazy_plans(self, tiny_profile):
        warm = DNNPartitioner(tiny_profile, 35e6, 50e6)
        warm.warm(6.0)
        lazy = DNNPartitioner(tiny_profile, 35e6, 50e6)
        for key in sorted(warm._cache):
            expected = lazy.partition(key)
            got = warm._cache[key]
            assert got.slowdown == expected.slowdown == key
            assert got.plan == expected.plan
            assert got.schedule == expected.schedule

    def test_keys_above_the_bound_stay_lazy(self, partitioner):
        partitioner.warm(2.0)
        misses = partitioner.cache_misses
        partitioner.partition(2.6)
        assert partitioner.cache_misses == misses + 1


class TestFork:
    def test_fork_shares_plans_profile_and_costs(self, partitioner):
        partitioner.warm(3.0)
        fork = partitioner.fork()
        assert fork.profile is partitioner.profile
        assert fork._base_costs is partitioner._base_costs
        for key, result in partitioner._cache.items():
            assert fork.partition(key) is result
        assert fork.cache_misses == 0
        assert fork.cache_hits == len(partitioner._cache)

    def test_fork_starts_with_fresh_counters(self, partitioner):
        partitioner.partition(2.0)
        partitioner.partition(2.0)
        fork = partitioner.fork()
        assert fork.cache_hits == fork.cache_misses == 0
        assert (partitioner.cache_hits, partitioner.cache_misses) == (1, 1)

    def test_lazy_keys_stay_with_whoever_planned_them(self, partitioner):
        partitioner.partition(1.0)
        fork = partitioner.fork()
        sibling = partitioner.fork()
        fork.partition(5.0)
        partitioner.partition(7.0)
        assert set(fork._cache) == {1.0, 5.0}
        assert set(sibling._cache) == {1.0}
        assert set(partitioner._cache) == {1.0, 7.0}
        assert fork.partition(5.0).plan == sibling.partition(5.0).plan
