"""Same-seed runs must be byte-identical across the vectorized rewrite.

The flat-array forest traversal, batched slowdown estimation, and the
planning prefetch in ``run_large_scale`` are wall-clock optimizations
only: a run with the original node-walk prediction patched in (the
oracle in :mod:`tests.oracles.reference_paths`) has to export the exact
same telemetry bytes as the production vectorized run.
"""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.trajectories.synthetic import kaist_like
from tests.oracles import reference_paths


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(3), num_users=6, duration_steps=80)


def run(dataset, partitioner, reference=False, **kwargs):
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN, max_steps=12, seed=3, **kwargs
    )
    if reference:
        with reference_paths.patched(simulate=False, migrate=False):
            return run_large_scale(dataset, partitioner, settings)
    return run_large_scale(dataset, partitioner, settings)


class TestFastReferenceIdentity:
    def test_telemetry_bytes_identical(self, dataset, tiny_partitioner):
        fast = run(dataset, tiny_partitioner)
        reference = run(dataset, tiny_partitioner, reference=True)
        assert fast.telemetry is not None
        assert reference.telemetry is not None
        assert fast.telemetry.dumps() == reference.telemetry.dumps()

    def test_headline_metrics_identical(self, dataset, tiny_partitioner):
        fast = run(dataset, tiny_partitioner)
        reference = run(dataset, tiny_partitioner, reference=True)
        assert fast.hits == reference.hits
        assert fast.misses == reference.misses
        assert fast.migrations == reference.migrations
        assert fast.migrated_bytes == reference.migrated_bytes


class TestPartitionCacheExtras:
    def test_summary_reports_plan_cache(self, dataset, tiny_profile):
        # Fresh partitioner: a cold plan cache must record at least one
        # re-plan, and the ratio must match the raw counts.
        from repro.partitioning.partitioner import DNNPartitioner

        partitioner = DNNPartitioner(
            tiny_profile, uplink_bps=35e6, downlink_bps=50e6
        )
        result = run(dataset, partitioner)
        cache = result.extras["partition_cache"]
        total = cache["hits"] + cache["misses"]
        assert cache["misses"] > 0
        assert total > 0
        assert cache["hit_ratio"] == pytest.approx(cache["hits"] / total)

    def test_cache_stats_are_per_run_deltas(self, dataset, tiny_profile):
        # A partitioner shared across runs accumulates counters; each
        # result must report only its own run's delta.  A re-run over an
        # already-warm cache re-plans nothing.
        from repro.partitioning.partitioner import DNNPartitioner

        partitioner = DNNPartitioner(
            tiny_profile, uplink_bps=35e6, downlink_bps=50e6
        )
        first = run(dataset, partitioner)
        second = run(dataset, partitioner)
        assert second.extras["partition_cache"]["misses"] == 0
        assert (
            second.extras["partition_cache"]["hits"]
            == first.extras["partition_cache"]["hits"]
            + first.extras["partition_cache"]["misses"]
        )
