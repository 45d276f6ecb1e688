"""Tests for the large-scale simulator (Fig 9 / §4.B.4 machinery).

These use a small synthetic dataset and the tiny model so each run takes
well under a second; the paper-scale runs live in benchmarks/.
"""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.trajectories.synthetic import kaist_like


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(21), num_users=8, duration_steps=120)


def run(dataset, partitioner, policy, radius=100.0, **kwargs):
    settings = SimulationSettings(
        policy=policy,
        migration_radius_m=radius,
        max_steps=30,
        seed=5,
        **kwargs,
    )
    return run_large_scale(dataset, partitioner, settings)


class TestPolicies:
    def test_baseline_has_zero_hit_ratio(self, dataset, tiny_partitioner):
        result = run(dataset, tiny_partitioner, MigrationPolicy.NONE)
        assert result.hits == 0
        assert result.misses > 0
        assert result.hit_ratio == 0.0
        assert result.migrations == 0

    def test_optimal_has_full_hit_ratio(self, dataset, tiny_partitioner):
        result = run(dataset, tiny_partitioner, MigrationPolicy.OPTIMAL)
        assert result.misses == 0
        assert result.hit_ratio == 1.0

    def test_perdnn_between_baseline_and_optimal(self, dataset, tiny_partitioner):
        baseline = run(dataset, tiny_partitioner, MigrationPolicy.NONE)
        perdnn = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        optimal = run(dataset, tiny_partitioner, MigrationPolicy.OPTIMAL)
        assert 0.0 < perdnn.hit_ratio <= 1.0
        assert perdnn.migrations > 0
        assert (
            baseline.coldstart_queries
            <= perdnn.coldstart_queries
            <= optimal.coldstart_queries
        )

    def test_larger_radius_increases_hit_ratio(self, dataset, tiny_partitioner):
        small = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN, radius=50.0)
        large = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN, radius=150.0)
        assert large.hit_ratio >= small.hit_ratio
        assert large.migrated_bytes >= small.migrated_bytes

    def test_migration_produces_backhaul_traffic(self, dataset, tiny_partitioner):
        baseline = run(dataset, tiny_partitioner, MigrationPolicy.NONE)
        perdnn = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        assert baseline.uplink.total_bytes == 0.0
        assert perdnn.uplink.total_bytes > 0.0
        assert perdnn.uplink.total_bytes == pytest.approx(
            perdnn.downlink.total_bytes
        )
        assert perdnn.uplink.total_bytes == pytest.approx(perdnn.migrated_bytes)

    def test_fractional_budget_reduces_traffic(self, dataset, tiny_partitioner):
        full = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        crowded = frozenset(range(full.num_servers))
        limited = run(
            dataset, tiny_partitioner, MigrationPolicy.PERDNN,
            crowded_servers=crowded, crowded_byte_budget=1000.0,
        )
        assert limited.migrated_bytes < full.migrated_bytes
        assert limited.uplink.peak_mbps <= full.uplink.peak_mbps


class TestAccounting:
    def test_same_seed_reproducible(self, dataset, tiny_partitioner):
        a = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        b = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        assert a.hits == b.hits
        assert a.total_queries == b.total_queries
        assert a.migrated_bytes == b.migrated_bytes

    def test_step_cap_respected(self, dataset, tiny_partitioner):
        result = run(dataset, tiny_partitioner, MigrationPolicy.NONE)
        assert result.steps <= 30

    def test_runs_to_trace_end_without_cap(self, dataset, tiny_partitioner):
        settings = SimulationSettings(
            policy=MigrationPolicy.NONE, max_steps=None, seed=5,
            use_contention_estimator=False,
        )
        result = run_large_scale(dataset, tiny_partitioner, settings)
        replay_steps = max(
            len(t) for t in dataset.split_time(0.4)[1].trajectories
        )
        assert result.steps == replay_steps

    def test_counts_are_consistent(self, dataset, tiny_partitioner):
        result = run(dataset, tiny_partitioner, MigrationPolicy.PERDNN)
        # Every client's first association plus later server changes.
        assert result.hits + result.misses == result.server_changes + result.num_clients
        assert result.coldstart_queries <= result.total_queries

    def test_without_estimator_runs(self, dataset, tiny_partitioner):
        result = run(
            dataset, tiny_partitioner, MigrationPolicy.PERDNN,
            use_contention_estimator=False,
        )
        assert result.total_queries > 0


class TestReplayFraction:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_out_of_range_names_the_setting(self, fraction):
        # 1.0 must fail here, naming the setting, not later inside the
        # time split under that method's parameter name.
        with pytest.raises(ValueError, match="replay_fraction"):
            SimulationSettings(
                policy=MigrationPolicy.NONE, replay_fraction=fraction
            )


class TestSettingsValidation:
    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_bad_migration_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="migration_radius_m"):
            SimulationSettings(
                policy=MigrationPolicy.NONE, migration_radius_m=radius
            )
