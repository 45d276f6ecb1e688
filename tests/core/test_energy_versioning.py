"""Tests for the energy model and model-version cache invalidation."""

import numpy as np
import pytest

from repro.core.edge_server import EdgeServer
from repro.geo.hexgrid import HexCell
from repro.partitioning.execution_graph import ExecutionCosts
from repro.partitioning.shortest_path import constrained_plan, optimal_plan
from repro.profiling.energy import (
    EnergyModel,
    energy_savings_ratio,
    local_energy,
    plan_energy,
)


@pytest.fixture
def costs(tiny_profile):
    return ExecutionCosts.build(
        tiny_profile.graph,
        tiny_profile.client_times,
        tiny_profile.server_times,
        35e6,
        50e6,
    )


class TestEnergyModel:
    def test_local_plan_is_pure_compute(self, costs):
        plan = constrained_plan(costs, frozenset())
        energy = plan_energy(costs, plan)
        assert energy.transmit_joules == 0.0
        assert energy.receive_joules == 0.0
        assert energy.idle_joules == 0.0
        assert energy.total_joules == pytest.approx(local_energy(costs))

    def test_offloaded_plan_trades_compute_for_radio_and_idle(self, costs):
        plan = optimal_plan(costs)
        assert plan.offloads_anything
        energy = plan_energy(costs, plan)
        assert energy.compute_joules < local_energy(costs)
        assert energy.transmit_joules > 0.0
        assert energy.receive_joules > 0.0
        assert energy.idle_joules > 0.0

    def test_offloading_large_models_saves_energy(self):
        """The paper's §I motivation: offloading extends wearable battery."""
        from repro.dnn.models import resnet50
        from repro.profiling.hardware import odroid_xu4, titan_xp_server
        from repro.profiling.profiler import ExecutionProfile

        profile = ExecutionProfile.build(
            resnet50(), odroid_xu4(), titan_xp_server()
        )
        costs = ExecutionCosts.build(
            profile.graph, profile.client_times, profile.server_times,
            35e6, 50e6,
        )
        savings = energy_savings_ratio(costs, optimal_plan(costs))
        assert savings > 0.5  # offloading more than halves client energy

    def test_custom_power_draws(self, costs):
        plan = optimal_plan(costs)
        free_radio = EnergyModel(transmit_watts=0.0, receive_watts=0.0)
        energy = plan_energy(costs, plan, free_radio)
        assert energy.transmit_joules == 0.0
        assert energy.receive_joules == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(compute_watts=-1.0)


class TestModelVersioning:
    @pytest.fixture
    def server(self, rng):
        return EdgeServer(0, HexCell(0, 0), rng)

    def test_stale_version_reads_zero(self, server):
        server.add_bytes(7, 500.0, now_interval=0, ttl_intervals=5, version=0)
        assert server.cached_bytes(7, version=0) == 500.0
        assert server.cached_bytes(7, version=1) == 0.0

    def test_new_version_replaces_old_bytes(self, server):
        server.add_bytes(7, 500.0, 0, 5, version=0)
        server.add_bytes(7, 100.0, 1, 5, version=1)
        assert server.cached_bytes(7, version=1) == 100.0
        assert server.cached_bytes(7, version=0) == 0.0

    def test_refresh_ignores_stale_version(self, server):
        server.add_bytes(7, 500.0, 0, ttl_intervals=2, version=0)
        server.refresh_ttl(7, now_interval=1, ttl_intervals=2, version=1)
        assert server.expire(2) == [7]  # stale refresh did not extend TTL

    def test_client_update_model(self):
        from repro.core.client import MobileClient

        client = MobileClient(0)
        assert client.model_version == 0
        assert client.update_model() == 1
        assert client.model_version == 1


class TestModelUpdateSimulation:
    def test_frequent_updates_lower_hit_ratio(self, tiny_partitioner):
        from repro.core.master import MigrationPolicy
        from repro.simulation.large_scale import (
            SimulationSettings,
            run_large_scale,
        )
        from repro.trajectories.synthetic import kaist_like

        dataset = kaist_like(
            np.random.default_rng(6), num_users=10, duration_steps=160
        )

        def run(update_every):
            settings = SimulationSettings(
                policy=MigrationPolicy.PERDNN, migration_radius_m=100.0,
                max_steps=40, seed=8, model_update_every=update_every,
                use_contention_estimator=False,
            )
            return run_large_scale(dataset, tiny_partitioner, settings)

        stable = run(None)
        churning = run(3)
        assert churning.extras.get("model_updates", 0) > 0
        # Retraining invalidates caches: hits drop, migration traffic rises
        # or stays equal (everything must be re-sent).
        assert churning.hit_ratio <= stable.hit_ratio + 0.02
        assert churning.migrated_bytes >= stable.migrated_bytes * 0.9
