"""Production interval loop vs the scalar reference oracles, widely.

Every layer of the simulator has one production path; the code each
one replaced lives in :mod:`tests.oracles.reference_paths`.  Here all
of those oracles are patched in at once — per-client association and
query windows, record-materializing window integrators, per-client
proactive migration and the node-walk forest — and each run must
export exactly the telemetry bytes (events included) production
exports.  The matrix spans every migration policy, plain, with fault
injection, and under binding overload protection (reject, degrade and
flash-crowd redirect cases that each reach their branch), plus the
knobs that reach otherwise cold branches: handover hysteresis, a
heterogeneous model pool, periodic model updates, a binding
fractional-migration budget and dropped uploads on redirected windows.
Each case runs unsharded and sharded.
"""

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.faults import get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.sharding import run_large_scale_sharded
from repro.trajectories.synthetic import kaist_like
from tests.oracles import reference_paths

# The overload cases bind at this shape: queue capacity 1 sheds or
# degrades 8-12 of the 108 offered windows, and flash-crowd crashes at
# capacity 2 steer 17-18 orphaned clients and redirect one window.
SUBSYSTEMS = {
    "plain": {},
    "churn": {"faults": get_profile("churn")},
    "reject": {
        "overload": OverloadConfig(
            policy=SheddingPolicy.REJECT, queue_capacity=1
        ),
    },
    "degrade": {
        "overload": OverloadConfig(
            policy=SheddingPolicy.DEGRADE, queue_capacity=1
        ),
    },
    "redirect": {
        "faults": get_profile("flash-crowd"),
        "overload": OverloadConfig(
            policy=SheddingPolicy.REDIRECT, queue_capacity=2
        ),
    },
}
#: Counters each overload case must move, so it reaches its branch.
BRANCH_COUNTERS = {
    "reject": ("overload.shed",),
    "degrade": ("overload.degraded",),
    "redirect": ("overload.redirected", "overload.steered"),
    "flaky-redirect": ("overload.redirected",),
}

CASES = {
    f"{policy.value}-{subsystem}": {"policy": policy, **kwargs}
    for policy in MigrationPolicy
    for subsystem, kwargs in SUBSYSTEMS.items()
}
CASES["perdnn-hysteresis"] = {"hysteresis_m": 30.0}
CASES["perdnn-two-models"] = {"two_models": True}
CASES["perdnn-model-updates"] = {"model_update_every": 2}
CASES["perdnn-crowded"] = {"crowded": True}
# Dropped uploads on redirected windows: the fault names the associated
# server, the window the redirect target.
CASES["routing-flaky-redirect"] = {
    "policy": MigrationPolicy.ROUTING,
    "faults": get_profile("flaky-backhaul"),
    "overload": OverloadConfig(
        policy=SheddingPolicy.REDIRECT, queue_capacity=1
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(3), num_users=18, duration_steps=60)


@pytest.fixture(scope="module")
def branchy_partitioner(branchy_profile):
    return DNNPartitioner(branchy_profile, uplink_bps=35e6, downlink_bps=50e6)


def case_inputs(case, tiny_partitioner, branchy_partitioner):
    """``(partitioner, settings, config)`` of one matrix case."""
    spec = dict(CASES[case])
    partitioner = (
        [tiny_partitioner, branchy_partitioner]
        if spec.pop("two_models", False) else tiny_partitioner
    )
    config = PerDNNConfig(handover_hysteresis_m=spec.pop("hysteresis_m", 0.0))
    if spec.pop("crowded", False):
        # Every server is crowded and the budget is half of the idle
        # plan, so fractional migration truncates transfers.
        spec["crowded_servers"] = frozenset(range(10_000))
        spec["crowded_byte_budget"] = (
            0.5 * tiny_partitioner.partition(1.0).server_bytes
        )
    spec.setdefault("policy", MigrationPolicy.PERDNN)
    settings = SimulationSettings(max_steps=6, seed=3, **spec)
    return partitioner, settings, config


def run_case(case, sharded, dataset, tiny_partitioner, branchy_partitioner):
    partitioner, settings, config = case_inputs(
        case, tiny_partitioner, branchy_partitioner
    )
    if sharded:
        return run_large_scale_sharded(
            dataset, partitioner, settings, config=config,
            shard_size=4, workers=1,
        )
    return run_large_scale(dataset, partitioner, settings, config=config)


@pytest.mark.parametrize("sharded", [False, True], ids=["unsharded", "sharded"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_production_matches_reference_oracles(
    dataset, tiny_partitioner, branchy_partitioner, case, sharded
):
    production = run_case(
        case, sharded, dataset, tiny_partitioner, branchy_partitioner
    )
    with reference_paths.patched():
        oracle = run_case(
            case, sharded, dataset, tiny_partitioner, branchy_partitioner
        )
    assert production.total_queries > 0
    assert production.telemetry.dumps() == oracle.telemetry.dumps()
    registry = production.telemetry.registry
    if case == "perdnn-crowded":
        assert registry.value("migration.fractional_truncations") > 0
    if case == "perdnn-plain":
        assert registry.value("migration.count") > 0
    if case == "perdnn-hysteresis":
        assert registry.value("sim.server_changes") > 0
    if case == "perdnn-model-updates":
        assert registry.value("sim.model_updates") > 0
    if case == "routing-flaky-redirect":
        assert registry.value("fault.injected", {"kind": "upload_drop"}) > 0
    for counter in BRANCH_COUNTERS.get(case.split("-", 1)[1], ()):
        assert registry.value(counter) > 0, counter


def test_patched_installs_and_restores(
    dataset, tiny_partitioner, branchy_partitioner, monkeypatch
):
    from repro.core.master import MasterServer
    from repro.ml.forest import RandomForestRegressor
    from repro.simulation import large_scale

    oracle = reference_paths.per_client_query_windows
    calls = []

    def spy(run):
        calls.append((run.admission, run.routing))
        return oracle(run)

    monkeypatch.setattr(reference_paths, "per_client_query_windows", spy)
    originals = (
        large_scale._query_windows,
        large_scale.run_query_window,
        large_scale.propose_associations,
        MasterServer.proactive_migrate_batch,
        RandomForestRegressor.predict,
    )
    with reference_paths.patched():
        assert large_scale._query_windows is spy
        assert large_scale.run_query_window is reference_paths.run_query_window
        assert RandomForestRegressor.predict is reference_paths.forest_predict
        # Overload and routing runs take the per-client oracle too.
        run_case(
            "routing-reject", False,
            dataset, tiny_partitioner, branchy_partitioner,
        )
    assert calls
    assert all(
        admission is not None and routing for admission, routing in calls
    )
    assert (
        large_scale._query_windows,
        large_scale.run_query_window,
        large_scale.propose_associations,
        MasterServer.proactive_migrate_batch,
        RandomForestRegressor.predict,
    ) == originals
