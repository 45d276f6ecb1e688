"""Production overload path vs the pre-fast-path oracles, byte for byte.

The reference-path oracles of :mod:`tests.oracles.reference_paths`
cannot see the redirect scan, the per-interval down set or the
single-row forest walk: production and reference runs share those
functions.  Here the verbatim originals in
:mod:`tests.oracles.overload_paths` are patched in, and a tiny
flash-crowd run must export exactly the telemetry bytes (events
included) the production code exports — under the ``REDIRECT`` and
``DEGRADE`` policies, with crash-time steering, at workers 1 and 2.
"""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.faults import get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.simulation.large_scale import SimulationSettings
from repro.simulation.sharding import run_large_scale_sharded
from repro.trajectories.synthetic import kaist_like
from tests.oracles import overload_paths


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(7), num_users=24, duration_steps=60)


def flash_crowd_run(dataset, partitioner, policy, workers, seed):
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN,
        max_steps=12,
        seed=seed,
        faults=get_profile("flash-crowd"),
        overload=OverloadConfig(policy=policy, queue_capacity=1),
    )
    return run_large_scale_sharded(
        dataset, partitioner, settings,
        shard_size=6, workers=workers, record_events=True,
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "policy", [SheddingPolicy.REDIRECT, SheddingPolicy.DEGRADE]
)
def test_flash_crowd_bytes_match_oracles(
    dataset, tiny_partitioner, policy, workers
):
    production = flash_crowd_run(
        dataset, tiny_partitioner, policy, workers, seed=4
    )
    with overload_paths.patched():
        oracle = flash_crowd_run(
            dataset, tiny_partitioner, policy, workers, seed=4
        )
    assert production.telemetry.dumps() == oracle.telemetry.dumps()
    # The run must reach every path the oracles replace.
    registry = production.telemetry.registry
    assert registry.value("overload.steered") > 0
    assert registry.value("master.gpu_pings") > 0
    outcome = (
        "overload.redirected" if policy is SheddingPolicy.REDIRECT
        else "overload.degraded"
    )
    assert registry.value(outcome) > 0
    if policy is SheddingPolicy.REDIRECT:
        # Some redirect finds every queue in reach full.
        assert registry.value("overload.shed") > 0
