"""The headline robustness invariant, pinned end to end.

A sharded run with deterministically injected worker failures — chaos
kills, hangs hitting the per-shard timeout, retries, even a mid-run
interrupt resumed from checkpoint — must export *the same telemetry
bytes* as a clean run at the same seed and shard size.  Failures are
execution noise; the simulated world never sees them.
"""

import numpy as np
import pytest

from repro.core.master import MigrationPolicy
from repro.faults import WorkerChaos, get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.simulation.large_scale import SimulationSettings
from repro.simulation.sharding import run_large_scale_sharded
from repro.simulation.supervisor import ShardError, SupervisorConfig
from repro.trajectories.synthetic import kaist_like


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(3), num_users=14, duration_steps=60)


def make_settings(**kwargs):
    kwargs.setdefault("policy", MigrationPolicy.PERDNN)
    kwargs.setdefault("max_steps", 4)
    kwargs.setdefault("seed", 3)
    return SimulationSettings(**kwargs)


def run_sharded(dataset, partitioner, settings, **kwargs):
    kwargs.setdefault("shard_size", 4)
    return run_large_scale_sharded(dataset, partitioner, settings, **kwargs)


#: Kills every shard's first attempt, lets every retry through: full
#: failure coverage with a deterministic, flake-free outcome.
KILL_ALL_ONCE = WorkerChaos(seed=7, kill_rate=1.0, max_injections_per_shard=1)


class TestChaosInvariant:
    @pytest.fixture(scope="class")
    def clean(self, dataset, tiny_partitioner):
        return run_sharded(dataset, tiny_partitioner, make_settings())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_kill_every_shard_once_bytes_identical(
        self, dataset, tiny_partitioner, clean, workers
    ):
        supervision = SupervisorConfig(
            chaos=KILL_ALL_ONCE, backoff_base_seconds=0.0
        )
        chaotic = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            workers=workers, supervision=supervision,
        )
        assert chaotic.telemetry.dumps() == clean.telemetry.dumps()
        info = chaotic.extras["sharding"]
        assert info["retries"] == info["planned_shards"]
        assert info["failed_shards"] == []

    def test_chaos_with_faults_and_overload(self, dataset, tiny_partitioner):
        # Worker-level chaos composes with in-world fault injection and
        # overload protection without perturbing either.
        settings = make_settings(
            faults=get_profile("churn"),
            overload=OverloadConfig(policy=SheddingPolicy.REDIRECT),
        )
        clean = run_sharded(dataset, tiny_partitioner, settings)
        chaotic = run_sharded(
            dataset, tiny_partitioner, settings, workers=2,
            supervision=SupervisorConfig(
                chaos=KILL_ALL_ONCE, backoff_base_seconds=0.0
            ),
        )
        assert chaotic.telemetry.dumps() == clean.telemetry.dumps()

    def test_chaos_with_spill(self, dataset, tiny_partitioner, clean):
        # Dataset spill and chaos at once: every shard's first worker is
        # killed, the retry reads the spilled subset in a fresh process,
        # and the merged bytes never move.
        chaotic = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            workers=2, spill_datasets=True,
            supervision=SupervisorConfig(
                chaos=KILL_ALL_ONCE, backoff_base_seconds=0.0
            ),
        )
        assert chaotic.telemetry.dumps() == clean.telemetry.dumps()
        info = chaotic.extras["sharding"]
        assert info["retries"] == info["planned_shards"]
        assert info["failed_shards"] == []

    def test_chaos_with_reference_migrate(self, dataset, tiny_partitioner, clean):
        # Chaos retries must stay byte-stable on the scalar migration
        # tail too — supervision and the migration path are orthogonal.
        from tests.oracles import reference_paths

        with reference_paths.patched(simulate=False, predict=False):
            chaotic = run_sharded(
                dataset, tiny_partitioner, make_settings(),
                workers=2,
                supervision=SupervisorConfig(
                    chaos=KILL_ALL_ONCE, backoff_base_seconds=0.0
                ),
            )
        assert chaotic.telemetry.dumps() == clean.telemetry.dumps()

    def test_hang_with_timeout_bytes_identical(
        self, dataset, tiny_partitioner, clean
    ):
        supervision = SupervisorConfig(
            chaos=WorkerChaos(
                seed=5, hang_rate=1.0, hang_seconds=60.0,
                max_injections_per_shard=1,
            ),
            timeout_seconds=2.0,
            backoff_base_seconds=0.0,
        )
        chaotic = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            workers=2, supervision=supervision,
        )
        assert chaotic.telemetry.dumps() == clean.telemetry.dumps()

    def test_interrupt_then_resume_bytes_identical(
        self, dataset, tiny_partitioner, clean, tmp_path
    ):
        # A poison shard aborts the run mid-way (completed shards are
        # already spilled); resuming without chaos finishes the rest and
        # must reproduce the clean bytes exactly.
        checkpoint = tmp_path / "ckpt"
        with pytest.raises(ShardError):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=checkpoint,
                supervision=SupervisorConfig(
                    chaos=WorkerChaos(always_kill=(1,)),
                    max_attempts=2, backoff_base_seconds=0.0,
                ),
            )
        resumed = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint, resume=True,
        )
        assert resumed.telemetry.dumps() == clean.telemetry.dumps()
        info = resumed.extras["sharding"]
        assert info["resumed_shards"]  # something really was skipped
        assert 1 not in info["resumed_shards"]


class TestPartialMerge:
    def test_conservation_over_surviving_shards(
        self, dataset, tiny_partitioner
    ):
        clean = run_sharded(dataset, tiny_partitioner, make_settings())
        supervision = SupervisorConfig(
            chaos=WorkerChaos(always_kill=(1,)),
            max_attempts=2, backoff_base_seconds=0.0, allow_partial=True,
        )
        partial = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            workers=2, supervision=supervision,
        )
        info = partial.extras["sharding"]
        assert info["failed_shards"] == [1]
        assert info["shards"] == info["planned_shards"] - 1
        # Every planned client is accounted for: merged or reported lost.
        assert (
            sum(info["clients_per_shard"]) + info["failed_clients"]
            == clean.num_clients
        )
        assert partial.num_clients == sum(info["clients_per_shard"])
        # Surviving shards contribute exactly their clean per-shard load.
        clean_per_shard = clean.extras["sharding"]["clients_per_shard"]
        expected = [
            count for index, count in enumerate(clean_per_shard)
            if index != 1
        ]
        assert info["clients_per_shard"] == expected

    def test_fail_fast_without_allow_partial(self, dataset, tiny_partitioner):
        supervision = SupervisorConfig(
            chaos=WorkerChaos(always_kill=(0,)),
            max_attempts=2, backoff_base_seconds=0.0,
        )
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                workers=2, supervision=supervision,
            )
        assert excinfo.value.shard_index == 0
        assert len(excinfo.value.failures) == 2
