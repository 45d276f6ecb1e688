"""Equivalence pins for the sharded city-scale simulator.

Three layers of same-seed byte-identity:

* the sharded run is a pure function of ``(dataset, settings,
  shard_size)`` — worker counts 1, 2, and 4 export identical telemetry
  snapshots, with faults and overload protection enabled too;
* the production interval loop and the scalar reference loop (the
  oracles in :mod:`tests.oracles.reference_paths`) agree byte for byte,
  sharded and unsharded, across every subsystem combination;
* dropping the event trace (``record_events=False``) changes events
  only — every counter and histogram stays identical.

Plus the decomposition invariants of :func:`plan_shards` and the
validation surface of :func:`run_large_scale_sharded`.
"""

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.faults import get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.sharding import (
    plan_shards,
    run_large_scale_sharded,
    shard_seed,
)
from repro.trajectories.synthetic import kaist_like
from tests.oracles import reference_paths


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(3), num_users=18, duration_steps=60)


def make_settings(**kwargs):
    kwargs.setdefault("policy", MigrationPolicy.PERDNN)
    kwargs.setdefault("max_steps", 5)
    kwargs.setdefault("seed", 3)
    return SimulationSettings(**kwargs)


SUBSYSTEMS = {
    "plain": {},
    "faults": {"faults": get_profile("churn")},
    "overload": {"overload": OverloadConfig(policy=SheddingPolicy.REDIRECT)},
    "both": {
        "faults": get_profile("flash-crowd"),
        "overload": OverloadConfig(policy=SheddingPolicy.DEGRADE),
    },
}


def run_sharded(dataset, partitioner, settings, **kwargs):
    kwargs.setdefault("shard_size", 4)
    return run_large_scale_sharded(dataset, partitioner, settings, **kwargs)


class TestWorkerInvariance:
    @pytest.mark.parametrize("subsystem", sorted(SUBSYSTEMS))
    def test_workers_1_2_4_byte_identical(
        self, dataset, tiny_partitioner, subsystem
    ):
        settings = make_settings(**SUBSYSTEMS[subsystem])
        dumps = {}
        results = {}
        for workers in (1, 2, 4):
            result = run_sharded(
                dataset, tiny_partitioner, settings, workers=workers
            )
            dumps[workers] = result.telemetry.dumps()
            results[workers] = result
        assert dumps[1] == dumps[2] == dumps[4]
        reference = results[1]
        for workers in (2, 4):
            other = results[workers]
            assert other.total_queries == reference.total_queries
            assert other.hits == reference.hits
            assert other.misses == reference.misses
            assert other.migrations == reference.migrations
            assert other.num_clients == reference.num_clients
            assert other.num_servers == reference.num_servers
            assert other.server_changes == reference.server_changes
            assert other.steps == reference.steps
            assert other.availability == reference.availability
            assert other.shed_queries == reference.shed_queries
            assert other.redirected_queries == reference.redirected_queries
            assert other.local_fallback_queries == (
                reference.local_fallback_queries
            )

    @pytest.mark.parametrize("shard_size", [2, 5, 1000])
    def test_shard_sizes_internally_consistent(
        self, dataset, tiny_partitioner, shard_size
    ):
        # Every decomposition granularity must itself be worker-invariant
        # (shard_size=1000 collapses to a single shard).
        settings = make_settings()
        single = run_sharded(
            dataset, tiny_partitioner, settings,
            shard_size=shard_size, workers=1,
        )
        multi = run_sharded(
            dataset, tiny_partitioner, settings,
            shard_size=shard_size, workers=2,
        )
        assert single.telemetry.dumps() == multi.telemetry.dumps()
        assert single.extras["sharding"]["shards"] == (
            multi.extras["sharding"]["shards"]
        )


class TestFastReferenceIdentity:
    @pytest.mark.parametrize("subsystem", sorted(SUBSYSTEMS))
    def test_sharded_fast_vs_reference(
        self, dataset, tiny_partitioner, subsystem
    ):
        settings = make_settings(**SUBSYSTEMS[subsystem])
        fast = run_sharded(dataset, tiny_partitioner, settings, workers=2)
        with reference_paths.patched(predict=False, migrate=False):
            reference = run_sharded(
                dataset, tiny_partitioner, settings, workers=2
            )
        assert fast.telemetry.dumps() == reference.telemetry.dumps()

    @pytest.mark.parametrize("subsystem", sorted(SUBSYSTEMS))
    def test_unsharded_fast_vs_reference(
        self, dataset, tiny_partitioner, subsystem
    ):
        # The scalar reference loop must stay equivalent for the plain
        # runner too, with every subsystem combination.
        settings = make_settings(**SUBSYSTEMS[subsystem])
        fast = run_large_scale(dataset, tiny_partitioner, settings)
        with reference_paths.patched(predict=False, migrate=False):
            reference = run_large_scale(dataset, tiny_partitioner, settings)
        assert fast.telemetry.dumps() == reference.telemetry.dumps()


class TestEventTraceOption:
    def test_record_events_false_keeps_metrics(self, dataset, tiny_partitioner):
        settings = make_settings()
        full = run_sharded(dataset, tiny_partitioner, settings, workers=1)
        lean = run_sharded(
            dataset, tiny_partitioner, settings, workers=1,
            record_events=False,
        )
        assert len(list(full.telemetry.trace)) > 0
        assert len(list(lean.telemetry.trace)) == 0
        full_snapshot = full.telemetry.snapshot()
        lean_snapshot = lean.telemetry.snapshot()
        assert lean_snapshot["events"] == []
        assert lean_snapshot["metrics"] == full_snapshot["metrics"]
        assert lean.total_queries == full.total_queries


class TestChaosIdentity:
    def test_chaos_kills_do_not_change_bytes(self, dataset, tiny_partitioner):
        # Worker kills force retries in fresh processes; the retried
        # shard re-runs the same deterministic seed, so the merged
        # snapshot must match an undisturbed run byte for byte.
        from repro.faults import WorkerChaos
        from repro.simulation.supervisor import SupervisorConfig

        settings = make_settings(faults=get_profile("churn"))
        calm = run_sharded(dataset, tiny_partitioner, settings, workers=2)
        chaotic = run_sharded(
            dataset, tiny_partitioner, settings, workers=2,
            supervision=SupervisorConfig(
                max_attempts=3,
                chaos=WorkerChaos(seed=11, kill_rate=1.0,
                                  max_injections_per_shard=1),
            ),
        )
        assert chaotic.extras["sharding"]["retries"] > 0
        assert calm.telemetry.dumps() == chaotic.telemetry.dumps()

    def test_chaos_fast_vs_reference(self, dataset, tiny_partitioner):
        # Batched-vs-scalar identity must hold under chaos too: the
        # supervision layer and the production paths are orthogonal.
        from repro.faults import WorkerChaos
        from repro.simulation.supervisor import SupervisorConfig

        settings = make_settings(faults=get_profile("churn"))
        supervision = SupervisorConfig(
            max_attempts=3,
            chaos=WorkerChaos(seed=11, kill_rate=1.0,
                              max_injections_per_shard=1),
        )
        fast = run_sharded(
            dataset, tiny_partitioner, settings, workers=2,
            supervision=supervision,
        )
        with reference_paths.patched(predict=False, migrate=False):
            reference = run_sharded(
                dataset, tiny_partitioner, settings, workers=2,
                supervision=supervision,
            )
        assert fast.telemetry.dumps() == reference.telemetry.dumps()


class TestModelBroadcast:
    def test_explicit_models_match_default_training(
        self, dataset, tiny_partitioner
    ):
        # The broadcast blob carries models trained once in the parent;
        # handing the identically-trained models in explicitly must not
        # change a byte (same rng order as the entry point's own
        # training).
        from repro.core.config import PerDNNConfig
        from repro.simulation.large_scale import (
            train_default_estimator,
            train_default_predictor,
        )

        settings = make_settings()
        config = PerDNNConfig(migration_radius_m=settings.migration_radius_m)
        rng = np.random.default_rng(settings.seed)
        train, _ = dataset.split_time(settings.replay_fraction)
        predictor = train_default_predictor(
            train, config.prediction_history, rng
        )
        estimator = train_default_estimator(tiny_partitioner, rng)
        implicit = run_sharded(dataset, tiny_partitioner, settings, workers=2)
        explicit = run_sharded(
            dataset, tiny_partitioner, settings, workers=2,
            predictor=predictor, contention_estimator=estimator,
        )
        assert implicit.telemetry.dumps() == explicit.telemetry.dumps()

    def test_supplied_models_skip_the_time_split(
        self, dataset, tiny_partitioner, monkeypatch
    ):
        # Caller-supplied models leave nothing to train, so the driver
        # must not cut the population into train and replay halves.
        from repro.mobility.trajectory import TrajectoryDataset
        from repro.simulation.training import train_default_models

        settings = make_settings()
        trained = run_sharded(dataset, tiny_partitioner, settings)
        predictor, estimator = train_default_models(
            dataset, tiny_partitioner, settings,
            PerDNNConfig(migration_radius_m=settings.migration_radius_m),
            np.random.default_rng(settings.seed),
        )

        def boom(*args, **kwargs):
            raise AssertionError("supplied models need no time split")

        monkeypatch.setattr(TrajectoryDataset, "split_time", boom)
        supplied = run_sharded(
            dataset, tiny_partitioner, settings,
            predictor=predictor, contention_estimator=estimator,
        )
        assert supplied.telemetry.dumps() == trained.telemetry.dumps()


class TestShardPlan:
    def test_partition_is_exact(self, dataset, tiny_partitioner):
        settings = make_settings()
        config = PerDNNConfig(migration_radius_m=settings.migration_radius_m)
        shards = plan_shards(dataset, config, settings, shard_size=4)
        covered = [i for s in shards for i in s.trajectory_indices]
        assert sorted(covered) == list(range(len(dataset.trajectories)))
        assert len(set(covered)) == len(covered)
        assert [s.index for s in shards] == list(range(len(shards)))
        # Greedy packing: every shard except possibly the last reaches
        # the target usable-client count.
        for shard in shards[:-1]:
            assert shard.num_usable >= 4

    def test_plan_depends_only_on_inputs(self, dataset, tiny_partitioner):
        settings = make_settings()
        config = PerDNNConfig(migration_radius_m=settings.migration_radius_m)
        a = plan_shards(dataset, config, settings, shard_size=4)
        b = plan_shards(dataset, config, settings, shard_size=4)
        assert a == b

    def test_shard_seed_is_deterministic(self):
        assert shard_seed(3, 0) == shard_seed(3, 0)
        assert shard_seed(3, 0) != shard_seed(3, 1)
        assert shard_seed(3, 1) != shard_seed(4, 1)

    def test_shard_seed_uses_full_seed(self):
        # Regression: an earlier revision masked the run seed with
        # 0xFFFFFFFF, colliding seeds that differ only above bit 32.
        for index in range(4):
            assert shard_seed(2**32 + 5, index) != shard_seed(5, index)
        # And a pinned low-seed value: feeding the full seed must not
        # change the derivation for seeds below 2**32 (SeedSequence sees
        # the same entropy word), so existing snapshots stay valid.
        assert shard_seed(3, 0) == int(
            np.random.SeedSequence([3, 0]).generate_state(1, np.uint32)[0]
        )

    def test_shard_size_must_be_positive(self, dataset):
        settings = make_settings()
        config = PerDNNConfig()
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards(dataset, config, settings, shard_size=0)


class TestMigrationToggle:
    @pytest.mark.parametrize("subsystem", ["plain", "faults"])
    def test_fast_vs_reference_migrate(
        self, dataset, tiny_partitioner, subsystem
    ):
        # The array-form migration tail and the per-client scalar pass
        # must agree byte for byte, sharded, with and without faults.
        settings = make_settings(**SUBSYSTEMS[subsystem])
        fast = run_sharded(dataset, tiny_partitioner, settings, workers=2)
        with reference_paths.patched(simulate=False, predict=False):
            reference = run_sharded(
                dataset, tiny_partitioner, settings, workers=2
            )
        assert fast.telemetry.dumps() == reference.telemetry.dumps()


class TestPrewarmedTemplate:
    """The driver warms the partitioner template every shard unpickles.

    Plans are a pure function of their quantized key, so how warm the
    template starts must never show in the merged bytes — only in how
    many plans the shards re-solve.
    """

    @pytest.mark.parametrize("spill", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "subsystem", ["plain", "both", "no-estimator"]
    )
    def test_cold_and_hand_warmed_templates_byte_identical(
        self, dataset, tiny_profile, workers, spill, subsystem
    ):
        # "both" degrades under overload (inflated keys past the
        # estimator bound); "no-estimator" takes the analytic fallback,
        # which the driver does not warm.  Both rely on lazy shard plans.
        if subsystem == "no-estimator":
            settings = make_settings(use_contention_estimator=False)
        else:
            settings = make_settings(**SUBSYSTEMS[subsystem])
        cold = DNNPartitioner(tiny_profile, uplink_bps=35e6, downlink_bps=50e6)
        warmed = DNNPartitioner(
            tiny_profile, uplink_bps=35e6, downlink_bps=50e6
        )
        warmed.warm(40.0)
        from_cold = run_sharded(
            dataset, cold, settings, workers=workers, spill_datasets=spill
        )
        from_warmed = run_sharded(
            dataset, warmed, settings, workers=workers, spill_datasets=spill
        )
        assert from_cold.telemetry.dumps() == from_warmed.telemetry.dumps()
        assert from_cold.uplink == from_warmed.uplink
        # The caller's partitioner is left as passed.
        assert cold.cache_misses == 0 and not cold._cache

    def test_default_estimator_leaves_shards_nothing_to_plan(
        self, dataset, tiny_profile
    ):
        partitioner = DNNPartitioner(
            tiny_profile, uplink_bps=35e6, downlink_bps=50e6
        )
        result = run_sharded(dataset, partitioner, make_settings())
        cache = result.extras["partition_cache"]
        assert result.extras["sharding"]["shards"] > 1
        assert cache["hits"] > 0
        assert cache["misses"] == 0  # summed over every shard
        assert cache["prewarmed"] > 0
        assert cache["hit_ratio"] == 1.0

    def test_no_estimator_means_no_warm_up(self, dataset, tiny_profile):
        partitioner = DNNPartitioner(
            tiny_profile, uplink_bps=35e6, downlink_bps=50e6
        )
        result = run_sharded(
            dataset, partitioner,
            make_settings(use_contention_estimator=False),
        )
        assert result.extras["partition_cache"]["prewarmed"] == 0
        assert result.extras["partition_cache"]["misses"] > 0


class TestDatasetSpill:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_spill_matches_in_memory(
        self, dataset, tiny_partitioner, workers
    ):
        settings = make_settings(faults=get_profile("churn"))
        in_memory = run_sharded(
            dataset, tiny_partitioner, settings, workers=1
        )
        spilled = run_sharded(
            dataset, tiny_partitioner, settings,
            workers=workers, spill_datasets=True,
        )
        assert spilled.telemetry.dumps() == in_memory.telemetry.dumps()
        assert spilled.extras["sharding"]["spill_datasets"] is True
        assert in_memory.extras["sharding"]["spill_datasets"] is False

    def test_spill_scratch_is_cleaned_up(self, dataset, tiny_partitioner):
        import glob
        import os
        import tempfile

        pattern = os.path.join(
            tempfile.gettempdir(), "repro-shard-spill-*"
        )
        before = set(glob.glob(pattern))
        run_sharded(
            dataset, tiny_partitioner, make_settings(),
            workers=2, spill_datasets=True,
        )
        assert set(glob.glob(pattern)) == before

    def test_spill_with_checkpoint_dir(
        self, dataset, tiny_partitioner, tmp_path
    ):
        # Spill composes with checkpointing: datasets land under the
        # checkpoint directory, and the merged bytes stay pinned.
        settings = make_settings()
        plain = run_sharded(dataset, tiny_partitioner, settings, workers=1)
        spilled = run_sharded(
            dataset, tiny_partitioner, settings, workers=2,
            spill_datasets=True, checkpoint_dir=tmp_path / "ckpt",
        )
        assert spilled.telemetry.dumps() == plain.telemetry.dumps()
        # The checkpoint outlives the run; the spilled subsets do not.
        shards = spilled.extras["sharding"]["planned_shards"]
        assert (tmp_path / "ckpt" / "MANIFEST.json").is_file()
        assert sorted(p.name for p in (tmp_path / "ckpt").glob("shard-*")) == [
            f"shard-{i:05d}.json" for i in range(shards)
        ]
        assert not (tmp_path / "ckpt" / "datasets").exists()

    def test_failed_spill_run_removes_datasets(
        self, dataset, tiny_partitioner, tmp_path
    ):
        # A run that dies mid-way keeps its checkpoint for --resume but
        # must not leak the spilled subsets.
        from repro.faults import WorkerChaos
        from repro.simulation.supervisor import ShardError, SupervisorConfig

        checkpoint = tmp_path / "ckpt"
        with pytest.raises(ShardError):
            run_sharded(
                dataset, tiny_partitioner, make_settings(), workers=2,
                spill_datasets=True, checkpoint_dir=checkpoint,
                supervision=SupervisorConfig(
                    max_attempts=1, chaos=WorkerChaos(always_kill=(0,)),
                ),
            )
        assert (checkpoint / "MANIFEST.json").is_file()
        assert not (checkpoint / "datasets").exists()


class TestValidation:
    def test_workers_must_be_positive(self, dataset, tiny_partitioner):
        with pytest.raises(ValueError, match="workers"):
            run_large_scale_sharded(
                dataset, tiny_partitioner, make_settings(), workers=0
            )

    def test_prebuilt_schedule_rejected(self, dataset, tiny_partitioner):
        # Schedules are bound to one concrete server set; shards each
        # build their own from a profile.
        profile = get_profile("churn")
        schedule = profile.build((0, 1, 2), seed=1, horizon=5)
        settings = make_settings(faults=schedule)
        with pytest.raises(ValueError, match="FaultProfile"):
            run_large_scale_sharded(dataset, tiny_partitioner, settings)

    def test_empty_partitioner_pool_rejected(self, dataset):
        with pytest.raises(ValueError, match="partitioner"):
            run_large_scale_sharded(dataset, [], make_settings())

    def test_shard_size_rejected_before_training(self, dataset, tiny_partitioner):
        with pytest.raises(ValueError, match="shard_size"):
            run_large_scale_sharded(
                dataset, tiny_partitioner, make_settings(), shard_size=0
            )

    def test_resume_requires_checkpoint_dir(self, dataset, tiny_partitioner):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_large_scale_sharded(
                dataset, tiny_partitioner, make_settings(), resume=True
            )

    def test_bad_invocations_fail_fast(self, dataset, tiny_partitioner, tmp_path):
        # The whole point of validating before training: a bad call must
        # return in milliseconds, not after predictor/estimator fits.
        import time

        bad_dir = tmp_path / "file-not-dir"
        bad_dir.write_text("occupied")
        start = time.perf_counter()
        for invocation in (
            dict(workers=0),
            dict(shard_size=-1),
            dict(resume=True),
            dict(checkpoint_dir=bad_dir),
        ):
            with pytest.raises(ValueError):
                run_large_scale_sharded(
                    dataset, tiny_partitioner, make_settings(), **invocation
                )
        assert time.perf_counter() - start < 0.5
