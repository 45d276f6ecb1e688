"""The frozen run description behind ``repro simulate`` and ``repro bench``.

A :class:`RunSpec` must build the same run a caller would build by hand
(same exported bytes, sharded and unsharded), name it in the snapshot's
``meta`` exactly as the CLI always has, and refuse what it cannot honour
at construction, before any dataset or partitioner exists.
"""

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.dnn.models import build_model
from repro.faults import get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.hardware import odroid_xu4, titan_xp_server
from repro.profiling.profiler import ExecutionProfile
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.sharding import DEFAULT_SHARD_SIZE, run_large_scale_sharded
from repro.simulation.spec import SHARDED_ONLY, RunSpec
from repro.simulation.supervisor import SupervisorConfig
from repro.trajectories.synthetic import kaist_like

SMALL = dict(
    model="mobilenet", users=6, dataset_steps=40, steps=4, seed=1,
    radius=80.0, faults="churn", overload="redirect", queue_capacity=2,
)


def hand_built_inputs():
    """What the CLI built by hand before it had a spec, for ``SMALL``."""
    config = PerDNNConfig(migration_radius_m=80.0)
    profile = ExecutionProfile.build(
        build_model("mobilenet"), odroid_xu4(), titan_xp_server()
    )
    partitioner = DNNPartitioner(
        profile, config.network.uplink_bps, config.network.downlink_bps
    )
    dataset = kaist_like(
        np.random.default_rng(1), num_users=6, duration_steps=40
    )
    settings = SimulationSettings(
        policy=MigrationPolicy.PERDNN,
        migration_radius_m=80.0,
        max_steps=4,
        seed=1,
        faults=get_profile("churn"),
        overload=OverloadConfig(
            policy=SheddingPolicy.REDIRECT, queue_capacity=2
        ),
    )
    return dataset, partitioner, settings, config


class TestRun:
    def test_unsharded_matches_hand_built_run(self):
        dataset, partitioner, settings, config = hand_built_inputs()
        expected = run_large_scale(dataset, partitioner, settings, config)
        spec = RunSpec(**SMALL)
        assert not spec.sharded
        assert spec.run().telemetry.dumps() == expected.telemetry.dumps()

    def test_sharded_matches_hand_built_run(self):
        dataset, partitioner, settings, config = hand_built_inputs()
        expected = run_large_scale_sharded(
            dataset, partitioner, settings, config=config, shard_size=3,
        )
        spec = RunSpec(**SMALL, shard_size=3)
        assert spec.run().telemetry.dumps() == expected.telemetry.dumps()


class TestMeta:
    def test_unsharded(self):
        assert RunSpec().meta() == {
            "command": "simulate",
            "dataset": "kaist",
            "model": "inception",
            "policy": "perdnn",
            "seed": 0,
        }

    def test_sharded_names_the_shard_size_not_the_workers(self):
        spec = RunSpec(
            dataset="geolife", model="mobilenet", policy="routing",
            seed=7, workers=4,
        )
        assert spec.meta() == {
            "command": "simulate",
            "dataset": "geolife",
            "model": "mobilenet",
            "policy": "routing",
            "seed": 7,
            "shard_size": DEFAULT_SHARD_SIZE,
        }

    def test_faults(self):
        assert RunSpec(policy="none", faults="churn").meta() == {
            "command": "simulate",
            "dataset": "kaist",
            "model": "inception",
            "policy": "none",
            "seed": 0,
            "faults": "churn",
        }

    def test_overload(self):
        spec = RunSpec(
            faults="flash-crowd", overload="degrade", queue_capacity=2,
            shard_size=3,
        )
        assert spec.meta() == {
            "command": "simulate",
            "dataset": "kaist",
            "model": "inception",
            "policy": "perdnn",
            "seed": 0,
            "faults": "flash-crowd",
            "overload": "degrade",
            "shard_size": 3,
        }


class TestValidation:
    @pytest.mark.parametrize(
        "sharding",
        [
            {"workers": 2},
            {"checkpoint_dir": "ckpt"},
            {"spill_datasets": True},
        ],
    )
    def test_sharding_options_take_the_default_shard_size(self, sharding):
        spec = RunSpec(**sharding)
        assert spec.sharded and spec.shard_size == DEFAULT_SHARD_SIZE

    @pytest.mark.parametrize(
        "field, value",
        [
            ("resume", True),
            ("allow_partial", True),
            ("shard_timeout", 30.0),
            ("shard_attempts", SupervisorConfig.max_attempts),
            ("chaos_kill", 0.5),
            ("chaos_hang", 0.5),
            ("chaos_seed", 0),
            ("chaos_kill_shard", (0,)),
            ("chaos_max_injections", 1),
            ("chaos_hang_seconds", 3600.0),
        ],
    )
    def test_sharded_only_option_refused_unsharded(self, field, value):
        assert field in SHARDED_ONLY
        flag = "--" + field.replace("_", "-")
        with pytest.raises(ValueError, match=f"{flag} only apply to sharded"):
            RunSpec(**{field: value})

    def test_sharded_only_options_accepted_sharded(self):
        spec = RunSpec(
            shard_size=4, shard_attempts=2, shard_timeout=30.0,
            chaos_hang=0.5, chaos_seed=3, chaos_max_injections=2,
            chaos_hang_seconds=1.0,
        )
        supervision = spec.supervision()
        assert supervision.max_attempts == 2
        assert supervision.chaos.seed == 3
        assert supervision.chaos.max_injections_per_shard == 2
        assert supervision.chaos.hang_seconds == 1.0

    def test_unset_supervision_takes_the_config_defaults(self):
        assert RunSpec(shard_size=4).supervision() == SupervisorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults": "meteor"},
            {"overload": "panic"},
            {"radius": -1.0},
            {"shard_size": 2, "chaos_hang": 0.5},  # no timeout ends a hang
        ],
    )
    def test_invalid_spec_refused(self, kwargs):
        with pytest.raises(ValueError):
            RunSpec(**kwargs)
