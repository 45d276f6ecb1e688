"""Checkpoint spill, streaming merge, resume, and the fingerprint guard.

The checkpoint directory is a faithful, byte-deterministic externalized
form of the per-shard results: merging streamed from disk must equal the
in-memory merge exactly, a resumed run must equal an uninterrupted one,
and a checkpoint written under different settings must be rejected
before any shard is reused.
"""

import json

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.simulation.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    ShardRecord,
    run_fingerprint,
)
from repro.simulation.large_scale import SimulationSettings
from repro.simulation.sharding import run_large_scale_sharded
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


class TestCheckpointedMerge:
    def test_streamed_merge_matches_in_memory(
        self, dataset, tiny_partitioner, tmp_path
    ):
        settings = make_settings()
        in_memory = run_sharded(dataset, tiny_partitioner, settings)
        checkpointed = run_sharded(
            dataset, tiny_partitioner, settings,
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert (
            checkpointed.telemetry.dumps() == in_memory.telemetry.dumps()
        )
        assert checkpointed.extras["partition_cache"] == (
            in_memory.extras["partition_cache"]
        )
        assert checkpointed.uplink == in_memory.uplink
        assert checkpointed.downlink == in_memory.downlink

    def test_shard_files_and_manifest_written(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        result = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        shards = result.extras["sharding"]["planned_shards"]
        names = sorted(p.name for p in checkpoint.iterdir())
        assert "MANIFEST.json" in names
        assert [n for n in names if n.startswith("shard-")] == [
            f"shard-{i:05d}.json" for i in range(shards)
        ]
        manifest = json.loads((checkpoint / "MANIFEST.json").read_text())
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["num_shards"] == shards

    def test_full_resume_skips_every_shard(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        first = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        resumed = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint, resume=True,
        )
        assert resumed.telemetry.dumps() == first.telemetry.dumps()
        info = resumed.extras["sharding"]
        assert info["resumed_shards"] == list(
            range(info["planned_shards"])
        )

    def test_corrupt_shard_file_is_rerun(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        first = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        # Torn JSON, and valid JSON that is not an object.
        for content in ("{torn write", "[]", "null"):
            (checkpoint / "shard-00001.json").write_text(content)
            resumed = run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=checkpoint, resume=True,
            )
            assert resumed.telemetry.dumps() == first.telemetry.dumps()
            assert 1 not in resumed.extras["sharding"]["resumed_shards"]

    def test_record_events_false_roundtrip(
        self, dataset, tiny_partitioner, tmp_path
    ):
        # NullEventTrace shards must survive the spill/reload cycle: the
        # merged result still has empty events and identical metrics.
        settings = make_settings()
        lean = run_sharded(
            dataset, tiny_partitioner, settings, record_events=False
        )
        checkpoint = tmp_path / "ckpt"
        checkpointed = run_sharded(
            dataset, tiny_partitioner, settings, record_events=False,
            checkpoint_dir=checkpoint,
        )
        assert checkpointed.telemetry.dumps() == lean.telemetry.dumps()
        assert list(checkpointed.telemetry.trace) == []
        resumed = run_sharded(
            dataset, tiny_partitioner, settings, record_events=False,
            checkpoint_dir=checkpoint, resume=True,
        )
        assert resumed.telemetry.dumps() == lean.telemetry.dumps()


class TestGuards:
    def test_stale_checkpoint_rejected(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        with pytest.raises(ValueError, match="stale checkpoint"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(seed=99),
                checkpoint_dir=checkpoint, resume=True,
            )
        with pytest.raises(ValueError, match="stale checkpoint"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                shard_size=5, checkpoint_dir=checkpoint, resume=True,
            )

    def test_fresh_run_rejects_used_directory(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        with pytest.raises(ValueError, match="already holds a run"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=checkpoint,
            )

    def test_resume_without_manifest_rejected(
        self, dataset, tiny_partitioner, tmp_path
    ):
        with pytest.raises(ValueError, match="nothing to resume"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=tmp_path / "empty", resume=True,
            )

    def test_resume_with_non_object_manifest_rejected(
        self, dataset, tiny_partitioner, tmp_path
    ):
        checkpoint = tmp_path / "ckpt"
        checkpoint.mkdir()
        (checkpoint / "MANIFEST.json").write_text("[1]")
        with pytest.raises(ValueError, match="unreadable checkpoint manifest"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=checkpoint, resume=True,
            )

    def test_unusable_checkpoint_dir_rejected(
        self, dataset, tiny_partitioner, tmp_path
    ):
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory")
        with pytest.raises(ValueError, match="not a dir|not .*writable"):
            run_sharded(
                dataset, tiny_partitioner, make_settings(),
                checkpoint_dir=occupied,
            )


class TestFingerprint:
    def make_inputs(self, dataset):
        settings = make_settings()
        config = PerDNNConfig(migration_radius_m=settings.migration_radius_m)
        return dict(
            dataset=dataset, settings=settings, config=config,
            shard_size=4, model_names=["tiny"], record_events=True,
        )

    def test_stable(self, dataset):
        inputs = self.make_inputs(dataset)
        assert run_fingerprint(**inputs) == run_fingerprint(**inputs)

    @pytest.mark.parametrize(
        "change",
        [
            {"shard_size": 8},
            {"record_events": False},
            {"config": PerDNNConfig(migration_radius_m=50.0)},
            {"model_names": ["tiny", "other"]},
            {"model_names": ["other"]},
        ],
    )
    def test_sensitive_to_every_input(self, dataset, change):
        inputs = self.make_inputs(dataset)
        baseline = run_fingerprint(**inputs)
        assert run_fingerprint(**{**inputs, **change}) != baseline

    def test_sensitive_to_settings_and_data(self, dataset):
        inputs = self.make_inputs(dataset)
        baseline = run_fingerprint(**inputs)
        changed = dict(inputs, settings=make_settings(seed=4))
        assert run_fingerprint(**changed) != baseline
        other_data = kaist_like(
            np.random.default_rng(4), num_users=14, duration_steps=60
        )
        assert run_fingerprint(**dict(inputs, dataset=other_data)) != baseline


class TestShardRecordRoundtrip:
    def test_json_roundtrip_is_exact(self, dataset, tiny_partitioner, tmp_path):
        # Spill one run, reload every record, and compare documents:
        # JSON float round-tripping must be lossless.
        checkpoint = tmp_path / "ckpt"
        result = run_sharded(
            dataset, tiny_partitioner, make_settings(),
            checkpoint_dir=checkpoint,
        )
        store = CheckpointStore(checkpoint)
        for index in range(result.extras["sharding"]["planned_shards"]):
            record = store.load_shard(index)
            assert isinstance(record, ShardRecord)
            assert record.index == index
            again = ShardRecord.from_doc(record.to_doc())
            assert again.to_doc() == record.to_doc()

    def test_from_doc_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            ShardRecord.from_doc({"schema": "bogus/9"})
