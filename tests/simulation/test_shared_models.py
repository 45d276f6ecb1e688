"""Shards share the driver's live models and fork its plan table.

The sharded driver hands every shard its own trained predictor and
contention estimator (no pickled copies) and a
:meth:`~repro.partitioning.partitioner.DNNPartitioner.fork` of one warmed
partitioner template.  That is only byte-safe because the models'
predict paths draw no randomness and each fork keeps the keys it plans
to itself; these tests pin both, and that the caller's objects come back
as they were passed.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.contention import GpuContentionModel
from repro.simulation import sharding
from repro.simulation.large_scale import SimulationSettings
from repro.simulation.training import (
    train_default_estimator,
    train_default_predictor,
)
from repro.trajectories.synthetic import kaist_like


@pytest.fixture(scope="module")
def dataset():
    return kaist_like(np.random.default_rng(3), num_users=18, duration_steps=60)


@pytest.fixture(scope="module")
def models(dataset, tiny_partitioner):
    rng = np.random.default_rng(5)
    train, _ = dataset.split_time(0.5)
    history = PerDNNConfig().prediction_history
    predictor = train_default_predictor(train, history, rng)
    return predictor, train_default_estimator(tiny_partitioner, rng)


def make_settings(**kwargs):
    kwargs.setdefault("policy", MigrationPolicy.PERDNN)
    kwargs.setdefault("max_steps", 5)
    kwargs.setdefault("seed", 3)
    return SimulationSettings(**kwargs)


def rng_states(*objects):
    return [obj._rng.bit_generator.state for obj in objects]


class TestPredictPathsDrawNothing:
    def test_estimator(self, models):
        _, estimator = models
        before = rng_states(estimator, estimator._model)
        contention = GpuContentionModel(np.random.default_rng(1))
        stats = []
        for clients in (0, 1, 3, 8):
            contention.step(clients)
            stats.append(contention.sample_stats())
        estimator.predict_slowdown(stats[0])
        estimator.predict_slowdown_batch(stats)
        estimator.predict_time(0.01, stats[-1])
        estimator.max_slowdown()
        assert rng_states(estimator, estimator._model) == before

    def test_predictor(self, models, dataset):
        predictor, _ = models
        before = rng_states(predictor)
        points = dataset.trajectories[0].points
        windows = np.stack(
            [points[i : i + predictor.history] for i in range(4)]
        )
        predictor.predict_points(windows)
        predictor.predict_point(windows[0])
        assert rng_states(predictor) == before


class TestInlineShardsShareTheDriversObjects:
    def test_no_unpickling_and_inputs_left_as_passed(
        self, dataset, tiny_profile, models, monkeypatch
    ):
        predictor, estimator = models
        partitioner = DNNPartitioner(tiny_profile, 35e6, 50e6)
        models_before = pickle.dumps(models)
        states_before = rng_states(predictor, estimator)
        loads = []
        real_loads = pickle.loads

        def counting_loads(*args, **kwargs):
            loads.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counting_loads)
        shard_inputs = []
        real_run = sharding.run_large_scale

        def spy(dataset, partitioner, settings, **kwargs):
            shard_inputs.append((partitioner, kwargs))
            return real_run(dataset, partitioner, settings, **kwargs)

        monkeypatch.setattr(sharding, "run_large_scale", spy)
        result = sharding.run_large_scale_sharded(
            dataset, partitioner, make_settings(), shard_size=4,
            predictor=predictor, contention_estimator=estimator,
        )
        assert loads == []
        assert len(shard_inputs) == result.extras["sharding"]["shards"] > 1
        forks = [pool[0] for pool, _ in shard_inputs]
        # One fork per shard, none of them the caller's partitioner.
        assert len({id(fork) for fork in forks}) == len(forks)
        assert all(fork is not partitioner for fork in forks)
        for _, kwargs in shard_inputs:
            assert kwargs["predictor"] is predictor
            assert kwargs["contention_estimator"] is estimator
        # The caller's objects come back as passed.
        assert not partitioner._cache
        assert partitioner.cache_hits == partitioner.cache_misses == 0
        assert pickle.dumps(models) == models_before
        assert rng_states(predictor, estimator) == states_before

    def test_pool_members_listed_twice_stay_one_fork(self, tiny_profile):
        a = DNNPartitioner(tiny_profile, 35e6, 50e6)
        b = DNNPartitioner(tiny_profile, 35e6, 50e6)
        forks = sharding._fork([a, b, a])
        assert forks[0] is forks[2]
        assert forks[0] is not forks[1]
        assert not {id(a), id(b)} & {id(fork) for fork in forks}


class TestLazyPlansStayPerShard:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_contention_estimator": False},
            {
                # Inflated past the estimator bound the template is
                # warmed to, so every degraded key is planned lazily.
                "overload": OverloadConfig(
                    policy=SheddingPolicy.DEGRADE,
                    queue_capacity=1,
                    degrade_inflation=16.0,
                ),
            },
        ],
        ids=["no-estimator", "degraded"],
    )
    def test_partition_cache_extras_match_across_workers(
        self, dataset, tiny_profile, overrides
    ):
        extras = {}
        for workers in (1, 2):
            result = sharding.run_large_scale_sharded(
                dataset, DNNPartitioner(tiny_profile, 35e6, 50e6),
                make_settings(**overrides), shard_size=4, workers=workers,
            )
            extras[workers] = result.extras["partition_cache"]
        assert extras[1] == extras[2]
        assert extras[1]["misses"] > 0  # shards planned keys lazily
