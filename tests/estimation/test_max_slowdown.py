"""The contention estimator's slowdown bound.

``max_slowdown()`` decides which plan keys the sharded driver warms
ahead of a run, so it must bound every value the estimator can return,
for any GPU statistics a ping could produce, including ones far outside
the training campaign.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.estimation.estimator import ContentionEstimator
from repro.profiling.gpu_stats import GpuStats
from repro.profiling.profiler import ContentionSample, generate_contention_dataset
from repro.simulation.large_scale import train_default_estimator


@pytest.fixture(scope="module")
def default_estimator(tiny_partitioner):
    return train_default_estimator(tiny_partitioner, np.random.default_rng(7))


@pytest.fixture(scope="module")
def small_estimator(branchy_graph, server_device):
    samples = generate_contention_dataset(
        branchy_graph, server_device, np.random.default_rng(42),
        client_counts=(1, 2, 4, 8), rounds_per_count=4,
    )
    return ContentionEstimator(
        n_estimators=8, max_depth=5, rng=np.random.default_rng(0)
    ).fit(samples)


percent = st.one_of(
    st.sampled_from([0.0, 100.0]),
    st.floats(0.0, 100.0, allow_nan=False),
)
gpu_stats = st.builds(
    GpuStats,
    kernel_utilization=percent,
    memory_utilization=percent,
    temperature=st.one_of(
        st.sampled_from([-1e300, -273.15, 0.0, 35.0, 1e300]),
        st.floats(-300.0, 500.0, allow_nan=False),
    ),
    num_clients=st.one_of(
        st.sampled_from([0, 1, 10**9]), st.integers(0, 64)
    ),
)


class TestMaxSlowdown:
    @given(stats_list=st.lists(gpu_stats, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bounds_every_batch_prediction(
        self, default_estimator, small_estimator, stats_list
    ):
        for estimator in (default_estimator, small_estimator):
            bound = estimator.max_slowdown()
            batch = estimator.predict_slowdown_batch(stats_list)
            assert np.all(batch <= bound)
            assert estimator.predict_slowdown(stats_list[0]) <= bound

    def test_bound_is_tight_on_a_sweep(self, default_estimator):
        # The bound is the mean of per-tree leaf maxima: at least what a
        # dense sweep of the training range predicts, and no looser than
        # the largest leaf of any single tree.
        stats_list = [
            GpuStats(float(k), float(m), 60.0, int(c))
            for k in np.linspace(0, 100, 11)
            for m in np.linspace(0, 100, 11)
            for c in (0, 1, 4, 8, 16, 32)
        ]
        batch = default_estimator.predict_slowdown_batch(stats_list)
        bound = default_estimator.max_slowdown()
        assert batch.max() <= bound
        per_tree = [
            tree.flat.value[tree.flat.feature < 0].max()
            for tree in default_estimator._model._trees
        ]
        assert bound == pytest.approx(max(1.0, np.mean(per_tree)))
        assert bound <= max(per_tree)

    def test_clamped_to_one(self, branchy_graph, server_device):
        # Sub-unity training targets: every prediction clamps to 1.0 and
        # so does the bound.
        samples = generate_contention_dataset(
            branchy_graph, server_device, np.random.default_rng(3),
            client_counts=(1, 2), rounds_per_count=3,
        )
        fast = [
            ContentionSample(
                info=s.info, stats=s.stats, base_time=s.base_time,
                measured_time=0.5 * s.base_time,
            )
            for s in samples
        ]
        estimator = ContentionEstimator(
            n_estimators=4, max_depth=3, rng=np.random.default_rng(1)
        ).fit(fast)
        assert estimator.max_slowdown() == 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            ContentionEstimator().max_slowdown()
