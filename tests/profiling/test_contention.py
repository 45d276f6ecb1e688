"""Tests for the GPU contention model and nvml-style statistics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.contention import GpuContentionModel, clip_scalar
from repro.profiling.gpu_stats import GpuStats


@pytest.fixture
def model(rng):
    return GpuContentionModel(rng)


class TestGpuStats:
    def test_feature_vector_order(self):
        stats = GpuStats(50.0, 30.0, 60.0, 4)
        assert stats.as_features() == (4.0, 50.0, 30.0, 60.0)

    def test_idle_stats(self):
        idle = GpuStats.idle()
        assert idle.num_clients == 0
        assert idle.kernel_utilization == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kernel_utilization=101.0, memory_utilization=0, temperature=40, num_clients=0),
            dict(kernel_utilization=-1.0, memory_utilization=0, temperature=40, num_clients=0),
            dict(kernel_utilization=0, memory_utilization=120.0, temperature=40, num_clients=0),
            dict(kernel_utilization=0, memory_utilization=0, temperature=40, num_clients=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GpuStats(**kwargs)


class TestContentionModel:
    def test_idle_has_no_slowdown(self, model):
        model.step(0)
        assert model.slowdown() == pytest.approx(1.0, abs=1e-9)

    def test_slowdown_grows_with_clients(self, rng):
        model = GpuContentionModel(rng)
        averages = []
        for clients in (1, 4, 8, 16):
            slowdowns = []
            for _ in range(50):
                model.step(clients)
                slowdowns.append(model.slowdown())
            averages.append(np.mean(slowdowns))
        assert averages == sorted(averages)
        assert averages[-1] > 2.0  # heavy load must hurt substantially

    def test_expected_slowdown_monotone(self, model):
        values = [model.expected_slowdown_for_clients(n) for n in range(0, 20)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(1.0)

    def test_stats_reflect_load(self, rng):
        model = GpuContentionModel(rng)
        model.step(0)
        idle = np.mean([model.sample_stats().kernel_utilization for _ in range(20)])
        for _ in range(10):
            model.step(12)
        busy = np.mean([model.sample_stats().kernel_utilization for _ in range(20)])
        assert busy > idle + 30

    def test_temperature_lags_and_rises(self, rng):
        model = GpuContentionModel(rng)
        model.step(16)
        first = model.sample_stats().temperature
        for _ in range(30):
            model.step(16)
        later = model.sample_stats().temperature
        assert later > first

    def test_execution_time_scales_base(self, rng):
        model = GpuContentionModel(rng, time_noise=1e-9)
        for _ in range(5):
            model.step(8)
        base = 1e-3
        assert model.execution_time(base) == pytest.approx(
            base * model.slowdown(), rel=1e-3
        )

    def test_execution_time_rejects_negative(self, model):
        with pytest.raises(ValueError):
            model.execution_time(-1.0)

    def test_step_rejects_negative_clients(self, model):
        with pytest.raises(ValueError):
            model.step(-1)

    def test_invalid_activity_rejected(self, rng):
        with pytest.raises(ValueError):
            GpuContentionModel(rng, mean_activity=0.0)

    def test_deterministic_under_seed(self):
        a = GpuContentionModel(np.random.default_rng(7))
        b = GpuContentionModel(np.random.default_rng(7))
        for _ in range(5):
            a.step(4)
            b.step(4)
        assert a.sample_stats() == b.sample_stats()


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                         100.0, 30.0, 95.0]),
    ),
    bounds=st.one_of(
        st.sampled_from([(0.0, 100.0), (30.0, 95.0), (-0.0, 0.0),
                         (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)]),
        st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    ),
)
def test_clip_scalar_matches_numpy_bit_for_bit(x, bounds):
    lo, hi = bounds
    expected = float(np.clip(x, lo, hi))
    got = clip_scalar(x, lo, hi)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", expected) or (
        math.isnan(got) and math.isnan(expected)
    )
