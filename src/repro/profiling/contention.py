"""Stochastic GPU contention model for multi-client offloading.

When several clients offload DNN inference to one edge server, their kernels
contend for streaming multiprocessors, GPU memory, and the PCIe bus.  The
paper treats the resulting slowdown as a black box and learns it from nvml
statistics; this module provides the black box.

Model
-----
Each offloading client contributes a fluctuating *activity* (clients do not
issue queries back to back — they wait for results and sleep between
queries), so the latent GPU load is ``sum of per-client activities`` rather
than the client count itself.  Execution slowdown grows super-linearly in
that latent load (temporal sharing plus scheduling overhead plus thermal
throttling), and the observable nvml statistics — kernel/memory utilization
and temperature — are noisy, lagged functions of the same latent load.

This gives the estimator exactly the learning problem the paper describes:
client count alone is a coarse predictor; utilization and temperature carry
the extra signal (Fig 4), and the relationship is non-linear, favouring a
random forest over linear/logarithmic fits.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.gpu_stats import GpuStats

_AMBIENT_TEMPERATURE = 35.0
_MAX_TEMPERATURE = 92.0
_THROTTLE_TEMPERATURE = 80.0


def clip_scalar(x: float, lo: float, hi: float) -> float:
    """``float(np.clip(x, lo, hi))`` for one float, without numpy.

    For non-NaN bounds it gives the same bits as numpy's float clip,
    signed zeros included: a NaN passes through, then ``x if x >= lo
    else lo``, then ``x if x <= hi else hi`` (a tie keeps ``x``, so
    ``-0.0`` clipped at ``0.0`` stays ``-0.0``, as it does in numpy).
    """
    if x != x:
        return x
    x = x if x >= lo else lo
    return x if x <= hi else hi


class GpuContentionModel:
    """Latent-load contention model for one server GPU.

    Parameters
    ----------
    rng:
        Source of randomness; pass a seeded generator for reproducibility.
    mean_activity:
        Average fraction of time an offloading client keeps the GPU busy.
    slowdown_per_load / slowdown_quadratic:
        Linear / quadratic coefficients of slowdown in the latent load.
    temperature_lag:
        EMA coefficient for how quickly temperature tracks utilization.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_activity: float = 0.55,
        activity_concentration: float = 2.5,
        slowdown_per_load: float = 0.50,
        slowdown_quadratic: float = 0.045,
        thermal_throttle_factor: float = 0.35,
        temperature_lag: float = 0.30,
        stat_noise: float = 0.04,
        time_noise: float = 0.05,
    ) -> None:
        if not 0.0 < mean_activity <= 1.0:
            raise ValueError("mean_activity must be in (0, 1]")
        self._rng = rng
        self._mean_activity = mean_activity
        self._concentration = activity_concentration
        self._slowdown_per_load = slowdown_per_load
        self._slowdown_quadratic = slowdown_quadratic
        self._thermal_throttle_factor = thermal_throttle_factor
        self._temperature_lag = temperature_lag
        self._stat_noise = stat_noise
        self._time_noise = time_noise
        self._num_clients = 0
        self._latent_load = 0.0
        self._temperature = _AMBIENT_TEMPERATURE

    # ------------------------------------------------------------------
    # State evolution
    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return self._num_clients

    @property
    def latent_load(self) -> float:
        return self._latent_load

    def step(self, num_clients: int) -> None:
        """Advance one sampling period with ``num_clients`` offloading."""
        if num_clients < 0:
            raise ValueError("num_clients must be non-negative")
        self._num_clients = num_clients
        if num_clients == 0:
            self._latent_load = 0.0
        else:
            alpha = self._mean_activity * self._concentration
            beta = (1.0 - self._mean_activity) * self._concentration
            activities = self._rng.beta(alpha, beta, size=num_clients)
            self._latent_load = float(activities.sum())
        target = _AMBIENT_TEMPERATURE + (
            (_MAX_TEMPERATURE - _AMBIENT_TEMPERATURE)
            * self._utilization_fraction()
        )
        lag = self._temperature_lag
        self._temperature += lag * (target - self._temperature)

    def utilization_fraction(self) -> float:
        """Fraction of time the GPU is busy, saturating slowly with load.

        The slow saturation keeps utilization informative about the latent
        load even at 16 concurrent clients — the regime where the paper's
        estimator benefits most from GPU statistics (Fig 4).  Noise-free:
        this is the latent truth the nvml samples scatter around, and the
        saturation signal admission control keys on.
        """
        return 1.0 - float(np.exp(-0.18 * self._latent_load))

    # Backwards-compatible alias (pre-overload private name).
    _utilization_fraction = utilization_fraction

    # ------------------------------------------------------------------
    # Observables and effects
    # ------------------------------------------------------------------
    def slowdown(self) -> float:
        """Current multiplicative execution-time factor (>= 1)."""
        load = max(0.0, self._latent_load - self._mean_activity)
        factor = (
            1.0
            + self._slowdown_per_load * load
            + self._slowdown_quadratic * load * load
        )
        if self._temperature > _THROTTLE_TEMPERATURE:
            over = (self._temperature - _THROTTLE_TEMPERATURE) / (
                _MAX_TEMPERATURE - _THROTTLE_TEMPERATURE
            )
            factor *= 1.0 + self._thermal_throttle_factor * over
        return factor

    def sample_stats(self) -> GpuStats:
        """One noisy nvml-style sample of the current GPU state."""
        util = 100.0 * self._utilization_fraction()
        noise = self._stat_noise * 100.0
        kernel = clip_scalar(
            util + self._rng.normal(0.0, noise), 0.0, 100.0
        )
        mem = clip_scalar(
            0.62 * util + self._rng.normal(0.0, noise), 0.0, 100.0
        )
        temp = clip_scalar(
            self._temperature + self._rng.normal(0.0, 1.0),
            _AMBIENT_TEMPERATURE - 5.0,
            _MAX_TEMPERATURE + 3.0,
        )
        return GpuStats(
            kernel_utilization=kernel,
            memory_utilization=mem,
            temperature=temp,
            num_clients=self._num_clients,
        )

    def execution_time(self, base_time: float) -> float:
        """Actual contended time of an operation with uncontended ``base_time``."""
        if base_time < 0:
            raise ValueError("base_time must be non-negative")
        noise = float(self._rng.lognormal(mean=0.0, sigma=self._time_noise))
        return base_time * self.slowdown() * noise

    def expected_slowdown_for_clients(self, num_clients: int) -> float:
        """Deterministic expected slowdown at a given client count.

        Used where the simulator needs a smooth, noise-free contention
        estimate (e.g. the oracle in estimator evaluations).
        """
        load = max(0.0, num_clients * self._mean_activity - self._mean_activity)
        return (
            1.0
            + self._slowdown_per_load * load
            + self._slowdown_quadratic * load * load
        )
