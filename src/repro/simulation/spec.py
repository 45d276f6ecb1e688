"""One frozen description of a large-scale run.

A :class:`RunSpec` names everything that shapes one simulation: the
synthetic dataset, the model, the migration policy and radius, faults,
overload protection and, for a sharded run, the decomposition,
supervision and chaos.  Its fields are the ``repro simulate`` flags
(same names, same defaults) plus ``record_events``; ``repro simulate``,
``repro bench`` and the city-scale smoke all build their runs from one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.dnn.models import build_model
from repro.faults import WorkerChaos, get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.hardware import odroid_xu4, titan_xp_server
from repro.profiling.profiler import ExecutionProfile
from repro.simulation.large_scale import SimulationSettings, run_large_scale
from repro.simulation.result import LargeScaleResult
from repro.simulation.sharding import DEFAULT_SHARD_SIZE, run_large_scale_sharded
from repro.simulation.supervisor import SupervisorConfig
from repro.simulation.training import train_default_models
from repro.telemetry import Telemetry
from repro.trajectories.synthetic import geolife_like, kaist_like

#: Fields only a sharded run reads; on an unsharded spec any of them
#: away from its default is refused rather than silently ignored.
SHARDED_ONLY = (
    "resume", "allow_partial", "shard_timeout", "shard_attempts",
    "chaos_kill", "chaos_hang", "chaos_seed", "chaos_kill_shard",
    "chaos_max_injections", "chaos_hang_seconds",
)


def build_partitioner(model: str) -> DNNPartitioner:
    """The partitioner of ``model`` on the paper's device, server and links."""
    network = PerDNNConfig().network
    profile = ExecutionProfile.build(
        build_model(model), odroid_xu4(), titan_xp_server()
    )
    return DNNPartitioner(profile, network.uplink_bps, network.downlink_bps)


def build_dataset(name: str, users: int, steps: int, seed: int):
    """A seeded synthetic ``kaist`` or ``geolife`` trajectory dataset."""
    rng = np.random.default_rng(seed)
    if name == "kaist":
        return kaist_like(rng, num_users=users, duration_steps=steps)
    if name == "geolife":
        return geolife_like(rng, num_users=users, duration_steps=steps).subsample(4)
    raise ValueError(f"unknown dataset {name!r} (kaist | geolife)")


def _given(**kwargs) -> dict:
    """The keyword arguments that are not None (None takes the default)."""
    return {key: value for key, value in kwargs.items() if value is not None}


@dataclass(frozen=True)
class RunSpec:
    """One large-scale run; :meth:`run` builds and runs it.

    The run is sharded when ``workers > 1``, or a ``shard_size``, a
    ``checkpoint_dir`` or ``spill_datasets`` is set; a sharded spec
    without a ``shard_size`` gets :data:`DEFAULT_SHARD_SIZE`.  A
    supervision or chaos field left at ``None`` takes the default of
    :class:`SupervisorConfig` / :class:`WorkerChaos`.  Construction
    raises ``ValueError`` for an unknown fault profile, an invalid
    setting, or a :data:`SHARDED_ONLY` field set on an unsharded spec.
    """

    dataset: str = "kaist"
    model: str = "inception"
    policy: str = "perdnn"
    radius: float = 100.0
    hysteresis: float = 0.0
    steps: int = 60
    users: int = 20
    dataset_steps: int = 300
    seed: int = 0
    faults: str = "none"
    overload: str = "off"
    queue_capacity: int = 8
    workers: int = 1
    shard_size: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    spill_datasets: bool = False
    allow_partial: bool = False
    shard_attempts: int | None = None
    shard_timeout: float | None = None
    chaos_kill: float = 0.0
    chaos_hang: float = 0.0
    chaos_seed: int | None = None
    chaos_kill_shard: tuple[int, ...] = ()
    chaos_max_injections: int | None = None
    chaos_hang_seconds: float | None = None
    record_events: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "chaos_kill_shard", tuple(self.chaos_kill_shard or ())
        )
        sharded = (
            self.workers > 1
            or self.shard_size is not None
            or self.checkpoint_dir is not None
            or self.spill_datasets
        )
        if sharded and self.shard_size is None:
            object.__setattr__(self, "shard_size", DEFAULT_SHARD_SIZE)
        misused = [
            "--" + field.name.replace("_", "-")
            for field in fields(self)
            if field.name in SHARDED_ONLY
            and getattr(self, field.name) != field.default
        ]
        if misused and not sharded:
            raise ValueError(
                f"{', '.join(misused)} only apply to sharded runs; "
                "add --shard-size, --workers, or --checkpoint-dir"
            )
        self.settings()
        self.config()
        self.supervision()

    @property
    def sharded(self) -> bool:
        return self.shard_size is not None

    def config(self) -> PerDNNConfig:
        return PerDNNConfig(
            migration_radius_m=self.radius,
            handover_hysteresis_m=self.hysteresis,
        )

    def settings(self) -> SimulationSettings:
        overload = None
        if self.overload != "off":
            overload = OverloadConfig(
                policy=SheddingPolicy(self.overload),
                queue_capacity=self.queue_capacity,
            )
        return SimulationSettings(
            policy=MigrationPolicy(self.policy),
            migration_radius_m=self.radius,
            max_steps=self.steps,
            seed=self.seed,
            faults=get_profile(self.faults),
            overload=overload,
        )

    def supervision(self) -> SupervisorConfig:
        chaos = None
        if self.chaos_kill or self.chaos_hang or self.chaos_kill_shard:
            chaos = WorkerChaos(
                kill_rate=self.chaos_kill,
                hang_rate=self.chaos_hang,
                always_kill=self.chaos_kill_shard,
                **_given(
                    seed=self.chaos_seed,
                    max_injections_per_shard=self.chaos_max_injections,
                    hang_seconds=self.chaos_hang_seconds,
                ),
            )
        return SupervisorConfig(
            timeout_seconds=self.shard_timeout,
            allow_partial=self.allow_partial,
            chaos=chaos,
            **_given(max_attempts=self.shard_attempts),
        )

    def trajectories(self):
        """The dataset this spec replays."""
        return build_dataset(
            self.dataset, self.users, self.dataset_steps, self.seed
        )

    def train_models(self, dataset):
        """``(predictor, contention_estimator)`` trained as the run would
        train them, for callers that keep training out of a timed region."""
        return train_default_models(
            dataset, build_partitioner(self.model), self.settings(),
            self.config(), np.random.default_rng(self.seed),
        )

    def run(
        self, predictor=None, contention_estimator=None, dataset=None
    ) -> LargeScaleResult:
        """Build the partitioner (and the dataset unless one is given)
        and run the spec; models not given are trained by the run."""
        partitioner = build_partitioner(self.model)
        if dataset is None:
            dataset = self.trajectories()
        if not self.sharded:
            return run_large_scale(
                dataset, partitioner, self.settings(), self.config(),
                predictor=predictor,
                contention_estimator=contention_estimator,
                telemetry=Telemetry.create(record_events=self.record_events),
            )
        return run_large_scale_sharded(
            dataset,
            partitioner,
            self.settings(),
            config=self.config(),
            shard_size=self.shard_size,
            workers=self.workers,
            predictor=predictor,
            contention_estimator=contention_estimator,
            record_events=self.record_events,
            supervision=self.supervision(),
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            spill_datasets=self.spill_datasets,
        )

    def meta(self) -> dict:
        """The ``meta`` block of the run's telemetry snapshot.

        It names the decomposition (``shard_size``) but never the worker
        count, so runs that differ only in ``workers`` export the same
        bytes.
        """
        meta = {
            "command": "simulate",
            "dataset": self.dataset,
            "model": self.model,
            "policy": self.policy,
            "seed": self.seed,
        }
        if self.faults != "none":
            meta["faults"] = self.faults
        if self.overload != "off":
            meta["overload"] = self.overload
        if self.sharded:
            meta["shard_size"] = self.shard_size
        return meta
