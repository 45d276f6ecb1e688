"""High-level partitioner facade used by the master server.

Bundles the per-model execution profile with the runtime inputs (network
speeds, server GPU slowdown) and produces plans plus upload schedules.
Plans are cached on a quantized slowdown key: the large-scale simulator
re-partitions every client every interval, and within one interval many
clients see near-identical server states.  A plan is a pure function of
its key, so :meth:`DNNPartitioner.warm` can plan every key a contention
estimator can reach ahead of a run, and :meth:`DNNPartitioner.fork`
hands each shard a cache of its own that starts from those plans.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.dnn.graph import DNNGraph
from repro.partitioning.execution_graph import ExecutionCosts
from repro.partitioning.shortest_path import PartitionPlan, optimal_plan
from repro.partitioning.uploading import UploadSchedule, build_upload_schedule
from repro.profiling.profiler import ExecutionProfile


@dataclass(frozen=True)
class PartitionResult:
    """A plan plus its upload schedule and the costs they were based on."""

    plan: PartitionPlan
    schedule: UploadSchedule
    costs: ExecutionCosts
    slowdown: float

    @property
    def server_bytes(self) -> float:
        return self.schedule.total_bytes


class DNNPartitioner:
    """Creates (and caches) partitioning plans for one model profile."""

    def __init__(
        self,
        profile: ExecutionProfile,
        uplink_bps: float,
        downlink_bps: float,
        slowdown_quantum: float = 0.25,
        max_chunk_bytes: float | None = 2e6,
    ) -> None:
        if slowdown_quantum <= 0:
            raise ValueError("slowdown_quantum must be positive")
        self.profile = profile
        self.uplink_bps = uplink_bps
        self.downlink_bps = downlink_bps
        self.max_chunk_bytes = max_chunk_bytes
        self._quantum = slowdown_quantum
        self._base_costs = ExecutionCosts.build(
            profile.graph,
            profile.client_times,
            profile.server_times,
            uplink_bps,
            downlink_bps,
        )
        self._cache: dict[float, PartitionResult] = {}
        #: Plan-cache effectiveness telemetry: how often :meth:`partition`
        #: was answered from the quantized cache vs. had to re-plan.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of :meth:`partition` calls served from the plan cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def graph(self) -> DNNGraph:
        return self.profile.graph

    def quantize(self, slowdown: float) -> float:
        """The cache key a slowdown maps to: ``partition(s)`` and
        ``partition(quantize(s))`` return the same cached result."""
        if slowdown < 1.0:
            slowdown = 1.0
        return round(round(slowdown / self._quantum) * self._quantum, 6)

    def partition(self, server_slowdown: float = 1.0) -> PartitionResult:
        """Plan + upload schedule for a server at the given GPU slowdown."""
        key = self.quantize(server_slowdown)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        costs = self._base_costs.scaled_server(max(1.0, key))
        plan = optimal_plan(costs)
        schedule = build_upload_schedule(costs, plan, self.max_chunk_bytes)
        result = PartitionResult(
            plan=plan, schedule=schedule, costs=costs, slowdown=key
        )
        self._cache[key] = result
        return result

    def warm(self, max_slowdown: float) -> int:
        """Plan every cache key from 1.0 up to ``quantize(max_slowdown)``.

        Each key is an integer multiple of the quantum rounded exactly as
        :meth:`quantize` rounds it, so the warmed keys are precisely the
        keys any slowdown in ``[1, max_slowdown]`` maps to.  Returns the
        number of plans this call had to compute (0 on a warm cache).
        """
        misses = self.cache_misses
        first = round(1.0 / self._quantum)
        last = round(max(1.0, max_slowdown) / self._quantum)
        for step in range(first, last + 1):
            self.partition(round(step * self._quantum, 6))
        return self.cache_misses - misses

    def fork(self) -> "DNNPartitioner":
        """A partitioner that starts from this one's plan cache.

        The fork shares the profile, the base costs and every planned
        :class:`PartitionResult` (frozen), but owns a copy of the cache
        dict and fresh counters.  Keys either side plans later stay its
        own, so a fork per shard plans exactly what a private copy of
        this partitioner would, without copying any plan.
        """
        twin = copy.copy(self)
        twin._cache = dict(self._cache)
        twin.cache_hits = 0
        twin.cache_misses = 0
        return twin

    def degraded(
        self, server_slowdown: float, inflation: float
    ) -> PartitionResult:
        """Contention-adaptive degraded plan (overload protection).

        Re-partitions as if the server were ``inflation``× more contended
        than observed, which shifts layers client-ward — the graceful
        midpoint between the full offload plan and all-local execution.
        Shares the quantized plan cache with :meth:`partition`.
        """
        if inflation < 1.0:
            raise ValueError("inflation must be >= 1")
        return self.partition(max(1.0, server_slowdown) * inflation)

    def local_latency(self) -> float:
        """Latency of running the whole model on the client."""
        return self._base_costs.local_latency()
