"""The reported result of a large-scale run and its one assembly path,
:func:`assemble_result`, shared by the unsharded and sharded entry points."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.traffic import TrafficSummary
from repro.telemetry import Histogram, Telemetry


@dataclass
class LargeScaleResult:
    """Everything §4.B reports about one simulation run.

    The per-run counters (hits, misses, queries, migrations, ...) are
    *derived views* of the run's telemetry registry —
    :meth:`fill_from_telemetry` reads them out once the simulation loop
    finishes (see :func:`assemble_result`), so the registry is the single
    source of truth and exported snapshots always agree with the reported
    result.
    """

    policy: str
    dataset: str
    model: str
    steps: int = 0
    num_servers: int = 0
    num_clients: int = 0
    hits: int = 0
    misses: int = 0
    coldstart_queries: int = 0  # queries during post-association intervals
    total_queries: int = 0
    migrations: int = 0
    migrated_bytes: float = 0.0
    uplink: TrafficSummary | None = None
    downlink: TrafficSummary | None = None
    server_changes: int = 0
    # Resilience view (all trivial when no faults were injected): queries
    # answered on-device because no live server was reachable, the share
    # of client-intervals served remotely, and upload retry attempts.
    local_fallback_queries: int = 0
    availability: float = 1.0
    upload_retries: int = 0
    # Overload-protection view (all zero when admission control is off):
    # queries completed in windows that were shed to local execution,
    # served by a redirect target, or served under a degraded plan, plus
    # the p99 of the modelled admission-queue wait.
    shed_queries: int = 0
    redirected_queries: int = 0
    degraded_queries: int = 0
    queue_wait_p99: float = 0.0
    extras: dict = field(default_factory=dict)
    telemetry: Telemetry | None = None

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fill_from_telemetry(self) -> None:
        """Read the reported counters out of the run's registry (whose
        availability gauge :func:`assemble_result` has just set)."""
        assert self.telemetry is not None
        registry = self.telemetry.registry
        value = registry.value
        self.hits = int(value("sim.cold_start", {"outcome": "hit"}))
        self.misses = int(value("sim.cold_start", {"outcome": "miss"}))
        self.server_changes = int(value("sim.server_changes"))
        self.total_queries = int(value("query.completed"))
        self.coldstart_queries = int(value("sim.coldstart_queries"))
        self.migrations = int(value("migration.count"))
        self.migrated_bytes = value("migration.bytes")
        self.steps = int(value("sim.steps"))
        per_model = {
            labels["model"]: int(count)
            for labels, count in registry.series("sim.queries")
        }
        if per_model:
            self.extras["per_model_queries"] = per_model
        model_updates = int(value("sim.model_updates"))
        if model_updates:
            self.extras["model_updates"] = model_updates
        self.local_fallback_queries = int(value("query.local_fallback"))
        self.upload_retries = int(value("resilience.retries"))
        self.availability = value("resilience.availability")
        fault_counts = {
            labels["kind"]: int(count)
            for labels, count in registry.series("fault.injected")
        }
        if fault_counts:
            self.extras["faults"] = fault_counts
        per_outcome = {
            labels["outcome"]: int(count)
            for labels, count in registry.series("overload.queries")
        }
        self.shed_queries = per_outcome.get("shed", 0)
        self.redirected_queries = per_outcome.get("redirected", 0)
        self.degraded_queries = per_outcome.get("degraded", 0)
        wait = registry.get("overload.queue_wait_seconds")
        if isinstance(wait, Histogram) and wait.count:
            self.queue_wait_p99 = wait.quantile(0.99)
        offered = int(value("overload.offered"))
        if offered:
            self.extras["overload"] = {
                "offered": offered,
                "admitted": int(value("overload.admitted")),
                "shed": int(value("overload.shed")),
                "redirected": int(value("overload.redirected")),
                "degraded": int(value("overload.degraded")),
                "steered_associations": int(value("overload.steered")),
            }


def assemble_result(
    telemetry: Telemetry, cache_hits: int, cache_misses: int, **identity
) -> LargeScaleResult:
    """A finished run's :class:`LargeScaleResult`, read out of its telemetry.

    The one finish both entry points share: :func:`run_large_scale` calls
    it on its own registry, the sharded driver on the merged one.
    ``identity`` names the run (``policy``, ``dataset``, ``model``,
    ``num_servers``, ``num_clients``, ``uplink``, ``downlink``);
    ``cache_hits``/``cache_misses`` are the run's plan-cache totals.
    """
    registry = telemetry.registry
    # Emitted even without fault injection (reporting 1.0) so snapshot
    # schemas match across fault and no-fault runs.  A ratio, not a sum:
    # a merged registry gets it recomputed from its merged counters.
    client_intervals = registry.value("resilience.client_intervals")
    local_intervals = registry.value("resilience.local_intervals")
    registry.gauge("resilience.availability").set(
        1.0 - local_intervals / client_intervals if client_intervals else 1.0
    )
    result = LargeScaleResult(telemetry=telemetry, **identity)
    result.fill_from_telemetry()
    lookups = cache_hits + cache_misses
    result.extras["partition_cache"] = {
        "hits": cache_hits,
        "misses": cache_misses,
        "hit_ratio": cache_hits / lookups if lookups else 0.0,
    }
    return result
