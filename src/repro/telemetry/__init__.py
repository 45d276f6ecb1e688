"""Telemetry: metrics registry, event trace, deterministic exporters.

One :class:`Telemetry` bundle travels through a simulation run — the
master server, edge servers, traffic meter, and query loop all record
into its registry and trace — and the driver derives its reported result
from the registry instead of hand-maintained tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.events import (
    EVENT_KINDS,
    AssociationEvent,
    BreakerEvent,
    CacheEvictionEvent,
    ColdStartEvent,
    Event,
    EventTrace,
    FaultEvent,
    FractionalTruncationEvent,
    MigrationEvent,
    NullEventTrace,
    QueryWindowEvent,
    event_from_dict,
)
from repro.telemetry.export import (
    SCHEMA,
    dumps_snapshot,
    metrics_csv,
    read_snapshot,
    snapshot,
    summarize_snapshot,
    write_metrics_csv,
    write_snapshot,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
    normalize_labels,
)


@dataclass
class Telemetry:
    """One run's instrumentation: a registry plus an event trace."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    trace: EventTrace = field(default_factory=EventTrace)

    @classmethod
    def create(cls, record_events: bool = True) -> "Telemetry":
        trace = EventTrace() if record_events else NullEventTrace()
        return cls(registry=MetricsRegistry(), trace=trace)

    def snapshot(self, meta: dict | None = None) -> dict:
        return snapshot(self.registry, self.trace, meta)

    def dumps(self, meta: dict | None = None) -> str:
        return dumps_snapshot(self.registry, self.trace, meta)

    def write(self, path, meta: dict | None = None) -> str:
        return write_snapshot(path, self.registry, self.trace, meta)


__all__ = [
    "SCHEMA",
    "EVENT_KINDS",
    "AssociationEvent",
    "BreakerEvent",
    "CacheEvictionEvent",
    "ColdStartEvent",
    "Counter",
    "Event",
    "EventTrace",
    "FaultEvent",
    "FractionalTruncationEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MigrationEvent",
    "NullEventTrace",
    "QueryWindowEvent",
    "Telemetry",
    "dumps_snapshot",
    "event_from_dict",
    "merge_registries",
    "metrics_csv",
    "normalize_labels",
    "read_snapshot",
    "snapshot",
    "summarize_snapshot",
    "write_metrics_csv",
    "write_snapshot",
]
