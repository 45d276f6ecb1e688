"""Structured per-interval event trace.

Every simulation-visible state change the paper's evaluation reasons
about gets a frozen dataclass event: (re-)association, cold-start hit or
miss, proactive migration, fractional-migration truncation, cache
eviction, and query-window completion.  The trace is an append-only list
in simulation order, so under a fixed seed two runs produce identical
traces (there are no timestamps — ``interval`` is simulation time).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from typing import ClassVar


@dataclass(frozen=True)
class Event:
    """Base event: everything happens at one simulation interval."""

    kind: ClassVar[str] = "event"
    interval: int

    def as_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class AssociationEvent(Event):
    """A client (re-)associated with an edge server."""

    kind: ClassVar[str] = "association"
    client_id: int
    server_id: int
    previous_server: int | None


@dataclass(frozen=True)
class ColdStartEvent(Event):
    """Hit/miss outcome of one new association (§4.B metric)."""

    kind: ClassVar[str] = "cold_start"
    client_id: int
    server_id: int
    hit: bool
    cached_bytes: float
    required_bytes: float


@dataclass(frozen=True)
class MigrationEvent(Event):
    """One proactive backhaul transfer of cached layer bytes."""

    kind: ClassVar[str] = "migration"
    client_id: int
    source_server: int
    target_server: int
    nbytes: float


@dataclass(frozen=True)
class FractionalTruncationEvent(Event):
    """A crowded-server byte budget capped a migration below plan size."""

    kind: ClassVar[str] = "fractional_truncation"
    client_id: int
    source_server: int
    target_server: int
    plan_bytes: float
    budget_bytes: float


@dataclass(frozen=True)
class CacheEvictionEvent(Event):
    """A TTL-expired cached model was dropped from a server."""

    kind: ClassVar[str] = "cache_eviction"
    server_id: int
    client_id: int


@dataclass(frozen=True)
class QueryWindowEvent(Event):
    """One client's query loop over one interval completed.

    ``server_id`` is ``None`` when the window ran fully on-device (the
    client degraded to local execution because no live server was
    reachable).
    """

    kind: ClassVar[str] = "query_window"
    client_id: int
    server_id: int | None
    queries: int
    coldstart: bool
    end_bytes: float


@dataclass(frozen=True)
class FaultEvent(Event):
    """One injected infrastructure fault fired.

    ``fault`` names the injection (``server_crash``, ``server_restart``,
    ``backhaul_blocked``, ``migration_drop``, ``upload_drop``);
    ``server_id``/``client_id`` identify the victims where applicable.
    """

    kind: ClassVar[str] = "fault"
    fault: str
    server_id: int | None = None
    client_id: int | None = None


@dataclass(frozen=True)
class BreakerEvent(Event):
    """A client's circuit breaker changed state for one server.

    States are the :class:`~repro.overload.breaker.BreakerState` values
    (``closed``, ``open``, ``half_open``).
    """

    kind: ClassVar[str] = "breaker"
    client_id: int
    server_id: int
    from_state: str
    to_state: str


#: kind -> event class, for deserializing exported traces.
EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        AssociationEvent,
        ColdStartEvent,
        MigrationEvent,
        FractionalTruncationEvent,
        CacheEvictionEvent,
        QueryWindowEvent,
        FaultEvent,
        BreakerEvent,
    )
}


def event_from_dict(payload: dict) -> Event:
    """Rebuild an event from one ``as_dict`` payload."""
    data = dict(payload)
    kind = data.pop("kind")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown fields for {kind!r}: {sorted(unknown)}")
    return cls(**data)


class EventTrace:
    """Append-only, iteration-ordered event log."""

    def __init__(self) -> None:
        self._events: list[Event] = []

    def record(self, event: Event) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Bulk-append ``events`` in iteration order.

        Equivalent to :meth:`record` per event; used by the sharded merge
        to fold one shard's (rebased) events at a time without a Python
        call per event.
        """
        self._events.extend(events)

    def splice(self, positions: list[int], events: list[Event]) -> None:
        """Insert ``events[i]`` at log position ``positions[i]``.

        Positions index the log as it stands before the call and must be
        nondecreasing; events bound for one position keep their order.
        Lets a pass that records some events per item in one walk add
        each item's closing event in a later walk, right after the
        item's own events.
        """
        log = self._events
        spliced: list[Event] = []
        done = 0
        for position, event in zip(positions, events):
            spliced.extend(log[done:position])
            spliced.append(event)
            done = position
        spliced.extend(log[done:])
        self._events = spliced

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self._events if e.kind == kind]

    def counts_by_kind(self) -> dict[str, int]:
        return dict(sorted(TallyCounter(e.kind for e in self._events).items()))

    def as_dicts(self) -> list[dict]:
        return [event.as_dict() for event in self._events]

    def clear(self) -> None:
        self._events.clear()


class NullEventTrace(EventTrace):
    """An event trace that drops everything.

    Used by very large sharded runs (``record_events=False``) where
    keeping hundreds of thousands of per-window events would dominate
    memory and inter-process transfer; exported snapshots then carry an
    empty ``events`` list.  Counters are unaffected — only the structured
    trace is discarded.
    """

    def record(self, event: Event) -> None:  # noqa: ARG002 - deliberate drop
        return None

    def extend(self, events: Iterable[Event]) -> None:  # noqa: ARG002
        return None

    def splice(self, positions, events) -> None:  # noqa: ARG002
        return None
