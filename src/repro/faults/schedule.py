"""Deterministic fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is a *pure description* of a run's infrastructure
misbehaviour, fixed before the simulation starts:

* **server crashes** — an edge server is down over a half-open interval
  window; every cached model on it is lost at the crash, and the server
  comes back with a cold cache at the window's end (restart);
* **backhaul outages** — proactive migration is impossible over a window;
* **backhaul / wireless degradation** — a multiplicative capacity factor
  over a window (fractional byte budgets for migrations, slower client
  uploads);
* **probabilistic drops** — individual uploads or migrations fail with a
  fixed rate.

Determinism is the design constraint: every query the schedule answers is
a pure function of ``(seed, arguments)``.  Drop decisions hash the seed
together with the involved ids and the interval into a private RNG stream,
so they are reproducible *and* independent of the order in which the
simulator asks — same seed, same profile, same faults, byte-identical
telemetry.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

#: SeedSequence entries must be non-negative; fold user seeds into 32 bits.
_SEED_MASK = 0xFFFFFFFF
#: Stream salts keeping upload and migration drop decisions independent.
_UPLOAD_SALT = 0xF1
_MIGRATION_SALT = 0xF2

#: Default cap (in intervals) on client upload-retry backoff.
DEFAULT_BACKOFF_CAP = 8


def backoff_intervals(failures: int, cap: int = DEFAULT_BACKOFF_CAP) -> int:
    """Capped exponential backoff: 1, 2, 4, ... up to ``cap`` intervals.

    ``failures`` is the number of consecutive failures so far (>= 1); the
    returned delay is how many intervals the client waits before retrying.
    """
    if failures < 1:
        raise ValueError("failures must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    exponent = min(failures - 1, cap.bit_length())
    return min(cap, 2 ** exponent)


@dataclass(frozen=True)
class Window:
    """Half-open range ``[start, end)`` of simulation intervals."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("window start must be non-negative")
        if self.end <= self.start:
            raise ValueError("window end must be after its start")

    def contains(self, interval: int) -> bool:
        return self.start <= interval < self.end


@dataclass(frozen=True)
class ServerCrash:
    """One edge server is down during ``window``.

    The crash happens at ``window.start`` (cached models are lost and the
    server's clients are orphaned); the restart at ``window.end`` brings
    the server back with a cold cache.
    """

    server_id: int
    window: Window

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ValueError("server_id must be non-negative")


@dataclass(frozen=True)
class Degradation:
    """Capacity scaled to ``factor`` of nominal during ``window``."""

    window: Window
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")


class FaultSchedule:
    """Immutable, seed-deterministic answers to "is X broken at step t?"."""

    def __init__(
        self,
        seed: int = 0,
        server_crashes: Iterable[ServerCrash] = (),
        backhaul_outages: Iterable[Window] = (),
        backhaul_degradations: Iterable[Degradation] = (),
        uplink_degradations: Iterable[Degradation] = (),
        upload_drop_rate: float = 0.0,
        migration_drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= upload_drop_rate <= 1.0:
            raise ValueError("upload_drop_rate must be in [0, 1]")
        if not 0.0 <= migration_drop_rate <= 1.0:
            raise ValueError("migration_drop_rate must be in [0, 1]")
        self.seed = int(seed) & _SEED_MASK
        self.server_crashes = tuple(server_crashes)
        self.backhaul_outages = tuple(backhaul_outages)
        self.backhaul_degradations = tuple(backhaul_degradations)
        self.uplink_degradations = tuple(uplink_degradations)
        self.upload_drop_rate = float(upload_drop_rate)
        self.migration_drop_rate = float(migration_drop_rate)
        self._down: dict[int, list[Window]] = {}
        for crash in self.server_crashes:
            self._down.setdefault(crash.server_id, []).append(crash.window)
        for server_id, windows in self._down.items():
            windows.sort(key=lambda w: w.start)
            for left, right in zip(windows, windows[1:]):
                if right.start < left.end:
                    raise ValueError(
                        f"overlapping crash windows for server {server_id}"
                    )
        # interval -> ids of the servers down then; the schedule never
        # changes, so each interval's set is computed once.
        self._down_at: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Server availability
    # ------------------------------------------------------------------
    def servers_down(self, interval: int) -> frozenset[int]:
        """Ids of every server down at ``interval`` (memoized per interval)."""
        down = self._down_at.get(interval)
        if down is None:
            down = frozenset(
                server_id
                for server_id, windows in self._down.items()
                if any(w.contains(interval) for w in windows)
            )
            self._down_at[interval] = down
        return down

    def server_down(self, server_id: int, interval: int) -> bool:
        return server_id in self.servers_down(interval)

    def crash_starts(self, interval: int) -> tuple[int, ...]:
        """Ids of servers that crash exactly at ``interval`` (sorted)."""
        return tuple(sorted(
            server_id
            for server_id, windows in self._down.items()
            if any(w.start == interval for w in windows)
        ))

    def restarts(self, interval: int) -> tuple[int, ...]:
        """Ids of servers that come back up exactly at ``interval``."""
        return tuple(sorted(
            server_id
            for server_id, windows in self._down.items()
            if any(w.end == interval for w in windows)
        ))

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def backhaul_available(self, interval: int) -> bool:
        return not any(w.contains(interval) for w in self.backhaul_outages)

    def backhaul_factor(self, interval: int) -> float:
        """Backhaul capacity share at ``interval`` (1.0 = nominal)."""
        factors = [
            d.factor for d in self.backhaul_degradations
            if d.window.contains(interval)
        ]
        return min(factors) if factors else 1.0

    def uplink_factor(self, interval: int) -> float:
        """Wireless uplink capacity share at ``interval`` (1.0 = nominal)."""
        factors = [
            d.factor for d in self.uplink_degradations
            if d.window.contains(interval)
        ]
        return min(factors) if factors else 1.0

    # ------------------------------------------------------------------
    # Probabilistic drops (pure functions of seed + ids + interval)
    # ------------------------------------------------------------------
    def _unit(self, salt: int, *keys: int) -> float:
        return float(np.random.default_rng((self.seed, salt, *keys)).random())

    def upload_dropped(self, client_id: int, interval: int) -> bool:
        """Does this client's upload window fail at ``interval``?"""
        if self.upload_drop_rate <= 0.0:
            return False
        return self._unit(_UPLOAD_SALT, client_id, interval) < self.upload_drop_rate

    def migration_dropped(
        self, client_id: int, source: int, target: int, interval: int
    ) -> bool:
        """Does this proactive transfer fail in flight?"""
        if self.migration_drop_rate <= 0.0:
            return False
        return (
            self._unit(_MIGRATION_SALT, client_id, source, target, interval)
            < self.migration_drop_rate
        )

    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        """True when the schedule can never inject anything."""
        return (
            not self.server_crashes
            and not self.backhaul_outages
            and not self.backhaul_degradations
            and not self.uplink_degradations
            and self.upload_drop_rate == 0.0
            and self.migration_drop_rate == 0.0
        )
