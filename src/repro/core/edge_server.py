"""Edge server: GPU state plus a TTL'd per-client layer cache.

Each hex cell's computing node holds, per client, the bytes of that
client's server-side DNN layers it has received so far (from the client's
own incremental upload or from another server's proactive migration).
Because both senders follow the same efficiency-greedy schedule, the cached
bytes always form a *prefix* of the client's upload schedule, so a single
byte counter fully describes the cache state (see DESIGN.md).

Cached models expire after a TTL measured in simulation intervals; the TTL
is refreshed whenever new bytes arrive or the owning client is associated
with the server (§3.B.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.hexgrid import HexCell
from repro.profiling.contention import GpuContentionModel
from repro.profiling.gpu_stats import GpuStats
from repro.telemetry.registry import MetricsRegistry


@dataclass
class CachedModel:
    """Bytes of one client's server-side layers present at a server.

    ``version`` tracks the client's model generation: clients may retrain
    or replace their personal models after deployment (paper §I), which
    invalidates every cached copy of the old weights.
    """

    received_bytes: float
    expires_at_interval: int
    version: int = 0

    def refresh(self, now_interval: int, ttl_intervals: int) -> None:
        self.expires_at_interval = now_interval + ttl_intervals


class EdgeServer:
    """One computing node in a hex cell."""

    def __init__(
        self,
        server_id: int,
        cell: HexCell,
        rng: np.random.Generator,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self.server_id = server_id
        self.cell = cell
        self.contention = GpuContentionModel(rng)
        self.telemetry = telemetry
        #: Client id -> cached model.  :meth:`cached_bytes` counts a
        #: ``cache.lookups`` per read; the batched query and migration
        #: passes read entries here directly and add their lookup tallies
        #: once per interval.
        self.cache: dict[int, CachedModel] = {}
        self._active_clients: set[int] = set()
        # Hot-path counter objects, resolved once instead of per lookup
        # (registry counters are stable singletons per (name, labels)).
        if telemetry is not None:
            self._lookup_hit = telemetry.counter(
                "cache.lookups", {"outcome": "hit"}
            )
            self._lookup_miss = telemetry.counter(
                "cache.lookups", {"outcome": "miss"}
            )
            self._bytes_added = telemetry.counter("cache.bytes_added")
        else:
            self._lookup_hit = None
            self._lookup_miss = None
            self._bytes_added = None

    # ------------------------------------------------------------------
    # GPU state
    # ------------------------------------------------------------------
    @property
    def active_clients(self) -> set[int]:
        return set(self._active_clients)

    def associate(self, client_id: int) -> None:
        self._active_clients.add(client_id)

    def dissociate(self, client_id: int) -> None:
        self._active_clients.discard(client_id)

    def step_gpu(self) -> None:
        """Advance the contention model one interval."""
        self.contention.step(len(self._active_clients))

    def sample_stats(self) -> GpuStats:
        """What the master's ping observes (§3.C.1)."""
        return self.contention.sample_stats()

    def slowdown(self) -> float:
        return self.contention.slowdown()

    def saturation(self) -> float:
        """Deterministic GPU saturation in [0, 1].

        The contention model's noise-free busy fraction — the signal the
        admission controller derives its per-interval queue capacity
        from (a noisy nvml view of the same quantity is available via
        ``sample_stats().saturation``).
        """
        return self.contention.utilization_fraction()

    # ------------------------------------------------------------------
    # Layer cache
    # ------------------------------------------------------------------
    def cached_bytes(self, client_id: int, version: int = 0) -> float:
        """Cached bytes of the client's model at ``version`` (stale = 0)."""
        entry = self.cache.get(client_id)
        if entry is None or entry.version != version:
            if self._lookup_miss is not None:
                self._lookup_miss.inc()
            return 0.0
        if self._lookup_hit is not None:
            self._lookup_hit.inc()
        return entry.received_bytes

    def add_bytes(
        self,
        client_id: int,
        nbytes: float,
        now_interval: int,
        ttl_intervals: int,
        version: int = 0,
    ) -> float:
        """Receive ``nbytes`` more of a client's layers; returns new total.

        Bytes of a newer model version replace any stale cached copy.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        entry = self.cache.get(client_id)
        if entry is None or entry.version != version:
            entry = CachedModel(
                received_bytes=0.0, expires_at_interval=0, version=version
            )
            self.cache[client_id] = entry
        entry.received_bytes += nbytes
        entry.refresh(now_interval, ttl_intervals)
        if self._bytes_added is not None:
            self._bytes_added.inc(nbytes)
        return entry.received_bytes

    def refresh_ttl(
        self,
        client_id: int,
        now_interval: int,
        ttl_intervals: int,
        version: int = 0,
    ) -> None:
        entry = self.cache.get(client_id)
        if entry is not None and entry.version == version:
            entry.refresh(now_interval, ttl_intervals)

    def crash(self) -> int:
        """Power loss: every cached model and association is gone.

        Returns the number of cached models lost.  The server object
        itself survives (it is the cell's slot); a later restart simply
        finds it with a cold cache — the paper's cold-start cost paid
        again, which is exactly what the resilience layer measures.
        """
        lost = len(self.cache)
        self.cache.clear()
        self._active_clients.clear()
        if lost and self.telemetry is not None:
            self.telemetry.counter("cache.crash_losses").inc(lost)
        return lost

    def clear_client(self, client_id: int) -> None:
        """Drop a client's cached layers (the IONN baseline keeps nothing
        across server changes — clients re-upload from scratch)."""
        self.cache.pop(client_id, None)

    def expire(self, now_interval: int) -> list[int]:
        """Drop expired cache entries; returns the evicted client ids.

        Entries of currently-associated clients never expire.
        """
        evicted = [
            client_id
            for client_id, entry in self.cache.items()
            if entry.expires_at_interval <= now_interval
            and client_id not in self._active_clients
        ]
        for client_id in evicted:
            del self.cache[client_id]
        if evicted and self.telemetry is not None:
            self.telemetry.counter("cache.evictions").inc(len(evicted))
        return evicted

    @property
    def num_cached_models(self) -> int:
        return len(self.cache)
