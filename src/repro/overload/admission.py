"""Per-server admission control: bounded GPU work queues.

Every simulation interval each edge server grants at most
``queue_capacity`` offload slots (fewer when its GPU saturation crosses
the threshold — the contention model's busy fraction is the signal the
paper's master already derives from pinged nvml statistics).  Requests
are processed in deterministic client order; a request past the bound is
*shed* and the run's :class:`~repro.overload.config.SheddingPolicy`
decides what happens to it.

Admitted requests carry a modelled queue wait — ``service quantum ×
requests already queued ahead`` — which the query loop adds before the
window's first query and records into the ``overload.queue_wait_seconds``
histogram (the p99 surfaces in ``LargeScaleResult``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.overload.config import OverloadConfig
from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.edge_server import EdgeServer

#: Bucket bounds (seconds) for the queue-wait histogram; the overflow
#: bucket past 6.4 s is effectively "longer than a whole query window".
QUEUE_WAIT_BUCKETS: tuple[float, ...] = (
    0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4,
)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission request."""

    admitted: bool
    queue_depth: int  # requests already admitted when this one arrived
    capacity: int  # the server's effective capacity this interval
    queue_wait: float  # seconds the admitted request waits (0.0 if shed)


class AdmissionController:
    """Bounded per-interval work queues for every edge server.

    Queue state is rebuilt lazily each interval: the first request a
    server sees samples its (deterministic, noise-free) GPU saturation
    and fixes the interval's effective capacity.
    """

    def __init__(
        self, config: OverloadConfig, telemetry: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self._interval = 0
        # server_id -> [admitted_depth, effective_capacity]
        self._queues: dict[int, list[int]] = {}
        #: ``(live list, candidates)`` of this interval's redirect scans:
        #: ``[server id, x, y, queue or None]`` for the master's live
        #: servers minus those found full.  A full queue stays full until
        #: :meth:`begin_interval` (capacity is fixed at first touch,
        #: depth only rises), so ``MasterServer.redirect_target`` drops
        #: it once; ``None`` until the interval's first redirect.
        self.redirect_pool: tuple[list, list] | None = None

    def begin_interval(self, interval: int) -> None:
        """Drop every queue; capacities are re-derived on first touch."""
        self._interval = interval
        self._queues.clear()
        self.redirect_pool = None

    def effective_capacity(self, saturation: float) -> int:
        """This interval's slot bound for a server at ``saturation``.

        A saturated GPU (busy fraction at or past the threshold) halves
        its advertised capacity — backpressure before the queue is even
        full.
        """
        capacity = self.config.queue_capacity
        if saturation >= self.config.saturation_threshold:
            capacity = max(1, capacity // 2)
        return capacity

    def queue(self, server: "EdgeServer") -> list[int]:
        """The server's ``[admitted depth, capacity]`` this interval.

        Opens the queue on first touch.  The list is live: admissions
        update it in place, and it stays the server's queue until
        :meth:`begin_interval`.
        """
        queue = self._queues.get(server.server_id)
        if queue is None:
            queue = [0, self.effective_capacity(server.saturation())]
            self._queues[server.server_id] = queue
        return queue

    def depth_of(self, server_id: int) -> int:
        """Admitted requests queued at a server this interval (0 if none)."""
        queue = self._queues.get(server_id)
        return queue[0] if queue is not None else 0

    def capacity_of(self, server: "EdgeServer") -> int:
        return self.queue(server)[1]

    def has_capacity(self, server: "EdgeServer") -> bool:
        depth, capacity = self.queue(server)
        return depth < capacity

    def try_admit(self, server: "EdgeServer") -> AdmissionDecision:
        """Request one offload slot; deterministic in request order."""
        queue = self.queue(server)
        depth, capacity = queue
        if depth >= capacity:
            return AdmissionDecision(
                admitted=False, queue_depth=depth, capacity=capacity,
                queue_wait=0.0,
            )
        queue[0] = depth + 1
        return AdmissionDecision(
            admitted=True, queue_depth=depth, capacity=capacity,
            queue_wait=depth * self.config.service_quantum_seconds,
        )

    def export_gauges(self) -> None:
        """Publish per-server queue-depth gauges for this interval."""
        if self.telemetry is None:
            return
        for server_id, (depth, _) in sorted(self._queues.items()):
            self.telemetry.gauge(
                "overload.queue_depth", {"server": str(server_id)}
            ).set(depth)
