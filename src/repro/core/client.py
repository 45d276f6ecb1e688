"""Mobile client state.

A client replays its trajectory, keeps the sliding window of recent
positions it reports to the master (the *current trajectory* of §3.B), and
remembers which edge server it is associated with.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.faults.schedule import DEFAULT_BACKOFF_CAP, backoff_intervals
from repro.mobility.trajectory import Trajectory
from repro.overload.breaker import CircuitBreaker


class MobileClient:
    """One trajectory-driven mobile user running a personal DNN model."""

    def __init__(self, client_id: int, trajectory: Trajectory, history: int) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.client_id = client_id
        self.trajectory = trajectory
        self.history = history
        # Replay traces are immutable; caching the final index keeps the
        # per-step ``finished``/``advance`` checks off the len() chain.
        self._final_step = len(trajectory) - 1
        self._recent: deque[tuple[float, float]] = deque(maxlen=history)
        self.current_server: int | None = None
        self.step_index = -1
        # Model generation: bumped when the client retrains/replaces its
        # personal DNN (paper §I), invalidating all cached copies.
        self.model_version = 0
        # Upload retry state: consecutive failed upload windows and the
        # interval at which the next (backed-off) attempt is allowed.
        self.upload_failures = 0
        self.upload_resume_at = 0
        # Per-server circuit breakers (created lazily, overload layer).
        self._breakers: dict[int, CircuitBreaker] = {}

    def update_model(self) -> int:
        """Deploy a new model generation; returns the new version."""
        self.model_version += 1
        return self.model_version

    # ------------------------------------------------------------------
    # Upload retry/backoff (fault resilience)
    # ------------------------------------------------------------------
    def upload_allowed(self, interval: int) -> bool:
        """May the client attempt an upload this interval (not backing off)?"""
        return interval >= self.upload_resume_at

    def record_upload_drop(
        self, interval: int, cap: int = DEFAULT_BACKOFF_CAP
    ) -> int:
        """Register a failed upload window; returns the backoff delay.

        Consecutive failures back off exponentially (1, 2, 4, ...
        intervals), capped at ``cap``, so a flaky link never locks a
        client out of uploading for unbounded time.
        """
        self.upload_failures += 1
        delay = backoff_intervals(self.upload_failures, cap)
        self.upload_resume_at = interval + delay
        return delay

    def record_upload_success(self) -> None:
        """An upload window went through: reset the backoff."""
        self.upload_failures = 0
        self.upload_resume_at = 0

    # ------------------------------------------------------------------
    # Circuit breakers (overload protection)
    # ------------------------------------------------------------------
    def breaker_for(
        self,
        server_id: int,
        failure_threshold: int,
        open_intervals: int,
    ) -> CircuitBreaker:
        """This client's breaker for one server (created closed).

        Breaker state outlives associations: a client that bounced off a
        saturated server remembers it even after roaming away and back.
        """
        breaker = self._breakers.get(server_id)
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold, open_intervals)
            self._breakers[server_id] = breaker
        return breaker

    @property
    def finished(self) -> bool:
        return self.step_index >= self._final_step

    def advance(self) -> tuple[float, float] | None:
        """Move to the next trajectory point; None when the trace ended."""
        if self.step_index >= self._final_step:
            return None
        self.step_index += 1
        point = self.trajectory.points[self.step_index]
        position = (float(point[0]), float(point[1]))
        self._recent.append(position)
        return position

    @property
    def position(self) -> tuple[float, float]:
        if self.step_index < 0:
            raise RuntimeError("client has not advanced yet")
        point = self.trajectory.points[self.step_index]
        return (float(point[0]), float(point[1]))

    def recent_window(self) -> np.ndarray | None:
        """The last ``history`` positions, or None if not yet enough."""
        positions = self.recent_positions()
        return None if positions is None else np.array(positions)

    def recent_positions(self) -> list[tuple[float, float]] | None:
        """:meth:`recent_window` as ``(x, y)`` tuples, which batch callers
        stack into one array in a single call."""
        if len(self._recent) < self.history:
            return None
        return list(self._recent)
