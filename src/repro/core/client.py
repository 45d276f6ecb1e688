"""Mobile client state.

A client remembers which edge server it is associated with, the
generation of its personal model, its upload backoff and its circuit
breakers.  Where it is comes from the run's
:class:`~repro.mobility.trajectory.ReplayTable`: client ``i`` replays
tail ``i`` of that table, which also yields the window of recent
positions the master predicts from (the *current trajectory* of §3.B).
"""

from __future__ import annotations

from repro.faults.schedule import DEFAULT_BACKOFF_CAP, backoff_intervals
from repro.overload.breaker import CircuitBreaker


class MobileClient:
    """One mobile user running a personal DNN model."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self.current_server: int | None = None
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
