"""Worker-level chaos: seed-deterministic kills and hangs of shard workers.

The fault schedules in :mod:`repro.faults.schedule` misbehave *inside*
the simulated world — servers crash, backhauls go dark.  This module
misbehaves one level up: it kills or hangs the **worker processes** that
run shards of the city-scale simulation, so the shard supervision layer
(:mod:`repro.simulation.supervisor`) can be exercised deterministically
in tests and CI.

The schedule is a pure function of ``(chaos seed, shard index, attempt)``
— no wall clock, no process state — so a chaos run is reproducible and
the headline invariant can be pinned: *a run with injected worker
failures exports the same telemetry bytes as a clean run*, because a
retried shard re-executes with the same deterministic shard seed.

``max_injections_per_shard`` bounds how many attempts of one shard are
sabotaged, so a finite retry budget always wins (``kill_rate=1.0`` with
the default cap of 1 kills every shard's first attempt and lets every
second attempt through — full coverage, zero flakiness).  Shards listed
in ``always_kill`` die on *every* attempt regardless of the cap, which is
how tests and the CI smoke drive a shard into quarantine on purpose.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.faults.schedule import _SEED_MASK

#: Chaos actions for one (shard, attempt) execution.
CHAOS_NONE = "none"
CHAOS_KILL = "kill"
CHAOS_HANG = "hang"

#: Stream salt separating chaos draws from every simulation RNG stream.
_CHAOS_SALT = 0xCA05

#: Exit code of a chaos-killed worker (distinguishable from a real crash
#: in supervisor failure reports).
CHAOS_EXIT_CODE = 57


@dataclass(frozen=True)
class WorkerChaos:
    """A deterministic schedule of worker-process failures.

    ``kill_rate``/``hang_rate`` are per-attempt probabilities drawn from a
    stream keyed by ``(seed, shard index, attempt)``; a *kill* makes the
    worker exit abruptly (``os._exit``, no traceback, simulating a crash
    or OOM kill), a *hang* makes it sleep ``hang_seconds`` so a per-shard
    timeout fires.  Injection stops once ``max_injections_per_shard``
    attempts of a shard have been sabotaged; ``always_kill`` shards are
    exempt from that cap and die on every attempt.
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    max_injections_per_shard: int = 1
    hang_seconds: float = 3600.0
    always_kill: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0:
            raise ValueError("kill_rate must be in [0, 1]")
        if not 0.0 <= self.hang_rate <= 1.0:
            raise ValueError("hang_rate must be in [0, 1]")
        if self.kill_rate + self.hang_rate > 1.0:
            raise ValueError("kill_rate + hang_rate must not exceed 1")
        if self.max_injections_per_shard < 0:
            raise ValueError("max_injections_per_shard must be >= 0")
        if not 0 < self.hang_seconds < math.inf:
            raise ValueError("hang_seconds must be positive and finite")
        object.__setattr__(
            self,
            "always_kill",
            tuple(sorted({int(s) for s in self.always_kill})),
        )

    @property
    def is_noop(self) -> bool:
        """True when this schedule can never inject anything."""
        if self.always_kill:
            return False
        if self.max_injections_per_shard == 0:
            return True
        return self.kill_rate == 0.0 and self.hang_rate == 0.0

    def _raw_action(self, shard_index: int, attempt: int) -> str:
        """The uncapped draw for one (shard, attempt) execution."""
        if self.kill_rate == 0.0 and self.hang_rate == 0.0:
            return CHAOS_NONE
        rng = np.random.default_rng(
            (self.seed & _SEED_MASK, _CHAOS_SALT, shard_index, attempt)
        )
        u = rng.random()
        if u < self.kill_rate:
            return CHAOS_KILL
        if u < self.kill_rate + self.hang_rate:
            return CHAOS_HANG
        return CHAOS_NONE

    def action(self, shard_index: int, attempt: int) -> str:
        """What happens to attempt ``attempt`` (0-based) of one shard.

        Stateless and deterministic: the injection cap is enforced by
        replaying the draws of the earlier attempts, so any process can
        evaluate the schedule without shared state.
        """
        if shard_index < 0 or attempt < 0:
            raise ValueError("shard_index and attempt must be >= 0")
        if shard_index in self.always_kill:
            return CHAOS_KILL
        injected_before = sum(
            1
            for earlier in range(attempt)
            if self._raw_action(shard_index, earlier) != CHAOS_NONE
        )
        if injected_before >= self.max_injections_per_shard:
            return CHAOS_NONE
        return self._raw_action(shard_index, attempt)

    def inject(self, shard_index: int, attempt: int) -> None:
        """Worker-side hook: act out the schedule for this execution.

        Must only ever run inside a disposable worker process — a kill is
        ``os._exit`` and takes the whole interpreter with it.
        """
        action = self.action(shard_index, attempt)
        if action == CHAOS_KILL:
            os._exit(CHAOS_EXIT_CODE)
        if action == CHAOS_HANG:
            time.sleep(self.hang_seconds)
