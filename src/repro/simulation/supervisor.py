"""Shard supervision: retries, timeouts, quarantine, typed failures.

:func:`supervise` replaces the fire-and-forget ``executor.map`` the
sharded city-scale driver used to fan shards out with.  Every shard
attempt goes through one slot loop.  A slot runs one attempt at a time,
in one of two ways: inline in the calling process when nothing needs
isolation (:func:`runs_inline`), or in its own disposable local worker
process.  Both run the same :func:`run_attempt` body.  The supervisor

* detects crashes (abrupt worker exit — segfault, OOM kill, chaos) and
  hangs (per-shard wall-clock timeout) without taking the run down;
* retries a failed shard with capped-exponential backoff (on a process
  slot, in a *fresh* process) — the shard's deterministic seed makes the
  retried execution byte-identical to a first-try success, so failures
  never leak into the merged telemetry;
* quarantines a shard after ``max_attempts`` failures and either fails
  fast with a typed :class:`ShardError` (shard index + per-attempt
  causes, not a raw multiprocessing traceback) or — under
  ``allow_partial`` — drops it and lets the caller account for the
  missing coverage;
* reports every completed shard through ``on_result`` the moment it
  lands, which is where checkpoint spilling hooks in.

A :class:`~repro.faults.chaos.WorkerChaos` schedule attached to the
:class:`SupervisorConfig` sabotages worker attempts deterministically,
which is how the chaos test suites and the CI smoke pin the invariant
that supervised runs with injected worker failures export the same bytes
as clean runs.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import socket
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable

from repro.faults.chaos import WorkerChaos

#: Failure causes carried by :class:`ShardFailure`.
CAUSE_CRASH = "crash"  # worker process died without delivering a result
CAUSE_TIMEOUT = "timeout"  # worker exceeded the per-shard deadline
CAUSE_ERROR = "error"  # shard raised an exception (in-process or worker)

#: Poll granularity of the supervision loop (seconds).  Only affects how
#: promptly completions/timeouts are noticed, never the results.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ShardFailure:
    """One failed attempt of one shard."""

    shard_index: int
    attempt: int  # 0-based attempt number that failed
    cause: str  # CAUSE_CRASH | CAUSE_TIMEOUT | CAUSE_ERROR
    detail: str

    def describe(self) -> str:
        return (
            f"attempt {self.attempt + 1}: {self.cause}"
            + (f" ({self.detail})" if self.detail else "")
        )


class ShardError(RuntimeError):
    """A shard exhausted its retry budget (poison shard).

    Carries the shard index and the per-attempt failure history so
    callers (and the CLI) can report precisely what died and why, instead
    of surfacing a raw multiprocessing traceback.
    """

    def __init__(self, shard_index: int, failures: tuple[ShardFailure, ...]):
        self.shard_index = shard_index
        self.failures = tuple(failures)
        self.cause = failures[-1].cause if failures else CAUSE_ERROR
        history = "; ".join(f.describe() for f in failures)
        super().__init__(
            f"shard {shard_index} quarantined after "
            f"{len(failures)} failed attempt(s): {history}"
        )


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/quarantine policy for one supervised run."""

    #: Executions (1 + retries) granted to each shard before quarantine.
    max_attempts: int = 3
    #: Per-shard wall-clock cap; None = no timeout (a hung worker then
    #: blocks its slot forever, exactly like the unsupervised pool did).
    timeout_seconds: float | None = None
    #: Capped-exponential backoff between retries of one shard:
    #: ``min(cap, base * 2**(retry - 1))`` seconds.
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    #: Quarantined shards: fail fast (False) or degrade to a partial
    #: merge with explicit coverage accounting (True).
    allow_partial: bool = False
    #: Deterministic worker sabotage (tests/CI); None = no chaos.
    chaos: WorkerChaos | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # Chained comparisons are False for NaN: a NaN deadline would
        # never pass, silently disabling the hang guard.
        if self.timeout_seconds is not None and not (
            0 < self.timeout_seconds < math.inf
        ):
            raise ValueError(
                "timeout_seconds must be positive and finite (or None)"
            )
        if (
            self.chaos is not None
            and self.chaos.hang_rate > 0
            and self.timeout_seconds is None
        ):
            # Nothing would ever end a hung attempt.
            raise ValueError(
                "chaos hang_rate > 0 needs timeout_seconds "
                "(--shard-timeout) to end the hung attempts"
            )
        if not 0 <= self.backoff_base_seconds < math.inf:
            raise ValueError("backoff_base_seconds must be finite and >= 0")
        if not 0 <= self.backoff_cap_seconds < math.inf:
            raise ValueError("backoff_cap_seconds must be finite and >= 0")

    @property
    def needs_processes(self) -> bool:
        """Must shard attempts run in disposable worker processes?

        Chaos kills a whole process and timeouts need something the
        supervisor can terminate, so either forces process isolation even
        for a single worker.
        """
        if self.timeout_seconds is not None:
            return True
        return self.chaos is not None and not self.chaos.is_noop


def retry_delay(retry: int, base: float, cap: float) -> float:
    """Capped-exponential delay before retry number ``retry`` (1-based)."""
    if retry < 1:
        raise ValueError("retry must be >= 1")
    return min(cap, base * (2.0 ** (retry - 1)))


@dataclass
class SupervisionReport:
    """What happened around the results: retries and quarantines."""

    failures: dict[int, tuple[ShardFailure, ...]] = field(default_factory=dict)
    quarantined: tuple[int, ...] = ()
    retries: int = 0


def runs_inline(workers: int, config: SupervisorConfig) -> bool:
    """Does :func:`supervise` run every attempt in the calling process?

    Only a single worker with nothing needing isolation does: chaos or a
    timeout needs a process to kill
    (:attr:`SupervisorConfig.needs_processes`).
    """
    return workers == 1 and not config.needs_processes


def run_attempt(runner, job, attempt, chaos) -> tuple[str, Any]:
    """The attempt body every slot kind runs.

    (Maybe) act out chaos, then run the shard.  An exception is reported
    in-band as ``("error", detail)`` so the supervisor can tell a shard
    *error* from a worker *crash*, which it observes as a dead channel.
    """
    if chaos is not None:
        chaos.inject(job.index, attempt)
    try:
        return "ok", runner(job)
    except Exception as exc:  # noqa: BLE001 - reported to the supervisor
        return "error", f"{type(exc).__name__}: {exc}"


def _process_entry(conn, runner, job, attempt, chaos) -> None:
    """Worker-process main: ship :func:`run_attempt`'s outcome back."""
    conn.send(run_attempt(runner, job, attempt, chaos))
    conn.close()


class FinishedAttempt:
    """Handle for an inline attempt, which ended before ``launch`` returned.

    The waitable is an already-readable ``socketpair`` end, so the handle
    flows through the same wait/receive/finish path as a live one.
    """

    def __init__(self, outcome: Any):
        self._outcome = outcome
        self._reader, writer = socket.socketpair()
        writer.close()  # the reader now polls readable (EOF)

    @property
    def waitable(self):
        return self._reader

    def receive(self):
        # Hand the shard result over without keeping a reference to it.
        outcome, self._outcome = self._outcome, None
        return outcome

    def finish(self) -> None:
        self._reader.close()

    kill = finish

    def crash_detail(self) -> str:
        return ""


class InlineExecutor:
    """The slot that runs each attempt in the calling process.

    No fork and no pickling: :meth:`launch` runs :func:`run_attempt` and
    returns a :class:`FinishedAttempt`.  :func:`runs_inline` picks it only
    when no chaos and no timeout are configured, so nothing here ever
    needs killing.
    """

    def launch(self, runner, job, attempt, chaos) -> FinishedAttempt:
        return FinishedAttempt(run_attempt(runner, job, attempt, chaos))


class LocalProcessExecutor:
    """One slot backed by disposable local worker processes.

    Each :meth:`launch` forks (or, where fork is unavailable, spawns) a
    fresh process running :func:`_process_entry` and returns a
    :class:`LocalAttempt` handle.

    The slot seam (``launch(runner, job, attempt, chaos) -> handle``
    where the handle exposes ``waitable``/``receive``/``finish``/
    ``kill``/``crash_detail``) is shared with :class:`InlineExecutor`,
    so retry, timeout and quarantine semantics are identical on both
    slot kinds.
    """

    def __init__(self):
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def launch(self, runner, job, attempt, chaos) -> "LocalAttempt":
        receiver, sender = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_process_entry,
            args=(sender, runner, job, attempt, chaos),
        )
        process.start()
        sender.close()
        return LocalAttempt(process, receiver)


class LocalAttempt:
    """Handle for one in-flight local worker process."""

    def __init__(self, process, receiver):
        self._process = process
        self._receiver = receiver

    @property
    def waitable(self):
        """Object accepted by :func:`multiprocessing.connection.wait`."""
        return self._receiver

    def receive(self):
        """The worker's ``(status, payload)``; raises ``EOFError`` /
        ``OSError`` when the worker died before delivering one."""
        return self._receiver.recv()

    def finish(self) -> None:
        """Reap a worker that delivered (or visibly died)."""
        self._process.join()
        self._receiver.close()

    def kill(self) -> None:
        """Tear down a worker that must not deliver (timeout, abort)."""
        self._process.terminate()
        self._process.join()
        self._receiver.close()

    def crash_detail(self) -> str:
        return (
            f"worker exited with code {self._process.exitcode} "
            "before delivering a result"
        )


@dataclass
class _Active:
    """One in-flight attempt."""

    job: Any
    attempt: int
    handle: Any
    executor: Any
    deadline: float | None


def supervise(
    jobs,
    runner: Callable[[Any], Any],
    *,
    workers: int = 1,
    config: SupervisorConfig | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    keep_results: bool = True,
) -> tuple[dict[int, Any], SupervisionReport]:
    """Run every job under supervision; returns (results, report).

    ``jobs`` must expose an ``index`` attribute (the shard index);
    ``runner(job)`` produces the shard result.  ``on_result`` fires in
    the supervisor process as each shard completes (checkpoint spilling);
    with ``keep_results=False`` delivered results are dropped afterwards
    — ``results[index]`` is then ``None`` — so huge runs never hold every
    shard's telemetry in memory at once.

    The fleet is one :class:`InlineExecutor` when :func:`runs_inline`
    holds, otherwise ``workers`` :class:`LocalProcessExecutor` slots.  A
    slot holds at most one in-flight attempt.  Which slot runs which shard
    never affects the results — shards are deterministic and the merge
    is order-independent — so every fleet exports identical bytes.

    Raises :class:`ShardError` the moment any shard exhausts its attempts
    (unless ``config.allow_partial``); already-completed shards will have
    been delivered through ``on_result`` first.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    config = config or SupervisorConfig()
    if runs_inline(workers, config):
        free: list[Any] = [InlineExecutor()]
    else:
        free = [LocalProcessExecutor() for _ in range(workers)]
    results: dict[int, Any] = {}
    failures: dict[int, list[ShardFailure]] = {}
    quarantined: list[int] = []
    # (ready_at, shard index, attempt, job): retries re-enter with a
    # backoff timestamp; launch order prefers earliest-ready then lowest
    # shard index.  Scheduling order never affects results.
    pending = [(0.0, job.index, 0, job) for job in jobs]
    heapq.heapify(pending)
    active: dict[Any, _Active] = {}

    def launch(job, attempt) -> None:
        # FIFO slot rotation: a slot that just failed an attempt re-enters
        # at the back, so the retry prefers whichever other slot freed up
        # first.
        executor = free.pop(0)
        handle = executor.launch(runner, job, attempt, config.chaos)
        deadline = (
            time.monotonic() + config.timeout_seconds
            if config.timeout_seconds is not None
            else None
        )
        active[handle.waitable] = _Active(
            job, attempt, handle, executor, deadline
        )

    def fail(entry: _Active, cause: str, detail: str) -> None:
        index = entry.job.index
        history = failures.setdefault(index, [])
        history.append(ShardFailure(index, entry.attempt, cause, detail))
        if len(history) < config.max_attempts:
            delay = retry_delay(
                len(history),
                config.backoff_base_seconds,
                config.backoff_cap_seconds,
            )
            ready_at = time.monotonic() + delay
            heapq.heappush(
                pending, (ready_at, index, entry.attempt + 1, entry.job)
            )
            return
        quarantined.append(index)
        if not config.allow_partial:
            raise ShardError(index, tuple(history))

    try:
        while pending or active:
            now = time.monotonic()
            while pending and free and pending[0][0] <= now:
                _, _, attempt, job = heapq.heappop(pending)
                launch(job, attempt)
            if not active:
                # Everything runnable is backing off; sleep to the
                # earliest retry timestamp.
                time.sleep(max(0.0, min(pending[0][0] - now, _POLL_SECONDS)))
                continue
            ready = mp_connection.wait(list(active), timeout=_POLL_SECONDS)
            for waitable in ready:
                entry = active.pop(waitable)
                try:
                    status, payload = entry.handle.receive()
                except (EOFError, OSError):
                    # Abrupt worker death: chaos kill, OOM, segfault.
                    # Reap first so the crash detail can see the exit
                    # code.
                    entry.handle.finish()
                    free.append(entry.executor)
                    fail(entry, CAUSE_CRASH, entry.handle.crash_detail())
                    continue
                entry.handle.finish()
                free.append(entry.executor)
                if status == "ok":
                    index = entry.job.index
                    if on_result is not None:
                        on_result(index, payload)
                    results[index] = payload if keep_results else None
                else:
                    fail(entry, CAUSE_ERROR, payload)
            now = time.monotonic()
            for waitable, entry in list(active.items()):
                if entry.deadline is not None and now >= entry.deadline:
                    active.pop(waitable)
                    entry.handle.kill()
                    free.append(entry.executor)
                    fail(
                        entry, CAUSE_TIMEOUT,
                        f"no result within {config.timeout_seconds:g}s; "
                        "worker terminated",
                    )
    finally:
        # Fail-fast (ShardError) or an interrupt: reap every in-flight
        # worker so nothing leaks past the supervisor.
        for entry in active.values():
            entry.handle.kill()
    # Every failure but a quarantined shard's last one was retried.
    report = SupervisionReport(
        failures={
            index: tuple(history)
            for index, history in sorted(failures.items())
        },
        quarantined=tuple(sorted(quarantined)),
        retries=sum(map(len, failures.values())) - len(quarantined),
    )
    return results, report
