"""Unit pins for the shard supervision layer.

The supervisor must turn worker misbehaviour — exceptions, abrupt
process death, hangs — into typed, deterministic outcomes: retries with
capped-exponential backoff, quarantine after the attempt budget, a
:class:`ShardError` that names the shard and every failure, and partial
degradation under ``allow_partial``.  The chaos schedule itself must be
a pure function of ``(seed, shard, attempt)``.
"""

import os
import time
from dataclasses import dataclass

import pytest

from repro.faults import (
    CHAOS_HANG,
    CHAOS_KILL,
    CHAOS_NONE,
    WorkerChaos,
)
from repro.simulation.supervisor import (
    CAUSE_CRASH,
    CAUSE_ERROR,
    CAUSE_TIMEOUT,
    ShardError,
    ShardFailure,
    SupervisorConfig,
    retry_delay,
    runs_inline,
    supervise,
)


@dataclass(frozen=True)
class Job:
    index: int
    payload: int = 0


def ok_runner(job):
    return job.index * 10


class TestRetryDelay:
    def test_capped_exponential(self):
        assert retry_delay(1, 0.05, 2.0) == 0.05
        assert retry_delay(2, 0.05, 2.0) == 0.1
        assert retry_delay(3, 0.05, 2.0) == 0.2
        assert retry_delay(10, 0.05, 2.0) == 2.0  # capped

    def test_rejects_zeroth_retry(self):
        with pytest.raises(ValueError):
            retry_delay(0, 0.05, 2.0)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = SupervisorConfig()
        assert config.max_attempts == 3
        assert not config.needs_processes

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(timeout_seconds=0.0),
            dict(timeout_seconds=-1.0),
            dict(backoff_base_seconds=-0.1),
            dict(backoff_cap_seconds=-0.1),
            dict(timeout_seconds=float("nan")),
            dict(timeout_seconds=float("inf")),
            dict(backoff_base_seconds=float("nan")),
            dict(backoff_base_seconds=float("inf")),
            dict(backoff_cap_seconds=float("nan")),
            dict(backoff_cap_seconds=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)

    def test_hang_chaos_needs_a_timeout(self):
        # Nothing would end a hung attempt: the run would sleep for
        # hang_seconds per injection instead of failing fast.
        with pytest.raises(ValueError, match="timeout_seconds"):
            SupervisorConfig(chaos=WorkerChaos(hang_rate=0.5))
        assert SupervisorConfig(
            chaos=WorkerChaos(hang_rate=0.5), timeout_seconds=1.0
        ).needs_processes
        # Kill-only chaos still runs without a timeout.
        SupervisorConfig(chaos=WorkerChaos(kill_rate=0.5))

    def test_needs_processes(self):
        assert SupervisorConfig(timeout_seconds=1.0).needs_processes
        assert SupervisorConfig(
            chaos=WorkerChaos(kill_rate=0.5)
        ).needs_processes
        # A no-op chaos schedule never forces process isolation.
        assert not SupervisorConfig(chaos=WorkerChaos()).needs_processes


class TestChaosSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerChaos(kill_rate=1.5)
        with pytest.raises(ValueError):
            WorkerChaos(hang_rate=-0.1)
        with pytest.raises(ValueError):
            WorkerChaos(kill_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError):
            WorkerChaos(hang_seconds=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WorkerChaos(hang_seconds=bad)

    def test_deterministic_and_seed_sensitive(self):
        a = WorkerChaos(seed=1, kill_rate=0.5, hang_rate=0.3,
                        max_injections_per_shard=100)
        b = WorkerChaos(seed=1, kill_rate=0.5, hang_rate=0.3,
                        max_injections_per_shard=100)
        c = WorkerChaos(seed=2, kill_rate=0.5, hang_rate=0.3,
                        max_injections_per_shard=100)
        draws_a = [a.action(s, t) for s in range(8) for t in range(4)]
        draws_b = [b.action(s, t) for s in range(8) for t in range(4)]
        draws_c = [c.action(s, t) for s in range(8) for t in range(4)]
        assert draws_a == draws_b
        assert draws_a != draws_c
        assert {CHAOS_KILL, CHAOS_HANG} <= set(draws_a)

    def test_injection_cap_is_stateless(self):
        chaos = WorkerChaos(seed=0, kill_rate=1.0, max_injections_per_shard=1)
        # Attempt 0 is sabotaged, every later attempt passes — evaluated
        # in any order (no shared state between calls).
        assert chaos.action(3, 2) == CHAOS_NONE
        assert chaos.action(3, 0) == CHAOS_KILL
        assert chaos.action(3, 1) == CHAOS_NONE

    def test_always_kill_ignores_cap(self):
        chaos = WorkerChaos(always_kill=(2,), max_injections_per_shard=0)
        assert chaos.action(2, 0) == CHAOS_KILL
        assert chaos.action(2, 5) == CHAOS_KILL
        assert chaos.action(1, 0) == CHAOS_NONE
        assert not chaos.is_noop

    def test_noop_detection(self):
        assert WorkerChaos().is_noop
        assert WorkerChaos(kill_rate=1.0, max_injections_per_shard=0).is_noop
        assert not WorkerChaos(kill_rate=0.1).is_noop


class TestInProcessSupervision:
    def test_all_succeed(self):
        jobs = [Job(i) for i in range(4)]
        results, report = supervise(jobs, ok_runner)
        assert results == {0: 0, 1: 10, 2: 20, 3: 30}
        assert report.retries == 0
        assert report.quarantined == ()
        assert report.failures == {}

    def test_flaky_shard_retried(self):
        attempts = {}

        def flaky(job):
            attempts[job.index] = attempts.get(job.index, 0) + 1
            if job.index == 1 and attempts[job.index] < 3:
                raise RuntimeError("transient")
            return job.index

        jobs = [Job(i) for i in range(3)]
        config = SupervisorConfig(max_attempts=3, backoff_base_seconds=0.0)
        results, report = supervise(jobs, flaky, config=config)
        assert results == {0: 0, 1: 1, 2: 2}
        assert report.retries == 2
        assert [f.cause for f in report.failures[1]] == [CAUSE_ERROR] * 2
        assert report.quarantined == ()

    def test_quarantine_raises_shard_error(self):
        def poison(job):
            if job.index == 1:
                raise RuntimeError("boom")
            return job.index

        config = SupervisorConfig(max_attempts=2, backoff_base_seconds=0.0)
        with pytest.raises(ShardError) as excinfo:
            supervise([Job(0), Job(1)], poison, config=config)
        error = excinfo.value
        assert error.shard_index == 1
        assert error.cause == CAUSE_ERROR
        assert len(error.failures) == 2
        assert "boom" in str(error)
        assert "quarantined" in str(error)

    def test_allow_partial_drops_poison_shard(self):
        def poison(job):
            if job.index == 1:
                raise RuntimeError("boom")
            return job.index

        config = SupervisorConfig(
            max_attempts=2, backoff_base_seconds=0.0, allow_partial=True
        )
        results, report = supervise([Job(i) for i in range(3)], poison,
                                    config=config)
        assert results == {0: 0, 2: 2}
        assert report.quarantined == (1,)
        assert len(report.failures[1]) == 2

    def test_on_result_and_keep_results(self):
        seen = []
        results, _ = supervise(
            [Job(0), Job(1)], ok_runner,
            on_result=lambda index, result: seen.append((index, result)),
            keep_results=False,
        )
        assert seen == [(0, 0), (1, 10)]
        assert results == {0: None, 1: None}

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            supervise([], ok_runner, workers=0)


def chaos_runner(job):
    return job.index * 10


class TestProcessSupervision:
    def test_chaos_kill_retried_to_success(self):
        chaos = WorkerChaos(seed=0, kill_rate=1.0, max_injections_per_shard=1)
        config = SupervisorConfig(chaos=chaos, backoff_base_seconds=0.0)
        jobs = [Job(i) for i in range(3)]
        results, report = supervise(jobs, chaos_runner, workers=2,
                                    config=config)
        assert results == {0: 0, 1: 10, 2: 20}
        assert report.retries == 3
        for history in report.failures.values():
            assert [f.cause for f in history] == [CAUSE_CRASH]
            assert "57" in history[0].detail  # chaos exit code surfaced

    def test_chaos_always_kill_quarantines(self):
        chaos = WorkerChaos(always_kill=(0,))
        config = SupervisorConfig(
            chaos=chaos, max_attempts=2, backoff_base_seconds=0.0
        )
        with pytest.raises(ShardError) as excinfo:
            supervise([Job(0)], chaos_runner, workers=1, config=config)
        assert excinfo.value.shard_index == 0
        assert excinfo.value.cause == CAUSE_CRASH

    def test_hang_hits_timeout_and_recovers(self):
        chaos = WorkerChaos(
            seed=0, hang_rate=1.0, hang_seconds=60.0,
            max_injections_per_shard=1,
        )
        config = SupervisorConfig(
            chaos=chaos, timeout_seconds=0.5, backoff_base_seconds=0.0
        )
        results, report = supervise([Job(0)], chaos_runner, workers=1,
                                    config=config)
        assert results == {0: 0}
        assert [f.cause for f in report.failures[0]] == [CAUSE_TIMEOUT]

    def test_process_mode_matches_inprocess_results(self):
        jobs = [Job(i) for i in range(5)]
        inproc, _ = supervise(jobs, chaos_runner)
        proc, _ = supervise(jobs, chaos_runner, workers=3,
                            config=SupervisorConfig(timeout_seconds=30.0))
        assert inproc == proc


def pid_runner(job):
    return os.getpid()


class TestInlineSelection:
    """A lone worker with nothing to isolate runs shards in the caller.

    The one-worker sharded runs depend on this: no fork, no pickling.
    """

    def test_predicate(self):
        assert runs_inline(1, SupervisorConfig())
        assert runs_inline(1, SupervisorConfig(chaos=WorkerChaos()))
        assert not runs_inline(2, SupervisorConfig())
        assert not runs_inline(1, SupervisorConfig(timeout_seconds=1.0))
        assert not runs_inline(
            1, SupervisorConfig(chaos=WorkerChaos(kill_rate=0.5))
        )

    def test_single_worker_runs_in_caller(self):
        results, _ = supervise([Job(0), Job(1)], pid_runner)
        assert results == {0: os.getpid(), 1: os.getpid()}

    def test_timeout_forces_a_worker_process(self):
        config = SupervisorConfig(timeout_seconds=30.0)
        results, _ = supervise([Job(0)], pid_runner, config=config)
        assert results[0] != os.getpid()


class TestShardFailure:
    def test_describe(self):
        failure = ShardFailure(2, 0, CAUSE_CRASH, "exit 57")
        assert failure.describe() == "attempt 1: crash (exit 57)"
        bare = ShardFailure(2, 1, CAUSE_TIMEOUT, "")
        assert bare.describe() == "attempt 2: timeout"
