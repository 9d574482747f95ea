"""Executor-side chaos: worker crashes and hangs under process isolation,
the poison circuit breaker, and the heartbeat liveness sweep.

The contract under test: a campaign whose workers keep dying converges to
the same task-id -> outcome map as a fault-free run, with zero lost and
zero duplicated journal records — and a payload that *always* kills its
worker is quarantined instead of eating the campaign.
"""

import multiprocessing as mp
import time

from repro import obs
from repro.runtime import (
    ChaosPolicy,
    ChaosSpec,
    Executor,
    RetryPolicy,
    Task,
    TaskOutcome,
)
from repro.runtime.executor import _Worker

from ..runtime.stubs import dispatch
from .conftest import (
    CHAOS_SEED,
    expected_map,
    journaled_ids,
    ok_tasks,
    outcome_map,
)

#: plenty of attempts, breaker off: equality tests must converge for any
#: seed (each retry rolls fresh chaos dice)
CONVERGE = RetryPolicy(max_attempts=30, backoff=0.01, poison_threshold=None)


def _noop():
    """Spawn target for a process that exits immediately (module level
    for spawn pickling)."""


class TestWorkerCrashChaos:
    def test_killed_and_resumed_campaign_converges(self, tmp_path):
        tasks = ok_tasks("wc", 6)
        policy = ChaosPolicy(ChaosSpec(worker_crash=0.35), seed=CHAOS_SEED)
        jp = tmp_path / "j.jsonl"
        first = Executor(
            dispatch, jobs=2, retry=CONVERGE, journal=jp, chaos=policy
        ).run(tasks)
        assert outcome_map(first) == expected_map(tasks)
        # Whether any retries happened must match the policy's own
        # schedule — the run is a deterministic function of the seed.
        fired = any(
            policy.task_action(t.id, 1) is not None for t in tasks
        )
        retried = sum(r.attempts for r in first.values()) > len(tasks)
        assert retried == fired
        # The kill: tear the journal tail mid-record (SIGKILL signature),
        # then resume without chaos.
        lines = jp.read_text().splitlines()
        jp.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        resumed = Executor(dispatch, jobs=0, journal=jp).run(tasks)
        assert outcome_map(resumed) == expected_map(tasks)
        # Zero lost, zero duplicated records.
        assert sorted(journaled_ids(jp)) == sorted(t.id for t in tasks)


class TestWorkerHangChaos:
    def test_hung_workers_reclaimed_by_timeout(self):
        tasks = ok_tasks("wh", 4)
        policy = ChaosPolicy(ChaosSpec(worker_hang=0.3), seed=CHAOS_SEED)
        results = Executor(
            dispatch, jobs=2, timeout=1.0, retry=CONVERGE, chaos=policy
        ).run(tasks)
        assert outcome_map(results) == expected_map(tasks)


class TestPoisonBreaker:
    def test_chaos_poison_payload_is_quarantined(self, tmp_path):
        # Probability 1.0 models a payload that kills every worker it
        # touches; the breaker must stop the carnage at its threshold.
        policy = ChaosPolicy(ChaosSpec(worker_crash=1.0), seed=CHAOS_SEED)
        retry = RetryPolicy(max_attempts=10, poison_threshold=3)
        jp = tmp_path / "j.jsonl"
        results = Executor(
            dispatch, jobs=1, retry=retry, journal=jp, chaos=policy
        ).run([Task("poison", ("ok", 1))])
        r = results["poison"]
        assert r.outcome == TaskOutcome.POISONED
        assert r.attempts == 3
        assert "breaker" in r.error

        # The verdict is journaled: resuming returns it without re-running.
        def must_not_run(payload):
            raise AssertionError("poisoned task re-executed on resume")

        resumed = Executor(must_not_run, jobs=0, journal=jp).run(
            [Task("poison", ("ok", 1))]
        )
        assert resumed["poison"].outcome == TaskOutcome.POISONED

    def test_breaker_trips_and_campaign_completes(self):
        """A real worker-killing payload: the sibling task still finishes,
        workers respawn without operator action, telemetry records it."""
        registry, _ = obs.enable()
        try:
            retry = RetryPolicy(max_attempts=10, poison_threshold=2)
            results = Executor(dispatch, jobs=1, retry=retry).run(
                [Task("bad", ("die", 7)), Task("good", ("ok", 4))]
            )
        finally:
            obs.disable()
        assert results["bad"].outcome == TaskOutcome.POISONED
        assert results["bad"].attempts == 2
        assert results["good"].value == 8
        snap = registry.snapshot()
        assert snap["counters"]["runtime.tasks_poisoned"] == 1
        assert snap["counters"]["runtime.workers_respawned"] >= 2
        assert snap["gauges"]["runtime.breaker_tripped"] == 1

    def test_breaker_disabled_burns_full_retry_budget(self):
        retry = RetryPolicy(max_attempts=3, poison_threshold=None)
        results = Executor(dispatch, jobs=1, retry=retry).run(
            [Task("bad", ("die", 7))]
        )
        assert results["bad"].outcome == TaskOutcome.WORKER_DIED
        assert results["bad"].attempts == 3


class TestHeartbeatSweep:
    def test_dead_worker_without_eof_is_respawned(self):
        """White box: a worker process that died while its pipe write end
        stays open elsewhere delivers neither a message nor an EOF — only
        the periodic liveness sweep can notice and respawn it."""
        ex = Executor(dispatch, jobs=1, heartbeat=0.2)
        table = ex._start([Task("stuck", ("ok", 1))])
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_noop, daemon=True)
        proc.start()
        proc.join(10)
        assert not proc.is_alive()
        # child_conn is deliberately kept open in this process, simulating
        # the fd leaked to a grandchild.
        w = _Worker(proc, parent_conn)
        w.ready = True
        w.entry = table.pop("queued", w, time.monotonic())
        workers = [w]
        try:
            ex._sweep_dead_workers(workers)
            assert ex._results["stuck"].outcome == TaskOutcome.WORKER_DIED
            assert workers[0] is not w
            assert workers[0].proc.is_alive()
        finally:
            ex._shutdown(workers)
            child_conn.close()

    def test_chaos_metrics_recorded(self):
        """Injected faults are visible in telemetry as chaos.* counters."""
        registry, _ = obs.enable()
        try:
            policy = ChaosPolicy(
                ChaosSpec(task_error=1.0), seed=CHAOS_SEED
            )
            retry = RetryPolicy(
                max_attempts=2, retry_on=(TaskOutcome.INFRA_ERROR,)
            )
            results = Executor(
                dispatch, jobs=0, retry=retry, chaos=policy
            ).run([Task("x", ("ok", 1))])
        finally:
            obs.disable()
        assert results["x"].outcome == TaskOutcome.INFRA_ERROR
        assert "chaos" in results["x"].error
        assert registry.snapshot()["counters"]["chaos.task_error"] == 2
