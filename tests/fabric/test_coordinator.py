"""Coordinator semantics, exercised through its RPC surface directly.

These tests call ``FabricCoordinator.handle`` with hand-built envelopes
(no HTTP, no threads beyond the coordinator's own lock) so every lease /
heartbeat / report interleaving is deterministic.
"""

import sys
import threading
import time

import pytest

from repro.runtime import RetryPolicy, Task, TaskOutcome
from repro.runtime.errors import ExecutorError
from repro.runtime.fabric import FabricCoordinator, stub_job


def env(method, node="n0", params=None, seq=0):
    return {
        "v": 1, "method": method, "node": node, "seq": seq,
        "deadline_ms": 2000, "params": params or {},
    }


@pytest.fixture
def coord():
    c = FabricCoordinator(lease_ttl=0.5, lease_batch=2, poll_interval=0.01)
    yield c
    c.end_round()


def begin(coord, n=4, timeout=None):
    tasks = [Task(f"c/{i:02d}", i) for i in range(n)]
    rnd = coord.begin_round(stub_job(), tasks, timeout=timeout)
    return tasks, rnd


class TestRegisterAndLease:
    def test_register_returns_fabric_timing(self, coord):
        resp = coord.handle(env("register"))
        assert resp == {"lease_ttl": 0.5, "poll_interval": 0.01}

    def test_lease_without_round_is_idle(self, coord):
        resp = coord.handle(env("lease", params={"max_tasks": 2}))
        assert resp["idle"] is True

    def test_lease_grants_batch_with_job_and_payloads(self, coord):
        tasks, _ = begin(coord)
        resp = coord.handle(env("lease", params={"max_tasks": 8}))
        assert resp["job"] == stub_job().to_dict()
        # capped by lease_batch, not the worker's appetite
        assert [t["id"] for t in resp["tasks"]] == [tasks[0].id, tasks[1].id]
        assert [t["payload"] for t in resp["tasks"]] == [0, 1]
        assert [t["attempt"] for t in resp["tasks"]] == [1, 1]
        assert resp["lease_ttl"] == 0.5

    def test_leases_do_not_overlap_between_nodes(self, coord):
        tasks, _ = begin(coord)
        a = coord.handle(env("lease", node="n0", params={"max_tasks": 2}))
        b = coord.handle(env("lease", node="n1", params={"max_tasks": 2}))
        granted = [t["id"] for t in a["tasks"]] + [t["id"] for t in b["tasks"]]
        assert sorted(granted) == [t.id for t in tasks]
        assert len(set(granted)) == len(granted)

    def test_drained_round_stops_granting(self, coord):
        _, rnd = begin(coord)
        rnd.drain()
        assert coord.handle(env("lease", params={"max_tasks": 2}))["idle"]

    def test_one_round_at_a_time(self, coord):
        begin(coord)
        with pytest.raises(ExecutorError, match="already in flight"):
            coord.begin_round(stub_job(), [Task("x", 0)])


class TestLeaseExpiry:
    def test_expired_lease_requeues_while_retry_budget_lasts(self, coord):
        tasks, rnd = begin(coord, n=1)
        coord.handle(env("lease", params={"max_tasks": 1}))
        time.sleep(0.6)  # > lease_ttl with no heartbeat
        rnd.expire_leases(RetryPolicy(max_attempts=3))
        state = rnd.states[tasks[0].id]
        assert state.status == "queued"
        # the re-dispatch carries an incremented attempt
        resp = coord.handle(env("lease", node="n1", params={"max_tasks": 1}))
        assert resp["tasks"][0]["attempt"] == 2

    def test_expired_lease_demotes_once_retries_spent(self, coord):
        tasks, rnd = begin(coord, n=1)
        coord.handle(env("lease", params={"max_tasks": 1}))
        time.sleep(0.6)
        rnd.expire_leases(RetryPolicy(max_attempts=1))
        assert rnd.states[tasks[0].id].status == "demoted"
        assert rnd.pop("demoted", "local", time.monotonic()).task.id == tasks[0].id

    def test_heartbeat_renews_held_leases(self, coord):
        tasks, rnd = begin(coord, n=1)
        coord.handle(env("lease", params={"max_tasks": 1}))
        before = rnd.states[tasks[0].id].deadline
        time.sleep(0.3)
        resp = coord.handle(
            env("heartbeat", params={"tasks": [tasks[0].id]})
        )
        assert resp["renewed"] == 1
        assert rnd.states[tasks[0].id].deadline > before

    def test_heartbeat_from_wrong_node_does_not_renew(self, coord):
        tasks, _ = begin(coord, n=1)
        coord.handle(env("lease", node="n0", params={"max_tasks": 1}))
        resp = coord.handle(
            env("heartbeat", node="imposter",
                params={"tasks": [tasks[0].id]})
        )
        assert resp["renewed"] == 0

    def test_timeout_caps_heartbeat_renewal(self, coord):
        # A wedged task cannot renew its lease past started + timeout +
        # ttl: the fabric's per-task wall-clock budget.
        tasks, rnd = begin(coord, n=1, timeout=0.2)
        coord.handle(env("lease", params={"max_tasks": 1}))
        state = rnd.states[tasks[0].id]
        cap = state.started + 0.2 + coord.lease_ttl
        for _ in range(3):
            coord.handle(env("heartbeat", params={"tasks": [tasks[0].id]}))
        assert state.deadline <= cap + 1e-6


class TestReportIdempotence:
    def _report(self, coord, node, task_id, value):
        rec = {
            "task": task_id, "outcome": TaskOutcome.OK, "value": value,
            "error": "", "attempts": 1, "duration": 0.0,
        }
        return coord.handle(
            env("report", node=node,
                params={"records": [{"record": rec, "spans": []}]})
        )

    def test_first_result_wins_duplicate_dropped(self, coord):
        tasks, rnd = begin(coord, n=1)
        coord.handle(env("lease", params={"max_tasks": 1}))
        first = self._report(coord, "n0", tasks[0].id, "first")
        dup = self._report(coord, "late-node", tasks[0].id, "second")
        # both are acked (the late node must clear its outbox) ...
        assert first["acked"] == dup["acked"] == [tasks[0].id]
        # ... but only the first landed in the inbox
        inbox = rnd.take_inbox()
        assert len(inbox) == 1
        node, rec, _ = inbox[0]
        assert node == "n0" and rec["value"] == "first"

    def test_report_for_unknown_task_acked_and_ignored(self, coord):
        _, rnd = begin(coord, n=1)
        resp = self._report(coord, "n0", "someone/elses/task", 1)
        assert resp["acked"] == ["someone/elses/task"]
        assert rnd.take_inbox() == []

    def test_report_without_round_still_acks(self, coord):
        resp = self._report(coord, "n0", "stale/task", 1)
        assert resp["acked"] == ["stale/task"]

    def test_malformed_report_rejected(self, coord):
        from repro.runtime.fabric import RpcError

        begin(coord, n=1)
        with pytest.raises(RpcError, match="malformed report entry"):
            coord.handle(
                env("report", params={"records": [{"record": "junk"}]})
            )


class TestGoodbye:
    def test_goodbye_requeues_held_leases(self, coord):
        tasks, rnd = begin(coord, n=2)
        coord.handle(env("lease", params={"max_tasks": 2}))
        assert rnd.outstanding() == 2
        resp = coord.handle(env("goodbye"))
        assert resp["released"] == 2
        assert rnd.outstanding() == 0
        assert all(
            s.status == "queued" for s in rnd.states.values()
        )

    def test_shutdown_flag_reaches_workers(self, coord):
        coord._shutdown_workers = True
        assert coord.handle(env("lease"))["shutdown"] is True


class TestConcurrentHandlers:
    def test_racing_nodes_settle_each_task_once(self, coord):
        """More handler threads than cores lease and double-report into
        one table with a tiny switch interval: every task is accepted
        exactly once and every second report is a counted duplicate."""
        from repro import obs

        tasks, rnd = begin(coord, n=120)

        def record(task_id):
            return {"record": {
                "task": task_id, "outcome": TaskOutcome.OK, "value": 0,
                "error": "", "attempts": 1, "duration": 0.0,
            }, "spans": []}

        def node(name):
            while True:
                lease = coord.handle(
                    env("lease", node=name, params={"max_tasks": 2})
                )
                if not lease.get("tasks"):
                    return
                for t in lease["tasks"]:
                    for _ in range(2):
                        coord.handle(env("report", node=name, params={
                            "records": [record(t["id"])],
                        }))

        threads = [
            threading.Thread(target=node, args=(f"n{i}",), daemon=True)
            for i in range(8)
        ]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.observe() as (registry, _tracer):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                duplicates = registry.counter(
                    "fabric.duplicate_results"
                ).value
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        accepted = [rec["task"] for _, rec, _ in rnd.take_inbox()]
        assert sorted(accepted) == sorted(t.id for t in tasks)
        assert duplicates == len(tasks)
