"""Coordinator semantics, exercised through its RPC surface directly.

Most tests call ``FabricCoordinator.handle`` with hand-built envelopes
(no HTTP, no threads beyond the coordinator's own lock) so every lease /
heartbeat / report interleaving is deterministic.  The body-read tests
drive ``_read_body`` on in-memory streams and, for hostile
Content-Lengths, the live ``/rpc`` endpoint.
"""

import http.client
import io
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.runtime import RetryPolicy, Task, TaskOutcome
from repro.runtime.errors import ExecutorError
from repro.runtime.fabric import FabricCoordinator, stub_job
from repro.runtime.fabric import coordinator as coordinator_mod
from repro.runtime.fabric.coordinator import (
    _MAX_BODY_BYTES,
    _BodyRejected,
    _read_body,
)
from repro.runtime.fabric.protocol import encode_request


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


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestWorkerGrace:
    """The driver demotes queued work once no node has called in for
    ``worker_grace`` seconds (``Executor._drive``: ``since > grace``);
    until the first node calls in, the grace runs from the round start.
    Driven on a fake clock: nothing sleeps."""

    GRACE = 1.5

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock(1000.0)
        monkeypatch.setattr(
            coordinator_mod, "time", SimpleNamespace(monotonic=clock)
        )
        return clock

    def silent(self, coord):
        return coord.seconds_since_contact() > self.GRACE

    def test_no_contact_within_grace_demotes_nothing(self, coord, clock):
        _, rnd = begin(coord)
        clock.advance(self.GRACE - 0.1)
        assert not self.silent(coord)
        assert all(s.status == "queued" for s in rnd.states.values())

    def test_grace_expired_without_contact_demotes(self, coord, clock):
        tasks, rnd = begin(coord)
        clock.advance(self.GRACE + 0.1)
        assert self.silent(coord)
        assert rnd.demote_one()
        assert rnd.pop("demoted", "driver", clock()).task.id == tasks[0].id

    def test_contact_restarts_the_grace(self, coord, clock):
        begin(coord)
        clock.advance(1.0)
        coord.handle(env("register"))
        clock.advance(self.GRACE - 0.1)  # 2.4s since round start
        assert not self.silent(coord)
        clock.advance(0.2)
        assert self.silent(coord)

    def test_contact_before_the_round_does_not_count(self, coord, clock):
        coord.handle(env("register"))
        clock.advance(10.0)
        begin(coord)
        assert not self.silent(coord)


class _Headers(dict):
    """Just enough of http.client's message API for _read_body."""


def _read(payload, content_length):
    return _read_body(
        io.BytesIO(payload), _Headers({"Content-Length": content_length})
    )


class TestReadBody:
    def test_reads_exact_body(self):
        assert _read(b"hello", "5") == b"hello"

    def test_big_body_read_in_chunks(self):
        payload = b"x" * 300_000
        assert _read(payload, str(len(payload))) == payload

    def test_missing_length_means_empty_body(self):
        assert _read_body(io.BytesIO(b""), _Headers()) == b""
        # an empty header value is treated as absent, not malformed
        assert _read(b"", "") == b""

    @pytest.mark.parametrize("raw", ["abc", "1.5"])
    def test_malformed_length_is_400(self, raw):
        with pytest.raises(_BodyRejected) as exc_info:
            _read(b"", raw)
        assert exc_info.value.status == 400

    def test_negative_length_is_400(self):
        with pytest.raises(_BodyRejected) as exc_info:
            _read(b"", "-10")
        assert exc_info.value.status == 400

    def test_oversized_length_is_413_before_reading(self):
        class ExplodingStream:
            def read(self, n):  # pragma: no cover - must never run
                raise AssertionError("read before the length check")

        with pytest.raises(_BodyRejected) as exc_info:
            _read_body(
                ExplodingStream(),
                _Headers({"Content-Length": str(_MAX_BODY_BYTES + 1)}),
            )
        assert exc_info.value.status == 413

    def test_truncated_body_is_400(self):
        with pytest.raises(_BodyRejected) as exc_info:
            _read(b"abc", "10")  # promises 10, delivers 3
        assert exc_info.value.status == 400


def raw_post(address, body=b"", headers=None, timeout=5.0):
    """One bare POST to /rpc; returns (status, headers, payload bytes)."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.putrequest("POST", "/rpc")
        conn.putheader("Content-Type", "application/json")
        sent = dict(headers or {})
        sent.setdefault("Content-Length", str(len(body)))
        for name, value in sent.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


@pytest.fixture
def served():
    """A default coordinator serving /rpc on an ephemeral port."""
    with FabricCoordinator() as c:
        yield c


class TestHostileBodies:
    def test_oversized_content_length_is_413_before_read(self, served):
        # The body is never sent: the server must reject on the header
        # alone instead of waiting for bytes that never come.
        status, headers, payload = raw_post(
            served.address,
            headers={"Content-Length": str(50 * 1024 * 1024)},
        )
        assert status == 413
        assert json.loads(payload)["ok"] is False
        # rejection before the body desynchronizes keep-alive framing,
        # so the server closes the connection
        assert headers.get("Connection") == "close"

    def test_negative_content_length_is_400(self, served):
        status, _, payload = raw_post(
            served.address, headers={"Content-Length": "-7"}
        )
        assert status == 400
        assert "Content-Length" in json.loads(payload)["error"]

    def test_malformed_content_length_is_400(self, served):
        status, _, _ = raw_post(
            served.address, headers={"Content-Length": "banana"}
        )
        assert status == 400

    def test_valid_rpc_still_succeeds(self, served):
        status, _, payload = raw_post(
            served.address,
            body=encode_request("register", {}, node="probe", seq=0),
        )
        assert status == 200
        assert json.loads(payload)["ok"] is True
