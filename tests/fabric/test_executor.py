"""Fabric-mode Executor integration: thread fleets, fallback, drain, resume.

Covers the executor-shaped contract end to end over real HTTP on
localhost — journaled skip, at-least-once finalize, graceful
degradation to local execution, signal-style drain via ``stop_after``,
and span provenance — without spawning processes (node-death scenarios
live in ``test_chaos_fabric.py``).
"""

import json
import time

import pytest

from repro.obs.trace import Tracer
from repro.runtime import CampaignInterrupted, Executor, Task, TaskOutcome
from repro.runtime.fabric import stub_job
from repro.runtime.journal import Journal

from .conftest import (
    expected_map,
    journaled_ids,
    outcome_map,
    stub_tasks,
)


class TestFleetExecution:
    def test_fleet_runs_all_tasks(self, coordinator, thread_fleet,
                                  tmp_path):
        thread_fleet(2)
        tasks = stub_tasks("fleet", 12)
        journal = tmp_path / "campaign.jsonl"
        ex = Executor(
            fabric=coordinator, job=stub_job(), journal=journal, drain_signals=False,
        )
        results = ex.run(tasks)
        ex.close()
        assert outcome_map(results) == expected_map(tasks)
        # one journal record per task, stamped with node provenance
        ids = journaled_ids(journal)
        assert sorted(ids) == [t.id for t in tasks]
        assert len(ids) == len(set(ids))
        nodes = {
            json.loads(line)["node"]
            for line in journal.read_text().splitlines()
        }
        assert nodes <= {"t0", "t1", "local"}
        assert nodes & {"t0", "t1"}, "no task ran on the fleet"

    def test_worker_failures_surface_as_labelled_results(
        self, coordinator, thread_fleet, tmp_path
    ):
        thread_fleet(1)
        tasks = stub_tasks("mix", 4) + [Task("mix/bad", "not-an-int")]
        ex = Executor(
            fabric=coordinator, job=stub_job(),
            journal=tmp_path / "j.jsonl", drain_signals=False,
        )
        results = ex.run(tasks)
        ex.close()
        assert results["mix/bad"].outcome == TaskOutcome.INFRA_ERROR
        assert "ValueError" in results["mix/bad"].error
        ok = {k: v for k, v in results.items() if k != "mix/bad"}
        assert all(r.outcome == TaskOutcome.OK for r in ok.values())

    def test_duplicate_task_ids_rejected(self, coordinator):
        ex = Executor(fabric=coordinator, job=stub_job(), drain_signals=False)
        with pytest.raises(ValueError, match="duplicate task ids"):
            ex.run([Task("same", 1), Task("same", 2)])


class TestGracefulDegradation:
    def test_fleetless_campaign_demotes_to_local(self, coordinator,
                                                 tmp_path):
        # No worker ever registers: after worker_grace the driver pulls
        # every task to local execution — the campaign must still finish.
        tasks = stub_tasks("alone", 6)
        journal = tmp_path / "j.jsonl"
        ex = Executor(
            fabric=coordinator, job=stub_job(), journal=journal,
            worker_grace=0.05, drain_signals=False,
        )
        results = ex.run(tasks)
        ex.close()
        assert outcome_map(results) == expected_map(tasks)
        nodes = {
            json.loads(line)["node"]
            for line in journal.read_text().splitlines()
        }
        assert nodes == {"local"}

    def test_local_fn_receives_original_payload(self, coordinator):
        # With a driver-side local_fn the demoted path must feed the
        # *original* payload, not the JSON-encoded one.
        seen = []

        def local_fn(payload):
            seen.append(payload)
            return payload * 10

        tasks = [Task("orig/0", 7)]
        ex = Executor(
            local_fn, fabric=coordinator, job=stub_job(),
            worker_grace=0.05, drain_signals=False,
        )
        results = ex.run(tasks)
        assert results["orig/0"].value == 70
        assert seen == [7]


class TestDrainAndResume:
    def test_stop_after_drains_to_campaign_interrupted(
        self, coordinator, tmp_path
    ):
        tasks = stub_tasks("drain", 8)
        journal = tmp_path / "j.jsonl"
        ex = Executor(
            fabric=coordinator, job=stub_job(), journal=journal,
            worker_grace=0.05, drain_signals=False, stop_after=3,
        )
        with pytest.raises(CampaignInterrupted) as exc_info:
            ex.run(tasks)
        assert exc_info.value.completed >= 3
        assert exc_info.value.total == 8
        done = journaled_ids(journal)
        assert len(done) == len(set(done))
        assert 3 <= len(done) < 8

    def test_resume_completes_without_reexecution(self, coordinator,
                                                  tmp_path):
        tasks = stub_tasks("resume", 8)
        journal = tmp_path / "j.jsonl"
        ex = Executor(
            fabric=coordinator, job=stub_job(), journal=journal,
            worker_grace=0.05, drain_signals=False, stop_after=3,
        )
        with pytest.raises(CampaignInterrupted):
            ex.run(tasks)
        already = set(journaled_ids(journal))
        ex2 = Executor(
            fabric=coordinator, job=stub_job(), journal=journal,
            worker_grace=0.05, drain_signals=False,
        )
        results = ex2.run(tasks)
        ex2.close()
        assert outcome_map(results) == expected_map(tasks)
        # journaled records were not re-executed: their lines are intact
        # and appear exactly once
        ids = journaled_ids(journal)
        assert sorted(ids) == [t.id for t in tasks]
        assert len(ids) == len(set(ids))
        assert already <= set(ids)

    def test_fully_journaled_run_never_touches_the_fleet(self, tmp_path):
        # All results already journaled: run() must return without even
        # starting the coordinator (it is not started by this test).
        from repro.runtime.fabric import FabricCoordinator

        tasks = stub_tasks("done", 3)
        journal = Journal(tmp_path / "j.jsonl")
        for t in tasks:
            journal.append({
                "task": t.id, "outcome": TaskOutcome.OK,
                "value": t.payload * 2, "error": "", "attempts": 1,
                "duration": 0.0,
            })
        journal.close()
        coord = FabricCoordinator()
        ex = Executor(
            fabric=coord, job=stub_job(), journal=tmp_path / "j.jsonl",
            drain_signals=False,
        )
        results = ex.run(tasks)
        ex.close()
        assert outcome_map(results) == expected_map(tasks)
        assert coord._server is None, "coordinator was started needlessly"


class TestSpanMerging:
    def test_merge_foreign_rebases_and_stamps_provenance(self):
        tracer = Tracer()
        tracer.merge_foreign(
            [
                {"name": "inject", "start": 0.25, "duration": 0.1,
                 "depth": 1, "args": {"id": "t/00"}},
                "junk",
                {"name": "missing-fields"},
            ],
            offset=2.0,
            node="n0",
        )
        assert len(tracer.events) == 1
        span = tracer.events[0]
        assert span.name == "inject"
        assert span.start == pytest.approx(2.25)
        assert span.depth == 1
        assert span.args["id"] == "t/00"
        assert span.args["node"] == "n0"

    def test_worker_spans_reach_the_session_trace(self, coordinator,
                                                  thread_fleet):
        # The report path carries spans; _on_report folds them into the
        # driver's tracer with node provenance.  Simulate the worker side
        # by reporting a record with spans directly.
        from repro import obs

        tasks = stub_tasks("spans", 1)
        ex = Executor(fabric=coordinator, job=stub_job(), drain_signals=False)
        registry, tracer = obs.enable()
        try:
            rnd = ex._start(tasks)
            coordinator.handle({
                "v": 1, "method": "lease", "node": "n0", "seq": 0,
                "deadline_ms": 1000, "params": {"max_tasks": 1},
            })
            rec = {
                "task": tasks[0].id, "outcome": TaskOutcome.OK, "value": 0,
                "error": "", "attempts": 1, "duration": 0.05,
            }
            spans = [{"name": "fabric_task", "start": 0.0,
                      "duration": 0.05, "depth": 0,
                      "args": {"id": tasks[0].id}}]
            coordinator.handle({
                "v": 1, "method": "report", "node": "n0", "seq": 1,
                "deadline_ms": 1000,
                "params": {"records": [{"record": rec, "spans": spans}]},
            })
            ex._settle_inbox(rnd, time.monotonic())
            merged = [e for e in tracer.events
                      if e.name == "fabric_task"
                      and e.args.get("node") == "n0"]
            assert len(merged) == 1
            # the driver's own finalize event also carries provenance
            assert any(e.name == "task" and e.args.get("node") == "n0"
                       for e in tracer.events)
            assert registry.counter("fabric.worker_spans_merged").value == 1
        finally:
            ex._stop()
            obs.disable()


class TestLateReportAfterDemotion:
    def test_late_report_is_a_dropped_duplicate(self, coordinator, tmp_path):
        """Timing-free replay of the double-finalize race: a lease expires,
        the task is demoted and claimed by the driver, and the original
        node's report lands while the local run is still in flight."""
        from repro import obs

        task = Task("late/00", 4)
        journal = tmp_path / "j.jsonl"

        def env(method, params):
            return {"v": 1, "method": method, "node": "n0", "seq": 0,
                    "deadline_ms": 1000, "params": params}

        def local_fn(payload):
            # 4. n0's report arrives mid-run, after the driver's claim
            rec = {"task": task.id, "outcome": TaskOutcome.OK,
                   "value": "remote", "error": "", "attempts": 1,
                   "duration": 0.0}
            resp = coordinator.handle(
                env("report", {"records": [{"record": rec, "spans": []}]})
            )
            assert resp["acked"] == [task.id]
            return payload * 2  # 5. the local run finishes

        ex = Executor(
            local_fn, fabric=coordinator, job=stub_job(), journal=journal,
            drain_signals=False,
        )
        with obs.observe() as (registry, _tracer):
            table = ex._start([task])
            try:
                # 1. lease the task to n0
                lease = coordinator.handle(env("lease", {"max_tasks": 1}))
                assert [t["id"] for t in lease["tasks"]] == [task.id]
                # 2. expire the lease: retries spent, so it demotes
                table.expire_leases(ex.retry, now=time.monotonic() + 60)
                assert table.states[task.id].status == "demoted"
                # 3. the driver claims the demoted task and runs it
                ex._drive(table, 1)
                # the driver's next settle pass finds nothing to settle
                ex._settle_inbox(table, time.monotonic())
            finally:
                ex._stop()
            ex.close()
            duplicates = registry.counter("fabric.duplicate_results").value
        assert journaled_ids(journal) == [task.id]
        assert duplicates == 1
        assert ex._results[task.id].value == 8
        rec = json.loads(journal.read_text().splitlines()[0])
        assert rec["node"] == "local"
        assert rec["attempts"] == 2
