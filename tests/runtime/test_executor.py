"""Tests for the fault-tolerant campaign runtime executor."""

import json
import warnings

import pytest

from repro import obs
from repro.runtime import (
    Executor,
    Journal,
    RetryPolicy,
    Task,
    TaskOutcome,
    TaskResult,
    classify_exception,
)
from repro.runtime.errors import InfraError, SimulationCrash, SimulationHang

from .stubs import dispatch

TAXONOMY_TASKS = [
    Task("t/ok", ("ok", 21)),
    Task("t/crash", ("crash", None)),
    Task("t/hang", ("hang", None)),
    Task("t/bug", ("bug", None)),
    Task("t/infra", ("infra", None)),
]

EXPECTED_OUTCOMES = {
    "t/ok": TaskOutcome.OK,
    "t/crash": TaskOutcome.SIM_CRASH,
    "t/hang": TaskOutcome.SIM_HANG,
    "t/bug": TaskOutcome.INFRA_ERROR,
    "t/infra": TaskOutcome.INFRA_ERROR,
}


class TestClassifyException:
    def test_typed_exceptions(self):
        assert classify_exception(SimulationHang()) == TaskOutcome.SIM_HANG
        assert classify_exception(SimulationCrash()) == TaskOutcome.SIM_CRASH
        assert classify_exception(InfraError()) == TaskOutcome.INFRA_ERROR

    def test_max_cycles_runtime_error_is_hang(self):
        exc = RuntimeError("simulation exceeded max_cycles (runaway kernel?)")
        assert classify_exception(exc) == TaskOutcome.SIM_HANG

    def test_plain_exception_is_infra(self):
        try:
            raise KeyError("nope")
        except KeyError as exc:
            assert classify_exception(exc) == TaskOutcome.INFRA_ERROR

    def test_simulator_frame_is_crash(self):
        from repro.arch import Apu, GlobalMemory

        try:
            Apu(memory=GlobalMemory()).finish()
            Apu(memory=GlobalMemory()).launch(None, 0, [])
        except Exception as exc:
            assert classify_exception(exc) == TaskOutcome.SIM_CRASH


class TestInlineExecutor:
    def test_taxonomy(self):
        results = Executor(dispatch, jobs=0).run(TAXONOMY_TASKS)
        assert {k: r.outcome for k, r in results.items()} == EXPECTED_OUTCOMES
        assert results["t/ok"].value == 42
        assert results["t/crash"].error.startswith("SimulationCrash")

    def test_failures_do_not_abort_the_batch(self):
        results = Executor(dispatch, jobs=0).run(TAXONOMY_TASKS)
        assert len(results) == len(TAXONOMY_TASKS)

    def test_retry_then_succeed(self):
        calls = []

        def flaky_inline(payload):
            calls.append(payload)
            if len(calls) == 1:
                raise InfraError("transient")
            return "recovered"

        retry = RetryPolicy(
            max_attempts=3, retry_on=(TaskOutcome.INFRA_ERROR,)
        )
        results = Executor(flaky_inline, jobs=0, retry=retry).run([Task("f")])
        assert results["f"].outcome == TaskOutcome.OK
        assert results["f"].value == "recovered"
        assert results["f"].attempts == 2

    def test_semantic_outcomes_never_retried(self):
        calls = []

        def crashing(payload):
            calls.append(payload)
            raise SimulationCrash("trap")

        retry = RetryPolicy(max_attempts=5)
        results = Executor(crashing, jobs=0, retry=retry).run([Task("c")])
        assert results["c"].outcome == TaskOutcome.SIM_CRASH
        assert len(calls) == 1

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError):
            Executor(dispatch, jobs=0).run([Task("a"), Task("a")])

    def test_timeout_without_isolation_warns_once(self):
        from repro import obs
        from repro.runtime.executor import _reset_inline_timeout_warning

        _reset_inline_timeout_warning()
        registry, _ = obs.enable()
        try:
            with pytest.warns(UserWarning):
                Executor(dispatch, jobs=0, timeout=1.0)
            # The warning is once-per-process; the metric records every
            # occurrence so campaigns can still see the misconfiguration.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Executor(dispatch, jobs=0, timeout=1.0)
            counters = registry.snapshot()["counters"]
            assert counters["runtime.timeout_unenforced"] == 2
        finally:
            obs.disable()
            _reset_inline_timeout_warning()

    def test_initializer_runs_inline(self):
        seen = []
        ex = Executor(
            lambda p: seen[0], jobs=0,
            initializer=lambda tag: seen.append(tag), initargs=("init",),
        )
        assert ex.run([Task("x")])["x"].value == "init"


class TestJournalResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        first = Executor(dispatch, jobs=0, journal=journal).run(
            [Task("a", ("ok", 1)), Task("b", ("ok", 2))]
        )

        def must_not_run(payload):
            raise AssertionError("journaled task re-executed")

        second = Executor(must_not_run, jobs=0, journal=journal).run(
            [Task("a", ("ok", 1)), Task("b", ("ok", 2))]
        )
        assert {k: r.value for k, r in second.items()} == {
            k: r.value for k, r in first.items()
        }

    def test_resume_runs_only_missing_tasks(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        Executor(dispatch, jobs=0, journal=journal).run([Task("a", ("ok", 1))])
        results = Executor(dispatch, jobs=0, journal=journal).run(
            [Task("a", ("bug", None)), Task("b", ("ok", 2))]
        )
        # "a" came from the journal (so its old OK verdict), "b" ran fresh.
        assert results["a"].outcome == TaskOutcome.OK
        assert results["b"].value == 4

    def test_journal_records_meta_and_outcome(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        Executor(dispatch, jobs=0, journal=journal).run(
            [Task("a", ("ok", 3), meta={"spec": [1, 2]})]
        )
        rec = json.loads(journal.read_text().splitlines()[0])
        assert rec["task"] == "a"
        assert rec["outcome"] == "ok"
        assert rec["value"] == 6
        assert rec["meta"] == {"spec": [1, 2]}
        assert rec["attempts"] == 1
        assert rec["duration"] >= 0

    def test_truncated_final_line_tolerated(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        Executor(dispatch, jobs=0, journal=journal).run(
            [Task("a", ("ok", 1)), Task("b", ("ok", 2))]
        )
        text = journal.read_text()
        lines = text.splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        loaded = Journal(journal).load()
        assert set(loaded) == {"a"}
        # Resume re-runs the lost task and seals the partial line.
        results = Executor(dispatch, jobs=0, journal=journal).run(
            [Task("a", ("ok", 1)), Task("b", ("ok", 2))]
        )
        assert results["b"].value == 4

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(tmp_path)

    def test_failed_tasks_are_journaled_too(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        Executor(dispatch, jobs=0, journal=journal).run([Task("x", ("bug", 0))])
        loaded = Journal(journal).load()
        assert loaded["x"]["outcome"] == TaskOutcome.INFRA_ERROR


class TestStoreSink:
    def test_failed_commit_ingest_keeps_the_results(self, tmp_path, capsys):
        """A damaged store at commit time never fails a finished run:
        the results come back, the failure is counted, and the warning
        names the journal and the re-run recipe."""
        from repro.store import ResultStore

        store = tmp_path / "r.sqlite"
        with ResultStore(store) as s:
            s.put_avf_rows(
                [
                    {"workload": "w", "structure": "l1", "scheme": "parity",
                     "style": "none", "factor": 1, "mode": "2x1",
                     "seed": seed, "due_avf": 0.25, "sdc_avf": 0.125,
                     "true_due_avf": 0.2, "false_due_avf": 0.05}
                    for seed in range(50)
                ]
            )
        with open(store, "r+b") as fh:
            fh.seek(min(4096, store.stat().st_size // 2))
            fh.write(b"\xde\xad\xbe\xef" * 256)
        journal = tmp_path / "j.jsonl"
        with obs.observe() as (registry, _tracer):
            results = Executor(
                dispatch, jobs=0, journal=journal, store=store
            ).run([Task("a", ("ok", 1)), Task("b", ("ok", 2))])
            counters = registry.snapshot()["counters"]
        assert {k: r.value for k, r in results.items()} == {"a": 2, "b": 4}
        assert counters["store.ingest_failures"] == 1
        err = capsys.readouterr().err
        assert "results-store ingest failed" in err
        assert f"--resume {journal} --store {store}" in err
        assert "repro store" not in err


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(max_attempts=5, backoff=1.0, backoff_factor=2.0,
                        max_backoff=3.0)
        assert p.delay("t", 1) == 1.0
        assert p.delay("t", 2) == 2.0
        assert p.delay("t", 3) == 3.0  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(max_attempts=2, backoff=1.0, jitter=0.5, seed=7)
        d1 = p.delay("task-x", 1)
        d2 = p.delay("task-x", 1)
        assert d1 == d2
        assert 0.5 <= d1 <= 1.5
        assert p.delay("task-y", 1) != d1

    def test_only_infrastructure_outcomes_retryable_by_default(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(TaskOutcome.TIMEOUT, 1)
        assert p.should_retry(TaskOutcome.WORKER_DIED, 2)
        assert not p.should_retry(TaskOutcome.SIM_CRASH, 1)
        assert not p.should_retry(TaskOutcome.SIM_HANG, 1)
        assert not p.should_retry(TaskOutcome.INFRA_ERROR, 1)
        assert not p.should_retry(TaskOutcome.TIMEOUT, 3)  # attempts exhausted


class TestProcessIsolation:
    """End-to-end behaviour of spawn-isolated workers.

    Each executor run pays worker start-up (~1s of interpreter spawn), so
    these tests batch what they can into shared runs.
    """

    def test_taxonomy_matches_inline(self):
        results = Executor(dispatch, jobs=2).run(TAXONOMY_TASKS)
        assert {k: r.outcome for k, r in results.items()} == EXPECTED_OUTCOMES
        assert results["t/ok"].value == 42

    def test_timeout_kills_worker_and_campaign_continues(self):
        results = Executor(dispatch, jobs=2, timeout=1.0).run(
            [Task("slow", ("sleep", 60)), Task("fast", ("ok", 1))]
        )
        assert results["slow"].outcome == TaskOutcome.TIMEOUT
        assert results["slow"].error.startswith("killed after")
        assert results["fast"].outcome == TaskOutcome.OK

    def test_worker_death_is_reported_not_raised(self):
        results = Executor(dispatch, jobs=1).run(
            [Task("dead", ("die", 9)), Task("alive", ("ok", 5))]
        )
        assert results["dead"].outcome == TaskOutcome.WORKER_DIED
        assert results["alive"].value == 10

    def test_retry_after_worker_death_succeeds(self, tmp_path):
        marker = tmp_path / "marker"
        results = Executor(
            dispatch, jobs=1, retry=RetryPolicy(max_attempts=3)
        ).run([Task("flaky", ("flaky", str(marker)))])
        assert results["flaky"].outcome == TaskOutcome.OK
        assert results["flaky"].value == "recovered"
        assert results["flaky"].attempts == 2

    def test_timeout_exhausts_retries_gracefully(self):
        results = Executor(
            dispatch, jobs=1, timeout=0.5,
            retry=RetryPolicy(max_attempts=2),
        ).run([Task("slow", ("sleep", 60))])
        assert results["slow"].outcome == TaskOutcome.TIMEOUT
        assert results["slow"].attempts == 2


class TestOneTableThreeSlots:
    def test_driver_pool_and_fabric_slots_agree(self, tmp_path):
        """The same table and settle path serve every slot kind: inline,
        a two-worker spawn pool, and a fleetless fabric whose tasks all
        demote to the driver."""
        from repro.runtime.fabric import FabricCoordinator, stub_job

        outcomes = {}
        record_keys = {}
        for kind in ("driver", "pool", "fabric"):
            journal = tmp_path / f"{kind}.jsonl"
            coord = FabricCoordinator() if kind == "fabric" else None
            ex = Executor(
                dispatch, jobs=2 if kind == "pool" else 0, journal=journal,
                fabric=coord, job=stub_job() if coord else None,
                drain_signals=False,
            )
            try:
                results = ex.run(TAXONOMY_TASKS)
            finally:
                ex.close()
                if coord is not None:
                    coord.stop()
            outcomes[kind] = {
                k: (r.outcome, r.value, r.attempts) for k, r in results.items()
            }
            records = [
                json.loads(line) for line in journal.read_text().splitlines()
            ]
            if kind == "fabric":
                assert {r.pop("node") for r in records} == {"local"}
            record_keys[kind] = {r["task"]: sorted(r) for r in records}
        assert outcomes["driver"] == outcomes["pool"] == outcomes["fabric"]
        assert {k: o for k, (o, _, _) in outcomes["driver"].items()} == (
            EXPECTED_OUTCOMES
        )
        assert record_keys["driver"] == record_keys["pool"] == (
            record_keys["fabric"]
        )


class TestTaskResultRecord:
    def test_round_trip(self):
        r = TaskResult("t", TaskOutcome.OK, value={"a": 1}, attempts=2,
                       duration=0.5)
        assert TaskResult.from_record(r.to_record()) == r
