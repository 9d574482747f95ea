"""The campaign runtime's one task engine.

Every campaign-scale entry point dispatches its work through an
:class:`Executor`.  One executor owns one per-task table
(:class:`TaskTable`: each task is queued, running on a slot until a
deadline, or done, with its attempt count, not-before time, accumulated
duration and worker-kill count) and one settle path, which provides, in
one place:

* **bounded retries** — infrastructure failures (worker death, timeout)
  are re-queued per a :class:`~repro.runtime.retry.RetryPolicy`, after
  its backoff delay; a task that raised is not retried by default;
* **poison quarantine** — a per-task circuit breaker: a payload whose
  attempts keep killing workers is finalised as ``POISONED`` instead of
  burning its remaining retries (and more workers);
* **first-final-result-wins finalize** — every final result is appended
  once to the :class:`~repro.runtime.journal.Journal` (a re-run skips
  tasks the journal already holds; a record that cannot be rebuilt is
  quarantined and its task re-run), counted, traced and metered;
* **graceful drain** — the first SIGINT/SIGTERM stops dispatch, lets
  in-flight tasks finish and journal, seals the journal, and raises
  :class:`~repro.runtime.errors.CampaignInterrupted`; a second signal
  aborts immediately;
* **graceful degradation** — a task that exhausts its retries yields a
  failure-labelled :class:`TaskResult` instead of an exception, so one
  broken injection cannot abort a thousand good ones.

A task runs on one of three slot kinds, which differ only in transport:

* **the driver itself** (``jobs=0``, and fabric demotion) — the same
  outcomes, retry and journal behaviour but no isolation, and therefore
  no timeout enforcement;
* **a spawned worker process** over a ``multiprocessing`` pipe
  (``jobs>=1``) — a hung or segfaulting simulation cannot take the
  driver down; a worker that exceeds its wall-clock budget is killed
  (``TIMEOUT``); dead workers are detected by pipe EOF and by a periodic
  liveness sweep (the ``heartbeat``) and respawned mid-campaign;
* **a remote fabric node** (``fabric=``, ``job=``) — a
  :class:`~repro.runtime.fabric.FabricCoordinator` leases queued tasks
  to worker nodes over HTTP; its handlers only translate
  register/lease/heartbeat/report/goodbye into operations on the table.
  An expired lease re-queues its task, or demotes it to the driver once
  retries are spent; with no node heard from for ``worker_grace``
  seconds (timed from the round start until a node calls in), queued
  work is demoted too.

Every slot runs an attempt through :func:`run_attempt`, and pool
workers send back the same report-record shape fabric nodes ship, so
local and remote reports settle through one function.

A :class:`~repro.runtime.chaos.ChaosPolicy` (``chaos=``, off by default)
injects faults into the runtime itself — worker crashes and hangs, task
exception storms, corrupted or failing journal writes — which is how
``tests/chaos/`` proves every guarantee above under fire.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import signal
import sys
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as _conn_wait
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union,
)

from ..obs import NULL_TRACER, ProgressMeter, get_metrics, get_tracer
from .chaos import ChaosPolicy, apply_worker_action
from .errors import (
    CampaignInterrupted,
    ExecutorError,
    JournalRecordError,
    JournalWriteError,
    TaskOutcome,
)
from .journal import Journal, PathLike
from .retry import RetryPolicy

__all__ = [
    "Task", "TaskResult", "TaskTable", "Executor", "run_attempt",
    "load_journaled_results",
]

_INFINITY = float("inf")

#: the driver's slot marker
_DRIVER = object()

#: chaos directive kind -> spec point name (for metrics/trace labels)
_CHAOS_POINTS = {
    "crash": "worker_crash",
    "hang": "worker_hang",
    "error": "task_error",
    "slow": "slow_task",
}

#: process-wide flag: the inline-timeout warning fires once, the
#: ``runtime.timeout_unenforced`` counter records every occurrence
_INLINE_TIMEOUT_WARNED = False


def _reset_inline_timeout_warning() -> None:
    """Test hook: re-arm the one-time inline-timeout warning."""
    global _INLINE_TIMEOUT_WARNED
    _INLINE_TIMEOUT_WARNED = False


@dataclass(frozen=True)
class Task:
    """One unit of work: an id (journal key), a payload, and provenance."""

    id: str
    payload: Any = None
    #: JSON-safe provenance (e.g. the injection spec) recorded in the journal
    meta: Optional[dict] = None


@dataclass
class TaskResult:
    """Final, post-retry result of one task."""

    task_id: str
    outcome: str
    value: Any = None
    error: str = ""
    attempts: int = 1
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == TaskOutcome.OK

    def to_record(self, meta: Optional[dict] = None) -> dict:
        rec = {
            "task": self.task_id,
            "outcome": self.outcome,
            "value": self.value,
            "error": self.error,
            "attempts": self.attempts,
            "duration": round(self.duration, 6),
        }
        if meta:
            rec["meta"] = meta
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "TaskResult":
        """Rebuild a result from a journaled record.

        Malformed records raise :class:`JournalRecordError` (never a bare
        ``KeyError``/``ValueError``/``TypeError``), so resume paths can
        quarantine the record and re-run its task instead of aborting.
        """
        try:
            task_id = rec["task"]
            outcome = rec["outcome"]
            if not isinstance(task_id, str):
                raise ValueError("task id must be a string")
            if not isinstance(outcome, str):
                raise ValueError("outcome must be a string")
            return cls(
                task_id=task_id,
                outcome=outcome,
                value=rec.get("value"),
                error=rec.get("error", ""),
                attempts=int(rec.get("attempts", 1)),
                duration=float(rec.get("duration", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalRecordError(rec, exc) from exc


def run_attempt(
    fn: Callable[[Any], Any],
    payload: Any,
    action: Optional[Tuple[str, float]] = None,
    *,
    span: Optional[Dict[str, Any]] = None,
) -> Tuple[str, Any, str, float, List[Dict]]:
    """Run one attempt on any slot: chaos action, then ``fn(payload)``.
    A returned value is ``OK``; any exception is ``INFRA_ERROR``.  Returns
    ``(outcome, value, error, duration, spans)``.

    With ``span`` (its args), the attempt runs inside a ``fabric_task``
    span and its interior spans are cut from the local tracer and
    returned re-based to the attempt start: a node ships them to the
    coordinator, which owns the timeline.
    """
    tracer = get_tracer() if span else NULL_TRACER
    mark = len(tracer.events) if tracer else 0
    t0_wall = time.perf_counter()
    t0 = time.monotonic()
    try:
        with tracer.span("fabric_task", **(span or {})):
            apply_worker_action(action)
            value = fn(payload)
        outcome, error = TaskOutcome.OK, ""
    except Exception as exc:
        value = None
        outcome = TaskOutcome.INFRA_ERROR
        error = f"{type(exc).__name__}: {exc}"
    duration = time.monotonic() - t0
    spans: List[Dict] = []
    if tracer:
        base = t0_wall - tracer.t0
        for e in tracer.events[mark:]:
            d = e.to_dict()
            d["start"] = round(d["start"] - base, 9)
            spans.append(d)
        del tracer.events[mark:]
    return outcome, value, error, duration, spans


def _worker_main(conn: Connection, fn, initializer, initargs) -> None:
    """Worker process loop: init once, then run attempts until EOF.

    Each task message is ``(task id, attempt, payload, chaos action)``;
    the chaos action is ``None`` in normal operation and a directive from
    the parent's :class:`ChaosPolicy` when the runtime is testing itself.
    The reply is a fabric-shaped report: ``{"record", "spans"}``.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:  # report init failure, don't hang the parent
        _safe_send(conn, ("init_error", f"{type(exc).__name__}: {exc}"))
        return
    _safe_send(conn, ("ready", None))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, attempt, payload, action = msg
        outcome, value, error, duration, spans = run_attempt(
            fn, payload, action
        )
        rec = TaskResult(
            task_id, outcome, value, error, attempt, duration
        ).to_record()
        _safe_send(conn, ("report", {"record": rec, "spans": spans}))


def _safe_send(conn: Connection, msg) -> None:
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):
        pass


class _Worker:
    """Parent-side handle on one pool process; ``entry`` is its task."""

    __slots__ = ("proc", "conn", "ready", "entry")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.entry: Optional[_Entry] = None


class _Entry:
    """One task's row in the :class:`TaskTable`."""

    __slots__ = ("task", "wire", "status", "slot", "attempt", "started",
                 "deadline", "not_before", "duration", "kills")

    def __init__(self, task: Task, wire: Any) -> None:
        self.task = task
        #: the payload as shipped to a remote node (JSON-encoded)
        self.wire = wire
        #: queued | demoted (queued for the driver only) | running | done
        self.status = "queued"
        #: _DRIVER, a pool _Worker or a node id while running
        self.slot: Any = None
        #: attempts dispatched so far, on any slot
        self.attempt = 0
        self.started = 0.0
        self.deadline = _INFINITY
        self.not_before = 0.0
        #: accumulated across failed attempts
        self.duration = 0.0
        #: attempts that killed their pool worker (the poison breaker)
        self.kills = 0


class TaskTable:
    """One run's per-task state, shared by every slot kind.

    The driver and the fabric coordinator's handler threads both operate
    on it, always under :attr:`lock`.  ``queue`` holds the ids of
    ``queued`` entries (any slot), ``demoted`` those only the driver may
    run, and ``inbox`` the remote reports accepted for settling.
    """

    def __init__(
        self, tasks: Iterable[Task],
        encode: Callable[[Any], Any] = lambda payload: payload,
    ) -> None:
        self.lock = threading.Condition()
        self.states: Dict[str, _Entry] = {
            t.id: _Entry(t, encode(t.payload)) for t in tasks
        }
        self.queue: Deque[str] = deque(self.states)
        self.demoted: Deque[str] = deque()
        self.inbox: List[Tuple[str, dict, list]] = []
        self.draining = False

    def _ids(self, status: str) -> Deque[str]:
        return self.demoted if status == "demoted" else self.queue

    def pop(
        self, status: str, slot: Any, now: float,
        deadline: float = _INFINITY,
    ) -> Optional[_Entry]:
        """Start the first runnable ``status`` entry on ``slot``."""
        with self.lock:
            ids = self._ids(status)
            for _ in range(len(ids)):
                entry = self.states[ids.popleft()]
                if entry.not_before <= now:
                    entry.status, entry.slot = "running", slot
                    entry.attempt += 1
                    entry.started, entry.deadline = now, deadline
                    return entry
                ids.append(entry.task.id)
            return None

    def push(
        self, entry: _Entry, status: str, not_before: float = 0.0
    ) -> None:
        """Return an entry to the ``queued`` or ``demoted`` queue."""
        with self.lock:
            entry.status, entry.slot = status, None
            entry.deadline, entry.not_before = _INFINITY, not_before
            self._ids(status).append(entry.task.id)
            self.lock.notify_all()

    def finish(self, entry: _Entry) -> None:
        with self.lock:
            entry.status, entry.slot = "done", None

    def drain(self) -> None:
        """Stop every slot from starting new work."""
        with self.lock:
            self.draining = True

    def outstanding(self) -> int:
        """Entries running on a pool worker or a remote node."""
        with self.lock:
            return sum(
                1 for e in self.states.values()
                if e.status == "running" and e.slot is not _DRIVER
            )

    def wake(self, now: float) -> float:
        """The earliest future not-before time of a queued entry."""
        with self.lock:
            times = [
                self.states[i].not_before
                for ids in (self.queue, self.demoted) for i in ids
            ]
        return min((t for t in times if t > now), default=_INFINITY)

    def wait(self, timeout: float) -> None:
        with self.lock:
            self.lock.wait(timeout)

    # -- remote slots (called from the fabric coordinator's handlers) -------

    def lease(
        self, node: str, want: int, ttl: float
    ) -> List[Dict[str, Any]]:
        """Grant up to ``want`` queued tasks to ``node`` for ``ttl``."""
        granted = []
        now = time.monotonic()
        with self.lock:
            while not self.draining and len(granted) < want:
                entry = self.pop("queued", node, now, now + ttl)
                if entry is None:
                    break
                granted.append({
                    "id": entry.task.id,
                    "payload": entry.wire,
                    "meta": entry.task.meta,
                    "attempt": entry.attempt,
                })
        get_metrics().counter("fabric.leases").inc(len(granted))
        return granted

    def renew(
        self, node: str, ids: Iterable[str], ttl: float,
        timeout: Optional[float],
    ) -> int:
        """Extend ``node``'s leases; a task past its wall-clock budget
        stops renewing, so a wedged node cannot hold it forever."""
        now = time.monotonic()
        renewed = 0
        with self.lock:
            for task_id in ids:
                entry = self.states.get(task_id)
                if entry is None or entry.status != "running":
                    continue
                if entry.slot != node:
                    continue  # lease moved on; the late node's report will dup
                deadline = now + ttl
                if timeout is not None:
                    deadline = min(deadline, entry.started + timeout + ttl)
                entry.deadline = max(entry.deadline, deadline)
                renewed += 1
        return renewed

    def accept(self, node: str, rec: dict, spans: list) -> None:
        """First report wins: queue it for the driver to settle.

        A report for a task that is settled, finalized or claimed by the
        driver counts as ``fabric.duplicate_results`` and is dropped.
        """
        with self.lock:
            entry = self.states.get(rec["task"])
            if entry is None:
                return  # not this round's task (stale worker)
            if entry.status == "done" or entry.slot is _DRIVER:
                get_metrics().counter("fabric.duplicate_results").inc()
                return
            if entry.status in ("queued", "demoted"):
                self._ids(entry.status).remove(entry.task.id)
            entry.status, entry.slot = "done", None
            entry.deadline = _INFINITY
            self.inbox.append((node, rec, spans))
            self.lock.notify_all()

    def take_inbox(self) -> List[Tuple[str, dict, list]]:
        with self.lock:
            batch, self.inbox = self.inbox, []
            return batch

    def release(self, node: str) -> int:
        """Re-queue every lease ``node`` holds (it said goodbye)."""
        with self.lock:
            held = [
                e for e in self.states.values()
                if e.status == "running" and e.slot == node
            ]
            for entry in held:
                self.push(entry, "queued")
            return len(held)

    def expire_leases(
        self, retry: RetryPolicy, now: Optional[float] = None
    ) -> None:
        """Expire overdue leases: re-queue, or demote once retries are spent.

        A lease expiry is the fabric's ``worker_died``: the node may be
        dead, partitioned, or blacked out.  The retry policy governs
        further *remote* dispatches; once spent (or while draining), the
        task is demoted to the driver.
        """
        now = time.monotonic() if now is None else now
        with self.lock:
            for entry in list(self.states.values()):
                if entry.status != "running" or now < entry.deadline:
                    continue
                get_metrics().counter("fabric.lease_expired").inc()
                get_tracer().add_event(
                    "lease_expired", 0.0,
                    id=entry.task.id, node=entry.slot, dispatch=entry.attempt,
                )
                if not self.draining and retry.should_retry(
                    TaskOutcome.WORKER_DIED, entry.attempt
                ):
                    self.push(entry, "queued")
                else:
                    self.push(entry, "demoted")
                    get_metrics().counter("fabric.demoted_local").inc()

    def demote_one(self) -> bool:
        """Move the first queued task to the driver's own queue."""
        with self.lock:
            if not self.queue:
                return False
            self.push(self.states[self.queue.popleft()], "demoted")
        get_metrics().counter("fabric.demoted_local").inc()
        return True


def load_journaled_results(
    journal: Optional[Journal], tasks: List[Task]
) -> "tuple[Dict[str, TaskResult], List[Task]]":
    """Split ``tasks`` into (journaled results, still-pending tasks).

    A journaled record is returned as-is (never re-executed), a record
    that cannot be rebuilt is quarantined and its task re-run, and the
    ``runtime.tasks_resumed`` counter records how much work the journal
    already covered.  A record whose ``meta`` differs from its task's
    (compared as JSON; skipped when either has none) was written under
    another configuration: :class:`ExecutorError`, before any work runs.
    """
    results: Dict[str, TaskResult] = {}
    pending: List[Task] = []
    journaled = journal.load() if journal else {}
    for t in tasks:
        rec = journaled.get(t.id)
        if rec is None:
            pending.append(t)
            continue
        meta = json.loads(json.dumps(t.meta)) if t.meta else None
        if meta and rec.get("meta") and meta != rec["meta"]:
            raise ExecutorError(
                f"journal {journal.path} holds task {t.id!r} under "
                f"another configuration (journaled meta {rec['meta']}, "
                f"this run's {meta}); resume with the journal's "
                "configuration or use a new journal"
            )
        try:
            results[t.id] = TaskResult.from_record(rec)
        except JournalRecordError:
            journal.quarantine_record(rec, "bad_record")
            warnings.warn(
                f"journal record for task {t.id!r} is unusable; "
                "quarantined and re-running the task",
                stacklevel=2,
            )
            pending.append(t)
    if results:
        # Resumed-from-journal work is visible to the caller (e.g. the
        # CLI's "resumed N completed tasks" notice) via this counter.
        get_metrics().counter("runtime.tasks_resumed").inc(len(results))
    return results, pending


class Executor:
    """Runs tasks on the driver, a spawn pool or a fabric fleet, with
    retries, timeouts and journaling.  See the module docstring."""

    def __init__(
        self,
        fn: Optional[Callable[[Any], Any]] = None,
        *,
        jobs: int = 0,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[Union[Journal, PathLike]] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple = (),
        progress: Union[bool, str] = False,
        chaos: Optional[ChaosPolicy] = None,
        heartbeat: float = 5.0,
        drain_signals: bool = True,
        fabric: Any = None,
        job: Any = None,
        worker_grace: float = 1.5,
        stop_after: Optional[int] = None,
    ) -> None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = inline)")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 seconds")
        if heartbeat <= 0:
            raise ValueError("heartbeat must be > 0 seconds")
        if fabric is not None and (job is None or jobs):
            raise ValueError(
                "fabric mode needs job= and runs demoted tasks on the "
                "driver (jobs=0)"
            )
        #: task function; with a fabric and no fn, the job's entrypoint
        #: is built on the driver (only if a task is demoted) and fed the
        #: JSON payload
        self.fn = fn
        self.jobs = jobs
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.journal = (
            journal if isinstance(journal, Journal) or journal is None
            else Journal(journal, chaos=chaos)
        )
        if self.journal is not None and chaos is not None:
            self.journal.chaos = chaos
        self.initializer = initializer
        self.initargs = initargs
        #: False = silent; True or a label string = periodic progress
        #: snapshot lines (with ETA) on stderr while tasks run
        self.progress = progress
        #: dev-only runtime self-fault-injection (None = off)
        self.chaos = chaos
        #: seconds between pool liveness sweeps
        self.heartbeat = heartbeat
        #: install SIGINT/SIGTERM drain handlers around :meth:`run`
        #: (main thread only; a second signal aborts immediately)
        self.drain_signals = drain_signals
        #: a FabricCoordinator leasing tasks to remote nodes, and the
        #: JobSpec those nodes rebuild the task function from
        self.fabric = fabric
        self.job = job
        #: demote queued work to the driver after this long without
        #: hearing from any fabric node
        self.worker_grace = worker_grace
        #: test hook: drain after this many newly finalized results
        self.stop_after = stop_after
        # per-run state, set by _start
        self._table = TaskTable(())
        self._results: Dict[str, TaskResult] = {}
        self._fn: Optional[Callable[[Any], Any]] = None
        self._wire = False
        self._meter: Optional[ProgressMeter] = None
        self._draining = False
        self._finalized = 0
        if timeout is not None and jobs == 0 and fabric is None:
            get_metrics().counter("runtime.timeout_unenforced").inc()
            global _INLINE_TIMEOUT_WARNED
            if not _INLINE_TIMEOUT_WARNED:
                _INLINE_TIMEOUT_WARNED = True
                warnings.warn(
                    "timeout requires process isolation (jobs >= 1); "
                    "inline tasks will not be interrupted",
                    stacklevel=2,
                )

    @property
    def inline(self) -> bool:
        return self.jobs == 0

    # -- public API ---------------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> Dict[str, TaskResult]:
        """Execute ``tasks``, returning final results keyed by task id.

        Tasks already present in the journal are *not* re-executed; their
        journaled results are returned as-is, which is what makes a killed
        campaign resumable and deterministic.  A journaled record that
        cannot be rebuilt (hand-edited, wrong types) is quarantined and
        its task re-run.  A SIGINT/SIGTERM during the run drains in-flight
        work, seals the journal and raises :class:`CampaignInterrupted`.
        """
        if self.fn is None and self.fabric is None:
            raise ValueError("no task function: pass fn to Executor")
        tasks = list(tasks)
        if len({t.id for t in tasks}) != len(tasks):
            raise ValueError("duplicate task ids")
        results, pending = load_journaled_results(self.journal, tasks)
        if not pending:
            return results
        table = self._start(pending, results)
        saved_handlers = self._install_signal_handlers()
        try:
            tracer = NULL_TRACER if self.fabric is None else get_tracer()
            with tracer.span(
                "fabric", job=self.job.kind if self.job else None,
                tasks=len(pending),
            ):
                self._drive(table, len(tasks))
        finally:
            self._stop()
            self._restore_signal_handlers(saved_handlers)
        if self.journal is not None and getattr(self.fabric, "shard_dir", None):
            # Fold the nodes' shard journals into the canonical one.
            from .fabric.merge import merge_shards

            merge_shards(self.journal, self.fabric.shard_dir)
        if self._draining and len(results) < len(tasks):
            if self.journal is not None:
                self.journal.close()  # seal: every record is durable
            get_metrics().counter("runtime.drains").inc()
            raise CampaignInterrupted(
                len(results), len(tasks),
                self.journal.path if self.journal else None,
            )
        return results

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- run framing ----------------------------------------------------------

    def _start(
        self,
        pending: List[Task],
        results: Optional[Dict[str, TaskResult]] = None,
    ) -> TaskTable:
        """Open a run: the task table (published to the fabric, if any)
        and the per-run state every slot settles into."""
        self._fn = self.fn
        #: the job's own entrypoint takes the JSON (wire) payload
        self._wire = self.fn is None
        self._results = {} if results is None else results
        self._draining = False
        self._finalized = 0
        self._meter = None
        if self.progress:
            label = (
                self.progress if isinstance(self.progress, str) else "tasks"
            )
            self._meter = ProgressMeter(len(pending), label)
        if self.fabric is None:
            self._table = TaskTable(pending)
        else:
            self.fabric.start()
            self._table = self.fabric.begin_round(
                self.job, pending, timeout=self.timeout
            )
        return self._table

    def _stop(self) -> None:
        if self.fabric is not None:
            self.fabric.end_round()
        if self._meter is not None:
            self._meter.finish()
            self._meter = None

    def _drive(self, table: TaskTable, total: int) -> None:
        """Dispatch, wait and settle until every task is final or drained."""
        workers = [
            self._spawn() for _ in range(min(self.jobs, len(table.states)))
        ]
        if not workers and self.initializer is not None:
            self.initializer(*self.initargs)
        own = "queued" if self.fabric is None else "demoted"
        drain_until = None
        try:
            while len(self._results) < total:
                now = time.monotonic()
                if self.fabric is not None:
                    self._settle_inbox(table, now)
                if self._draining:
                    if drain_until is None:
                        table.drain()
                        drain_until = now + (
                            self.fabric.lease_ttl if self.fabric is not None
                            else _INFINITY
                        )
                    if not table.outstanding() or now >= drain_until:
                        return  # drained: run() raises CampaignInterrupted
                elif not workers:
                    entry = table.pop(own, _DRIVER, now)
                    if entry is not None:
                        self._run_on_driver(entry)
                        continue
                    if self.fabric is not None and (
                        self.fabric.seconds_since_contact()
                        > self.worker_grace
                    ) and table.demote_one():
                        continue
                else:
                    self._dispatch(table, workers, now)
                if workers:
                    self._pump(table, workers)
                elif self.fabric is not None:
                    table.wait(0.05)
                else:
                    time.sleep(max(0.0, min(table.wake(now) - now, 0.05)))
        finally:
            self._shutdown(workers)

    # -- signal drain -------------------------------------------------------

    def _install_signal_handlers(self):
        if not self.drain_signals:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None
        saved = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                saved[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return saved

    @staticmethod
    def _restore_signal_handlers(saved) -> None:
        if not saved:
            return
        for sig, handler in saved.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _on_signal(self, signum, frame) -> None:
        if self._draining:
            raise KeyboardInterrupt  # second signal: abort immediately
        self._draining = True
        print(
            "\nsignal received: draining — letting in-flight tasks finish "
            "and sealing the journal (signal again to abort)",
            file=sys.stderr,
        )

    # -- the settle path ----------------------------------------------------

    def _on_report(
        self, entry: _Entry, rec: dict, spans: list, node: Optional[str]
    ) -> None:
        """Settle one report record, from a pool worker or a remote node."""
        try:
            result = TaskResult.from_record(rec)
        except JournalRecordError:
            # A node shipped garbage: an infra failure of that attempt.
            result = TaskResult(
                entry.task.id, TaskOutcome.INFRA_ERROR, None,
                f"unusable report from node {node}",
            )
        tracer = get_tracer()
        if tracer and spans:
            # Fold the node's interior spans into the session trace.
            base = time.perf_counter() - tracer.t0 - result.duration
            tracer.merge_foreign(spans, offset=base, node=node)
            get_metrics().counter("fabric.worker_spans_merged").inc(
                len(spans)
            )
        entry.attempt = max(entry.attempt, result.attempts)
        self._settle(
            entry, result.outcome, result.value, result.error,
            result.duration, node=node,
        )

    def _settle(
        self,
        entry: _Entry,
        outcome: str,
        value: Any,
        error: str,
        duration: float,
        *,
        node: Optional[str] = None,
        killed: bool = False,
    ) -> None:
        """Retry an attempt if policy allows, else finalise it.

        Attempts that killed their pool worker (``killed``: death or
        timeout) feed the per-task circuit breaker: a task that keeps
        destroying workers is quarantined as ``POISONED`` before it can
        exhaust its retry budget on further carnage.
        """
        duration += entry.duration
        mx = get_metrics()
        if killed:
            mx.counter(
                "runtime.timeouts" if outcome == TaskOutcome.TIMEOUT
                else "runtime.worker_deaths"
            ).inc()
            entry.kills += 1
            if self.retry.is_poisoned(entry.kills):
                mx.counter("runtime.tasks_poisoned").inc()
                mx.gauge("runtime.breaker_tripped").set(
                    sum(
                        1 for e in self._table.states.values()
                        if self.retry.is_poisoned(e.kills)
                    )
                )
                get_tracer().add_event(
                    "poisoned", duration, id=entry.task.id, kills=entry.kills,
                )
                outcome, error = TaskOutcome.POISONED, (
                    f"quarantined after killing {entry.kills} workers "
                    f"(breaker threshold {self.retry.poison_threshold}); "
                    f"last: {error}"
                )
        if outcome != TaskOutcome.OK and self.retry.should_retry(
            outcome, entry.attempt
        ):
            mx.counter("runtime.retries").inc()
            entry.duration = duration
            own = self.fabric is not None and entry.slot is _DRIVER
            self._table.push(
                entry, "demoted" if own else "queued",
                time.monotonic() + self.retry.delay(entry.task.id, entry.attempt),
            )
            return
        self._finalize(
            entry,
            TaskResult(entry.task.id, outcome, value, error,
                       attempts=entry.attempt, duration=duration),
            node,
        )

    def _finalize(
        self, entry: _Entry, result: TaskResult, node: Optional[str]
    ) -> None:
        self._table.finish(entry)
        self._results[result.task_id] = result
        if self.journal is not None:
            record = result.to_record(entry.task.meta)
            if node is not None:
                record["node"] = node
            try:
                self.journal.append(record)
            except JournalWriteError as exc:
                # The checkpoint chain is broken: abort rather than keep
                # computing results that would be lost on the next kill.
                # Everything already journaled is durable, so a resume
                # with the same journal loses only this task.
                raise ExecutorError(
                    "journal append failed; campaign aborted so completed "
                    f"work stays resumable: {exc}"
                ) from exc
        mx = get_metrics()
        if mx:
            mx.counter("runtime.tasks_completed").inc()
            mx.counter(f"runtime.outcome.{result.outcome}").inc()
            mx.histogram("runtime.task_seconds").observe(result.duration)
        provenance = {} if node is None else {"node": node}
        get_tracer().add_event(
            "task", result.duration, id=result.task_id,
            outcome=result.outcome, attempts=result.attempts, **provenance,
        )
        if self._meter is not None:
            self._meter.advance()
        self._finalized += 1
        if self.stop_after is not None and self._finalized >= self.stop_after:
            self._draining = True

    def _chaos_action(self, task_id: str, attempt: int):
        """The chaos directive (if any) for one attempt, with telemetry.

        The driver cannot survive a crash or hang of itself, so those
        directives only apply under process isolation; the chaos suite
        kills inline drivers externally instead.
        """
        if self.chaos is None:
            return None
        action = self.chaos.task_action(task_id, attempt)
        if self.inline and action is not None and action[0] in (
            "crash", "hang"
        ):
            action = None
        if action is not None:
            point = _CHAOS_POINTS[action[0]]
            get_metrics().counter(f"chaos.{point}").inc()
            get_tracer().add_event(
                "chaos", 0.0, point=point, id=task_id, attempt=attempt,
            )
        return action

    # -- driver and remote slots ------------------------------------------------

    def _run_on_driver(self, entry: _Entry) -> None:
        if self._fn is None:
            # Lazy: building a job's entrypoint can be costly (an
            # injection job's golden run), so only demotion pays it.
            from .fabric.tasks import resolve

            self._fn = resolve(self.job).build(self.job.ctx)
        payload = entry.wire if self._wire else entry.task.payload
        action = self._chaos_action(entry.task.id, entry.attempt)
        outcome, value, error, duration, _ = run_attempt(
            self._fn, payload, action
        )
        self._settle(
            entry, outcome, value, error, duration,
            node=None if self.fabric is None else "local",
        )

    def _settle_inbox(self, table: TaskTable, now: float) -> None:
        table.expire_leases(self.retry, now)
        for node, rec, spans in table.take_inbox():
            self._on_report(table.states[rec["task"]], rec, spans, node)

    # -- pool slots -----------------------------------------------------------

    def _spawn(self) -> _Worker:
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._fn, self.initializer, self.initargs),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _respawn(self) -> _Worker:
        """Replace a dead worker mid-campaign (counted, no operator action)."""
        get_metrics().counter("runtime.workers_respawned").inc()
        return self._spawn()

    def _dispatch(
        self, table: TaskTable, workers: List[_Worker], now: float
    ) -> None:
        """Hand runnable tasks to idle workers."""
        deadline = _INFINITY if self.timeout is None else now + self.timeout
        for i, w in enumerate(workers):
            if not w.ready or w.entry is not None:
                continue
            entry = table.pop("queued", w, now, deadline)
            if entry is None:
                break
            action = self._chaos_action(entry.task.id, entry.attempt)
            try:
                w.conn.send(
                    (entry.task.id, entry.attempt, entry.task.payload, action)
                )
            except (BrokenPipeError, OSError):
                # Worker silently died while idle: replace it, requeue
                # the never-started attempt.
                self._reap(w)
                workers[i] = self._respawn()
                entry.attempt -= 1
                table.push(entry, "queued")
                continue
            w.entry = entry

    def _pump(self, table: TaskTable, workers: List[_Worker]) -> None:
        """Wait for worker messages / deadlines and process them."""
        now = time.monotonic()
        busy = [w.entry.deadline for w in workers if w.entry is not None]
        wake = min([table.wake(now)] + busy)
        timeout = max(0.0, min(self.heartbeat, wake - now))
        conns = [w.conn for w in workers if not w.ready or w.entry is not None]
        if conns:
            ready = _conn_wait(conns, timeout=timeout)
        else:
            time.sleep(min(timeout, 0.05))
            ready = []
        for conn in ready:
            w = next(w for w in workers if w.conn is conn)
            self._on_message(w, workers)
        # Enforce wall-clock deadlines.
        now = time.monotonic()
        for i, w in enumerate(workers):
            entry = w.entry
            if entry is not None and now >= entry.deadline:
                self._reap(w)
                workers[i] = self._respawn()
                self._settle(
                    entry, TaskOutcome.TIMEOUT, None,
                    f"killed after {self.timeout:.3f}s wall-clock",
                    now - entry.started, killed=True,
                )
        # Heartbeat: catch workers that died without delivering pipe EOF
        # (fd leaked to a grandchild, exotic kills) and respawn them.
        self._sweep_dead_workers(workers)

    def _on_message(self, w: _Worker, workers: List[_Worker]) -> None:
        """Receive and act on one worker message (or its EOF)."""
        try:
            kind, data = w.conn.recv()
        except (EOFError, OSError):
            self._on_worker_exit(w, workers)
            return
        if kind == "ready":
            w.ready = True
        elif kind == "init_error":
            self._shutdown(workers)
            raise ExecutorError(f"worker initialisation failed: {data}")
        elif w.entry is not None:
            entry, w.entry = w.entry, None
            # the parent's clock (IPC included) times a pool attempt
            data["record"]["duration"] = time.monotonic() - entry.started
            self._on_report(entry, data["record"], data["spans"], None)

    def _sweep_dead_workers(self, workers: List[_Worker]) -> None:
        """Liveness sweep: handle workers whose process is gone.

        A worker that died after sending its last message still has that
        message buffered (``poll()`` is true) — drain it through the
        normal path, which then observes the EOF on the next sweep.
        """
        for w in list(workers):
            if w not in workers or w.proc.is_alive():
                continue
            if w.conn.poll():
                self._on_message(w, workers)
            else:
                self._on_worker_exit(w, workers)

    def _on_worker_exit(self, w: _Worker, workers: List[_Worker]) -> None:
        """The worker's pipe broke: it died (segfault, OOM-kill, exit)."""
        self._reap(w)
        if not w.ready:
            self._shutdown(workers)
            raise ExecutorError(
                "worker died during initialisation "
                f"(exit code {w.proc.exitcode})"
            )
        workers[workers.index(w)] = self._respawn()
        entry = w.entry
        if entry is not None:
            self._settle(
                entry, TaskOutcome.WORKER_DIED, None,
                f"worker exited with code {w.proc.exitcode}",
                time.monotonic() - entry.started, killed=True,
            )

    def _reap(self, w: _Worker) -> None:
        try:
            w.conn.close()
        except OSError:
            pass
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(5)

    def _shutdown(self, workers: List[_Worker]) -> None:
        for w in workers:
            _safe_send(w.conn, None)
        deadline = time.monotonic() + 2.0
        for w in workers:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            self._reap(w)
