"""The fabric worker node: lease, execute, journal locally, report.

A :class:`FabricWorker` polls its coordinator for task leases, rebuilds
the task function from the leased :class:`JobSpec` (cached per job
digest, so an injection job pays its golden run once per node), executes
each task inline, and *appends the record to its local shard journal
before reporting it* — that ordering is the replication: once a task has
run, its result survives the loss of either end of the link.

Fault behaviour:

* **heartbeats** — a daemon thread renews the leases of every held task
  at ``lease_ttl / 3``; if the thread is blacked out (chaos) or the node
  dies, the coordinator's lease sweep re-dispatches the work.
* **partition tolerance** — a report that cannot be delivered stays in
  the outbox and is retried before each poll; heartbeats keep the lease
  alive meanwhile (up to the coordinator's per-task timeout cap), and if
  the lease expires anyway the coordinator's idempotent finalize drops
  the eventual duplicate.
* **node-level chaos** — a :class:`~repro.runtime.chaos.ChaosPolicy`
  can kill the node at a dispatch (``node_kill`` — the process exits
  hard, exactly like SIGKILL), drop/delay/duplicate its data-plane RPCs
  and partition whole windows of them (via the RPC client), and black
  out heartbeat windows (``heartbeat_blackout``, applied here).  The
  data plane and the heartbeat plane fail independently, which is what
  makes "reports lost but lease alive" and "lease lost but node healthy"
  both reachable states in tests.
* **graceful exit** — on shutdown the worker flushes its outbox and
  sends ``goodbye`` so un-started leases requeue immediately instead of
  waiting out their TTL.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ... import obs
from ...obs import get_metrics, get_tracer
from ..chaos import ChaosPolicy, ChaosSpec
from ..errors import TaskOutcome
from ..executor import TaskResult, run_attempt
from ..journal import Journal, PathLike
from ..retry import RetryPolicy
from . import tasks as task_registry
from .merge import SPAN_SHARD_SUFFIX
from .protocol import JobSpec, RpcError, RpcUnavailable
from .rpc import DEFAULT_RPC_TIMEOUT, RpcClient

__all__ = ["FabricWorker", "run_worker"]


class FabricWorker:
    """One worker node: see the module docstring for semantics."""

    def __init__(
        self,
        address: Tuple[str, int],
        node: str,
        *,
        shard_dir: Optional[PathLike] = None,
        chaos: Optional[ChaosPolicy] = None,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        rpc_retry: Optional[RetryPolicy] = None,
        max_tasks: int = 2,
        capture_spans: bool = False,
    ) -> None:
        if not node:
            raise ValueError("worker node id must be non-empty")
        self.node = node
        self.chaos = chaos
        self.max_tasks = max_tasks
        self.capture_spans = capture_spans
        #: data plane: register/lease/report/goodbye (chaos applies here)
        self.client = RpcClient(
            tuple(address), node,
            timeout=rpc_timeout, retry=rpc_retry, chaos=chaos,
        )
        #: heartbeat plane: chaos-free transport; blackout chaos skips
        #: whole beats instead (see module docstring)
        self.hb_client = RpcClient(
            tuple(address), node, timeout=min(2.0, rpc_timeout),
        )
        self.shard_journal: Optional[Journal] = None
        self.span_shard: Optional[Path] = None
        if shard_dir is not None:
            root = Path(shard_dir)
            root.mkdir(parents=True, exist_ok=True)
            self.shard_journal = Journal(root / f"{node}.jsonl")
            self.span_shard = root / f"{node}{SPAN_SHARD_SUFFIX}"
        self.lease_ttl = 4.0
        self.poll = 0.15
        self._seq = 0
        self._fns: Dict[str, Any] = {}
        self._outbox: List[Dict[str, Any]] = []
        self._held: set = set()
        self._held_lock = threading.Lock()
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Ask :meth:`serve` (possibly from another thread) to exit."""
        self._stop.set()

    def serve(
        self,
        *,
        idle_exit: Optional[float] = None,
        register_timeout: float = 30.0,
        orphan_exit: Optional[float] = 60.0,
    ) -> None:
        """Run the poll/execute/report loop until stopped.

        ``idle_exit`` exits after that many seconds without work (used by
        test fleets and one-shot CLIs); ``register_timeout`` bounds how
        long an orphan worker waits for a coordinator to appear; and
        ``orphan_exit`` exits once the coordinator has been unreachable
        that long (a partition this wide means the leases are long gone
        anyway — the shard journal carries anything unreported).
        """
        if self.capture_spans and not get_tracer():
            # Interior spans (simulate/inject/...) record to the global
            # tracer; a dedicated worker process installs its own.
            obs.enable(metrics=False, tracing=True)
        if not self._register(register_timeout):
            return
        # snapshot the interval before the thread starts: lease_ttl is
        # only rewritten by _register, which has already returned
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(max(0.05, self.lease_ttl / 3.0),),
            name=f"fabric-hb-{self.node}",
            daemon=True,
        )
        hb.start()
        idle_since: Optional[float] = None
        last_ok = time.monotonic()
        try:
            while not self._stop.is_set():
                self._flush_reports()
                try:
                    lease = self.client.call(
                        "lease", {"max_tasks": self.max_tasks}
                    )
                except RpcError:
                    now = time.monotonic()
                    if (
                        orphan_exit is not None
                        and now - last_ok >= orphan_exit
                    ):
                        break
                    self._stop.wait(self.poll)
                    continue
                last_ok = time.monotonic()
                if lease.get("shutdown"):
                    break
                tasks = lease.get("tasks") or []
                if not tasks:
                    if idle_exit is not None:
                        now = time.monotonic()
                        if idle_since is None:
                            idle_since = now
                        elif now - idle_since >= idle_exit:
                            break
                    self._stop.wait(float(lease.get("poll", self.poll)))
                    continue
                idle_since = None
                self._execute_batch(lease, tasks)
        finally:
            self._stop.set()
            hb.join(timeout=2.0)
            self._flush_reports()
            try:
                self.client.call("goodbye", {})
            except RpcError:
                pass
            if self.shard_journal is not None:
                self.shard_journal.close()

    # -- control plane -------------------------------------------------------

    def _register(self, register_timeout: float) -> bool:
        deadline = time.monotonic() + register_timeout
        while not self._stop.is_set():
            try:
                reg = self.client.call("register", {})
            except RpcError:
                if time.monotonic() >= deadline:
                    return False
                self._stop.wait(0.2)
                continue
            self.lease_ttl = float(reg.get("lease_ttl", self.lease_ttl))
            self.poll = float(reg.get("poll_interval", self.poll))
            return True
        return False

    def _heartbeat_loop(self, interval: float) -> None:
        beat = 0
        while not self._stop.wait(interval):
            beat += 1
            if self.chaos is not None and self.chaos.heartbeat_blackout_active(
                self.node, beat
            ):
                get_metrics().counter("chaos.heartbeat_blackout").inc()
                continue
            with self._held_lock:
                ids = sorted(self._held)
            if not ids:
                continue
            try:
                self.hb_client.call("heartbeat", {"tasks": ids})
            except RpcError:
                pass  # missed beat; the next one may land

    def _flush_reports(self) -> bool:
        """Deliver the outbox; returns True when it is empty."""
        if not self._outbox:
            return True
        try:
            resp = self.client.call("report", {"records": self._outbox})
        except RpcUnavailable:
            # Partitioned: keep the records (the shard journal already
            # holds them durably) and retry before the next poll.
            get_metrics().counter("fabric.reports_deferred").inc()
            return False
        except RpcError:
            # The coordinator rejected the batch outright: drop it — the
            # shard journal still holds every record for the merge path.
            get_metrics().counter("fabric.reports_rejected").inc()
            self._outbox = []
            return True
        acked = set(resp.get("acked") or [])
        self._outbox = [
            e for e in self._outbox if e["record"]["task"] not in acked
        ]
        with self._held_lock:
            self._held.difference_update(acked)
        return not self._outbox

    # -- execution -----------------------------------------------------------

    def _fn_for(self, job: JobSpec):
        fn = self._fns.get(job.digest)
        if fn is None:
            fn = task_registry.resolve(job).build(job.ctx)
            self._fns[job.digest] = fn
        return fn

    def _execute_batch(self, lease: Dict[str, Any], tasks: List[Dict]) -> None:
        with self._held_lock:
            self._held.update(t["id"] for t in tasks)
        try:
            job = JobSpec.from_dict(lease.get("job"))
            fn = self._fn_for(job)
        except Exception as exc:
            # The job cannot be rebuilt on this node (unknown kind, bad
            # context): report each task as an infra failure rather than
            # silently timing the leases out.
            error = f"job rebuild failed on {self.node}: " \
                    f"{type(exc).__name__}: {exc}"
            for t in tasks:
                self._queue_record(
                    t, TaskOutcome.INFRA_ERROR, None, error, 0.0, [],
                )
            self._flush_reports()
            return
        for t in tasks:
            if self._stop.is_set():
                return  # un-run leases simply expire and re-dispatch
            task_id = str(t["id"])
            attempt = int(t.get("attempt", 1))
            if self.chaos is not None and self.chaos.node_kill_action(
                task_id, attempt
            ):
                # Node death, the real thing: no goodbye, no flush — the
                # shard journal and the coordinator's lease sweep are
                # what recover from this.
                get_metrics().counter("chaos.node_kill").inc()
                os._exit(66)
            self._execute_one(fn, t, task_id)
            self._flush_reports()

    def _execute_one(self, fn, t: Dict, task_id: str) -> None:
        self._queue_record(t, *run_attempt(
            fn, t.get("payload"), span={"id": task_id, "node": self.node}
        ))

    def _queue_record(
        self,
        t: Dict,
        outcome: str,
        value: Any,
        error: str,
        duration: float,
        spans: List[Dict],
    ) -> None:
        task_id = str(t["id"])
        attempt = int(t.get("attempt", 1))
        result = TaskResult(
            task_id, outcome, value, error,
            attempts=attempt, duration=duration,
        )
        rec = result.to_record(t.get("meta"))
        rec["node"] = self.node
        self._seq += 1
        rec["seq"] = self._seq
        # Replicate FIRST: once this append returns, the record survives
        # the loss of this node, the link, or the coordinator.
        if self.shard_journal is not None:
            self.shard_journal.append(rec)
        if self.span_shard is not None and spans:
            with open(self.span_shard, "a", encoding="utf-8") as fh:
                fh.write(
                    json.dumps(
                        {"task": task_id, "node": self.node, "spans": spans},
                        sort_keys=True,
                    )
                    + "\n"
                )
        self._outbox.append({"record": rec, "spans": spans})
        get_metrics().counter("fabric.tasks_executed").inc()


def run_worker(
    address: Union[Tuple[str, int], Sequence],
    node: str,
    *,
    shard_dir: Optional[PathLike] = None,
    chaos_spec: Optional[Union[str, ChaosSpec]] = None,
    chaos_seed: int = 0,
    rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    max_tasks: int = 2,
    idle_exit: Optional[float] = None,
    capture_spans: bool = True,
    register_timeout: float = 30.0,
    orphan_exit: Optional[float] = 60.0,
) -> None:
    """Process entry point: build a worker and serve until told to stop.

    Pickles cleanly for ``multiprocessing`` spawn (chaos travels as a
    spec, not a policy) and doubles as the ``repro campaign --fabric
    worker`` implementation.
    """
    chaos = None
    if chaos_spec:
        spec = (
            ChaosSpec.from_string(chaos_spec)
            if isinstance(chaos_spec, str) else chaos_spec
        )
        if spec.any_enabled():
            chaos = ChaosPolicy(spec, seed=chaos_seed)
    host, port = address[0], int(address[1])
    worker = FabricWorker(
        (host, port), node,
        shard_dir=shard_dir, chaos=chaos, rpc_timeout=rpc_timeout,
        max_tasks=max_tasks, capture_spans=capture_spans,
    )
    worker.serve(
        idle_exit=idle_exit,
        register_timeout=register_timeout,
        orphan_exit=orphan_exit,
    )
