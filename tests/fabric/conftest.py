"""Shared fixtures and helpers for the distributed-fabric suite.

Two fleet styles:

* **thread fleets** (`thread_worker`) run a :class:`FabricWorker` inside
  the test process — fast, no spawn cost, used for protocol/executor
  semantics.
* **process fleets** (`spawn_worker`) run :func:`run_worker` in a real
  spawned process — required for node-death tests (``os._exit`` /
  SIGKILL must kill a *process*, not a thread).

Everything is seeded: chaos workers take an explicit ``chaos_seed`` so a
failure replays exactly.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.runtime import Task, TaskOutcome
from repro.runtime.fabric import (
    FabricCoordinator,
    FabricWorker,
    run_worker,
    stub_job,
)

#: the single knob the chaos acceptance tests are parameterised by:
#: REPRO_FABRIC_SEED picks the base failure schedule (the fabric-chaos
#: CI job runs two fixed bases), and every assertion holds for any seed.
_BASE_SEED = int(os.environ.get("REPRO_FABRIC_SEED", "1"))
FABRIC_CHAOS_SEEDS = (_BASE_SEED, _BASE_SEED + 1)


def stub_tasks(prefix, n):
    """``n`` stub tasks whose payloads are their own indices."""
    return [Task(f"{prefix}/{i:02d}", i) for i in range(n)]


def expected_map(tasks, mul=2):
    """The fault-free result map every fabric run must converge to."""
    return {t.id: (TaskOutcome.OK, t.payload * mul) for t in tasks}


def outcome_map(results):
    return {k: (r.outcome, r.value) for k, r in results.items()}


def journaled_ids(path):
    """Task ids of every well-formed journal line (raw file order, no
    dedup) — the 'zero lost, zero duplicated records' check."""
    ids = []
    for line in path.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and isinstance(rec.get("task"), str):
            ids.append(rec["task"])
    return ids


@pytest.fixture
def coordinator():
    """A started coordinator with test-friendly (short) lease timing."""
    coord = FabricCoordinator(lease_ttl=1.0, lease_batch=2,
                              poll_interval=0.02)
    coord.start()
    yield coord
    coord.stop()


class ThreadWorker:
    """A FabricWorker served from a daemon thread, joined on exit."""

    def __init__(self, address, node, **kwargs):
        kwargs.setdefault("rpc_timeout", 2.0)
        self.worker = FabricWorker(address, node, **kwargs)
        self._thread = threading.Thread(
            target=self.worker.serve,
            kwargs={
                "idle_exit": 30.0,
                "register_timeout": 5.0,
                "orphan_exit": 10.0,
            },
            name=f"test-{node}",
            daemon=True,
        )

    def start(self):
        self._thread.start()
        return self

    def stop(self, timeout=5.0):
        self.worker.stop()
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "worker thread failed to exit"


@pytest.fixture
def thread_fleet(coordinator):
    """Factory: start N thread workers against ``coordinator``."""
    fleet = []

    def _spawn(n=2, **kwargs):
        for i in range(n):
            w = ThreadWorker(
                coordinator.address, f"t{i}", **kwargs
            ).start()
            fleet.append(w)
        return fleet

    yield _spawn
    for w in fleet:
        w.stop()


def spawn_worker(address, node, **kwargs):
    """One real worker process (spawn context, so no inherited state)."""
    kwargs.setdefault("idle_exit", 10.0)
    kwargs.setdefault("register_timeout", 10.0)
    kwargs.setdefault("orphan_exit", 5.0)
    kwargs.setdefault("rpc_timeout", 2.0)
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(
        target=run_worker, args=(tuple(address), node), kwargs=kwargs,
        daemon=True,
    )
    proc.start()
    return proc


def wait_for(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` until truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within %.1fs" % timeout)


__all__ = [
    "FABRIC_CHAOS_SEEDS",
    "FabricCoordinator",
    "ThreadWorker",
    "expected_map",
    "journaled_ids",
    "outcome_map",
    "spawn_worker",
    "stub_job",
    "stub_tasks",
    "wait_for",
]
