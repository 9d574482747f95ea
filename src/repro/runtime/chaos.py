"""Deterministic self-fault-injection for the campaign runtime.

The rest of this package injects faults into *simulated* hardware; this
module injects faults into the *runtime itself*, so the crash-consistency
and graceful-degradation claims of :mod:`repro.runtime` are adversarially
exercised instead of trusted (the way RepTFD replays transient faults at
hardware and OpenSEA checks protection circuits semi-formally).

A :class:`ChaosPolicy` is a seeded, pure decision engine: whether fault
``point`` fires for ``key`` is a function of ``(seed, point, key)`` only,
so one seed reproduces one exact failure schedule — a failing chaos run
is a bug report, not a flake.  Executor-side decisions are keyed on
``(task_id, attempt)``: a retry of the same task rolls fresh dice, which
is what lets a chaos-ridden campaign still converge to the fault-free
result, while a probability of 1.0 models a *poison* payload that kills
every worker it touches.

Chaos is **off by default everywhere**: the hooks in
:class:`~repro.runtime.executor.Executor` and
:class:`~repro.runtime.journal.Journal` accept ``chaos=None`` and cost a
single ``is None`` test when disabled.  The CLI exposes it behind the
dev-only ``--chaos-spec``/``--chaos-seed`` flags; resuming a killed
campaign should drop those flags, since journal decisions are keyed per
task and would otherwise replay the same write faults.

Fault points
------------

========== ================= ============================================
side       point             effect
========== ================= ============================================
executor   ``worker_crash``  worker ``os._exit``\\ s mid-task (hard death)
executor   ``worker_hang``   worker sleeps forever (reclaimed by timeout)
executor   ``slow_task``     worker sleeps ``slow_seconds`` before running
executor   ``task_error``    task raises :class:`ChaosError` (storm)
journal    ``journal_corrupt``  record bytes flipped on disk, run continues
journal    ``journal_truncate`` partial line written, then simulated crash
journal    ``journal_enospc``   append raises ``OSError(ENOSPC)``
journal    ``journal_eio``      append raises ``OSError(EIO)``
fabric     ``node_kill``     worker *node* ``os._exit``\\ s before a task
fabric     ``rpc_drop``      an RPC attempt vanishes (no request sent)
fabric     ``rpc_delay``     RPC delayed ``rpc_delay_seconds`` before send
fabric     ``rpc_dup``       request sent twice (tests idempotent handlers)
fabric     ``rpc_partition`` coordinator<->worker link down for a window
                             of ``partition_span`` consecutive RPCs
fabric     ``heartbeat_blackout`` a window of heartbeats silently skipped
store      ``store_locked``  a write txn begins with "database is locked"
store      ``store_enospc``  commit raises ``OSError(ENOSPC)`` mid-ingest
========== ================= ============================================

The fabric points (:mod:`repro.runtime.fabric`) model *node-level*
infrastructure failure: ``node_kill`` is keyed on ``(task id, dispatch)``
like the executor points, the RPC points on ``(node, seq)`` where ``seq``
is the node's monotonic RPC counter, and the two *window* points
(``rpc_partition``, ``heartbeat_blackout``) on ``(node, seq // span)`` so
one firing blacks out a contiguous stretch of traffic — a partition, not
a lone lost packet.

The store points model a *failing persistence dependency* (keyed on
the store's write-transaction counter; ``store_locked`` rolls fresh
dice per retry attempt so the locked-db retry converges exactly like a
chaos-ridden task retry does).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from .errors import InfraError

__all__ = ["ChaosError", "ChaosSpec", "ChaosPolicy", "apply_worker_action"]

#: fault points applied by the executor, keyed on (task id, attempt)
EXECUTOR_POINTS = ("worker_crash", "worker_hang", "task_error", "slow_task")
#: fault points applied by the journal, keyed on task id
JOURNAL_POINTS = (
    "journal_enospc", "journal_eio", "journal_truncate", "journal_corrupt"
)
#: node-level fault points applied by the distributed fabric
FABRIC_POINTS = (
    "node_kill", "rpc_drop", "rpc_delay", "rpc_dup", "rpc_partition",
    "heartbeat_blackout",
)
#: persistence fault points applied inside the results store
STORE_POINTS = ("store_locked", "store_enospc")
#: spec fields that are magnitudes, not probabilities
_MAGNITUDE_FIELDS = ("slow_seconds", "rpc_delay_seconds", "partition_span")


class ChaosError(InfraError):
    """The fault the ``task_error`` point raises inside a task.

    Subclasses :class:`InfraError` so the taxonomy reports it as
    ``infra_error`` — a harness failure, never a simulation verdict.
    """


@dataclass(frozen=True)
class ChaosSpec:
    """Per-point fault probabilities (all default 0.0 = never fire)."""

    worker_crash: float = 0.0
    worker_hang: float = 0.0
    task_error: float = 0.0
    slow_task: float = 0.0
    journal_corrupt: float = 0.0
    journal_truncate: float = 0.0
    journal_enospc: float = 0.0
    journal_eio: float = 0.0
    node_kill: float = 0.0
    rpc_drop: float = 0.0
    rpc_delay: float = 0.0
    rpc_dup: float = 0.0
    rpc_partition: float = 0.0
    heartbeat_blackout: float = 0.0
    store_locked: float = 0.0
    store_enospc: float = 0.0
    #: added latency when ``slow_task`` fires
    slow_seconds: float = 0.05
    #: added latency when ``rpc_delay`` fires
    rpc_delay_seconds: float = 0.02
    #: consecutive RPCs (or heartbeats) lost per partition/blackout window
    partition_span: int = 6

    def __post_init__(self) -> None:
        if self.partition_span < 1:
            raise ValueError("partition_span must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _MAGNITUDE_FIELDS:
                if value < 0:
                    raise ValueError(f"{f.name} must be >= 0")
            elif not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"chaos probability {f.name} must be in [0, 1], "
                    f"got {value}"
                )

    @classmethod
    def from_string(cls, text: str) -> "ChaosSpec":
        """Parse ``"worker_crash=0.2,journal_corrupt=0.1"`` (CLI form)."""
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, float] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep or name not in known:
                raise ValueError(
                    f"bad chaos spec item {item!r}; known points: "
                    + ", ".join(sorted(known))
                )
            try:
                kwargs[name] = (
                    int(value) if name == "partition_span" else float(value)
                )
            except ValueError:
                raise ValueError(f"bad chaos probability in {item!r}")
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def any_enabled(self) -> bool:
        """True when any fault point has a non-zero probability."""
        return any(
            getattr(self, f.name) for f in fields(self)
            if f.name not in _MAGNITUDE_FIELDS
        )


class ChaosPolicy:
    """Seeded decision engine mapping (point, key) -> fire / don't fire."""

    def __init__(self, spec: ChaosSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def __repr__(self) -> str:
        active = {
            k: v for k, v in self.spec.to_dict().items()
            if v and k != "slow_seconds"
        }
        return f"ChaosPolicy(seed={self.seed}, {active})"

    def _unit(self, point: str, key: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{point}:{key}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)

    def should(self, point: str, key: str) -> bool:
        """Whether fault ``point`` fires for ``key`` (pure, replayable)."""
        prob = getattr(self.spec, point)
        return prob > 0.0 and self._unit(point, key) < prob

    # -- executor side -------------------------------------------------------

    def task_action(
        self, task_id: str, attempt: int
    ) -> Optional[Tuple[str, float]]:
        """The chaos directive to ship with one task attempt, if any.

        At most one point fires per attempt; harsher faults win so a
        spec mixing several points still produces each failure shape.
        """
        key = f"{task_id}@{attempt}"
        if self.should("worker_crash", key):
            return ("crash", 0.0)
        if self.should("worker_hang", key):
            return ("hang", 0.0)
        if self.should("task_error", key):
            return ("error", 0.0)
        if self.should("slow_task", key):
            return ("slow", self.spec.slow_seconds)
        return None

    # -- journal side --------------------------------------------------------

    def journal_action(self, task_key: str) -> Optional[str]:
        """The fault to apply to one journal append, if any."""
        for point in JOURNAL_POINTS:
            if self.should(point, task_key):
                return point
        return None

    # -- fabric (node) side --------------------------------------------------

    def node_kill_action(self, task_id: str, dispatch: int) -> bool:
        """Whether the worker *node* dies before running this dispatch.

        Keyed on ``(task id, dispatch)`` — the coordinator's per-task
        dispatch counter — so a re-dispatched task rolls fresh dice and a
        chaos-ridden fabric campaign still converges, exactly like the
        executor's ``worker_crash`` point.
        """
        return self.should("node_kill", f"{task_id}@{dispatch}")

    def rpc_action(self, node: str, seq: int) -> Optional[Tuple[str, float]]:
        """The fault (if any) for RPC number ``seq`` from ``node``.

        ``rpc_partition`` wins and is keyed on the *window* ``seq //
        partition_span``, so when it fires every RPC in that window —
        leases, reports and heartbeats alike — fails with a connection
        error: a link partition, not a lost packet.  The per-RPC points
        (drop, dup, delay) are keyed on ``seq`` itself.
        """
        span = self.spec.partition_span
        if self.should("rpc_partition", f"{node}#{seq // span}"):
            return ("partition", 0.0)
        key = f"{node}#{seq}"
        if self.should("rpc_drop", key):
            return ("drop", 0.0)
        if self.should("rpc_dup", key):
            return ("dup", 0.0)
        if self.should("rpc_delay", key):
            return ("delay", self.spec.rpc_delay_seconds)
        return None

    # -- store (persistence) side --------------------------------------------

    def store_locked_active(self, seq: int, attempt: int) -> bool:
        """Whether write transaction ``seq`` hits "database is locked"
        on ``attempt``.

        Keyed per attempt, so the store's bounded deterministic-backoff
        retry rolls fresh dice and converges — while a probability of
        1.0 models a permanently locked database that exhausts it.
        """
        return self.should("store_locked", f"txn#{seq}@{attempt}")

    def store_enospc_active(self, seq: int) -> bool:
        """Whether write transaction ``seq`` hits ENOSPC at commit.

        Keyed on the transaction alone — a full disk does not go away
        on retry; the caller must surface the error (and the journal,
        not the store, remains the durable record).
        """
        return self.should("store_enospc", f"txn#{seq}")

    def heartbeat_blackout_active(self, node: str, beat: int) -> bool:
        """Whether heartbeat number ``beat`` from ``node`` is swallowed.

        Window-keyed like :meth:`rpc_action`'s partition: one firing
        silences ``partition_span`` consecutive heartbeats, long enough
        for the coordinator to expire the node's leases.
        """
        span = self.spec.partition_span
        return self.should("heartbeat_blackout", f"{node}#{beat // span}")


def apply_worker_action(action: Optional[Tuple[str, float]]) -> None:
    """Execute a chaos directive inside a worker, before the task runs.

    Runs worker-side (directives are decided in the parent and shipped
    with the payload so they stay keyed on the task id and attempt, which
    workers never see).  ``crash`` uses ``os._exit`` — no atexit, no
    cleanup, the same signature as a segfault or OOM kill.
    """
    if action is None:
        return
    kind, arg = action
    if kind == "crash":
        import os

        os._exit(66)
    elif kind == "hang":
        # Reclaimed only by the executor's wall-clock deadline: models a
        # wedged worker, not a slow one.
        time.sleep(3600.0)
    elif kind == "error":
        raise ChaosError("chaos: injected task exception")
    elif kind == "slow":
        time.sleep(arg)
