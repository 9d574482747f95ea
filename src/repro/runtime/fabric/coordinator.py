"""The fabric coordinator: lease-based task sharding over HTTP/JSON.

A :class:`FabricCoordinator` owns one stdlib ``ThreadingHTTPServer``.
An :class:`~repro.runtime.executor.Executor` built with ``fabric=`` and
``job=`` publishes its :class:`~repro.runtime.executor.TaskTable` here
for the length of a run, and the RPC handlers translate worker-node
calls into operations on that one table:

* **lease-based assignment** — a worker *pulls* a batch of tasks and
  holds a lease with a wall-clock deadline; heartbeats renew it (capped
  by the per-task timeout, so a wedged simulation cannot keep its lease
  alive forever).  A lease that expires — node death, partition,
  heartbeat blackout — re-queues its task for another node: worker-node
  loss is a routine event, not a failure.
* **at-least-once, idempotent** — a re-dispatched task may eventually
  be reported by two nodes; results are keyed by the journal record
  identity (the task id) and the first final result wins, duplicates
  are counted and dropped.
* **replicated journal** — nodes append every record to a local CRC'd
  shard before reporting it; the executor appends accepted records to
  the canonical journal (the commit), and merges shard files at the end
  of a run and on drain so records it never saw are still resumable
  (:mod:`repro.runtime.fabric.merge`).
* **graceful degradation** — tasks whose leases keep expiring, and all
  tasks when no worker has been heard from within a grace period (timed
  from the round start until a node calls in), are *demoted* to the
  driver; a dead or partitioned fleet slows the campaign down to
  single-host speed instead of failing it.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ...obs import get_metrics
from ..errors import ExecutorError
from ..executor import Task, TaskTable
from ..journal import PathLike
from . import tasks as task_registry
from .protocol import JobSpec, RpcError, decode_request, encode_error, \
    encode_response

__all__ = ["FabricCoordinator"]


#: largest accepted request body; a larger Content-Length gets 413
_MAX_BODY_BYTES = 8 << 20
#: chunk size for body reads (bounds a single recv, not the body)
_READ_CHUNK = 65536


class _BodyRejected(Exception):
    """A request body refused before it was parsed; carries the status."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status


def _read_body(rfile: Any, headers: Any) -> bytes:
    """Read one request body, validating Content-Length *first*.

    Negative or malformed lengths get 400 and oversized ones 413 before
    a single body byte is read; the read itself proceeds in bounded
    chunks, so a lying client cannot balloon memory (staticcheck rule
    F304 holds handlers to this).  A missing length is an empty body.
    """
    raw = headers.get("Content-Length") or "0"
    try:
        length = int(raw)
    except (TypeError, ValueError):
        raise _BodyRejected(400, f"malformed Content-Length {raw!r}")
    if length < 0:
        raise _BodyRejected(400, f"negative Content-Length {length}")
    if length > _MAX_BODY_BYTES:
        raise _BodyRejected(
            413, f"request body of {length} bytes exceeds the "
            f"{_MAX_BODY_BYTES}-byte cap",
        )
    chunks = []
    remaining = length
    while remaining > 0:
        chunk = rfile.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise _BodyRejected(
                400, f"truncated request body ({length - remaining} of "
                f"{length} bytes received)",
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _RpcHandler(BaseHTTPRequestHandler):
    """One POST endpoint (``/rpc``); everything else is a 404.

    The body is read through :func:`_read_body`, so Content-Length is
    validated before any bytes move (413/400).
    """

    # a worker that stalls mid-request must not pin a server thread
    timeout = 30.0
    protocol_version = "HTTP/1.1"
    coordinator: "FabricCoordinator"

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path != "/rpc":
            self._reply(404, encode_error("unknown path"))
            return
        try:
            env = decode_request(_read_body(self.rfile, self.headers))
            result = self.coordinator.handle(env)
        except _BodyRejected as rej:
            # The body may be unread: close the connection so HTTP/1.1
            # keep-alive framing cannot desynchronize.
            self._reply(rej.status, encode_error(str(rej)), close=True)
        except RpcError as exc:
            self._reply(400, encode_error(str(exc)))
        except Exception as exc:  # server must answer, never hang a node
            self._reply(500, encode_error(f"{type(exc).__name__}: {exc}"))
        else:
            self._reply(200, encode_response(result))

    def _reply(self, status: int, body: bytes, *, close: bool = False) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # caller vanished mid-reply; its retry will re-ask

    def log_message(self, fmt: str, *args: Any) -> None:  # silence stderr
        pass


class FabricCoordinator:
    """Shared fabric state plus the HTTP server worker nodes talk to."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float = 4.0,
        lease_batch: int = 2,
        poll_interval: float = 0.15,
        shard_dir: Optional[PathLike] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0 seconds")
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
        self.host = host
        self.port = port
        self.lease_ttl = lease_ttl
        self.lease_batch = lease_batch
        self.poll_interval = poll_interval
        #: directory of node shard journals to merge on commit (when the
        #: coordinator can see them, e.g. localhost or a shared mount)
        self.shard_dir = shard_dir
        self.nodes: Dict[str, float] = {}  # node id -> last contact (mono)
        self._lock = threading.Lock()
        self._table: Optional[TaskTable] = None
        self._job: Dict[str, Any] = {}
        self._timeout: Optional[float] = None
        self._shutdown_workers = False
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._last_contact: Optional[float] = None
        self._round_started = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve in a background thread; returns (host, port)."""
        if self._server is not None:
            return self.address
        handler = type(
            "_BoundRpcHandler", (_RpcHandler,), {"coordinator": self}
        )
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="fabric-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Tell workers to exit on their next poll, then stop serving."""
        with self._lock:
            self._shutdown_workers = True
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def __enter__(self) -> "FabricCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- round management (driver side) --------------------------------------

    def begin_round(
        self,
        job: JobSpec,
        pending: List[Task],
        *,
        timeout: Optional[float] = None,
    ) -> TaskTable:
        """Publish a task table for ``pending`` (payloads JSON-encoded)."""
        table = TaskTable(pending, task_registry.resolve(job).encode)
        with self._lock:
            if self._table is not None:
                raise ExecutorError("a fabric round is already in flight")
            self._job = job.to_dict()
            self._table = table
            self._timeout = timeout
            self._round_started = time.monotonic()
        return table

    def end_round(self) -> None:
        with self._lock:
            table, self._table = self._table, None
        if table is not None:
            table.drain()  # a late lease must not start a finished run

    def seconds_since_contact(self) -> float:
        """Seconds since any worker RPC or the round start, whichever is
        later: a fleet still starting up gets the full grace period."""
        with self._lock:
            since = self._round_started
            if self._last_contact is not None:
                since = max(since, self._last_contact)
            return time.monotonic() - since

    # -- RPC handling (server threads) ---------------------------------------

    def handle(self, env: Dict[str, Any]) -> Dict[str, Any]:
        method = env["method"]
        node = env["node"]
        params = env["params"]
        with self._lock:
            self.nodes[node] = time.monotonic()
            self._last_contact = self.nodes[node]
            if method == "goodbye":
                self.nodes.pop(node, None)
            table, job, timeout = self._table, self._job, self._timeout
            shutdown = self._shutdown_workers
        if method == "register":
            get_metrics().counter("fabric.nodes_registered").inc()
            return {
                "lease_ttl": self.lease_ttl,
                "poll_interval": self.poll_interval,
            }
        if method == "lease":
            if shutdown:
                return {"shutdown": True}
            want = max(1, int(params.get("max_tasks", 1)))
            granted = [] if table is None else table.lease(
                node, min(want, self.lease_batch), self.lease_ttl
            )
            if not granted:
                return {"idle": True, "poll": self.poll_interval}
            return {
                "job": job,
                "tasks": granted,
                "lease_ttl": self.lease_ttl,
            }
        if method == "heartbeat":
            if table is None:
                return {"ok": True}
            renewed = table.renew(
                node, params.get("tasks", ()), self.lease_ttl, timeout
            )
            return {"ok": True, "renewed": renewed}
        if method == "report":
            return self._handle_report(table, node, params)
        if method == "goodbye":
            return {"released": 0 if table is None else table.release(node)}
        raise RpcError(f"unhandled method {method!r}")  # pragma: no cover

    def _handle_report(
        self, table: Optional[TaskTable], node: str, params: Dict
    ) -> Dict[str, Any]:
        acked = []
        for entry in params.get("records", ()):
            rec = entry.get("record") if isinstance(entry, dict) else None
            if not isinstance(rec, dict) or not isinstance(
                rec.get("task"), str
            ):
                raise RpcError(f"malformed report entry: {entry!r}")
            # Always ack: the worker may be re-reporting after a
            # partition, for a round that has since completed.
            acked.append(rec["task"])
            if table is not None:
                table.accept(node, rec, entry.get("spans") or [])
        get_metrics().counter("fabric.reports").inc()
        return {"acked": acked}
