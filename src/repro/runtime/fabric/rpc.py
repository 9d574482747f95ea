"""Fabric RPC client: deadlined HTTP/JSON calls with deterministic retry.

One :class:`RpcClient` per node.  Every call opens a fresh
``http.client.HTTPConnection`` with an explicit socket ``timeout`` (the
RPC's deadline — staticcheck rule F303 enforces that no fabric network
call is ever untimed), POSTs one request envelope to ``/rpc``, and
parses the response.  Transient failures — connection refused, timeout,
a chaos-injected partition — are retried with the campaign runtime's
deterministic backoff (:class:`~repro.runtime.retry.RetryPolicy.delay`
keyed on ``(method, seq)``), then surface as
:class:`~repro.runtime.fabric.protocol.RpcUnavailable` so callers can
degrade instead of crash.

The client is also where node-level chaos lands: a
:class:`~repro.runtime.chaos.ChaosPolicy` can drop, delay or duplicate
individual RPCs and black out whole windows of them (a partition),
keyed on the node's monotonic ``seq`` counter so one seed replays one
exact network failure schedule.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ...obs import get_metrics
from ..chaos import ChaosPolicy
from ..retry import RetryPolicy
from .protocol import RpcError, RpcUnavailable, encode_request

__all__ = ["RpcClient", "DEFAULT_RPC_TIMEOUT"]

#: default per-RPC wall-clock deadline (seconds)
DEFAULT_RPC_TIMEOUT = 5.0

#: default transport retry: 3 attempts, short deterministic backoff
DEFAULT_RPC_RETRY = RetryPolicy(
    max_attempts=3, backoff=0.05, backoff_factor=2.0, max_backoff=0.5,
    jitter=0.5,
)


class RpcClient:
    """JSON-RPC-over-HTTP client for one fabric node."""

    def __init__(
        self,
        address: Tuple[str, int],
        node: str,
        *,
        timeout: float = DEFAULT_RPC_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.host, self.port = address
        self.node = node
        self.timeout = timeout
        self.retry = retry or DEFAULT_RPC_RETRY
        #: dev-only network fault injection (None = off)
        self.chaos = chaos
        self._seq = 0
        #: one client can be shared by a worker's main loop and its
        #: heartbeat thread; only the sequence counter needs guarding
        self._seq_lock = threading.Lock()

    @property
    def seq(self) -> int:
        """RPCs attempted so far (chaos key; monotonic per node)."""
        with self._seq_lock:
            return self._seq

    def call(
        self,
        method: str,
        params: Dict[str, Any],
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Perform one RPC, retrying transient transport failures.

        Raises :class:`RpcUnavailable` once the retry budget is spent
        (the peer is down or partitioned) and :class:`RpcError` for
        non-transient protocol failures (which are never retried).
        """
        deadline = self.timeout if timeout is None else timeout
        attempt = 0
        while True:
            attempt += 1
            with self._seq_lock:
                seq = self._seq
                self._seq += 1
            try:
                return self._attempt(method, params, seq, deadline)
            except RpcUnavailable:
                mx = get_metrics()
                if mx:
                    mx.counter("fabric.rpc_failures").inc()
                if attempt >= self.retry.max_attempts:
                    raise
                if mx:
                    mx.counter("fabric.rpc_retries").inc()
                time.sleep(self.retry.delay(f"{method}#{seq}", attempt))
            except RpcError:
                raise

    # -- one attempt ---------------------------------------------------------

    def _attempt(
        self, method: str, params: Dict[str, Any], seq: int, deadline: float
    ) -> Dict[str, Any]:
        action = (
            self.chaos.rpc_action(self.node, seq)
            if self.chaos is not None else None
        )
        duplicate = False
        if action is not None:
            kind, arg = action
            get_metrics().counter(f"chaos.rpc_{kind}").inc()
            if kind == "partition":
                raise RpcUnavailable(
                    f"{method}: chaos: link partitioned (seq {seq})"
                )
            if kind == "drop":
                # The request vanishes on the wire: the caller observes
                # only its deadline expiring.
                raise RpcUnavailable(
                    f"{method}: chaos: request dropped (seq {seq})"
                )
            if kind == "delay":
                time.sleep(arg)
            elif kind == "dup":
                duplicate = True
        body = encode_request(
            method, params, node=self.node, seq=seq,
            deadline_ms=int(deadline * 1000),
        )
        if duplicate:
            # At-least-once delivery made visible: the same envelope hits
            # the server twice and the first response is discarded, so
            # only idempotent handlers survive chaos.
            try:
                self._post(body, deadline)
            except RpcUnavailable:
                pass
        result = self._post(body, deadline)
        get_metrics().counter("fabric.rpcs").inc()
        return result

    def _post(self, body: bytes, deadline: float) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=deadline
        )
        try:
            conn.request(
                "POST", "/rpc", body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            raw = resp.read()
        except (ConnectionError, socket.timeout, OSError,
                http.client.HTTPException) as exc:
            raise RpcUnavailable(
                f"coordinator {self.host}:{self.port} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RpcError(f"malformed RPC response: {exc}") from exc
        if not isinstance(payload, dict):
            raise RpcError("RPC response must be a JSON object")
        if not payload.get("ok"):
            raise RpcError(str(payload.get("error", "unknown RPC error")))
        result = payload.get("result")
        if not isinstance(result, dict):
            raise RpcError("RPC result must be a JSON object")
        return result
