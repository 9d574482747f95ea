"""Distributed campaign fabric: coordinator/worker over HTTP/JSON.

Shards :class:`~repro.faultinject.campaign.BenchmarkCampaign` injections
across worker nodes with lease-based
assignment, at-least-once idempotent execution, a replicated journal
(node shards merged into the canonical log on commit), deadlined RPCs
with deterministic retry, and graceful degradation to local execution
when the fleet dies.  Built on the stdlib only (``http.server`` /
``http.client``); node-level chaos rides the same
:class:`~repro.runtime.chaos.ChaosSpec` as the rest of the runtime.

Fabric runs go through the one :class:`~repro.runtime.Executor`
(``Executor(fn, fabric=coordinator, job=spec)``); see
``docs/distributed.md`` for the protocol, the lease/heartbeat
semantics and the failure matrix.
"""

from .coordinator import FabricCoordinator
from .merge import SPAN_SHARD_SUFFIX, find_shards, merge_shards
from .protocol import JobSpec, RpcError, RpcUnavailable
from .rpc import DEFAULT_RPC_TIMEOUT, RpcClient
from .tasks import (
    ENTRYPOINTS,
    Entrypoint,
    injection_job,
    register_entrypoint,
    resolve,
    stub_job,
)
from .worker import FabricWorker, run_worker

__all__ = [
    "DEFAULT_RPC_TIMEOUT",
    "ENTRYPOINTS",
    "Entrypoint",
    "FabricCoordinator",
    "FabricWorker",
    "JobSpec",
    "RpcClient",
    "RpcError",
    "RpcUnavailable",
    "SPAN_SHARD_SUFFIX",
    "find_shards",
    "injection_job",
    "merge_shards",
    "register_entrypoint",
    "resolve",
    "run_worker",
    "stub_job",
]
