"""Fault-tolerant campaign runtime.

Process-isolated task execution with wall-clock timeouts, bounded
retries, a poison-task circuit breaker, heartbeat worker respawn, a
structured outcome taxonomy, a CRC-checked JSONL checkpoint journal
(with quarantine and atomic compaction) that makes long injection
campaigns and AVF sweeps restartable, graceful SIGINT/SIGTERM draining,
and a deterministic chaos harness that fault-injects the runtime itself.
"""

from .chaos import ChaosError, ChaosPolicy, ChaosSpec
from .errors import (
    CampaignInterrupted,
    ExecutorError,
    InfraError,
    JournalRecordError,
    JournalWriteError,
    SimulationCrash,
    SimulationError,
    SimulationHang,
    TaskOutcome,
    classify_exception,
)
from .executor import Executor, Task, TaskResult
from .guard import (
    AdmissionGate,
    CircuitBreaker,
    GuardConfig,
    GuardRejection,
    ServiceGuard,
    TokenBucket,
)
from .journal import Journal
from .retry import RetryPolicy

__all__ = [
    "AdmissionGate",
    "CampaignInterrupted",
    "ChaosError",
    "ChaosPolicy",
    "ChaosSpec",
    "CircuitBreaker",
    "Executor",
    "ExecutorError",
    "GuardConfig",
    "GuardRejection",
    "InfraError",
    "Journal",
    "JournalRecordError",
    "JournalWriteError",
    "RetryPolicy",
    "ServiceGuard",
    "SimulationCrash",
    "SimulationError",
    "SimulationHang",
    "Task",
    "TaskOutcome",
    "TaskResult",
    "TokenBucket",
    "classify_exception",
]
