"""Fault-tolerant campaign runtime.

Process-isolated task execution with wall-clock timeouts, bounded
retries, a poison-task circuit breaker, heartbeat worker respawn, harness
outcome labels, a CRC-checked JSONL checkpoint journal
(with quarantine and atomic compaction) that makes long injection
campaigns and AVF sweeps restartable, graceful SIGINT/SIGTERM draining,
and a deterministic chaos harness that fault-injects the runtime itself.
"""

from .chaos import ChaosError, ChaosPolicy, ChaosSpec
from .errors import (
    CampaignInterrupted,
    ExecutorError,
    JournalRecordError,
    JournalWriteError,
    TaskOutcome,
)
from .executor import Executor, Task, TaskResult
from .journal import Journal
from .retry import RetryPolicy

__all__ = [
    "CampaignInterrupted",
    "ChaosError",
    "ChaosPolicy",
    "ChaosSpec",
    "Executor",
    "ExecutorError",
    "Journal",
    "JournalRecordError",
    "JournalWriteError",
    "RetryPolicy",
    "Task",
    "TaskOutcome",
    "TaskResult",
]
