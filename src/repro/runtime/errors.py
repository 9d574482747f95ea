"""Outcome labels and exceptions of the campaign runtime.

The runtime knows nothing of what a task computes.  A task that returns
has outcome ``OK`` and its value is the result (an injection's verdict,
a sweep's points).  Every other outcome is a property of the harness: a
worker process died (``WORKER_DIED``), exceeded its wall-clock budget
(``TIMEOUT``), kept killing workers (``POISONED``), or the task itself
raised (``INFRA_ERROR``).  Worker death and timeout are transient and
retryable; an exception is deterministic and is not retried by default.
"""

from __future__ import annotations

__all__ = [
    "TaskOutcome",
    "ExecutorError",
    "JournalRecordError",
    "JournalWriteError",
    "CampaignInterrupted",
]


class TaskOutcome:
    """Outcome labels for one task attempt (and its final result)."""

    OK = "ok"                    # fn returned a value
    WORKER_DIED = "worker_died"  # worker process exited mid-task
    TIMEOUT = "timeout"          # wall-clock budget exceeded; worker killed
    INFRA_ERROR = "infra_error"  # the task fn raised
    POISONED = "poisoned"        # task quarantined: it kept killing workers


class ExecutorError(RuntimeError):
    """The executor itself cannot proceed (e.g. worker init failed)."""


class JournalRecordError(ValueError):
    """A journaled record is structurally unusable (missing keys, wrong
    types).  Raised by :meth:`TaskResult.from_record` instead of the bare
    ``KeyError``/``ValueError`` it wraps, so resume paths can quarantine
    the record and re-run the task instead of aborting the campaign."""

    def __init__(self, record: object, cause: BaseException) -> None:
        super().__init__(
            f"unusable journal record ({type(cause).__name__}: {cause}): "
            f"{record!r}"
        )
        self.record = record


class JournalWriteError(OSError):
    """A journal append failed at the filesystem level (``ENOSPC``,
    ``EIO``, a torn write).  The in-memory result is intact but *not*
    durable; the executor aborts the campaign so the operator resumes
    with a sealed, consistent journal rather than silently losing
    checkpoints."""


class CampaignInterrupted(KeyboardInterrupt):
    """A SIGINT/SIGTERM drain completed: in-flight tasks finished, the
    journal was sealed, and the campaign stopped cleanly.

    Derives from :class:`KeyboardInterrupt` so generic ``except
    Exception`` recovery code never swallows an operator's stop request.
    """

    def __init__(self, completed: int, total: int,
                 journal_path: object = None) -> None:
        super().__init__(
            f"campaign drained after signal: {completed}/{total} tasks "
            "journaled"
        )
        self.completed = completed
        self.total = total
        self.journal_path = journal_path
