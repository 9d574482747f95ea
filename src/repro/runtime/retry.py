"""Bounded retry with exponential backoff and deterministic jitter.

By default only transient failures are retried: a worker that died or a
task that hit its wall-clock timeout may well succeed on a second
attempt, but a task that raised will raise again.  (A simulator crash or
hang is not a failure at all: the injection task returns it as its
verdict.)  Jitter is derived from a hash of ``(seed, task id, attempt)``
so that a resumed campaign replays the exact same schedule as an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import TaskOutcome

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to attempt a task, and how long to wait in between."""

    #: total attempts per task (1 = no retry)
    max_attempts: int = 1
    #: base delay in seconds before the first retry
    backoff: float = 0.0
    #: multiplier applied to the delay after every failed attempt
    backoff_factor: float = 2.0
    #: ceiling on any single delay
    max_backoff: float = 60.0
    #: +/- fraction of the delay added as deterministic jitter
    jitter: float = 0.0
    #: seed for the jitter hash
    seed: int = 0
    #: outcomes worth retrying (by default the transient ones)
    retry_on: Tuple[str, ...] = (TaskOutcome.WORKER_DIED, TaskOutcome.TIMEOUT)
    #: per-task circuit breaker: a task whose attempts have killed this
    #: many workers (death or timeout-kill) is quarantined as ``poisoned``
    #: instead of burning its remaining retries and more workers.
    #: ``None`` disables the breaker.
    poison_threshold: Optional[int] = 3

    def should_retry(self, outcome: str, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be repeated."""
        return outcome in self.retry_on and attempt < self.max_attempts

    def is_poisoned(self, worker_kills: int) -> bool:
        """Whether a task that has killed ``worker_kills`` workers has
        tripped the breaker."""
        return (
            self.poison_threshold is not None
            and worker_kills >= self.poison_threshold
        )

    def delay(self, task_id: str, attempt: int) -> float:
        """Seconds to wait before re-running ``task_id`` after ``attempt``."""
        base = min(
            self.backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )
        if self.jitter and base > 0.0:
            digest = hashlib.sha256(
                f"{self.seed}:{task_id}:{attempt}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
            base *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return max(base, 0.0)
