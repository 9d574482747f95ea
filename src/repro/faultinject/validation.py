"""Cross-validation of ACE analysis against statistical fault injection.

The original ACE-analysis literature (Mukherjee et al., and the Wang et al.
comparison the paper discusses in Sec. III) validates AVF models by
injecting random faults and comparing the observed error rate against the
model's prediction.  This module runs that experiment on the memory data
image: the model predicts that a uniformly random (byte, bit, cycle) flip
causes SDC with probability equal to the region's ACE fraction; injection
measures it directly.

ACE analysis is conservative by construction — byte-granular lifetimes
ignore bit-level masking at the consumer, and detection-free regions treat
every ACE hit as an SDC — so the observed rate should fall at or below the
prediction, while remaining the right order of magnitude.

Like the ACE-interference campaign, every injection is dispatched through
the fault-tolerant runtime: ``jobs >= 1`` isolates simulations in worker
processes, and a ``journal`` makes the validation run restartable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..runtime import Journal, Task
from .campaign import (
    InjectionOutcome,
    MemorySpec,
    _Injector,
    _make_executor,
    _tally,
)

__all__ = ["ValidationResult", "validate_memory_avf"]


@dataclass
class ValidationResult:
    """Model-vs-injection comparison for one benchmark."""

    benchmark: str
    region: Tuple[int, int]
    model_avf: float
    n_injections: int
    sdc: int = 0
    masked: int = 0
    crash: int = 0
    hang: int = 0
    #: injections lost to infrastructure failures after retries
    failures: Dict[str, int] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def observed_rate(self) -> float:
        n = self.n_injections - self.n_failed
        return self.sdc / n if n else 0.0

    @property
    def stderr(self) -> float:
        """Binomial standard error of the observed SDC rate."""
        p = self.observed_rate
        n = self.n_injections - self.n_failed
        return float(np.sqrt(p * (1 - p) / n)) if n else 0.0


def _draw_points(
    rng: np.random.Generator, region: Tuple[int, int], end_cycle: int, n: int
) -> List[MemorySpec]:
    """``n`` uniform (byte in ``region``, bit, cycle) flips."""
    return [
        MemorySpec(
            region[0] + int(rng.integers(0, region[1])),
            int(rng.integers(0, 8)),
            int(rng.integers(0, max(end_cycle, 1))),
        )
        for _ in range(n)
    ]


def validate_memory_avf(
    benchmark: str,
    *,
    n_injections: int = 150,
    seed: int = 0,
    n_cus: int = 2,
    jobs: int = 0,
    journal: Optional[Union[Journal, str]] = None,
) -> ValidationResult:
    """Run the injection-vs-ACE validation for one benchmark.

    The region is the golden run's allocated footprint, and the model
    prediction is its :meth:`AvfStudy.memory_lifetimes`; each injection
    flips one random bit of one random byte at one random cycle and
    compares the program output with the golden run.  The injection
    points are drawn up-front from the seeded generator, so a journaled
    run resumes deterministically.
    """
    if n_injections < 0:
        raise ValueError(f"n_injections must be >= 0, not {n_injections}")
    runner = _Injector(benchmark, seed, n_cus)
    study = runner.study
    region = study.footprint
    result = ValidationResult(
        benchmark, region, study.memory_lifetimes(region).sb_ace_fraction(),
        n_injections,
    )
    rng = np.random.default_rng(seed + 0x5EED)
    points = _draw_points(rng, region, study.end_cycle, n_injections)
    tasks = [
        Task(id=f"{benchmark}/val/{i:05d}", payload=p, meta=p._asdict())
        for i, p in enumerate(points)
    ]
    with _make_executor(
        runner, jobs, timeout=None, retry=None, journal=journal
    ) as executor:
        results = executor.run(tasks)
    for task in tasks:
        verdict = _tally(result.failures, results[task.id])
        if verdict is None:
            continue
        if verdict == InjectionOutcome.MASKED:
            result.masked += 1
        elif verdict == InjectionOutcome.SDC:
            result.sdc += 1
        elif verdict == InjectionOutcome.HANG:
            result.hang += 1
        else:
            result.crash += 1
    return result
