"""Workload framework: GPU benchmarks with golden numpy references.

The paper evaluates on Rodinia, the AMD OpenCL samples and Mantevo
(Sec. VI-A).  Each workload here re-implements one of those kernels for the
:mod:`repro.arch` ISA and carries a numpy *reference implementation*; every
run is verified bit-for-bit (integer kernels) or to float32 tolerance
against the reference, so AVF numbers are never computed on a miscompiled
kernel.

A workload declares its *output buffers* — the data the host consumes — which
seed the liveness analysis (everything else the kernel computes is live only
if it transitively feeds those buffers) — and its *launch schedule*: the
kernels it runs, in order, as :class:`~repro.arch.gpu.Launch` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.gpu import Apu, Launch, LaunchStats
from ..arch.memory import GlobalMemory
from ..obs import get_tracer

__all__ = ["Workload", "WorkloadRun", "new_device", "run_workload"]


@dataclass
class WorkloadRun:
    """A completed, verified workload execution ready for AVF analysis."""

    name: str
    apu: Apu
    memory: GlobalMemory
    output_ranges: List[Tuple[int, int]]
    stats: List[LaunchStats] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.stats)

    @property
    def end_cycle(self) -> int:
        return self.apu.cycle


class Workload:
    """Base class for benchmark kernels.

    Subclasses set :attr:`name` and :attr:`outputs` and implement
    :meth:`setup` (allocate + initialise buffers, stash numpy copies of the
    inputs), :meth:`kernels` (yield the launch schedule; it may read what
    ``setup`` stored but not the device) and :meth:`expected` (numpy
    reference results keyed by output buffer name).
    """

    name: str = "workload"
    #: names of the buffers the host reads after the run
    outputs: Sequence[str] = ()
    #: absolute float32 comparison tolerance (0 = exact integer compare)
    rtol: float = 0.0

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    # -- to implement ---------------------------------------------------------

    def setup(self, mem: GlobalMemory) -> None:
        raise NotImplementedError

    def kernels(self) -> Iterator[Launch]:
        raise NotImplementedError

    def expected(self) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    # -- verification -----------------------------------------------------------

    def verify(self, mem: GlobalMemory) -> None:
        """Compare device results against the numpy reference."""
        for name, ref in self.expected().items():
            ref = np.asarray(ref)
            if ref.dtype == np.float32:
                got = mem.view_f32(name)[: ref.size]
                if not np.allclose(got, ref.ravel(), rtol=max(self.rtol, 1e-4),
                                   atol=1e-5, equal_nan=True):
                    worst = np.abs(got - ref.ravel()).max()
                    raise AssertionError(
                        f"{self.name}: output {name!r} mismatch (max err {worst})"
                    )
            else:
                got = mem.view_u32(name)[: ref.size]
                if not (got == ref.ravel().astype(np.uint32)).all():
                    bad = int((got != ref.ravel().astype(np.uint32)).sum())
                    raise AssertionError(
                        f"{self.name}: output {name!r} mismatch ({bad} words)"
                    )


def new_device(
    workload: Workload, *, n_cus: int, apu_kwargs: Optional[dict] = None
) -> Apu:
    """A fresh device holding ``workload``'s initialised buffers."""
    mem = GlobalMemory()
    workload.setup(mem)
    return Apu(n_cus=n_cus, memory=mem, **(apu_kwargs or {}))


def run_workload(
    workload: Workload,
    *,
    n_cus: int = 4,
    apu_kwargs: Optional[dict] = None,
) -> WorkloadRun:
    """Run a workload's schedule on a fresh device and verify its outputs
    against the workload's numpy reference."""
    with get_tracer().span("simulate", workload=workload.name, n_cus=n_cus):
        apu = new_device(workload, n_cus=n_cus, apu_kwargs=apu_kwargs)
        apu.run(workload.kernels())
        workload.verify(apu.memory)
    mem = apu.memory
    ranges = [mem.buffer(name) for name in workload.outputs]
    return WorkloadRun(workload.name, apu, mem, ranges, list(apu.launches))
