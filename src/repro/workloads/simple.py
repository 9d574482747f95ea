"""Baseline workloads: vector add and parallel reduction.

``vectoradd`` is the quickstart kernel (streaming, no reuse); ``reduction``
sums a float array with per-thread strided accumulation, an intra-wavefront
butterfly (``shuffle_xor``) and a second single-wavefront pass over the
per-wavefront partials.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..arch.gpu import Launch
from ..arch.isa import ProgramBuilder, fimm, imm, s, v
from ..arch.memory import GlobalMemory
from .base import Workload
from .util import addr_of, addr_of_tid

__all__ = ["VectorAdd", "Reduction"]


class VectorAdd(Workload):
    """c[i] = a[i] + b[i] over 256 uint32 elements."""

    name = "vectoradd"
    outputs = ("c",)
    N = 256

    def setup(self, mem: GlobalMemory) -> None:
        self.a = self.rng.integers(0, 1 << 31, self.N, dtype=np.uint32)
        self.b = self.rng.integers(0, 1 << 31, self.N, dtype=np.uint32)
        self.base_a = mem.alloc("a", self.N * 4)
        self.base_b = mem.alloc("b", self.N * 4)
        self.base_c = mem.alloc("c", self.N * 4)
        mem.view_u32("a")[:] = self.a
        mem.view_u32("b")[:] = self.b

    def kernels(self) -> Iterator[Launch]:
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        addr_of_tid(p, s(3), v(4))
        p.load(v(5), v(4))
        p.iadd(v(6), v(3), v(5))
        addr_of_tid(p, s(4), v(7))
        p.store(v(6), v(7))
        yield Launch(
            p.build(), self.N, [self.base_a, self.base_b, self.base_c],
            name=self.name,
        )

    def expected(self) -> Dict[str, np.ndarray]:
        return {"c": self.a + self.b}


def emit_butterfly_reduce(p: ProgramBuilder, acc, tmp) -> None:
    """Sum ``acc`` across the 16 lanes with a shuffle_xor butterfly.

    After this, every lane holds the wavefront total (float32 adds in
    butterfly order — the numpy references reproduce the same order).
    """
    for step in (1, 2, 4, 8):
        p.shuffle_xor(tmp, acc, step)
        p.fadd(acc, acc, tmp)


def butterfly_reduce_ref(vals: np.ndarray) -> np.ndarray:
    """Numpy emulation of :func:`emit_butterfly_reduce` (float32 order)."""
    acc = vals.astype(np.float32).copy()
    lanes = np.arange(16)
    for step in (1, 2, 4, 8):
        acc = acc + acc[lanes ^ step]
    return acc


class Reduction(Workload):
    """sum(x) over 1024 float32 elements (two-pass butterfly reduction)."""

    name = "reduction"
    outputs = ("total",)
    N = 1024
    THREADS = 256

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.random(self.N, dtype=np.float32)
        self.base_x = mem.alloc("x", self.N * 4)
        self.base_partials = mem.alloc("partials", (self.THREADS // 16) * 4)
        self.base_total = mem.alloc("total", 4)
        mem.view_f32("x")[:] = self.x

    def _phase1(self) -> ProgramBuilder:
        p = ProgramBuilder()
        p.mov(v(2), fimm(0.0))
        # Strided accumulation: x[tid], x[tid+256], ...
        for j in range(self.N // self.THREADS):
            addr_of(p, s(2), v(0), v(3))
            p.load(v(4), v(3), offset=j * self.THREADS * 4)
            p.fadd(v(2), v(2), v(4))
        emit_butterfly_reduce(p, v(2), v(5))
        # Lane 0 stores the wavefront partial at partials[wf_id].
        p.mov(v(6), s(0))
        addr_of(p, s(3), v(6), v(7))
        p.cmp("eq", v(1), imm(0))
        p.store(v(2), v(7), pred=True)
        return p

    def _phase2(self) -> ProgramBuilder:
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        emit_butterfly_reduce(p, v(3), v(4))
        p.mov(v(5), s(3))
        p.cmp("eq", v(1), imm(0))
        p.store(v(3), v(5), pred=True)
        return p

    def kernels(self) -> Iterator[Launch]:
        yield Launch(
            self._phase1().build(), self.THREADS,
            [self.base_x, self.base_partials], name=f"{self.name}.partial",
        )
        yield Launch(
            self._phase2().build(), 16,
            [self.base_partials, self.base_total], name=f"{self.name}.final",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        x = self.x.reshape(self.N // self.THREADS, self.THREADS)
        acc = np.zeros(self.THREADS, dtype=np.float32)
        for chunk in x:
            acc = acc + chunk
        # Per-wavefront butterfly over [wf, lane] layout, then the final pass.
        wf_totals = np.empty(self.THREADS // 16, dtype=np.float32)
        for w in range(self.THREADS // 16):
            wf_totals[w] = butterfly_reduce_ref(acc[w * 16 : (w + 1) * 16])[0]
        total = butterfly_reduce_ref(wf_totals)[0]
        return {"total": np.array([total], dtype=np.float32)}
