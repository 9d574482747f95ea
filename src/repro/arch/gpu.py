"""SIMT GPU / APU performance simulator.

Executes :class:`~repro.arch.isa.Program` kernels on a model with ``n_cus``
compute units, 16-lane wavefronts, per-CU L1 caches and a shared L2
(:mod:`repro.arch.cache`).  Each instruction runs its row of the opcode
table (:data:`~repro.arch.isa.OPS`): the row's kind says where its operands
come from and where its result goes, its ``fn`` what it computes, and a
memory op's space, direction and width route it through the LDS or the
cache hierarchy.  Every vector instruction is recorded as a row
of the device's :class:`~repro.arch.trace.Trace` for the downstream
liveness and lifetime (ACE) analyses — the "event-tracking phase" of the
paper's AVF methodology.

The timing model is deliberately simple but produces the behaviour the
paper's results depend on: one instruction per CU per cycle, round-robin
wavefront scheduling, blocking loads with hit/miss latencies, buffered
stores, and latency hiding across wavefronts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from .cache import L1_CONFIG, L2_CONFIG, CacheConfig, MemSystem
from .isa import (
    BRANCH, LANE_IDS, LDS, M32, MEM, OPS, READLANE, SALU, SCMP, VALU, VCMP,
    WAVEFRONT_LANES, Instr, Program,
)
from .memory import GlobalMemory
from .trace import Trace, TraceRow

__all__ = [
    "Wavefront", "ComputeUnit", "Apu", "Launch", "LaunchStats",
    "SimulationHang",
]

_NO_ADDRS = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)


class SimulationHang(RuntimeError):
    """The run passed the device's ``max_cycles`` (a runaway kernel)."""


class Launch(NamedTuple):
    """One kernel launch of a workload's schedule: ``program`` over
    ``n_threads`` work-items, with ``args`` preloaded into ``s2, s3, ...``."""

    program: Program
    n_threads: int
    args: Sequence[int] = ()
    name: str = "kernel"


@dataclass
class LaunchStats:
    """Summary of one kernel launch."""

    name: str
    n_threads: int
    n_wavefronts: int
    instructions: int = 0
    start_cycle: int = 0
    end_cycle: int = 0

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class Wavefront:
    """Architectural state of one 16-lane wavefront."""

    __slots__ = (
        "id", "pc", "vregs", "sregs", "vcc", "scc", "exec_mask",
        "ready", "done", "lds", "program",
    )

    def __init__(
        self,
        wf_id: int,
        program: Program,
        exec_mask: np.ndarray,
        sregs: List[int],
        lds: GlobalMemory,
    ) -> None:
        self.id = wf_id
        self.pc = 0
        self.program = program
        self.vregs = np.zeros((program.n_vregs, WAVEFRONT_LANES), dtype=np.uint32)
        self.sregs = sregs + [0] * max(0, program.n_sregs - len(sregs))
        self.vcc = np.zeros(WAVEFRONT_LANES, dtype=bool)
        self.scc = False
        self.exec_mask = exec_mask
        self.ready = 0
        self.done = False
        self.lds = lds


class ComputeUnit:
    """One compute unit: issues one instruction per cycle, round-robin."""

    def __init__(self, cu_id: int, apu: "Apu", max_resident: int = 8) -> None:
        self.id = cu_id
        self.apu = apu
        self.max_resident = max_resident
        self.resident: List[Wavefront] = []
        self.pending: deque = deque()
        self._rr = 0

    def busy(self) -> bool:
        return bool(self.resident) or bool(self.pending)

    def _admit(self, cycle: int) -> None:
        while self.pending and len(self.resident) < self.max_resident:
            wf = self.pending.popleft()
            wf.ready = cycle
            self.resident.append(wf)

    def step(self, cycle: int) -> Optional[int]:
        """Issue at most one instruction; returns the next interesting cycle.

        Returns the cycle at which this CU could issue next (``cycle + 1``
        if it issued, the earliest wavefront-ready time if all are stalled,
        or None if the CU has nothing left to run).
        """
        self._admit(cycle)
        if not self.resident:
            return None
        n = len(self.resident)
        for k in range(n):
            wf = self.resident[(self._rr + k) % n]
            if wf.ready <= cycle:
                self._rr = (self._rr + k + 1) % n
                self.apu._execute(self, wf, cycle)
                if wf.done:
                    self.resident.remove(wf)
                    self._admit(cycle)
                return cycle + 1
        return min(wf.ready for wf in self.resident)


class Apu:
    """The simulated APU: GPU compute units + cache hierarchy + memory."""

    def __init__(
        self,
        n_cus: int = 4,
        memory: Optional[GlobalMemory] = None,
        l1_config: CacheConfig = L1_CONFIG,
        l2_config: CacheConfig = L2_CONFIG,
        max_resident_wavefronts: int = 8,
        lds_bytes: int = 4096,
        max_cycles: int = 50_000_000,
    ) -> None:
        if n_cus < 1:
            raise ValueError(f"n_cus must be >= 1, not {n_cus}")
        self.memory = memory if memory is not None else GlobalMemory()
        self.memsys = MemSystem(n_cus, l1_config, l2_config)
        self.cus = [ComputeUnit(i, self, max_resident_wavefronts) for i in range(n_cus)]
        self.lds_bytes = lds_bytes
        self.max_cycles = max_cycles
        self.cycle = 0
        self._rows: List[TraceRow] = []
        #: the executed vector instructions, frozen at the end of :meth:`run`
        self.trace = Trace.from_rows(self._rows)
        self.launches: List[LaunchStats] = []
        self.wf_programs: Dict[int, Program] = {}
        self._wf_seq = 0
        self._ran = False
        self._injections: Dict[int, List[Tuple[int, int, int, int]]] = {}
        self._mem_injections: List[Tuple[int, int, int]] = []

    def inject_memory_fault(self, addr: int, bitmask: int, cycle: int) -> None:
        """Schedule a transient fault in the memory/cache data image.

        Flips ``bitmask`` bits of the byte at ``addr`` once the global clock
        reaches ``cycle``.  Because the hierarchy is modelled as coherent
        (functional data lives in one image), this represents a fault in
        whichever copy of the byte is current at that time.

        Raises ``ValueError`` for an address outside memory or a mask
        that is zero or wider than one byte.
        """
        if not 0 <= addr < self.memory.size:
            raise ValueError(
                f"address {addr} outside memory [0, {self.memory.size})"
            )
        if not 0 < bitmask <= 0xFF:
            raise ValueError(f"byte bitmask {bitmask:#x} flips no bit or "
                             "spans more than one byte")
        self._mem_injections.append((cycle, addr, bitmask))
        self._mem_injections.sort()

    def _apply_mem_injections(self) -> None:
        while self._mem_injections and self._mem_injections[0][0] <= self.cycle:
            _, addr, bitmask = self._mem_injections.pop(0)
            self.memory.data[addr] ^= np.uint8(bitmask)

    def inject_fault(
        self, wf_id: int, reg: int, lane: int, bitmask: int, cycle: int
    ) -> None:
        """Schedule a transient fault: flip ``bitmask`` bits of a register.

        The flip is applied to wavefront ``wf_id``'s ``reg`` at ``lane`` the
        next time the wavefront issues an instruction at or after ``cycle``
        (the fault persists until then, as a real SRAM flip would).  Used by
        the fault-injection campaigns (:mod:`repro.faultinject`).

        Raises ``ValueError`` for a lane outside the wavefront, a negative
        register, or a mask that is zero or wider than 32 bits.  A
        register at or past the wavefront's count is legal: the flip is
        dropped, as it hits no architectural state.
        """
        if not 0 <= lane < WAVEFRONT_LANES:
            raise ValueError(f"lane {lane} outside [0, {WAVEFRONT_LANES})")
        if reg < 0:
            raise ValueError(f"register {reg} is negative")
        if not 0 < bitmask <= M32:
            raise ValueError(f"register bitmask {bitmask:#x} flips no bit "
                             "or spans more than 32 bits")
        self._injections.setdefault(wf_id, []).append(
            (cycle, reg, lane, bitmask)
        )

    def _apply_injections(self, wf: Wavefront, t: int) -> None:
        pending = self._injections.get(wf.id)
        if not pending:
            return
        rest = []
        for cycle, reg, lane, bitmask in pending:
            if cycle <= t:
                if reg < wf.vregs.shape[0]:
                    wf.vregs[reg][lane] ^= np.uint32(bitmask)
            else:
                rest.append((cycle, reg, lane, bitmask))
        if rest:
            self._injections[wf.id] = rest
        else:
            del self._injections[wf.id]

    # -- kernel launch -----------------------------------------------------

    def run(self, launches: Iterable[Launch]) -> int:
        """Run a launch schedule, then flush the caches; returns the end cycle.

        Kernels run in order, each to completion; the global clock keeps
        advancing across launches so multi-pass workloads share one AVF
        analysis window.  The final flush is the host readback the AVF
        analyses end at.  A device runs one schedule: create a new
        :class:`Apu` for the next.
        """
        if self._ran:
            raise RuntimeError("device already ran; create a new Apu")
        self._ran = True
        for launch in launches:
            self._launch(*launch)
        self.memsys.flush(self.cycle)
        self.cycle += 1
        self.trace = Trace.from_rows(self._rows)
        self._rows = []
        # Memory flips due by the end of the run still corrupt the image
        # the host reads back.
        self._apply_mem_injections()
        mx = get_metrics()
        if mx:
            mx.counter("sim.l1_hits").inc(sum(c.hits for c in self.memsys.l1s))
            mx.counter("sim.l1_misses").inc(
                sum(c.misses for c in self.memsys.l1s)
            )
            mx.counter("sim.l2_hits").inc(self.memsys.l2.hits)
            mx.counter("sim.l2_misses").inc(self.memsys.l2.misses)
        return self.cycle

    def _launch(
        self, program: Program, n_threads: int, args: Sequence[int], name: str,
    ) -> None:
        """Run one kernel to completion over ``n_threads`` work-items,
        its wavefronts distributed round-robin over the compute units."""
        if n_threads <= 0:
            raise ValueError("kernel needs at least one thread")
        n_wfs = (n_threads + WAVEFRONT_LANES - 1) // WAVEFRONT_LANES
        stats = LaunchStats(name, n_threads, n_wfs, start_cycle=self.cycle)
        for i in range(n_wfs):
            wf_id = self._wf_seq
            self._wf_seq += 1
            base = i * WAVEFRONT_LANES
            exec_mask = (base + LANE_IDS) < n_threads
            sregs = [i, wf_id] + [int(a) & M32 for a in args]
            wf = Wavefront(
                wf_id, program, exec_mask, sregs, GlobalMemory(self.lds_bytes)
            )
            self.wf_programs[wf_id] = program
            wf.vregs[0] = (base + LANE_IDS).astype(np.uint32)  # v0 = global tid
            wf.vregs[1] = LANE_IDS.astype(np.uint32)           # v1 = lane id
            self.cus[i % len(self.cus)].pending.append(wf)
        n_before = len(self._rows)
        with get_tracer().span("kernel", kernel=name, wavefronts=n_wfs) as sp:
            self._run()
        stats.instructions = len(self._rows) - n_before
        stats.end_cycle = self.cycle
        # The span's args dict is shared with the recorded event, so the
        # counts become visible in the exported trace.
        sp.set(instructions=stats.instructions, cycles=stats.cycles)
        mx = get_metrics()
        if mx:
            mx.counter("sim.kernel_launches").inc()
            mx.counter("sim.instructions").inc(stats.instructions)
            mx.counter("sim.cycles").inc(stats.cycles)
        self.launches.append(stats)

    def stats(self) -> Dict[str, object]:
        """Summary statistics of everything executed so far.

        Returns instruction/cycle counts, aggregate IPC, and per-level cache
        hit rates — the quick sanity panel for a workload's behaviour.
        """
        total_instr = len(self.trace)
        cycles = max(self.cycle, 1)
        l1_hits = sum(l1.hits for l1 in self.memsys.l1s)
        l1_misses = sum(l1.misses for l1 in self.memsys.l1s)
        l2 = self.memsys.l2
        def _rate(h: int, m: int) -> float:
            return h / (h + m) if (h + m) else 0.0
        return {
            "instructions": total_instr,
            "cycles": self.cycle,
            "ipc": total_instr / cycles,
            "wavefronts": self._wf_seq,
            "launches": len(self.launches),
            "l1_hit_rate": _rate(l1_hits, l1_misses),
            "l1_accesses": l1_hits + l1_misses,
            "l2_hit_rate": _rate(l2.hits, l2.misses),
            "l2_accesses": l2.hits + l2.misses,
        }

    def _run(self) -> None:
        while any(cu.busy() for cu in self.cus):
            if self._mem_injections:
                self._apply_mem_injections()
            nxt: List[int] = []
            for cu in self.cus:
                r = cu.step(self.cycle)
                if r is not None:
                    nxt.append(r)
            if not nxt:
                break
            self.cycle = max(self.cycle + 1, min(nxt))
            if self.cycle > self.max_cycles:
                raise SimulationHang(
                    "simulation exceeded max_cycles (runaway kernel?)"
                )

    # -- operand access ----------------------------------------------------

    def _fetch_v(self, wf: Wavefront, op) -> np.ndarray:
        kind, x = op
        if kind == "v":
            return wf.vregs[x]
        if kind == "s":
            return np.full(WAVEFRONT_LANES, wf.sregs[x] & M32, dtype=np.uint32)
        return np.full(WAVEFRONT_LANES, x & M32, dtype=np.uint32)

    def _fetch_s(self, wf: Wavefront, op) -> int:
        kind, x = op
        if kind == "s":
            return wf.sregs[x]
        if kind == "imm":
            return x & M32
        raise ValueError("scalar instructions cannot read vector registers")

    @staticmethod
    def _write_v(wf: Wavefront, dst, value: np.ndarray, mask: np.ndarray) -> None:
        reg = wf.vregs[dst[1]]
        reg[mask] = value.astype(np.uint32)[mask]

    # -- execution ---------------------------------------------------------

    def _record(
        self, wf: Wavefront, t: int, addrs: np.ndarray = _NO_ADDRS,
        acc: Optional[np.ndarray] = None,
    ) -> int:
        """Append a trace row for ``wf``'s current instruction; its uid.
        A wavefront's ``exec_mask`` and ``vcc`` are replaced, never
        written in place, so the row keeps them by reference until
        :meth:`run` freezes the trace."""
        exec_mask = wf.exec_mask
        self._rows.append((
            t, wf.id, wf.pc, exec_mask, exec_mask if acc is None else acc,
            wf.vcc, addrs,
        ))
        return len(self._rows) - 1

    def _execute(self, cu: ComputeUnit, wf: Wavefront, t: int) -> None:
        if self._injections:
            self._apply_injections(wf, t)
        ins = wf.program.instrs[wf.pc]
        row = OPS[ins.op]
        kind = row.kind
        next_pc = wf.pc + 1
        wf.ready = t + 1

        if kind == VALU or kind == VCMP or kind == READLANE:
            # recorded, then into the dst VGPR's or VCC's active lanes or an SGPR
            self._record(wf, t)
            res = row.fn([self._fetch_v(wf, x) for x in ins.srcs], ins, wf.vcc)
            if kind == VALU:
                self._write_v(wf, ins.dst, res, wf.exec_mask)
            elif kind == VCMP:
                wf.vcc = np.where(wf.exec_mask, res, wf.vcc)
            else:
                wf.sregs[ins.dst[1]] = int(res)
        elif kind == MEM:
            self._exec_memory(cu, wf, ins, t)
        elif kind == SALU or kind == SCMP:
            res = row.fn([self._fetch_s(wf, x) for x in ins.srcs], ins, wf.vcc)
            if kind == SALU:
                wf.sregs[ins.dst[1]] = res & M32
            else:
                wf.scc = res
        elif kind == BRANCH:
            if row.fn([wf.scc], ins, wf.vcc):
                next_pc = wf.program.target_pc(ins.target)
        else:  # END
            wf.done = True
            return
        wf.pc = next_pc

    def _exec_memory(self, cu: ComputeUnit, wf: Wavefront, ins: Instr, t: int) -> None:
        row = OPS[ins.op]
        is_store, is_lds, nbytes = row.store, row.space == LDS, row.nbytes
        addr_src = ins.srcs[1] if is_store else ins.srcs[0]
        addrs = (self._fetch_v(wf, addr_src) + np.uint32(ins.offset)).astype(np.uint32)
        active = wf.exec_mask & (wf.vcc if ins.predicated else True)
        uid = self._record(wf, t, addrs=addrs, acc=active)
        lat = 2 if is_lds else 1
        if active.any():
            aa = addrs[active]
            space = wf.lds if is_lds else self.memory
            if is_store:
                space.store(aa, nbytes, self._fetch_v(wf, ins.srcs[0])[active])
            else:
                out = self._fetch_v(wf, ins.dst).copy()
                out[active] = space.load(aa, nbytes)
                self._write_v(wf, ins.dst, out, active)
            if not is_lds:
                access = self.memsys.store if is_store else self.memsys.load
                lat = access(cu.id, aa, nbytes, t, uid)
        wf.ready = t + lat
