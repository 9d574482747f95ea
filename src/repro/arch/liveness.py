"""Dynamic-dead-instruction and logic-masking analysis.

The paper's AVF infrastructure "considers program-level effects such as
first-level and transitive dynamic-dead instructions and logic masking"
(Sec. VI-A).  This module implements that as a single backward pass over the
dynamic instruction trace:

* per-lane, per-register **needed-bit masks** propagate which bits of each
  value can still influence program output (logic masking: ``v_and`` with a
  constant kills bits, shifts move them, compares need everything, ...).
  Each op's rule is the ``needed`` field of its row in the opcode table
  (:data:`~repro.arch.isa.OPS`), next to the semantics the simulator runs;
  this pass only moves masks between registers, VCC and memory;
* an instruction none of whose result bits are needed is **dynamically
  dead** — transitively, since deadness flows backward through the masks;
* memory and LDS are tracked at byte granularity, seeded by the workload's
  declared output buffers.

The pass returns, per :class:`~repro.arch.trace.Trace` row, whether it is
live, each source's needed-bit masks and which loaded/stored bits matter
(:class:`Liveness`) — exactly what the lifetime analyses consume to
classify reads as live or dead.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .isa import (
    LDS, M32, MEM, OPS, READLANE, VCMP, WAVEFRONT_LANES, Instr, OpDef, Program,
)
from .memory import last_lane_wins
from .trace import Trace

__all__ = ["Liveness", "analyze_liveness"]

#: Every bit of every lane.
_ALL = np.full(WAVEFRONT_LANES, M32, dtype=np.uint32)
#: The bits of each byte of a little-endian 32-bit word.
_BYTE_BITS = np.array([0xFF << (8 * k) for k in range(4)], dtype=np.uint32)
#: The most source operands any instruction has (``v_fmac``).
MAX_SRCS = 3


class _WfState:
    """Backward-pass state for one wavefront."""

    __slots__ = ("needed_vreg", "needed_vcc", "needed_lds")

    def __init__(self, n_vregs: int, lds_size: int) -> None:
        self.needed_vreg = np.zeros((n_vregs, WAVEFRONT_LANES), dtype=np.uint32)
        self.needed_vcc = np.zeros(WAVEFRONT_LANES, dtype=bool)
        self.needed_lds = np.zeros(lds_size, dtype=bool)


class Liveness(NamedTuple):
    """What :func:`analyze_liveness` finds, one entry per trace row."""

    #: bool ``(mem_size,)``: memory bytes still needed before the first row
    needed_mem: np.ndarray
    #: bool ``(n,)``: any lane of the row feeds program output
    live: np.ndarray
    #: uint32 ``(n, MAX_SRCS, 16)``: each VGPR source's needed bits
    src_needed: np.ndarray
    #: uint32 ``(n, 16)``: a load's needed bits of the loaded value, a
    #: store's of the stored value
    mem_needed: np.ndarray


def analyze_liveness(
    trace: Trace,
    programs: Mapping[int, Program],
    mem_size: int,
    output_ranges: Sequence[Tuple[int, int]],
    lds_size: int = 4096,
) -> Liveness:
    """One backward walk over ``trace``, whose row ``i`` ran instruction
    ``programs[wf].instrs[pc]``.

    ``output_ranges`` are (base, size) pairs of the buffers the host reads
    after the workload: their final contents are live by definition, and
    everything else is live only if it transitively feeds them.
    """
    n = len(trace)
    res = Liveness(
        np.zeros(mem_size, dtype=bool),
        np.zeros(n, dtype=bool),
        np.zeros((n, MAX_SRCS, WAVEFRONT_LANES), dtype=np.uint32),
        np.zeros((n, WAVEFRONT_LANES), dtype=np.uint32),
    )
    for base, size in output_ranges:
        res.needed_mem[base : base + size] = True
    wf_states: Dict[int, _WfState] = {}
    wfs, pcs = trace.wf.tolist(), trace.pc.tolist()
    execs, vccs = list(trace.exec), list(trace.vcc)

    for i in range(n - 1, -1, -1):
        wf = wfs[i]
        program = programs[wf]
        st = wf_states.get(wf)
        if st is None:
            st = _WfState(program.n_vregs, lds_size)
            wf_states[wf] = st
        ins = program.instrs[pcs[i]]
        row = OPS[ins.op]
        exec_mask = execs[i]
        lanes: Optional[np.ndarray] = None  # source masks cleared outside

        if row.kind == MEM:
            if row.store:
                out = _process_store(trace, i, ins, row, st, res)
            else:
                out = _process_load(trace, i, ins, row, st, res)
        elif row.kind == VCMP:
            out = np.where(st.needed_vcc & exec_mask, _ALL, np.uint32(0))
            st.needed_vcc = st.needed_vcc & ~exec_mask
        elif row.kind == READLANE:
            # Scalar state is conservatively always live (it is almost
            # always control/address computation).
            out = _ALL
        else:
            out = _take_out_mask(ins, st, exec_mask)
            if not row.all_lanes:
                lanes = exec_mask
            if row.reads_vcc:
                st.needed_vcc |= (out != 0) & exec_mask
        masks = row.needed(out, ins, vccs[i])

        res.live[i] = out.any()
        for j, (src, mask) in enumerate(zip(ins.srcs, masks)):
            if src[0] == "v" and mask is not None:
                if lanes is not None:
                    mask = np.where(lanes, mask, np.uint32(0))
                res.src_needed[i, j] = mask
                st.needed_vreg[int(src[1])] |= mask

    return res


def _take_out_mask(ins: Instr, st: _WfState, lanes: np.ndarray) -> np.ndarray:
    """Needed mask for the destination, then mark it redefined on ``lanes``."""
    assert ins.dst is not None
    dst = int(ins.dst[1])
    out = np.where(lanes, st.needed_vreg[dst], np.uint32(0))
    st.needed_vreg[dst][lanes] = 0
    return out


def _process_load(
    trace: Trace, i: int, ins: Instr, row: OpDef, st: _WfState, res: Liveness
) -> np.ndarray:
    """Mark the bytes row ``i`` loads needed where its value is; returns
    the value's needed bits."""
    out = _take_out_mask(ins, st, trace.acc[i])
    if row.nbytes == 1:
        out = out & np.uint32(0xFF)
    res.mem_needed[i] = out
    mem = st.needed_lds if row.space == LDS else res.needed_mem
    addr, live = trace.access_bytes(i, row.nbytes, out)
    mem[addr[live]] = True
    if ins.predicated:
        st.needed_vcc |= (out != 0) & trace.exec[i]
    return out


def _process_store(
    trace: Trace, i: int, ins: Instr, row: OpDef, st: _WfState, res: Liveness
) -> np.ndarray:
    """Mark the bytes row ``i`` stores overwritten; returns the stored
    value's needed bits."""
    mem = st.needed_lds if row.space == LDS else res.needed_mem
    addr, _ = trace.access_bytes(i, row.nbytes)
    # Only the lane whose byte memory keeps can have it read later.
    needed = mem[addr] & last_lane_wins(addr)
    mem[addr] = False  # overwritten: earlier values are dead
    mem_needed: np.ndarray = res.mem_needed[i]
    mem_needed[trace.acc[i]] = (needed * _BYTE_BITS[: row.nbytes]).sum(
        axis=1, dtype=np.uint32
    )
    if ins.predicated:
        st.needed_vcc |= (mem_needed != 0) & trace.exec[i]
    return mem_needed
