"""Dynamic-dead-instruction and logic-masking analysis.

The paper's AVF infrastructure "considers program-level effects such as
first-level and transitive dynamic-dead instructions and logic masking"
(Sec. VI-A).  This module implements that as a single backward pass over the
dynamic instruction trace:

* per-lane, per-register **needed-bit masks** propagate which bits of each
  value can still influence program output (logic masking: ``v_and`` with a
  constant kills bits, shifts move them, compares need everything, ...);
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

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .isa import WAVEFRONT_LANES, Instr, Program
from .memory import last_lane_wins
from .trace import Trace

__all__ = ["Liveness", "analyze_liveness"]

M32 = np.uint32(0xFFFFFFFF)
_LANES = np.arange(WAVEFRONT_LANES)
_ZERO = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
#: The bits of each byte of a little-endian 32-bit word.
_BYTE_BITS = np.array([0xFF << (8 * k) for k in range(4)], dtype=np.uint32)
#: The most source operands any instruction has (``v_fmac``).
MAX_SRCS = 3


def _fill_below_msb(x: np.ndarray) -> np.ndarray:
    """Set every bit at or below each lane's most significant set bit.

    An adder/multiplier result bit depends on operand bits at or below it
    (carry propagation), so if bit k of the result is needed, operand bits
    0..k are needed.
    """
    y = x.copy()
    y |= y >> np.uint32(1)
    y |= y >> np.uint32(2)
    y |= y >> np.uint32(4)
    y |= y >> np.uint32(8)
    y |= y >> np.uint32(16)
    return y


def _full_if(out: np.ndarray) -> np.ndarray:
    """All 32 bits needed on lanes where any output bit is needed."""
    return np.where(out != 0, M32, np.uint32(0))


def _alu_src_masks(
    ins: Instr, out: np.ndarray, trace: Trace, i: int
) -> List[Optional[np.ndarray]]:
    """Per-source needed masks for vector ALU instruction row ``i``."""
    op = ins.op
    srcs = ins.srcs
    masks: List[Optional[np.ndarray]] = [None] * len(srcs)

    def imm_of(i: int) -> Optional[int]:
        return int(srcs[i][1]) if srcs[i][0] == "imm" else None

    if op == "v_mov":
        masks[0] = out
    elif op in ("v_add", "v_sub", "v_mul"):
        m = _fill_below_msb(out)
        masks[0] = m
        masks[1] = m
    elif op in ("v_and", "v_or"):
        for i in (0, 1):
            other = imm_of(1 - i)
            if other is None:
                masks[i] = out
            elif op == "v_and":
                masks[i] = out & np.uint32(other)
            else:
                masks[i] = out & np.uint32(~other & 0xFFFFFFFF)
    elif op in ("v_xor", "v_not"):
        for i in range(len(srcs)):
            masks[i] = out
    elif op in ("v_shl", "v_shr", "v_ashr"):
        k = imm_of(1)
        if k is None:
            masks[0] = _full_if(out)
            masks[1] = np.where(out != 0, np.uint32(31), np.uint32(0))
        else:
            k &= 31
            if op == "v_shl":
                masks[0] = out >> np.uint32(k)
            elif op == "v_shr":
                masks[0] = out << np.uint32(k)
            else:  # arithmetic: the sign bit smears into every result bit
                masks[0] = (out << np.uint32(k)) | np.where(
                    out != 0, np.uint32(0x80000000), np.uint32(0)
                )
    elif op == "v_cndmask":
        vcc = trace.vcc[i]
        masks[0] = np.where(vcc, out, np.uint32(0))
        masks[1] = np.where(vcc, np.uint32(0), out)
    elif op == "v_shuffle_up":
        delta = int(srcs[1][1])
        m = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
        if delta < WAVEFRONT_LANES:
            m[: WAVEFRONT_LANES - delta] = out[delta:]
        masks[0] = m
    elif op == "v_shuffle_xor":
        xm = int(srcs[1][1])
        masks[0] = out[_LANES ^ xm]
    else:
        # min/max/abs, all float ops, conversions: every input bit can
        # influence the result.
        for i, src in enumerate(srcs):
            if src[0] == "v":
                masks[i] = _full_if(out)
    return masks


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
    wfs, pcs, execs = trace.wf.tolist(), trace.pc.tolist(), list(trace.exec)

    for i in range(n - 1, -1, -1):
        wf = wfs[i]
        program = programs[wf]
        st = wf_states.get(wf)
        if st is None:
            st = _WfState(program.n_vregs, lds_size)
            wf_states[wf] = st
        ins = program.instrs[pcs[i]]
        op = ins.op
        exec_mask = execs[i]
        masks: Sequence[Optional[np.ndarray]]
        lanes: Optional[np.ndarray] = None  # source masks cleared outside

        if op in ("v_load", "v_load_u8", "lds_load"):
            out = _process_load(trace, i, ins, st, res)
            masks = [_full_if(out)] * len(ins.srcs)
        elif op in ("v_store", "v_store_u8", "lds_store"):
            out = _process_store(trace, i, ins, st, res)
            masks = [out, _full_if(out)]  # srcs = (value, addr)
        elif op in ("v_cmp", "v_fcmp"):
            out = np.where(st.needed_vcc & exec_mask, M32, np.uint32(0))
            masks = [out] * len(ins.srcs)
            st.needed_vcc = st.needed_vcc & ~exec_mask
        elif op == "v_readlane":
            # Scalar state is conservatively always live (it is almost
            # always control/address computation).
            out = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
            out[int(ins.srcs[1][1])] = M32
            masks = [out, None]
        else:
            out = _take_out_mask(ins, st, exec_mask)
            masks = _alu_src_masks(ins, out, trace, i)
            if op not in ("v_shuffle_up", "v_shuffle_xor"):
                # Shuffles read source lanes regardless of the exec mask.
                lanes = exec_mask
            if op == "v_cndmask":
                st.needed_vcc |= (out != 0) & exec_mask

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
    trace: Trace, i: int, ins: Instr, st: _WfState, res: Liveness
) -> np.ndarray:
    """Mark the bytes row ``i`` loads needed where its value is; returns
    the value's needed bits."""
    out = _take_out_mask(ins, st, trace.acc[i])
    if ins.nbytes == 1:
        out = out & np.uint32(0xFF)
    res.mem_needed[i] = out
    mem = st.needed_lds if ins.op == "lds_load" else res.needed_mem
    addr, live = trace.access_bytes(i, ins.nbytes, out)
    mem[addr[live]] = True
    if ins.predicated:
        st.needed_vcc |= (out != 0) & trace.exec[i]
    return out


def _process_store(
    trace: Trace, i: int, ins: Instr, st: _WfState, res: Liveness
) -> np.ndarray:
    """Mark the bytes row ``i`` stores overwritten; returns the stored
    value's needed bits."""
    mem = st.needed_lds if ins.op == "lds_store" else res.needed_mem
    addr, _ = trace.access_bytes(i, ins.nbytes)
    # Only the lane whose byte memory keeps can have it read later.
    needed = mem[addr] & last_lane_wins(addr)
    mem[addr] = False  # overwritten: earlier values are dead
    mem_needed: np.ndarray = res.mem_needed[i]
    mem_needed[trace.acc[i]] = (needed * _BYTE_BITS[: ins.nbytes]).sum(
        axis=1, dtype=np.uint32
    )
    if ins.predicated:
        st.needed_vcc |= (mem_needed != 0) & trace.exec[i]
    return mem_needed
