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

The pass annotates each :class:`~repro.arch.trace.InstrRecord` in place with
``src_needed`` (per-source masks), ``load_needed`` / ``mem_needed`` (which
loaded/stored bytes matter) — exactly what the lifetime analyses consume to
classify reads as live or dead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .isa import WAVEFRONT_LANES
from .memory import last_lane_wins
from .trace import InstrRecord

__all__ = ["analyze_liveness"]

M32 = np.uint32(0xFFFFFFFF)
_LANES = np.arange(WAVEFRONT_LANES)
_ZERO = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
#: The bits of each byte of a little-endian 32-bit word.
_BYTE_BITS = np.array([0xFF << (8 * k) for k in range(4)], dtype=np.uint32)


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


def _alu_src_masks(rec: InstrRecord, out: np.ndarray) -> List[Optional[np.ndarray]]:
    """Per-source needed masks for a vector ALU instruction."""
    op = rec.op
    srcs = rec.srcs
    masks: List[Optional[np.ndarray]] = [None] * len(srcs)

    def imm_of(i: int) -> Optional[int]:
        return srcs[i][1] if srcs[i][0] == "imm" else None

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
        vcc = rec.vcc_snap
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


def analyze_liveness(
    records: Sequence[InstrRecord],
    n_vregs_by_wf: Dict[int, int],
    mem_size: int,
    output_ranges: Sequence[Tuple[int, int]],
    lds_size: int = 4096,
) -> np.ndarray:
    """Annotate ``records`` in place; returns the final needed-memory map.

    ``output_ranges`` are (base, size) pairs of the buffers the host reads
    after the workload: their final contents are live by definition, and
    everything else is live only if it transitively feeds them.
    """
    needed_mem = np.zeros(mem_size, dtype=bool)
    for base, size in output_ranges:
        needed_mem[base : base + size] = True
    wf_states: Dict[int, _WfState] = {}

    for rec in reversed(records):
        st = wf_states.get(rec.wf)
        if st is None:
            st = _WfState(n_vregs_by_wf[rec.wf], lds_size)
            wf_states[rec.wf] = st
        op = rec.op

        if op in ("v_load", "v_load_u8", "lds_load"):
            _process_load(rec, st, needed_mem)
        elif op in ("v_store", "v_store_u8", "lds_store"):
            _process_store(rec, st, needed_mem)
        elif op in ("v_cmp", "v_fcmp"):
            out_lanes = st.needed_vcc & rec.exec_mask
            mask = np.where(out_lanes, M32, np.uint32(0))
            rec.src_needed = []
            for src in rec.srcs:
                if src[0] == "v":
                    rec.src_needed.append(mask)
                    st.needed_vreg[src[1]] |= mask
                else:
                    rec.src_needed.append(None)
            rec.live = bool(out_lanes.any())
            st.needed_vcc = st.needed_vcc & ~rec.exec_mask
        elif op == "v_readlane":
            # Scalar state is conservatively always live (it is almost
            # always control/address computation).
            lane = int(rec.srcs[1][1])
            mask = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
            mask[lane] = M32
            rec.src_needed = [mask, None]
            if rec.srcs[0][0] == "v":
                st.needed_vreg[rec.srcs[0][1]] |= mask
            rec.live = True
        else:
            _process_alu(rec, st)

    return needed_mem


def _take_out_mask(rec: InstrRecord, st: _WfState, lanes: np.ndarray) -> np.ndarray:
    """Needed mask for the destination, then mark it redefined on ``lanes``."""
    dst = rec.dst[1]
    out = np.where(lanes, st.needed_vreg[dst], np.uint32(0))
    st.needed_vreg[dst][lanes] = 0
    return out


def _process_alu(rec: InstrRecord, st: _WfState) -> None:
    out = _take_out_mask(rec, st, rec.exec_mask)
    rec.live = bool(out.any())
    masks = _alu_src_masks(rec, out)
    rec.src_needed = []
    for src, mask in zip(rec.srcs, masks):
        if src[0] != "v" or mask is None:
            rec.src_needed.append(None)
            continue
        if rec.op in ("v_shuffle_up", "v_shuffle_xor"):
            # Shuffles read source lanes regardless of the exec mask.
            lane_mask = mask
        else:
            lane_mask = np.where(rec.exec_mask, mask, np.uint32(0))
        rec.src_needed.append(lane_mask)
        st.needed_vreg[src[1]] |= lane_mask
    if rec.op == "v_cndmask":
        st.needed_vcc |= (out != 0) & rec.exec_mask


def _process_load(rec: InstrRecord, st: _WfState, needed_mem: np.ndarray) -> None:
    lanes = rec.acc_mask
    out = _take_out_mask(rec, st, lanes)
    if rec.op.endswith("_u8"):
        out = out & np.uint32(0xFF)
    rec.load_needed = out
    rec.live = bool(out.any())
    mem = st.needed_lds if rec.space == "lds" else needed_mem
    addr, live = rec.access_bytes()
    mem[addr[live]] = True
    addr_mask = _full_if(out)
    rec.src_needed = []
    for src in rec.srcs:
        if src[0] == "v":
            rec.src_needed.append(addr_mask)
            st.needed_vreg[src[1]] |= addr_mask
        else:
            rec.src_needed.append(None)
    if rec.vcc_snap is not None:
        st.needed_vcc |= (out != 0) & rec.exec_mask


def _process_store(rec: InstrRecord, st: _WfState, needed_mem: np.ndarray) -> None:
    lanes = rec.acc_mask
    mem = st.needed_lds if rec.space == "lds" else needed_mem
    addr, _ = rec.access_bytes()
    # Only the lane whose byte memory keeps can have it read later.
    needed = mem[addr] & last_lane_wins(addr)
    mem[addr] = False  # overwritten: earlier values are dead
    mem_needed = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
    mem_needed[lanes] = (needed * _BYTE_BITS[: rec.nbytes]).sum(
        axis=1, dtype=np.uint32
    )
    rec.mem_needed = mem_needed
    rec.live = bool(mem_needed.any())
    addr_mask = _full_if(mem_needed)
    # srcs = (value, addr)
    rec.src_needed = [None, None]
    if rec.srcs[0][0] == "v":
        rec.src_needed[0] = mem_needed
        st.needed_vreg[rec.srcs[0][1]] |= mem_needed
    if rec.srcs[1][0] == "v":
        rec.src_needed[1] = addr_mask
        st.needed_vreg[rec.srcs[1][1]] |= addr_mask
    if rec.vcc_snap is not None:
        st.needed_vcc |= (mem_needed != 0) & rec.exec_mask
