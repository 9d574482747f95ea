"""Dynamic trace records shared by the simulator and the AVF analyses.

The simulator is instrumented exactly like the paper's "event-tracking
phase" (Sec. VI-A): it records *when* potentially-ACEness-affecting events
happen, and a later analysis phase resolves them into per-byte lifetime
intervals.  Two kinds of records exist:

* :class:`InstrRecord` — one per executed *vector* instruction (vector ALU,
  compares, memory).  Scalar/control instructions don't touch tracked state
  and are treated as always-live, so they are not recorded.
* Cache events (:class:`FillEvent`, :class:`ReadEvent`, :class:`WriteEvent`,
  :class:`EvictEvent`) — emitted by each cache level with the global cycle.

The liveness pass (:mod:`repro.arch.liveness`) later annotates
:class:`InstrRecord` objects in place with per-source needed-bit masks.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .memory import lane_bytes

__all__ = [
    "InstrRecord",
    "FillEvent",
    "ReadEvent",
    "WriteEvent",
    "EvictEvent",
]


class InstrRecord:
    """One executed vector instruction.

    Attributes filled by the simulator:

    ``uid``        globally-increasing dynamic instruction id
    ``t``          issue cycle
    ``wf``         wavefront id
    ``op``         opcode string
    ``dst``        destination operand (or None)
    ``srcs``       source operand tuple
    ``exec_mask``  active lanes (bool, 16)
    ``addrs``      per-lane byte addresses for memory ops (uint32, 16)
    ``nbytes``     access width for memory ops (1 or 4)
    ``acc_mask``   lanes that actually accessed memory (exec & predicate)
    ``vcc_snap``   VCC at issue (for cndmask and predicated ops)
    ``space``      'global' or 'lds' for memory ops

    Attributes filled by the liveness pass:

    ``live``         any lane of this instruction feeds program output
    ``src_needed``   per-source per-lane needed-bit masks (uint32, 16), or
                     None for non-register sources
    ``load_needed``  for loads: per-lane needed-bit masks of the loaded value
    ``mem_needed``   for stores: per-lane needed-bit masks of the stored value
    """

    __slots__ = (
        "uid", "t", "wf", "op", "dst", "srcs", "exec_mask", "addrs",
        "nbytes", "acc_mask", "vcc_snap", "space",
        "live", "src_needed", "load_needed", "mem_needed",
    )

    def __init__(
        self,
        uid: int,
        t: int,
        wf: int,
        op: str,
        dst,
        srcs,
        exec_mask: np.ndarray,
        addrs: Optional[np.ndarray] = None,
        nbytes: int = 4,
        acc_mask: Optional[np.ndarray] = None,
        vcc_snap: Optional[np.ndarray] = None,
        space: str = "global",
    ) -> None:
        self.uid = uid
        self.t = t
        self.wf = wf
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.exec_mask = exec_mask
        self.addrs = addrs
        self.nbytes = nbytes
        self.acc_mask = acc_mask
        self.vcc_snap = vcc_snap
        self.space = space
        self.live = True
        self.src_needed = None
        self.load_needed = None
        self.mem_needed = None

    def access_bytes(self) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.arch.memory.lane_bytes` of a memory op's active
        lanes: every byte they touch, and whether a load's
        ``load_needed`` masks make it live (all live before the liveness
        pass, and for stores)."""
        lanes = self.acc_mask
        needed = self.load_needed
        return lane_bytes(
            self.addrs[lanes],
            self.nbytes,
            None if needed is None else needed[lanes],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstrRecord #{self.uid} t={self.t} wf={self.wf} {self.op}>"


class FillEvent:
    """A line was brought into (set, way) at cycle ``t``."""

    __slots__ = ("t", "set", "way", "line_addr", "fill_id")

    def __init__(self, t: int, set_: int, way: int, line_addr: int, fill_id: int):
        self.t = t
        self.set = set_
        self.way = way
        self.line_addr = line_addr
        self.fill_id = fill_id


class ReadEvent:
    """Bytes of a resident line were read out of the array at cycle ``t``.

    ``kind`` is one of:

    * ``'demand'`` — an architectural load hit; ``uid`` references the
      :class:`InstrRecord` whose per-lane addresses/liveness define which
      bytes were read and whether they mattered.
    * ``'fill'`` — the whole line was read to fill the next cache level up;
      ``link`` is the upper level's fill id, whose resolved byte liveness
      defines this read's liveness (hierarchical/transitive ACE analysis).
    * ``'writeback'`` — dirty bytes (``byte_mask``) were read out to be
      written to the next level down; liveness comes from whether the
      written-back values are later consumed (memory-level analysis).
    """

    __slots__ = ("t", "set", "way", "line_addr", "kind", "uid", "link", "byte_mask")

    def __init__(
        self,
        t: int,
        set_: int,
        way: int,
        line_addr: int,
        kind: str,
        uid: Optional[int] = None,
        link: Optional[int] = None,
        byte_mask: Optional[np.ndarray] = None,
    ):
        self.t = t
        self.set = set_
        self.way = way
        self.line_addr = line_addr
        self.kind = kind
        self.uid = uid
        self.link = link
        self.byte_mask = byte_mask


class WriteEvent:
    """Bytes of a resident line were overwritten by a store at cycle ``t``."""

    __slots__ = ("t", "set", "way", "line_addr", "uid")

    def __init__(self, t: int, set_: int, way: int, line_addr: int, uid: int):
        self.t = t
        self.set = set_
        self.way = way
        self.line_addr = line_addr
        self.uid = uid


class EvictEvent:
    """A line left (set, way) at cycle ``t`` (writeback already recorded)."""

    __slots__ = ("t", "set", "way", "line_addr")

    def __init__(self, t: int, set_: int, way: int, line_addr: int):
        self.t = t
        self.set = set_
        self.way = way
        self.line_addr = line_addr
