"""The dynamic instruction trace shared by the simulator and the analyses.

The simulator is instrumented exactly like the paper's "event-tracking
phase" (Sec. VI-A): it records *when* potentially-ACEness-affecting events
happen, and a later analysis phase resolves them into per-byte lifetime
intervals.  Each device keeps one columnar :class:`Trace` with a row per
executed *vector* instruction (vector ALU, compares, memory); scalar and
control instructions don't touch tracked state and are treated as
always-live, so they are not recorded.  Each cache keeps one event table
(:class:`~repro.arch.cache.CacheEvents`).

Row ``i`` is dynamic instruction uid ``i``.  A row's static fields (op,
operands, access width, predication) are not copied: they are the
instruction at ``pc`` of the wavefront's program.  The liveness pass
(:mod:`repro.arch.liveness`) returns its needed-bit masks as arrays over
the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .isa import WAVEFRONT_LANES
from .memory import lane_bytes

__all__ = ["Trace", "TraceRow"]

#: One row as the simulator records it: ``(t, wf, pc, exec, acc, vcc, addrs)``.
TraceRow = Tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Trace:
    """One device's executed vector instructions, one row each.

    ``t``      issue cycle (int64, ``(n,)``)
    ``wf``     wavefront id (int64, ``(n,)``)
    ``pc``     instruction index in the wavefront's program (int64, ``(n,)``)
    ``exec``   active lanes (bool, ``(n, 16)``)
    ``acc``    lanes that accessed memory (exec & predicate); ``exec``
               outside memory ops (bool, ``(n, 16)``)
    ``vcc``    VCC at issue (bool, ``(n, 16)``)
    ``addrs``  per-lane byte addresses of memory ops, zero elsewhere
               (uint32, ``(n, 16)``)
    """

    t: np.ndarray
    wf: np.ndarray
    pc: np.ndarray
    exec: np.ndarray
    acc: np.ndarray
    vcc: np.ndarray
    addrs: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[TraceRow]) -> Trace:
        """The simulator's recorded rows as one table of arrays."""
        n = len(rows)
        t, wf, pc, exec_mask, acc, vcc, addrs = list(zip(*rows)) or [()] * 7

        def lanes(col: Tuple[object, ...], dtype: type) -> np.ndarray:
            return np.array(col, dtype=dtype).reshape(n, WAVEFRONT_LANES)

        return cls(
            np.array(t, dtype=np.int64),
            np.array(wf, dtype=np.int64),
            np.array(pc, dtype=np.int64),
            lanes(exec_mask, bool),
            lanes(acc, bool),
            lanes(vcc, bool),
            lanes(addrs, np.uint32),
        )

    def __len__(self) -> int:
        return len(self.t)

    def access_bytes(
        self, row: int, nbytes: int, needed: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.arch.memory.lane_bytes` of memory-op row ``row``'s
        accessing lanes: every byte they touch, and whether the row's
        per-lane ``needed`` masks (a load's, from the liveness pass) have
        a bit in it (all of them without ``needed``)."""
        lanes = self.acc[row]
        return lane_bytes(
            self.addrs[row][lanes],
            nbytes,
            None if needed is None else needed[lanes],
        )

    def wf_rows(self) -> Dict[int, np.ndarray]:
        """Each wavefront's row indices in trace order, from one stable
        argsort of ``wf``; wavefronts that recorded nothing are absent."""
        order = np.argsort(self.wf, kind="stable")
        ids, starts = np.unique(self.wf[order], return_index=True)
        return dict(zip(ids.tolist(), np.split(order, starts[1:])))
