"""Lifetime analysis: simulator events -> per-byte classed ACE intervals.

This is the "analysis phase" of the paper's two-phase AVF measurement
(Sec. VI-A).  It consumes the trace and cache event tables produced by the
simulator and the needed-bit masks produced by the liveness pass, and emits
:class:`~repro.core.avf.StructureLifetimes` for each tracked structure.
Every extractor tracks per-byte state in arrays, collects its intervals as
``(byte, start, end, class)`` rows, and builds the structure's one CSR
table with :meth:`~repro.core.avf.StructureLifetimes.from_rows`.

Classification rules (per byte, per value segment):

* time from value creation (fill/write) to its **last live read** is ACE —
  a fault there corrupts a consumed value;
* time from the last live read to the **last read of any kind** is
  READ_DEAD — a fault there is observed (so a detector fires: false DUE)
  but the data is dynamically dead;
* everything else is unACE.

Reads come in three flavours: architectural loads (liveness from the
backward dataflow pass), line read-outs that fill the next cache level up
(liveness resolved *transitively* from how the filled copy was used), and
dirty write-backs (liveness read from the memory lifetimes of
:func:`analyze_memory`: a written-back value is live while memory holds it
ACE, i.e. until its last live load, or to the end for output buffers).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..arch.cache import DEMAND_READ, EVICT, FILL, FILL_READ, WRITE, Cache
from ..arch.isa import GLOBAL, OPS, WAVEFRONT_LANES, Program
from ..arch.trace import Trace
from .avf import StructureLifetimes
from .intervals import AceClass, _csr_take, union_rows
from .layout import TAG_BYTES, cache_byte_index, regfile_byte_index

__all__ = [
    "analyze_cache",
    "analyze_vgpr",
    "analyze_memory",
    "derive_tag_lifetimes",
]

_ACE = int(AceClass.ACE)
_DEAD = int(AceClass.READ_DEAD)


class _ByteTracker:
    """Per-byte value-segment state machine shared by every extractor.

    A byte's segment opens at a fill or write (``seg_start >= 0``) and
    closes at the next one or at an eviction.  Operations take arrays of
    byte ids; reads keep the latest (live) read time, so repeated ids are
    harmless.  Closed segments are kept as ``(bytes, start, last live read,
    last read)`` chunks and become rows in :meth:`lifetimes`: ACE up to the
    last live read, READ_DEAD from there to the last read of any kind.
    """

    def __init__(self, n_bytes: int, open_at: int = -1) -> None:
        self.n_bytes = n_bytes
        self.seg_start = np.full(n_bytes, open_at, dtype=np.int64)
        self.last_live = np.full(n_bytes, open_at, dtype=np.int64)
        self.last_any = np.full(n_bytes, open_at, dtype=np.int64)
        self.closed: List[Tuple[np.ndarray, ...]] = []

    def open(self, b: np.ndarray, t: int) -> None:
        self.seg_start[b] = self.last_live[b] = self.last_any[b] = t

    def close(self, b: np.ndarray) -> None:
        """Close the open segments of the distinct bytes ``b``."""
        b = b[self.seg_start[b] >= 0]
        self.closed.append(
            (b, self.seg_start[b], self.last_live[b], self.last_any[b])
        )
        self.seg_start[b] = -1

    def read(self, b: np.ndarray, t: int, live: np.ndarray) -> None:
        self.last_any[b] = np.maximum(self.last_any[b], t)
        b = b[live]
        self.last_live[b] = np.maximum(self.last_live[b], t)

    def lifetimes(self, name: str, end_cycle: int) -> StructureLifetimes:
        """Close every open segment and build the lifetime table."""
        self.close(np.arange(self.n_bytes))
        byte, start, last_live, last_any = (
            np.concatenate(c) for c in zip(*self.closed)
        )
        dead_start = np.maximum(last_live, start)
        ace = last_live > start
        dead = last_any > dead_start
        return StructureLifetimes.from_rows(
            name,
            self.n_bytes,
            np.concatenate([byte[ace], byte[dead]]),
            np.concatenate([start[ace], dead_start[dead]]),
            np.concatenate([last_live[ace], last_any[dead]]),
            np.repeat(np.array([_ACE, _DEAD]), [ace.sum(), dead.sum()]),
            0,
            end_cycle,
        )


def _consumed(
    memory: StructureLifetimes, addrs: np.ndarray, t: int
) -> np.ndarray:
    """Whether the values at ``addrs`` as of cycle ``t`` are ever consumed:
    an ACE row ``[s, e)`` with ``s <= t <= e`` in the address-indexed
    ``memory`` (class ACE at ``t`` or ``t - 1``).  Addresses past it are
    not."""
    addrs = np.asarray(addrs, dtype=np.int64)
    inside = addrs < memory.n_bytes
    cls = memory.class_at(np.where(inside, addrs, 0), [[t], [t - 1]])
    consumed: np.ndarray = inside & (cls == _ACE).any(axis=0)
    return consumed


def analyze_cache(
    cache: Cache,
    trace: Trace,
    programs: Mapping[int, Program],
    mem_needed: np.ndarray,
    end_cycle: int,
    *,
    memcons: Optional[StructureLifetimes] = None,
    upstream_fills: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[StructureLifetimes, Dict[int, Tuple[np.ndarray, np.ndarray]]]:
    """Resolve one cache's event table into per-byte ACE lifetimes.

    A demand read or a write names its trace row (``ref``), whose
    accessed bytes in the line are the ones read or written; a demand
    read's liveness is the load's ``mem_needed`` bits
    (:class:`~repro.arch.liveness.Liveness`).

    Returns ``(lifetimes, fills)`` where ``fills`` maps each of this cache's
    fill ids to ``(read_mask, live_mask)`` over the line's bytes — the
    transitive read/liveness verdicts that the *lower* level's analysis
    consumes for its fill reads.  Analyze the hierarchy top
    down: L1s first, then the L2 with ``upstream_fills`` set to the L1s'
    verdicts (their fill ids never collide) and ``memcons`` set for
    write-back liveness.

    ``memcons`` holds memory lifetimes indexed by address; a dirty byte
    written back is live iff memory consumes it (:func:`_consumed`), or
    always without them.
    """
    cfg = cache.config
    lb = cfg.line_bytes
    n_bytes = cfg.n_sets * cfg.n_ways * lb
    trk = _ByteTracker(n_bytes)
    origin_fill = np.full(n_bytes, -1, dtype=np.int64)
    fills: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    whole = np.arange(lb, dtype=np.int64)
    no_upstream = np.ones(lb, dtype=bool)  # conservatively fully live

    def in_line(
        row: int, line_addr: int, needed: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        ins = programs[int(trace.wf[row])].instrs[int(trace.pc[row])]
        addr, live = trace.access_bytes(row, ins.nbytes, needed)
        hit = addr - addr % lb == line_addr
        return addr[hit] % lb, live[hit]

    ev = cache.events()
    # each event's line: its first byte id, plus the line's offsets
    first = cache_byte_index(ev.set, ev.way, 0, cfg.n_ways, lb)
    for kind, t, line0, line_addr, ref in zip(
        *(c.tolist() for c in (ev.kind, ev.t, first, ev.line, ev.ref))
    ):
        line = line0 + whole
        if kind == FILL:
            fills[ref] = (np.zeros(lb, dtype=bool), np.zeros(lb, dtype=bool))
            trk.open(line, t)
            origin_fill[line] = ref
        elif kind == WRITE:
            b = line[np.unique(in_line(ref, line_addr)[0])]
            trk.close(b)
            trk.open(b, t)
            origin_fill[b] = -1
        elif kind == EVICT:
            trk.close(line)
            origin_fill[line] = -1
        else:
            if kind == DEMAND_READ:
                off, live = in_line(ref, line_addr, mem_needed[ref])
            elif kind == FILL_READ:
                off = whole
                live = (
                    upstream_fills[ref][1]
                    if upstream_fills is not None and ref in upstream_fills
                    else no_upstream
                )
            else:  # writeback: clean bytes are checked, not written
                off = whole
                live = np.zeros(lb, dtype=bool)
                dirty = np.flatnonzero(ev.dirty[ref])
                if memcons is not None:
                    dirty = dirty[_consumed(memcons, line_addr + dirty, t)]
                live[dirty] = True
            trk.read(line[off], t, live)
            # the line's bytes not yet overwritten carry its fill's verdicts
            fid = origin_fill[line[off]]
            used = fid >= 0
            if used.any():
                read_mask, live_mask = fills[int(fid[used][0])]
                read_mask[off[used]] = True
                live_mask[off[used & live]] = True
    return trk.lifetimes(cache.name, end_cycle), fills


def analyze_memory(
    trace: Trace,
    programs: Mapping[int, Program],
    mem_needed: np.ndarray,
    region: Tuple[int, int],
    output_ranges: Sequence[Tuple[int, int]],
    end_cycle: int,
) -> StructureLifetimes:
    """Architectural lifetimes of a flat memory region.

    A memory byte's value is ACE from its creation (host initialisation at
    cycle 0, or a store) until its last live load; dead loads extend a
    READ_DEAD interval; bytes in program output buffers stay ACE until the
    end of the run unless overwritten.  This is the ground-truth model the
    cache analyses bottom out in, and the reference that fault-injection
    validation campaigns compare against.  Global load and store rows are
    walked in trace order; a load's liveness is its ``mem_needed`` bits.
    """
    base, size = region
    is_output = np.zeros(size, dtype=bool)
    for obase, osize in output_ranges:
        lo = max(obase, base)
        hi = min(obase + osize, base + size)
        if lo < hi:
            is_output[lo - base : hi - base] = True
    trk = _ByteTracker(size, open_at=0)
    rows = zip(trace.wf.tolist(), trace.pc.tolist(), trace.t.tolist())
    for row, (wf, pc, t) in enumerate(rows):
        op = OPS[programs[wf].instrs[pc].op]
        if op.space != GLOBAL:
            continue
        if op.store:
            addr, _ = trace.access_bytes(row, op.nbytes)
            off = np.unique(addr[(addr >= base) & (addr < base + size)]) - base
            trk.close(off)
            trk.open(off, t)
        else:
            addr, live = trace.access_bytes(row, op.nbytes, mem_needed[row])
            inside = (addr >= base) & (addr < base + size)
            trk.read(addr[inside] - base, t, live[inside])
    trk.last_live[is_output] = end_cycle
    trk.last_any[is_output] = end_cycle
    return trk.lifetimes("memory", end_cycle)


def derive_tag_lifetimes(
    data_lifetimes: StructureLifetimes,
    line_bytes: int,
    *,
    tag_bytes: int = TAG_BYTES,
    name: Optional[str] = None,
) -> StructureLifetimes:
    """Tag-array lifetimes derived from the data array's (conservative).

    An address tag is architecturally required exactly while its line holds
    data that matters: a corrupted tag loses (or mis-homes) that data, so a
    tag entry inherits the union of its line's per-byte classifications —
    ACE while any data byte is ACE, READ_DEAD while the line is only ever
    dead-read (a tag-parity trip then raises a false DUE).  This is the
    conservative address-based-structure model of Biswas et al. (the
    paper's ref [7]); clean-line refetch masking would only lower it.

    ``data_lifetimes`` must come from :func:`analyze_cache` (byte ids laid
    out line-contiguously); the result indexes tag entries per line with
    ``tag_bytes`` bytes each, matching
    :func:`repro.core.layout.build_tag_array`.
    """
    data = data_lifetimes
    if data.n_bytes % line_bytes:
        raise ValueError("data lifetimes are not a whole number of lines")
    n_lines = data.n_bytes // line_bytes
    byte = np.repeat(np.arange(data.n_bytes), np.diff(data.offsets))
    line_off, starts, ends, cls = union_rows(
        byte // line_bytes, data.starts, data.ends, data.cls, n_lines
    )
    offsets, idx = _csr_take(
        line_off, np.repeat(np.arange(n_lines), tag_bytes)
    )
    return StructureLifetimes(
        name or f"{data.name}.tags",
        offsets,
        starts[idx],
        ends[idx],
        cls[idx],
        data.start_cycle,
        data.end_cycle,
    )


_BYTE_SHIFTS = np.uint32(8) * np.arange(4, dtype=np.uint32)


def analyze_vgpr(
    trace: Trace,
    rows: np.ndarray,
    program: Program,
    src_needed: np.ndarray,
    wf_id: int,
    n_vregs: int,
    end_cycle: int,
) -> StructureLifetimes:
    """Per-byte ACE lifetimes of one wavefront's vector register file.

    The VGPR is physically read row-at-a-time (all 16 lanes of a register at
    once — the Sec. VIII simultaneous-read property), so a read of ``vN``
    touches every lane's copy; liveness applies only to the lanes/bytes whose
    needed-bit masks (``src_needed``,
    :class:`~repro.arch.liveness.Liveness`) are non-zero.

    ``rows`` are the wavefront's own trace rows, in trace order; each ran
    ``program.instrs[pc]``.  Byte ids are
    :func:`repro.core.layout.regfile_byte_index` ``(lane, reg, byte,
    n_vregs)``.
    """
    n_bytes = WAVEFRONT_LANES * n_vregs * 4
    ts = trace.t[rows].tolist()
    start = ts[0] if ts else 0
    # Byte ids of register r across lanes: row r, lane-major (16 x 4).
    reg_idx = regfile_byte_index(
        np.arange(WAVEFRONT_LANES)[:, None],
        np.arange(n_vregs)[:, None, None],
        np.arange(4),
        n_vregs,
    ).reshape(n_vregs, WAVEFRONT_LANES * 4)
    # Each source's live bytes, in reg_idx order: shape (rows, srcs, 64).
    live = (
        (src_needed[rows][..., None] >> _BYTE_SHIFTS) & np.uint32(0xFF) != 0
    ).reshape(len(rows), src_needed.shape[1], WAVEFRONT_LANES * 4)
    trk = _ByteTracker(n_bytes, open_at=start)
    for k, (pc, t) in enumerate(zip(trace.pc[rows].tolist(), ts)):
        ins = program.instrs[pc]
        for j, (kind, reg) in enumerate(ins.srcs):
            if kind == "v" and reg < n_vregs:
                trk.read(reg_idx[int(reg)], t, live[k, j])
        dst = ins.dst
        if dst is not None and dst[0] == "v" and dst[1] < n_vregs:
            lanes = trace.acc[rows[k]]
            idx = reg_idx[int(dst[1])].reshape(WAVEFRONT_LANES, 4)[lanes].ravel()
            trk.close(idx)
            trk.open(idx, t)
    return trk.lifetimes(f"vgpr.wf{wf_id}", end_cycle)
