"""Set-associative cache hierarchy with AVF event instrumentation.

Two-level GPU hierarchy as in the paper's experimental setup (Sec. VI-A):
a 16KB L1 per compute unit and a 256KB shared L2, 64-byte lines, byte-level
reads and writes.  The L1 is write-through/no-write-allocate and the L2 is
write-back/write-allocate (the GCN arrangement).

Caches here are *metadata-only*: functional data lives in
:class:`~repro.arch.memory.GlobalMemory`.  Every residency-affecting action
appends a row (fill / read / write / evict) to the cache's one event table
(:class:`CacheEvents`), tagged with the global cycle; the lifetime analysis
turns those rows into per-byte ACE intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .memory import lane_bytes

__all__ = [
    "CacheConfig", "Cache", "CacheEvents", "MemSystem",
    "FILL", "DEMAND_READ", "FILL_READ", "WRITEBACK_READ", "WRITE", "EVICT",
]

#: Event kinds (:attr:`CacheEvents.kind`): a line filled into (set, way);
#: its bytes read out for a load, to fill the next level up, or as dirty
#: bytes written back to the next level down; overwritten by a store; the
#: line evicted (after its write-back).
FILL, DEMAND_READ, FILL_READ, WRITEBACK_READ, WRITE, EVICT = range(6)


@dataclass(frozen=True, eq=False)
class CacheEvents:
    """One cache's event table, a row per event in emission order.

    ``ref`` is the fill id of a fill, the trace row (uid) of a demand read
    or a write, the next level's fill id that a fill read links to, and
    the row of ``dirty`` holding a write-back read's dirty byte mask
    (``-1`` for an evict).  Every column but ``dirty`` is int64.
    """

    kind: np.ndarray
    t: np.ndarray
    set: np.ndarray
    way: np.ndarray
    line: np.ndarray
    ref: np.ndarray
    #: bool ``(write-backs, line_bytes)``: dirty bytes, in event order
    dirty: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    n_sets: int
    n_ways: int
    line_bytes: int
    hit_latency: int

    @property
    def capacity(self) -> int:
        return self.n_sets * self.n_ways * self.line_bytes

    def set_of(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.n_sets


#: Default L1: 16KB, 4-way, 64B lines (paper Sec. VI-A).
L1_CONFIG = CacheConfig(n_sets=64, n_ways=4, line_bytes=64, hit_latency=4)
#: Default L2: 256KB, 8-way, 64B lines.
L2_CONFIG = CacheConfig(n_sets=512, n_ways=8, line_bytes=64, hit_latency=24)


class Cache:
    """One cache level: tags, LRU state, dirty byte masks, event table."""

    def __init__(self, name: str, config: CacheConfig, writeback: bool) -> None:
        self.name = name
        self.config = config
        self.writeback = writeback
        self.tags = np.full((config.n_sets, config.n_ways), -1, dtype=np.int64)
        self.lru = np.zeros((config.n_sets, config.n_ways), dtype=np.int64)
        self.dirty = np.zeros(
            (config.n_sets, config.n_ways, config.line_bytes), dtype=bool
        )
        self._log: List[Tuple[int, int, int, int, int, int]] = []
        self._dirty_log: List[np.ndarray] = []
        self._lru_clock = 0
        # statistics
        self.hits = 0
        self.misses = 0

    # -- lookup/replacement --------------------------------------------------

    def find(self, line_addr: int) -> Tuple[int, int]:
        """(set, way) of a resident line, way = -1 on miss."""
        s = self.config.set_of(line_addr)
        ways = np.where(self.tags[s] == line_addr)[0]
        return (s, int(ways[0])) if len(ways) else (s, -1)

    def touch(self, s: int, way: int) -> None:
        self._lru_clock += 1
        self.lru[s, way] = self._lru_clock

    def victim_way(self, s: int) -> int:
        empty = np.where(self.tags[s] == -1)[0]
        if len(empty):
            return int(empty[0])
        return int(np.argmin(self.lru[s]))

    # -- event table ------------------------------------------------------------

    def _emit(self, kind: int, t: int, s: int, way: int, ref: int = -1) -> None:
        self._log.append((kind, t, s, way, int(self.tags[s, way]), ref))

    def events(self) -> CacheEvents:
        """Every event emitted so far, as one table."""
        log = np.array(self._log, dtype=np.int64).reshape(-1, 6)
        dirty = np.array(self._dirty_log, dtype=bool).reshape(
            -1, self.config.line_bytes
        )
        return CacheEvents(*log.T, dirty)

    # -- operations (all emit events) -----------------------------------------

    def evict(self, s: int, way: int, t: int) -> None:
        """Evict the line at (s, way); writeback dirty bytes first."""
        if self.tags[s, way] == -1:
            return
        if self.writeback and self.dirty[s, way].any():
            self._emit(WRITEBACK_READ, t, s, way, len(self._dirty_log))
            self._dirty_log.append(self.dirty[s, way].copy())
            self.dirty[s, way] = False
        self._emit(EVICT, t, s, way)
        self.tags[s, way] = -1

    def install(self, line_addr: int, t: int, fill_id: int) -> Tuple[int, int]:
        """Make room for and fill ``line_addr``; returns its (set, way)."""
        s = self.config.set_of(line_addr)
        way = self.victim_way(s)
        self.evict(s, way, t)
        self.tags[s, way] = line_addr
        self.touch(s, way)
        self._emit(FILL, t, s, way, fill_id)
        return s, way

    def read_demand(self, s: int, way: int, t: int, uid: int) -> None:
        self._emit(DEMAND_READ, t, s, way, uid)

    def read_for_fill(self, s: int, way: int, t: int, link: int) -> None:
        self._emit(FILL_READ, t, s, way, link)

    def write(
        self, s: int, way: int, t: int, uid: int, byte_offsets: np.ndarray
    ) -> None:
        self._emit(WRITE, t, s, way, uid)
        if self.writeback:
            self.dirty[s, way, byte_offsets] = True

    def flush(self, t: int) -> None:
        """Write back and evict every resident line (end of simulation)."""
        for s in range(self.config.n_sets):
            for way in range(self.config.n_ways):
                if self.tags[s, way] != -1:
                    self.evict(s, way, t)


class MemSystem:
    """The GPU memory system: per-CU L1s over a shared L2 over memory."""

    def __init__(
        self,
        n_cus: int,
        l1_config: CacheConfig = L1_CONFIG,
        l2_config: CacheConfig = L2_CONFIG,
        mem_latency: int = 120,
        store_latency: int = 4,
    ) -> None:
        if l1_config.line_bytes != l2_config.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self.line_bytes = l1_config.line_bytes
        self.l1s = [Cache(f"l1.{i}", l1_config, writeback=False) for i in range(n_cus)]
        self.l2 = Cache("l2", l2_config, writeback=True)
        self.mem_latency = mem_latency
        self.store_latency = store_latency
        self._fill_seq = 0

    def _next_fill(self) -> int:
        self._fill_seq += 1
        return self._fill_seq

    # -- internal line operations ---------------------------------------------

    def _l2_read_line(self, line: int, t: int, link: int) -> int:
        """Read a line out of the L2 to fill an L1; returns added latency."""
        s, way = self.l2.find(line)
        if way >= 0:
            self.l2.hits += 1
            lat = self.l2.config.hit_latency
        else:
            self.l2.misses += 1
            s, way = self.l2.install(line, t, self._next_fill())
            lat = self.l2.config.hit_latency + self.mem_latency
        self.l2.touch(s, way)
        self.l2.read_for_fill(s, way, t, link)
        return lat

    def _l1_load_line(self, cu: int, line: int, t: int, uid: int) -> int:
        l1 = self.l1s[cu]
        s, way = l1.find(line)
        if way >= 0:
            l1.hits += 1
            lat = l1.config.hit_latency
        else:
            l1.misses += 1
            fill_id = self._next_fill()
            lat = self.l1s[cu].config.hit_latency + self._l2_read_line(
                line, t, fill_id
            )
            s, way = l1.install(line, t, fill_id)
        l1.touch(s, way)
        l1.read_demand(s, way, t, uid)
        return lat

    def _store_line(
        self, cu: int, line: int, offsets: np.ndarray, t: int, uid: int
    ) -> None:
        # Write-through L1: update a resident copy, never allocate.
        l1 = self.l1s[cu]
        s, way = l1.find(line)
        if way >= 0:
            l1.touch(s, way)
            l1.write(s, way, t, uid, offsets)
        # Write-back, write-allocate L2.
        s, way = self.l2.find(line)
        if way < 0:
            self.l2.misses += 1
            s, way = self.l2.install(line, t, self._next_fill())
        else:
            self.l2.hits += 1
        self.l2.touch(s, way)
        self.l2.write(s, way, t, uid, offsets)

    # -- public interface -------------------------------------------------------

    def load(self, cu: int, addrs: np.ndarray, nbytes: int, t: int, uid: int) -> int:
        """Vector load at per-lane addresses; returns latency in cycles."""
        lines = np.unique(addrs // self.line_bytes * self.line_bytes)
        lat = 0
        for line in lines.tolist():
            lat = max(lat, self._l1_load_line(cu, int(line), t, uid))
        return lat

    def store(self, cu: int, addrs: np.ndarray, nbytes: int, t: int, uid: int) -> int:
        """Vector store; buffered, so latency is small and fixed."""
        addr, _ = lane_bytes(addrs, nbytes)
        lines = addr // self.line_bytes * self.line_bytes
        for line in np.unique(lines).tolist():
            offs = np.unique(addr[lines == line] - line)
            self._store_line(cu, line, offs, t, uid)
        return self.store_latency

    def flush(self, t: int) -> None:
        """Drain the whole hierarchy (host reads results after the kernel)."""
        for l1 in self.l1s:
            l1.flush(t)
        self.l2.flush(t)
