"""Flat byte-addressable memory: global memory and each wavefront's LDS.

Functional data always lives here: the caches in :mod:`repro.arch.cache`
track residency metadata and emit AVF events but never hold a divergent copy
(equivalent to an always-coherent hierarchy).  This keeps functional
correctness trivial while the event stream still reflects the hierarchy's
timing and movement — which is all the ACE analysis consumes.

Every vector access, in the simulator and in the analyses, is expanded into
the bytes it touches by one helper, :func:`lane_bytes`; where a store's
active lanes repeat a byte, :func:`last_lane_wins` says which lane's byte
memory keeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["GlobalMemory", "lane_bytes", "last_lane_wins"]

#: Bit offset of each byte in a little-endian 32-bit word.
_SHIFTS = np.arange(0, 32, 8, dtype=np.uint32)


def lane_bytes(
    addrs: np.ndarray, nbytes: int, masks: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The bytes a vector access touches, one row per lane.

    Returns ``(addr, covered)``, both shaped ``(lanes, nbytes)``: the
    address of every byte of each lane's ``nbytes``-wide access at
    ``addrs``, and whether that lane's 32-bit mask in ``masks`` has a bit
    in the byte (every byte is covered without ``masks``).
    """
    addr = addrs.astype(np.int64)[:, None] + np.arange(nbytes)
    if masks is None:
        return addr, np.ones(addr.shape, dtype=bool)
    return addr, (masks[:, None] >> _SHIFTS[:nbytes]) & np.uint32(0xFF) != 0


def last_lane_wins(addr: np.ndarray) -> np.ndarray:
    """Which bytes of a store's ``(lanes, nbytes)`` addresses survive.

    Where several active lanes write one byte, the last (highest) lane's
    write is the one memory keeps; every earlier write of that byte is
    overwritten within the same instruction.
    """
    flat = addr.ravel()
    _, from_end = np.unique(flat[::-1], return_index=True)
    keep = np.zeros(flat.size, dtype=bool)
    keep[flat.size - 1 - from_end] = True
    return keep.reshape(addr.shape)


class GlobalMemory:
    """Byte-addressable memory with a bump allocator.

    Global memory is one instance shared by CPU (host) and GPU; each
    wavefront's LDS scratch is another, sized by ``Apu(lds_bytes=...)``.
    The paper's AVF measurements cover the L1/L2 caches and the VGPR, so
    the LDS is functional-only: no AVF events, but its accesses still take
    part in the liveness analysis (a value parked in LDS and later consumed
    keeps its producers live).
    """

    def __init__(self, size: int = 1 << 21) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._next = 64  # keep address 0 unused to catch null-pointer bugs
        self._buffers: Dict[str, Tuple[int, int]] = {}

    # -- allocation ---------------------------------------------------------

    def alloc(self, name: str, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and remember the buffer under ``name``."""
        base = (self._next + align - 1) // align * align
        if base + nbytes > self.size:
            raise MemoryError(
                f"out of simulated memory allocating {name!r} ({nbytes} bytes)"
            )
        self._next = base + nbytes
        self._buffers[name] = (base, nbytes)
        return base

    def buffer(self, name: str) -> Tuple[int, int]:
        """(base, size) of a named buffer."""
        return self._buffers[name]

    def buffers(self) -> Dict[str, Tuple[int, int]]:
        """All named buffers as {name: (base, size)}."""
        return dict(self._buffers)

    def buffer_range(self, name: str) -> range:
        base, size = self._buffers[name]
        return range(base, base + size)

    # -- host-side typed views ----------------------------------------------

    def view_u32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.uint32)

    def view_i32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.int32)

    def view_f32(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size].view(np.float32)

    def view_u8(self, name: str) -> np.ndarray:
        base, size = self._buffers[name]
        return self.data[base : base + size]

    # -- device-side vector access -------------------------------------------

    def _bytes(self, addrs: np.ndarray, nbytes: int) -> np.ndarray:
        """Byte addresses of an aligned, in-bounds ``nbytes``-wide access."""
        if (addrs % nbytes).any():
            raise ValueError(f"unaligned {8 * nbytes}-bit access")
        addr, _ = lane_bytes(addrs, nbytes)
        if addr.size and int(addr.max()) >= self.size:
            raise MemoryError("access beyond simulated memory")
        return addr

    def load(self, addrs: np.ndarray, nbytes: int) -> np.ndarray:
        """Gather ``nbytes``-wide little-endian values, zero-extended to
        uint32, at per-lane byte addresses."""
        data = self.data[self._bytes(addrs, nbytes)].astype(np.uint32)
        return (data << _SHIFTS[:nbytes]).sum(axis=1, dtype=np.uint32)

    def store(self, addrs: np.ndarray, nbytes: int, values: np.ndarray) -> None:
        """Scatter the low ``nbytes`` of each lane's value, little-endian;
        where lanes repeat a byte, the last lane's byte wins."""
        addr = self._bytes(addrs, nbytes)
        data = values.astype(np.uint32)[:, None] >> _SHIFTS[:nbytes]
        keep = last_lane_wins(addr)
        self.data[addr[keep]] = data[keep].astype(np.uint8)
