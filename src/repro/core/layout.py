"""Physical bit layouts: mapping logical state to SRAM geometry.

MB-AVF depends on *which bits are physically adjacent*, which is decided by
the array's interleaving style (Sec. II-C, VI-B, VIII of the paper):

* **logical** interleaving — each data word is split into ``I`` interleaved
  check words; physically adjacent bits belong to the *same* cache line /
  register but different protection domains.
* **way-physical** interleaving — adjacent bits come from lines in different
  *ways* of the same set.
* **index-physical** interleaving — adjacent bits come from lines at adjacent
  *indices* (sets).
* **intra-thread** interleaving (register files, "rxI") — adjacent bits come
  from different registers of the same GPU thread.
* **inter-thread** interleaving (register files, "txI") — adjacent bits come
  from the same register of different GPU threads.

A :class:`SramArray` holds the layout as one tile of two dense (rows x cols)
maps: ``byte_of`` (which tracked byte each physical bit belongs to) and
``domain_of`` (which protection domain covers it), repeated ``tiles`` times
down the array.  By convention domain ``d`` covers tracked bytes
``[d * domain_bytes, (d+1) * domain_bytes)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Interleaving",
    "CACHE_STYLES",
    "REGFILE_STYLES",
    "SramArray",
    "build_cache_array",
    "build_regfile_array",
    "build_tag_array",
    "cache_byte_index",
    "regfile_byte_index",
]


class Interleaving(Enum):
    """Interleaving styles from the paper's evaluation."""

    NONE = "none"
    LOGICAL = "logical"
    WAY_PHYSICAL = "way"
    INDEX_PHYSICAL = "index"
    INTRA_THREAD = "intra_thread"
    INTER_THREAD = "inter_thread"


#: the styles :func:`build_cache_array` lays out
CACHE_STYLES = (
    Interleaving.NONE,
    Interleaving.LOGICAL,
    Interleaving.WAY_PHYSICAL,
    Interleaving.INDEX_PHYSICAL,
)
#: the styles :func:`build_regfile_array` lays out
REGFILE_STYLES = (
    Interleaving.NONE,
    Interleaving.INTRA_THREAD,
    Interleaving.INTER_THREAD,
)


@dataclass
class SramArray:
    """Physical geometry of a tracked structure.

    ``byte_of[r, c]`` is the tracked byte id stored at bit (r, c) of one
    tile; ``domain_of[r, c]`` is the protection domain id covering it.  The
    array is ``tiles`` such tiles, one below the other: tile ``k`` holds
    the tile's bytes offset by ``k * tile_bytes`` and its domains offset by
    ``k * tile_domains`` (every wavefront's register file, say, laid out
    alike).  :meth:`take_rows` reads any rows of the whole array; nothing
    else stores them.  With ``separate_tiles`` each tile is its own
    physical array (one per CU, say), so no fault group spans two tiles.
    """

    name: str
    byte_of: np.ndarray
    domain_of: np.ndarray
    domain_bytes: int
    interleave_factor: int
    style: Interleaving
    tiles: int = 1
    separate_tiles: bool = False
    #: AVF-engine enumeration memo, populated lazily by
    #: core.avf._signatures_for: one row table per canonical lifetime ids
    #: (shared by every mode) and one region table per (mode, canonical ids)
    _sig_memo: Optional[Dict[Any, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.byte_of.shape != self.domain_of.shape:
            raise ValueError("byte_of and domain_of must have the same shape")
        if self.byte_of.ndim != 2:
            raise ValueError("layout maps must be 2-D (rows x cols)")
        if self.tiles < 1:
            raise ValueError("an array needs at least one tile")

    @property
    def tile_rows(self) -> int:
        return int(self.byte_of.shape[0])

    @property
    def tile_bytes(self) -> int:
        return int(self.byte_of.max()) + 1

    @property
    def tile_domains(self) -> int:
        return int(self.domain_of.max()) + 1

    @property
    def rows(self) -> int:
        return self.tiles * self.tile_rows

    @property
    def cols(self) -> int:
        return int(self.byte_of.shape[1])

    @property
    def n_bits(self) -> int:
        return self.tiles * int(self.byte_of.size)

    @property
    def n_bytes(self) -> int:
        return self.tiles * self.tile_bytes

    @property
    def n_domains(self) -> int:
        return self.tiles * self.tile_domains

    def take_rows(
        self,
        rows: Union[int, np.ndarray],
        cols: Union[None, int, np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(byte ids, domain ids) of the array's ``rows``, in the tile's
        dtype.

        Without ``cols`` each row comes whole: the maps have the shape of
        ``rows`` plus one column axis, so ``take_rows(np.arange(rows))``
        is the dense array.  With ``cols``, rows and columns broadcast
        against each other and pick single bits.
        """
        tile, r = np.divmod(np.asarray(rows, dtype=np.intp), self.tile_rows)
        if cols is None:
            byte, dom, tile = self.byte_of[r], self.domain_of[r], tile[..., None]
        else:
            byte, dom = self.byte_of[r, cols], self.domain_of[r, cols]
        byte += (tile * self.tile_bytes).astype(byte.dtype)
        dom += (tile * self.tile_domains).astype(dom.dtype)
        return byte, dom

    def n_groups(self, mode_height: int, mode_width: int) -> int:
        """Number of fault groups of an HxW bounding box in this array
        (with separate tiles: in all of them, none spanning two)."""
        rows = self.tile_rows if self.separate_tiles else self.rows
        if mode_height > rows or mode_width > self.cols:
            return 0
        return self.rows // rows * (rows - mode_height + 1) * (
            self.cols - mode_width + 1
        )


def _assemble(
    name: str,
    clusters: np.ndarray,
    domain_bytes: int,
    factor: int,
    style: Interleaving,
) -> SramArray:
    """Build an :class:`SramArray` from a ``(rows, clusters, I)`` table of
    interleave clusters.

    Each cluster is ``I`` domain ids whose bits are bit-interleaved across
    ``I * domain_bits`` physical columns: physical position ``q`` inside
    the cluster holds bit ``q // I`` of domain ``cluster[q % I]``.
    """
    table = np.asarray(clusters, dtype=np.int32)
    n_rows, n_clusters, ilv = table.shape
    q = np.arange(ilv * domain_bytes * 8, dtype=np.int32)
    domain_of = table[:, :, q % ilv].reshape(n_rows, n_clusters * len(q))
    byte_in_domain = np.tile(q // ilv // 8, n_clusters)
    byte_of = domain_of * np.int32(domain_bytes) + byte_in_domain
    return SramArray(name, byte_of, domain_of, domain_bytes, factor, style)


def cache_byte_index(
    set_idx: int, way: int, offset: int, n_ways: int, line_bytes: int
) -> int:
    """Tracked byte id of (set, way, offset) in a cache data array."""
    return (set_idx * n_ways + way) * line_bytes + offset


def build_cache_array(
    n_sets: int,
    n_ways: int,
    line_bytes: int,
    *,
    domain_bytes: int = 4,
    style: Interleaving = Interleaving.NONE,
    factor: int = 1,
    name: str = "cache",
) -> SramArray:
    """Physical layout of a set-associative cache's data array.

    Each cache line is divided into protection domains of ``domain_bytes``
    bytes.  ``factor`` (the ``I`` in "xI interleaving") chooses how many
    domains are bit-interleaved per cluster; ``style`` chooses where the
    cluster's companion domains come from.
    """
    if style not in CACHE_STYLES:
        raise ValueError(f"{style} is not a cache interleaving style")
    if factor < 1:
        raise ValueError("interleave factor must be >= 1")
    if style is Interleaving.NONE:
        factor = 1
    if line_bytes % domain_bytes:
        raise ValueError("line size must be a multiple of the domain size")
    dpl = line_bytes // domain_bytes
    # domain k of the line at (set, way) is (set * n_ways + way) * dpl + k
    k = np.arange(dpl)[:, None]
    i = np.arange(factor)
    if style in (Interleaving.NONE, Interleaving.LOGICAL):
        if dpl % factor:
            raise ValueError("logical interleaving factor must divide domains/line")
        # One row per line; clusters of `factor` consecutive domains of the
        # same line are bit-interleaved (= each factor*domain-bit data word is
        # split into `factor` check words).
        line = np.arange(n_sets * n_ways)[:, None, None]
        clusters = line * dpl + np.arange(0, dpl, factor)[:, None] + i
    elif style is Interleaving.WAY_PHYSICAL:
        if n_ways % factor:
            raise ValueError("way interleaving factor must divide associativity")
        # One row per (set, way-group); cluster k interleaves domain k of the
        # `factor` lines in the group.
        sets = np.arange(n_sets)[:, None, None, None]
        wg = np.arange(0, n_ways, factor)[:, None, None]
        clusters = ((sets * n_ways + wg + i) * dpl + k).reshape(-1, dpl, factor)
    else:  # index-physical
        if n_sets % factor:
            raise ValueError("index interleaving factor must divide set count")
        # One row per (set-group, way); cluster k interleaves domain k of the
        # lines at `factor` adjacent indices.
        sg = np.arange(0, n_sets, factor)[:, None, None, None]
        w = np.arange(n_ways)[:, None, None]
        clusters = (((sg + i) * n_ways + w) * dpl + k).reshape(-1, dpl, factor)
    return _assemble(name, clusters, domain_bytes, factor, style)


def build_tag_array(
    n_sets: int,
    n_ways: int,
    *,
    tag_bytes: int = 3,
    factor: int = 1,
    name: str = "tags",
) -> SramArray:
    """Physical layout of a cache's tag array.

    One row per set holding every way's tag; each tag is its own protection
    domain (tag parity/ECC is per entry).  ``factor`` bit-interleaves the
    tags of ``factor`` adjacent ways, the usual tag-array MBF mitigation.
    Tracked byte ids are ``(set * n_ways + way) * tag_bytes + b``.
    """
    if factor < 1 or n_ways % factor:
        raise ValueError("interleave factor must divide the way count")
    # tag (set, way) is domain set * n_ways + way
    clusters = np.arange(n_sets * n_ways).reshape(
        n_sets, n_ways // factor, factor
    )
    style = Interleaving.NONE if factor == 1 else Interleaving.WAY_PHYSICAL
    return _assemble(name, clusters, tag_bytes, factor, style)


def regfile_byte_index(thread: int, reg: int, byte: int, n_regs: int, reg_bytes: int = 4) -> int:
    """Tracked byte id of (thread, register, byte) in a register file."""
    return (thread * n_regs + reg) * reg_bytes + byte


def build_regfile_array(
    n_threads: int,
    n_regs: int,
    *,
    reg_bytes: int = 4,
    style: Interleaving = Interleaving.INTRA_THREAD,
    factor: int = 1,
    name: str = "vgpr",
) -> SramArray:
    """Physical layout of a (vector) register file.

    Every register is one protection domain (the paper assumes each 32-bit
    register has its own ECC or parity).  ``intra_thread`` ("rxI") interleaves
    ``I`` consecutive registers of the same thread; ``inter_thread`` ("txI")
    interleaves the same register of ``I`` adjacent threads.
    """
    if style not in REGFILE_STYLES:
        raise ValueError(f"{style} is not a register-file interleaving style")
    if factor < 1:
        raise ValueError("interleave factor must be >= 1")
    # register (thread, reg) is domain thread * n_regs + reg
    if style in (Interleaving.NONE, Interleaving.INTRA_THREAD):
        if style is Interleaving.NONE:
            factor = 1
        if n_regs % factor:
            raise ValueError("intra-thread factor must divide register count")
        clusters = np.arange(n_threads * n_regs).reshape(
            n_threads, n_regs // factor, factor
        )
    else:  # inter-thread
        if n_threads % factor:
            raise ValueError("inter-thread factor must divide thread count")
        clusters = (
            np.arange(n_threads * n_regs).reshape(-1, factor, n_regs)
            .transpose(0, 2, 1)
        )
    return _assemble(name, clusters, reg_bytes, factor, style)
