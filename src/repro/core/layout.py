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

A :class:`SramArray` materialises the layout as two dense (rows x cols) maps:
``byte_of`` (which tracked byte each physical bit belongs to) and
``domain_of`` (which protection domain covers it).  By convention domain
``d`` covers tracked bytes ``[d * domain_bytes, (d+1) * domain_bytes)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence

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

    ``byte_of[r, c]`` is the tracked byte id stored at physical bit (r, c);
    ``domain_of[r, c]`` is the protection domain id covering that bit.
    """

    name: str
    byte_of: np.ndarray
    domain_of: np.ndarray
    domain_bytes: int
    interleave_factor: int
    style: Interleaving
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

    @property
    def rows(self) -> int:
        return self.byte_of.shape[0]

    @property
    def cols(self) -> int:
        return self.byte_of.shape[1]

    @property
    def n_bits(self) -> int:
        return self.byte_of.size

    @property
    def n_bytes(self) -> int:
        return int(self.byte_of.max()) + 1

    @property
    def n_domains(self) -> int:
        return int(self.domain_of.max()) + 1

    def n_groups(self, mode_height: int, mode_width: int) -> int:
        """Number of fault groups of an HxW bounding box in this array."""
        if mode_height > self.rows or mode_width > self.cols:
            return 0
        return (self.rows - mode_height + 1) * (self.cols - mode_width + 1)


def _assemble(
    name: str,
    rows_of_clusters: Sequence[Sequence[Sequence[int]]],
    domain_bytes: int,
    factor: int,
    style: Interleaving,
) -> SramArray:
    """Build an :class:`SramArray` from per-row lists of interleave clusters.

    Each cluster is a list of ``I`` domain ids whose bits are bit-interleaved
    across ``I * domain_bits`` physical columns: physical position ``q``
    inside the cluster holds bit ``q // I`` of domain ``cluster[q % I]``.
    """
    domain_bits = domain_bytes * 8
    width = len(rows_of_clusters[0]) * len(rows_of_clusters[0][0]) * domain_bits
    byte_of = np.empty((len(rows_of_clusters), width), dtype=np.int32)
    domain_of = np.empty_like(byte_of)
    for r, clusters in enumerate(rows_of_clusters):
        col = 0
        for cluster in clusters:
            ilv = len(cluster)
            for q in range(ilv * domain_bits):
                dom = cluster[q % ilv]
                bit = q // ilv
                domain_of[r, col] = dom
                byte_of[r, col] = dom * domain_bytes + bit // 8
                col += 1
        if col != width:
            raise ValueError("rows must all have the same physical width")
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
    domains_per_line = line_bytes // domain_bytes

    def line_domain(set_idx: int, way: int, k: int) -> int:
        return (
            cache_byte_index(set_idx, way, 0, n_ways, line_bytes) // domain_bytes + k
        )

    rows: List[List[List[int]]] = []
    if style in (Interleaving.NONE, Interleaving.LOGICAL):
        if domains_per_line % factor:
            raise ValueError("logical interleaving factor must divide domains/line")
        # One row per line; clusters of `factor` consecutive domains of the
        # same line are bit-interleaved (= each factor*domain-bit data word is
        # split into `factor` check words).
        for s in range(n_sets):
            for w in range(n_ways):
                rows.append(
                    [
                        [line_domain(s, w, g * factor + i) for i in range(factor)]
                        for g in range(domains_per_line // factor)
                    ]
                )
    elif style is Interleaving.WAY_PHYSICAL:
        if n_ways % factor:
            raise ValueError("way interleaving factor must divide associativity")
        # One row per (set, way-group); cluster k interleaves domain k of the
        # `factor` lines in the group.
        for s in range(n_sets):
            for wg in range(n_ways // factor):
                rows.append(
                    [
                        [line_domain(s, wg * factor + i, k) for i in range(factor)]
                        for k in range(domains_per_line)
                    ]
                )
    else:  # index-physical
        if n_sets % factor:
            raise ValueError("index interleaving factor must divide set count")
        # One row per (set-group, way); cluster k interleaves domain k of the
        # lines at `factor` adjacent indices.
        for sg in range(n_sets // factor):
            for w in range(n_ways):
                rows.append(
                    [
                        [line_domain(sg * factor + i, w, k) for i in range(factor)]
                        for k in range(domains_per_line)
                    ]
                )
    return _assemble(name, rows, domain_bytes, factor, style)


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

    def tag_domain(set_idx: int, way: int) -> int:
        return set_idx * n_ways + way

    rows: List[List[List[int]]] = []
    for s in range(n_sets):
        rows.append(
            [
                [tag_domain(s, wg * factor + i) for i in range(factor)]
                for wg in range(n_ways // factor)
            ]
        )
    style = Interleaving.NONE if factor == 1 else Interleaving.WAY_PHYSICAL
    return _assemble(name, rows, tag_bytes, factor, style)


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

    def reg_domain(thread: int, reg: int) -> int:
        return thread * n_regs + reg

    rows: List[List[List[int]]] = []
    if style in (Interleaving.NONE, Interleaving.INTRA_THREAD):
        if style is Interleaving.NONE:
            factor = 1
        if n_regs % factor:
            raise ValueError("intra-thread factor must divide register count")
        for t in range(n_threads):
            rows.append(
                [
                    [reg_domain(t, g * factor + i) for i in range(factor)]
                    for g in range(n_regs // factor)
                ]
            )
    else:  # inter-thread
        if n_threads % factor:
            raise ValueError("inter-thread factor must divide thread count")
        for tg in range(n_threads // factor):
            rows.append(
                [
                    [reg_domain(tg * factor + i, r) for i in range(factor)]
                    for r in range(n_regs)
                ]
            )
    return _assemble(name, rows, reg_bytes, factor, style)
