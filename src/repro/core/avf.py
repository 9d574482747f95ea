"""MB-AVF computation engine (Sec. IV, V and VII of the paper).

Given

* a physical layout (:class:`~repro.core.layout.SramArray`),
* per-byte classed ACE lifetimes (:class:`StructureLifetimes`),
* a fault mode (:class:`~repro.core.faultmodes.FaultMode`) and
* a protection scheme (:class:`~repro.core.protection.ProtectionScheme`),

the engine enumerates every fault group of the mode in the structure,
splits each group into overlapped regions (one per protection domain it
touches), classifies each region through the scheme's reaction, combines the
regions with the SDC/DUE precedence rules, and integrates the resulting
outcome intervals into DUE and SDC MB-AVF values (eq. 2, 4-7).

Groups whose classification is identical — same per-region faulty-bit counts
and same member lifetime content — are deduplicated, which makes the
enumeration of the ~1e5 groups of a real cache array cheap.  Enumeration is
fully vectorized and shared across modes: one row table per (array,
canonical ids) gives every row a dense id and every band of H rows its
distinct representatives, for all mode geometries (contiguous Mx1 wordline
faults and 2-D ``HxW`` rectangles alike).  A mode's groups on those
representatives are ranked one offset at a time — the rank under offsets
``o_0..o_j`` is the dense rank of (the rank under ``o_0..o_{j-1}``, the
domain-relative token at ``o_j``), one 1-D ``np.unique``-style sort per
offset — so an ``Mx1`` mode extends the ``(M-1)x1`` ranks by one step.

Grouped classify and integrate
------------------------------
Lifetimes are one CSR table per structure (:class:`StructureLifetimes`).
The distinct group keys stay arrays.  They are decoded once into a region
table (each region's signature row, faulty-bit count and member id set),
and the region ACE unions (eq. 5) of every new distinct id set are swept
in one grouped :func:`~repro.core.intervals.union_rows` call.
Over the small class alphabets, eq. 6 and the combination rules are
pointwise maxima, so a config needs no per-signature loop:

* classify maps each region's bit count through the scheme's reaction to a
  reaction kind and each ACE class through one ``(kind, class) -> outcome``
  table; signatures with equal sets of live ``(kind, id set)`` regions are
  merged into one weighted combination;
* integrate sorts all combinations' outcome-interval endpoints once, takes
  per-outcome running counts (the highest positive count is the segment's
  outcome, with the Sec. VIII DUE-preempts-SDC rule as one mask), and sums
  weight x length per outcome — and per series bucket, through each
  outcome's piecewise-linear integral at the edges — in exact int64.

Cross-configuration reuse
-------------------------
A sweep evaluates dozens of (mode, scheme, interleaving) configurations
over the *same* lifetimes, so the expensive intermediates are cached where
they can be shared:

* canonical lifetime ids are computed once per :class:`StructureLifetimes`
  (one :func:`numpy.unique` per interval count) and cached on it, together
  with the distinct lifetimes and the region ACE unions (two CSR tables),
* the row table (row ids, band tables and the last prefix-rank grid per
  band height) is built once per ``(array, canonical ids)`` and shared by
  every mode,
* the region table is memoized per ``(array, mode, lifetimes)``, and with
  it each config's outcome cycles and series, keyed by ``(scheme,
  series_edges)``.

:func:`compute_mb_avf_batch` is the one engine call per structure layout:
it takes its one lifetime table and a list of :class:`AvfConfig`, and
shares every cache across the whole batch; the single-config
:func:`compute_mb_avf` is a thin wrapper.  Cache traffic is observable via
the ``avf.batch_cache_hits`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union, overload

import numpy as np
from numpy.typing import ArrayLike

from ..obs import get_metrics, get_tracer
from .faultmodes import FaultMode
from .intervals import (
    AceClass,
    IntervalSet,
    Outcome,
    _coalesce_rows,
    _csr_take,
    union_rows,
)
from .layout import Interleaving, SramArray
from .protection import OUTCOME_TABLE, ProtectionScheme, reaction_kind

__all__ = [
    "StructureLifetimes",
    "AvfConfig",
    "MbAvfResult",
    "compute_mb_avf",
    "compute_mb_avf_batch",
    "ace_locality",
]


class _SetView(Sequence[IntervalSet]):
    """Read-only sequence of a lifetime table's per-byte interval sets.

    Each access builds one :class:`IntervalSet` over slices of the table's
    arrays; nothing is stored per byte.
    """

    def __init__(self, lifetimes: "StructureLifetimes") -> None:
        self._lt = lifetimes

    def __len__(self) -> int:
        return self._lt.n_bytes

    @overload
    def __getitem__(self, i: int) -> IntervalSet:
        ...

    @overload
    def __getitem__(self, i: slice) -> List[IntervalSet]:
        ...

    def __getitem__(
        self, i: Union[int, slice]
    ) -> Union[IntervalSet, List[IntervalSet]]:
        if isinstance(i, slice):
            return [self[b] for b in range(len(self))[i]]
        lt = self._lt
        b = range(len(self))[i]  # bounds-checked, negative ids allowed
        lo, hi = lt.offsets[b], lt.offsets[b + 1]
        return IntervalSet._from_arrays(
            lt.starts[lo:hi], lt.ends[lo:hi], lt.cls[lo:hi]
        )


@dataclass(eq=False)
class StructureLifetimes:
    """Per-byte classed ACE intervals for one hardware structure.

    One CSR table: the :class:`AceClass` intervals of tracked byte ``i``
    (all 8 bits of a byte share one classification; bit-level liveness
    refinements are already folded in by the lifetime builder) are rows
    ``offsets[i]:offsets[i + 1]`` of ``starts``, ``ends`` and ``cls``,
    sorted and coalesced.  The analysis window is ``[start_cycle,
    end_cycle)``; intervals must lie inside it.  Build tables with
    :meth:`from_rows`; the constructor trusts its arrays.

    The engine caches derived state (canonical lifetime ids, region
    classifications) on the instance, so the arrays must not be mutated
    after the first AVF computation.
    """

    name: str
    offsets: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    cls: np.ndarray
    start_cycle: int
    end_cycle: int
    #: engine cache, filled by _canonical_iset_ids on first AVF computation
    _canon_cache: Optional["_CanonicalIds"] = field(
        default=None, init=False, repr=False
    )

    @classmethod
    def from_rows(
        cls,
        name: str,
        n_bytes: int,
        byte: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        klass: np.ndarray,
        start_cycle: int,
        end_cycle: int,
    ) -> "StructureLifetimes":
        """Build the table from ``(byte, start, end, class)`` rows.

        Rows may come in any order.  Class-0 rows are dropped and touching
        rows of one byte and class coalesce; empty, inverted or overlapping
        intervals, negative classes and bytes outside ``[0, n_bytes)`` are
        rejected, as :class:`IntervalSet` does.
        """
        byte, starts, ends, classes = _coalesce_rows(byte, start, end, klass)
        if len(byte) and not (0 <= byte[0] and byte[-1] < n_bytes):
            raise ValueError(f"byte ids must lie in [0, {n_bytes})")
        offsets = np.zeros(n_bytes + 1, dtype=np.int64)
        np.cumsum(np.bincount(byte, minlength=n_bytes), out=offsets[1:])
        return cls(
            name, offsets, starts, ends, classes, start_cycle, end_cycle
        )

    @property
    def n_bytes(self) -> int:
        return len(self.offsets) - 1

    @property
    def byte_isets(self) -> Sequence[IntervalSet]:
        """The bytes' interval sets, one :class:`IntervalSet` per access."""
        return _SetView(self)

    @property
    def window_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def byte_range(
        self, lo: int, hi: int, name: Optional[str] = None
    ) -> "StructureLifetimes":
        """Bytes ``[lo, hi)`` of this table as a table of their own,
        named ``name`` (this table's by default).

        Its ``starts``, ``ends`` and ``cls`` are slices of this table's
        arrays; only ``offsets`` is new, rebased to 0.  Bytes outside
        ``[0, n_bytes)`` have no rows.
        """
        if hi < lo:
            raise ValueError(f"inverted byte range [{lo}, {hi})")
        pos = np.arange(lo, hi + 1, dtype=np.int64)
        offsets = self.offsets[np.clip(pos, 0, self.n_bytes)]
        rows = slice(offsets[0], offsets[-1])
        return StructureLifetimes(
            self.name if name is None else name, offsets - offsets[0],
            self.starts[rows], self.ends[rows], self.cls[rows],
            self.start_cycle, self.end_cycle,
        )

    def class_at(self, byte_ids: ArrayLike, cycle: ArrayLike) -> np.ndarray:
        """:meth:`IntervalSet.class_at` of each of ``byte_ids`` at ``cycle``
        (broadcast against them): one bisection of every byte's rows."""
        b, c = np.broadcast_arrays(
            *(np.asarray(a, dtype=np.int64) for a in (byte_ids, cycle))
        )
        shape, b, c = b.shape, b.ravel(), c.ravel()
        first, lo, hi = self.offsets[b], self.offsets[b], self.offsets[b + 1]
        top = max(len(self.starts) - 1, 0)
        while (lo < hi).any():  # lo -> each byte's first row after c
            mid = (lo + hi) // 2
            go = (lo < hi) & (self.starts[np.minimum(mid, top)] <= c)
            lo, hi = np.where(go, mid + 1, lo), np.where(go, hi, mid)
        hit = lo > first
        hit[hit] &= c[hit] < self.ends[lo[hit] - 1]
        out = np.zeros(len(b), dtype=np.int64)
        out[hit] = self.cls[lo[hit] - 1]
        return out.reshape(shape)

    def sb_ace_fraction(self) -> float:
        """Plain single-bit AVF with no protection (fraction of ACE bit-cycles)."""
        ace = self.cls == int(AceClass.ACE)
        total = int((self.ends - self.starts)[ace].sum())
        denom = self.n_bytes * self.window_cycles
        return total / denom if denom else 0.0


@dataclass(frozen=True)
class AvfConfig:
    """One (fault mode, protection scheme) engine configuration.

    ``series_edges`` must be a tuple (the config is hashable so batches can
    deduplicate); :func:`compute_mb_avf` converts sequences for you.
    """

    mode: FaultMode
    scheme: ProtectionScheme
    series_edges: Optional[Tuple[int, ...]] = None


@dataclass
class MbAvfResult:
    """Result of one MB-AVF computation for a (structure, mode, scheme)."""

    structure: str
    mode: FaultMode
    scheme: str
    n_groups: int
    window_cycles: int
    #: summed group-cycles per outcome class (indexed by ``Outcome``)
    outcome_cycles: Dict[Outcome, float] = field(default_factory=dict)
    #: optional time series: bucket edges and per-bucket outcome group-cycles
    series_edges: Optional[np.ndarray] = None
    series: Optional[np.ndarray] = None  # (buckets, 4)

    def _avf(self, *outcomes: Outcome) -> float:
        denom = self.n_groups * self.window_cycles
        if denom == 0:
            return 0.0
        return sum(self.outcome_cycles.get(o, 0.0) for o in outcomes) / denom

    @property
    def due_avf(self) -> float:
        """DUE MB-AVF: true + false detected-uncorrected error AVF."""
        return self._avf(Outcome.TRUE_DUE, Outcome.FALSE_DUE)

    @property
    def true_due_avf(self) -> float:
        return self._avf(Outcome.TRUE_DUE)

    @property
    def false_due_avf(self) -> float:
        return self._avf(Outcome.FALSE_DUE)

    @property
    def sdc_avf(self) -> float:
        """SDC MB-AVF: silent-data-corruption AVF."""
        return self._avf(Outcome.SDC)

    @property
    def total_avf(self) -> float:
        """Any-error AVF: :attr:`due_avf` + :attr:`sdc_avf`, the sum every
        stored row uses, so each path files the same total."""
        return self.due_avf + self.sdc_avf

    def series_avf(self, outcome: Outcome) -> np.ndarray:
        """Per-bucket AVF time series for one outcome class."""
        if self.series is None or self.series_edges is None:
            raise ValueError("result was computed without a time series")
        widths = np.diff(self.series_edges).astype(np.float64, copy=False)
        denom = widths * self.n_groups
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom > 0, self.series[:, int(outcome)] / denom, 0.0)
        return out

    def quantized_avf(
        self, *outcomes: Outcome, reduce: str = "max"
    ) -> float:
        """Quantized AVF: worst (or percentile) windowed AVF over the run.

        Whole-run AVFs average away vulnerability spikes; quantized AVF
        (Biswas et al., the paper's ref [9]) reports the AVF of the worst
        small window instead, which is what burst-error budgeting needs.
        Requires the result to have been computed with ``series_edges``.
        ``reduce`` is ``'max'`` or ``'p<NN>'`` (e.g. ``'p95'``).
        """
        if not outcomes:
            outcomes = (Outcome.TRUE_DUE, Outcome.FALSE_DUE, Outcome.SDC)
        total = sum(self.series_avf(o) for o in outcomes)
        if reduce == "max":
            return float(total.max())
        if reduce.startswith("p"):
            return float(np.percentile(total, float(reduce[1:])))
        raise ValueError(f"unknown reduction {reduce!r}")


class _CanonicalIds:
    """Canonical lifetime-id table plus the region ACE unions built on it.

    ``byte2iid`` maps byte ids to canonical lifetime ids (0 = the empty
    set); ``unique`` holds the distinct lifetimes as one CSR table with
    row ``iid`` for id ``iid``.  The ACE union (eq. 5) of every region id
    set met so far is cached here as a second CSR table, because its keys
    only make sense relative to this id table: the union of set ``g`` is
    ``starts/ends/cls[offsets[g]:offsets[g + 1]]``, and bit ``c`` of
    ``cls_mask[g]`` is set when class ``c`` occurs in it.  Set 0 is the
    empty set.  Batches and repeated single computations share it.
    """

    __slots__ = (
        "byte2iid", "unique", "set_ids", "offsets", "starts", "ends", "cls",
        "cls_mask",
    )

    def __init__(self, byte2iid: np.ndarray, unique: StructureLifetimes) -> None:
        self.byte2iid = byte2iid
        self.unique = unique
        #: sorted member iids -> row of the CSR union table
        self.set_ids: Dict[Tuple[int, ...], int] = {(): 0}
        self.offsets = np.zeros(2, dtype=np.int64)
        self.starts = self.ends = self.cls = np.zeros(0, dtype=np.int64)
        self.cls_mask = np.zeros(1, dtype=np.int64)

    @property
    def isets(self) -> Sequence[IntervalSet]:
        """The distinct lifetimes by id, one :class:`IntervalSet` per access."""
        return self.unique.byte_isets

    def region_ace(self, id_rows: np.ndarray) -> np.ndarray:
        """CSR rows of the ACE unions of ``id_rows``, sweeping new ones once.

        Each row of ``id_rows`` is one region's sorted nonzero member iids,
        zero-padded on the right.  Every id set not met before is swept in
        one grouped :func:`union_rows` call.
        """
        set_ids = self.set_ids
        rows = np.empty(len(id_rows), dtype=np.int64)
        new: List[int] = []
        for j, row in enumerate(id_rows.tolist()):
            ids = tuple(i for i in row if i)
            g = set_ids.get(ids)
            if g is None:
                g = set_ids[ids] = len(set_ids)
                new.append(j)
            rows[j] = g
        if new:
            u = self.unique
            members = id_rows[new]
            owner, col = np.nonzero(members)
            member_off, idx = _csr_take(u.offsets, members[owner, col])
            offsets, starts, ends, cls = union_rows(
                np.repeat(owner, np.diff(member_off)),
                u.starts[idx], u.ends[idx], u.cls[idx], len(new),
            )
            self.offsets = np.concatenate(
                [self.offsets, self.offsets[-1] + offsets[1:]]
            )
            self.starts = np.concatenate([self.starts, starts])
            self.ends = np.concatenate([self.ends, ends])
            self.cls = np.concatenate([self.cls, cls])
            # every new set has a member, so no union is empty
            mask = np.bitwise_or.reduceat(np.left_shift(1, cls), offsets[:-1])
            self.cls_mask = np.concatenate([self.cls_mask, mask])
        return rows


def _canonical_iset_ids(lifetimes: StructureLifetimes) -> _CanonicalIds:
    """Canonical lifetime ids for ``lifetimes``, computed once and cached.

    Bytes whose interval sets are equal share one id, so all downstream
    caches collapse identical lifetimes.  Ids are numbered by first
    occurrence in byte order.  Bytes are grouped by interval count, and
    each group's ``[starts | ends | classes]`` rows are deduplicated with
    one :func:`numpy.unique`.
    """
    canon = lifetimes._canon_cache
    if canon is not None:
        metrics = get_metrics()
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return canon
    lt = lifetimes
    count = np.diff(lt.offsets)
    # 1 + each byte's distinct lifetime (0: empty), and each one's first byte
    distinct = np.zeros(lt.n_bytes, dtype=np.int64)
    firsts = [np.zeros(0, dtype=np.int64)]
    n_distinct = 0
    for k in np.unique(count[count > 0]).tolist():
        nbytes = np.flatnonzero(count == k)
        idx = lt.offsets[nbytes][:, None] + np.arange(k, dtype=np.int64)
        _, first, inverse = np.unique(
            _as_scalars(np.hstack([lt.starts[idx], lt.ends[idx], lt.cls[idx]])),
            return_index=True,
            return_inverse=True,
        )
        distinct[nbytes] = n_distinct + 1 + inverse.reshape(-1)
        firsts.append(nbytes[first])
        n_distinct += len(first)
    first_byte = np.concatenate(firsts)
    by_first = np.argsort(first_byte)
    iid = np.zeros(n_distinct + 1, dtype=np.int32)
    iid[1 + by_first] = np.arange(1, n_distinct + 1, dtype=np.int32)
    byte2iid = iid[distinct]
    # id 0 is the empty set; ids 1.. take their first byte's intervals
    offsets, idx = _csr_take(lt.offsets, first_byte[by_first])
    unique = StructureLifetimes(
        lt.name, np.concatenate([[0], offsets]), lt.starts[idx],
        lt.ends[idx], lt.cls[idx], lt.start_cycle, lt.end_cycle,
    )
    canon = _CanonicalIds(byte2iid, unique)
    lifetimes._canon_cache = canon
    return canon


def _unique_rows(
    a: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(unique rows, counts) via lexsort — much faster than unique(axis=0).

    Counts are run lengths, or with ``weights`` the per-row weights summed
    over each run.
    """
    if not len(a):
        return a[:0], np.zeros(0, dtype=np.int64)
    order = np.lexsort(a.T[::-1])
    b = a[order]
    change = np.empty(len(b), dtype=bool)
    change[0] = True
    np.any(b[1:] != b[:-1], axis=1, out=change[1:])
    starts = np.where(change)[0]
    if weights is None:
        counts = np.diff(np.append(starts, len(b)))
    else:
        counts = np.add.reduceat(weights[order], starts)
    return b[starts], counts


def _as_scalars(a: np.ndarray) -> np.ndarray:
    """Each row of 2-D ``a`` as one opaque void scalar (equality only)."""
    a = np.ascontiguousarray(a, dtype=a.dtype)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


#: largest (rank, token) product packed into one int64 as is; past it the
#: tokens are densely ranked first
_PACK_LIMIT = 1 << 62
#: a fault mode's ``(row, col)`` offsets
_Offsets = Tuple[Tuple[int, int], ...]


def _row_ids(a: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of 2-D ``a``: equal rows, equal ids."""
    _, ids = np.unique(_as_scalars(a), return_inverse=True)
    return ids.reshape(-1)


def _dense_rank(code: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense rank of each value of 1-D ``code``, and the number of ranks."""
    values, rank = np.unique(code, return_inverse=True)
    return rank, len(values)


class _RowTable:
    """One layout's rows under one canonical id table, shared by every mode.

    Rows get dense ids over ``[lifetime ids | domain ids − the row's first
    domain id]``.  An ``HxW`` group lies within a band of H consecutive
    rows (of one tile, when the tiles are separate arrays), and its key
    does not change when every domain id of the band shifts by one amount,
    so a band is keyed by its H row ids plus the H−1 first-domain deltas
    to its first row.  :meth:`band` holds, per band height, one
    representative per distinct band and how often each occurs; every
    ``Mx1`` mode shares the height-1 table.

    ``ranks`` keeps one prefix-rank grid per band height: the offsets it
    ranks, and the rank of each (band, column origin) under them (see
    :func:`_enumerate_signatures`).

    No map of the whole array is built: rows are read through
    :meth:`SramArray.take_rows`.  A row is keyed by its tile row's shape
    (domain and byte ids relative to its first bit) and the lifetime ids
    of its distinct bytes, about an eighth of its bits.  Equal keys mean
    equal rows, and within one shape different keys mean different rows.
    Rows of two shapes can be equal only when the shapes share a domain
    pattern; then one row per key is read whole and keys with equal rows
    merge.  Either way the row ids partition the rows as their full
    contents do.
    """

    __slots__ = ("array", "byte2iid", "row_id", "bands", "ranks")

    def __init__(self, array: SramArray, byte2iid: np.ndarray) -> None:
        self.array = array
        self.byte2iid = byte2iid
        tile_byte, tile_dom = array.byte_of, array.domain_of
        dom_shape = _row_ids(tile_dom - tile_dom[:, :1])
        _, shape_row, shape = np.unique(
            dom_shape * array.tile_rows
            + _row_ids(tile_byte - tile_byte[:, :1]),
            return_index=True, return_inverse=True,
        )
        shape = shape.reshape(-1)
        # each shape's distinct bytes, one column each (rows of one shape
        # group their columns into bytes alike), padded with column 0
        by_byte = np.argsort(tile_byte[shape_row], axis=1, kind="stable")
        ranked = np.take_along_axis(tile_byte[shape_row], by_byte, axis=1)
        first = np.ones(ranked.shape, dtype=bool)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
        nth = np.cumsum(first, axis=1) - 1
        shape_cols = np.zeros(
            (len(shape_row), int(nth.max()) + 1), dtype=np.intp
        )
        shape_cols[np.nonzero(first)[0], nth[first]] = by_byte[first]
        key_bytes, _ = array.take_rows(
            np.arange(array.rows, dtype=np.intp).reshape(array.tiles, -1, 1),
            shape_cols[shape],
        )
        row_shape = np.tile(shape, array.tiles).astype(np.int32, copy=False)
        _, rep, row_id = np.unique(
            _as_scalars(np.hstack([
                row_shape[:, None], byte2iid[key_bytes.reshape(array.rows, -1)],
            ])),
            return_index=True, return_inverse=True,
        )
        row_id = row_id.reshape(-1)
        if len(np.unique(dom_shape)) < len(shape_row):
            # shapes sharing a domain pattern may still hold equal rows
            byte, dom = array.take_rows(rep)
            row_id = _row_ids(
                np.hstack([byte2iid[byte], dom - dom[:, :1]])
            )[row_id]
        self.row_id = row_id
        #: height -> (band counts, representative domains, representative ids)
        self.bands: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: height -> (ranked offsets, rank grid)
        self.ranks: Dict[int, Tuple[_Offsets, np.ndarray]] = {}

    def band(self, h: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Height-``h`` bands: ``int64`` counts and ``(band, h, cols)`` maps."""
        from numpy.lib.stride_tricks import sliding_window_view

        cached = self.bands.get(h)
        if cached is not None:
            return cached
        array = self.array
        _, first_dom = array.take_rows(np.arange(array.rows, dtype=np.intp), 0)
        first_win = sliding_window_view(first_dom, h)
        band_keys = np.hstack([
            sliding_window_view(self.row_id, h),
            first_win[:, 1:] - first_win[:, :1],
        ])
        starts = np.arange(len(band_keys), dtype=np.intp)
        if array.separate_tiles:  # no band spans two separate arrays
            starts = starts[starts % array.tile_rows <= array.tile_rows - h]
        _, band_start, band_count = np.unique(
            _as_scalars(band_keys[starts]), return_index=True,
            return_counts=True,
        )
        band_start = starts[band_start]
        byte, dom = array.take_rows(
            band_start[:, None] + np.arange(h, dtype=np.intp)
        )
        cached = self.bands[h] = (
            band_count.astype(np.int64, copy=False), dom, self.byte2iid[byte]
        )
        return cached


def _enumerate_signatures(
    array: SramArray,
    byte2iid: np.ndarray,
    mode: FaultMode,
    table: Optional[_RowTable] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Count fault groups per distinct group key.

    A group's key is the vector of (domain id relative to the first
    offset's domain, lifetime id) per position of the mode: ``int32`` keys
    of shape ``[S, 2k]``, the k relative domains first.  Equal keys imply an
    identical domain-equality pattern and identical member lifetimes, hence
    an identical classification.  Returns the distinct keys in lexsort
    order, the ``int64`` number of groups per key, and the number of
    distinct row bands enumerated.

    Only one representative per distinct band of ``table`` (a fresh
    :class:`_RowTable` when none is passed) is enumerated, each of its
    groups weighing as many groups as the band occurs.  Keys are ranked
    one offset at a time: the rank of a group under offsets ``o_0..o_j``
    is the dense rank of (its rank under ``o_0..o_{j−1}``, its token at
    ``o_j``), the token being ``(dom[o_j] − dom[o_0], iid[o_j])``, packed
    into one ``int64`` per group.  The table keeps the last rank grid per
    band height, and a mode whose offsets extend the grid's (``linear(M)``
    extends ``linear(M − 1)``) starts from it.  Weights are summed per
    final rank, one representative group per rank rebuilds its key, keys
    whose members are all lifetime-empty are dropped (they classify to
    nothing but still count in the denominator via ``n_groups``), and the
    rest are sorted into lexsort order.
    """
    h, w = mode.height, mode.width
    k = mode.n_bits
    if array.n_groups(h, w) == 0:
        return (
            np.zeros((0, 2 * k), dtype=np.int32), np.zeros(0, dtype=np.int64), 0
        )
    if table is None:
        table = _RowTable(array, byte2iid)
    count, dom, iid = table.band(h)
    n_orig = array.cols - w + 1
    offsets = mode.offsets
    r0, c0 = offsets[0]
    base = dom[:, r0, c0:c0 + n_orig]
    done, rank = 1, iid[:, r0, c0:c0 + n_orig].astype(np.int64, copy=False)
    cached = table.ranks.get(h)
    if cached is not None and offsets[:len(cached[0])] == cached[0]:
        done, rank = len(cached[0]), cached[1][:, :n_orig]
    n_ids = int(iid.max()) + 1
    n_rank = int(rank.max()) + 1
    for r, c in offsets[done:]:
        delta = np.subtract(dom[:, r, c:c + n_orig], base, dtype=np.int64)
        lo = int(delta.min())
        token = ((delta - lo) * n_ids + iid[:, r, c:c + n_orig]).reshape(-1)
        n_token = (int(delta.max()) - lo + 1) * n_ids
        if n_rank * n_token > _PACK_LIMIT:
            token, n_token = _dense_rank(token)
        rank, n_rank = _dense_rank(rank.reshape(-1) * n_token + token)
        rank = rank.reshape(len(count), n_orig)
    table.ranks[h] = (offsets, rank)
    if done == k:
        flat, n_rank = _dense_rank(rank.reshape(-1))
    else:
        flat = rank.reshape(-1)
    weights = np.bincount(
        flat, weights=np.repeat(count, n_orig), minlength=n_rank
    ).astype(np.int64, copy=False)
    # any origin of a rank will do as its representative: all share its key
    rep = np.empty(n_rank, dtype=np.intp)
    rep[flat] = np.arange(len(flat), dtype=np.intp)
    band, origin = np.divmod(rep, n_orig)
    at = (
        band[:, None],
        np.array([r for r, _ in offsets], dtype=np.intp),
        origin[:, None] + np.array([c for _, c in offsets], dtype=np.intp),
    )
    keys = np.empty((n_rank, 2 * k), dtype=np.int32)
    keys[:, :k] = dom[at] - dom[band, r0, origin + c0][:, None]
    keys[:, k:] = iid[at]
    active = keys[:, k:].any(axis=1)
    keys, weights = keys[active], weights[active]
    order = np.lexsort(keys.T[::-1])
    return keys[order], weights[order], len(count)


#: bit ``c`` of ``_LIVE_BITS[kind]`` is set when a region of reaction kind
#: ``kind`` turns ACE class ``c`` into a nonzero outcome
_LIVE_BITS = np.array(
    [sum(1 << c for c, o in enumerate(row) if o) for row in OUTCOME_TABLE],
    dtype=np.int64,
)
_OUTCOMES = np.array(OUTCOME_TABLE, dtype=np.int64)

#: the outcome classes an MB-AVF result reports, in ``Outcome`` order
_REPORTED = (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC)

#: (scheme, series_edges); the Sec. VIII rule is the layout's, so it is
#: fixed per enumeration memo
_ResultKey = Tuple[ProtectionScheme, Optional[Tuple[int, ...]]]
#: weighted cycles per reported outcome, and the optional series
_Result = Tuple[Tuple[int, ...], Optional[np.ndarray]]


class _Signatures:
    """One enumeration of ``(array, mode, lifetimes)`` as a region table.

    Signature ``s`` (one distinct group key) weighs ``weights[s]`` groups.
    Its overlapped regions are the entries ``r`` with ``region_row[r] ==
    s``, at column ``region_col[r]`` of the row; each has
    ``region_bits[r]`` faulty bits and member id set ``region_set[r]``,
    whose sorted nonzero lifetime ids are row ``set_rows[region_set[r]]``
    (zero-padded); rows have at most ``n_cols`` regions.  ``n_signatures``
    counts the distinct region multisets.  The per-region columns are
    ``int32``, the weights ``int64``.

    ``set_union`` maps each id set to its row of the canonical ACE union
    table once a config classifies this entry; ``results`` caches each
    config's outcome cycles and series.
    """

    __slots__ = (
        "weights", "region_row", "region_col", "region_bits", "region_set",
        "set_rows", "n_cols", "n_signatures", "set_union", "region_mask",
        "results",
    )

    def __init__(self, keys: np.ndarray, weights: np.ndarray, k: int) -> None:
        self.weights = weights
        self.set_union: Optional[np.ndarray] = None
        self.region_mask: Optional[np.ndarray] = None
        self.results: Dict[_ResultKey, _Result] = {}
        n = len(keys)
        if not n:
            empty = np.zeros(0, dtype=np.int32)
            self.region_row = self.region_col = empty
            self.region_bits = self.region_set = empty
            self.set_rows = np.zeros((0, 1), dtype=np.int32)
            self.n_cols = 1
            self.n_signatures = 0
            return
        # Sort each key's positions by (relative domain, lifetime id): a
        # region is a run of one domain, its members ascending ids.
        dom = keys[:, :k].astype(np.int64, copy=False)
        iid = keys[:, k:].astype(np.int64, copy=False)
        base = int(iid.max()) + 1
        code = np.sort((dom - dom.min()) * base + iid, axis=1)
        dom = code // base
        iid = (code - dom * base).ravel()
        head = np.ones((n, k), dtype=bool)
        np.not_equal(dom[:, 1:], dom[:, :-1], out=head[:, 1:])
        col = (np.cumsum(head, axis=1) - 1).ravel()
        head = head.ravel()
        region = np.cumsum(head) - 1
        first = np.flatnonzero(head)
        self.region_row = (first // k).astype(np.int32, copy=False)
        self.region_col = col[first].astype(np.int32, copy=False)
        self.n_cols = int(col.max()) + 1
        self.region_bits = np.bincount(region).astype(np.int32, copy=False)
        # Members: nonzero ids, each once per region, ranked within it.
        member = iid != 0
        member[1:] &= head[1:] | (iid[1:] != iid[:-1])
        seen = np.cumsum(member)
        rank = seen - 1 - (seen - member)[first][region]
        width = int(rank[member].max()) + 1 if member.any() else 1
        id_rows = np.zeros((len(first), width), dtype=np.int32)
        id_rows[region[member], rank[member]] = iid[member]
        _, set_first, region_set = np.unique(
            _as_scalars(id_rows), return_index=True, return_inverse=True
        )
        self.region_set = region_set.reshape(-1).astype(np.int32, copy=False)
        self.set_rows = id_rows[set_first]
        pairs = self._row_table(
            self.region_bits.astype(np.int64, copy=False) * len(set_first)
            + self.region_set,
            np.ones(len(first), dtype=bool),
        )
        self.n_signatures = len(np.unique(_as_scalars(pairs)))

    def _row_table(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Each signature's kept region ``values`` as one sorted row, -1 padded."""
        table = np.full(
            (len(self.weights), self.n_cols), -1, dtype=np.int64
        )
        table[self.region_row[keep], self.region_col[keep]] = values[keep]
        table.sort(axis=1)
        return table

    def classify(
        self, canon: _CanonicalIds, kinds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Events of the distinct live-outcome sets under reaction ``kinds``.

        ``kinds[n]`` is the reaction kind of an ``n``-bit region (eq. 6).
        A region is live when its kind maps some class of its ACE union to a
        nonzero outcome.  Signatures with equal sets of live ``(kind, id
        set)`` regions have equal outcomes (max and "any DUE present" are
        idempotent), so each distinct set is one combination, weighted by
        the groups of its signatures.  Returns the combinations' outcome
        intervals as the columns of a ``(combination, start, end,
        outcome)`` array, each combination's weight, the number of distinct
        live regions and the number of combinations.
        """
        if self.set_union is None:
            self.set_union = canon.region_ace(self.set_rows)
            self.region_mask = canon.cls_mask[self.set_union].astype(
                np.int32, copy=False
            )[self.region_set]
        assert self.region_mask is not None
        n_sets = len(self.set_rows)
        region_kind = kinds[self.region_bits]
        live = (self.region_mask & _LIVE_BITS[region_kind]) != 0
        table = self._row_table(region_kind * n_sets + self.region_set, live)
        table[:, 1:][table[:, 1:] == table[:, :-1]] = -1
        table.sort(axis=1)
        has = table[:, -1] >= 0
        width = int((table[has] >= 0).sum(axis=1).max()) if has.any() else 0
        combos, weights = _unique_rows(
            table[has, table.shape[1] - width:], self.weights[has]
        )
        member = combos >= 0
        code = combos[member]
        combo = np.nonzero(member)[0]
        kind = code // n_sets
        offsets, idx = _csr_take(
            canon.offsets, self.set_union[code - kind * n_sets]
        )
        owner = np.repeat(np.arange(len(code), dtype=np.intp), np.diff(offsets))
        # classes outside the table classify to nothing, as in
        # _reference.classify_region
        cls = canon.cls[idx]
        known = cls < _OUTCOMES.shape[1]
        outcome = np.where(
            known, _OUTCOMES[kind[owner], np.where(known, cls, 0)], 0
        )
        hit = outcome > 0
        events = np.stack([
            combo[owner][hit], canon.starts[idx][hit], canon.ends[idx][hit],
            outcome[hit],
        ])
        return events, weights, len(np.unique(code)), len(combos)


def _integrate(
    events: np.ndarray,
    weights: np.ndarray,
    due_preempts_sdc: bool,
    edges: Optional[np.ndarray],
) -> _Result:
    """Combine and integrate outcome intervals with one event sweep.

    ``events`` rows are ``(combination, start, end, outcome)``.  Sorted by
    (combination, cycle), per-outcome running counts give each segment's
    class: the highest outcome with a positive count (Sec. VII-B), or with
    ``due_preempts_sdc`` true DUE where SDC meets any DUE (Sec. VIII).
    Returns the weighted cycles per reported outcome and, with ``edges``,
    the per-bucket series, both summed exactly in int64.
    """
    combo, start, end, outcome = events
    n = len(combo)
    t = np.concatenate([start, end])
    order = np.lexsort((t, np.concatenate([combo, combo])))
    t = t[order]
    c = np.concatenate([combo, combo])[order]
    cls = np.concatenate([outcome, outcome])[order]
    delta = np.where(order < n, 1, -1)
    live = {
        int(o): np.cumsum(np.where(cls == o, delta, 0))[:-1] > 0
        for o in _REPORTED
    }
    # segment i is [t[i], t[i + 1]); outcomes ascend, so the highest wins
    seg = np.zeros(max(len(t) - 1, 0), dtype=np.int64)
    for o in _REPORTED:
        seg[live[int(o)]] = int(o)
    if due_preempts_sdc:
        due = live[int(Outcome.TRUE_DUE)] | live[int(Outcome.FALSE_DUE)]
        seg[(seg == int(Outcome.SDC)) & due] = int(Outcome.TRUE_DUE)
    # Every combination's last event closes its last interval, so counts
    # are zero across the gap to the next combination.
    seg_start, seg_end = t[:-1], t[1:]
    seg_w = weights[c[:-1]]
    cycles = tuple(
        int((seg_w * (seg_end - seg_start))[seg == int(o)].sum())
        for o in _REPORTED
    )
    if edges is None:
        return cycles, None
    series = np.zeros((max(len(edges) - 1, 0), 4), dtype=np.float64)
    for o in _REPORTED:
        m = seg == int(o)
        if not m.any():
            continue
        # The class's piecewise-linear integral F(x) = sum of w * overlap
        # of [start, end) with (-inf, x): slope +w from each start, -w
        # from each end; series buckets are differences of F at the edges.
        ramp_t = np.concatenate([seg_start[m], seg_end[m]])
        ramp_w = np.concatenate([seg_w[m], -seg_w[m]])
        by_t = np.argsort(ramp_t, kind="stable")
        ramp_t, ramp_w = ramp_t[by_t], ramp_w[by_t]
        slope = np.concatenate([[0], np.cumsum(ramp_w)])
        offset = np.concatenate([[0], np.cumsum(ramp_w * ramp_t)])
        j = np.searchsorted(ramp_t, edges, side="right")
        series[:, int(o)] = np.diff(edges * slope[j] - offset[j])
    return cycles, series


def _signatures_for(
    array: SramArray,
    canon: _CanonicalIds,
    mode: FaultMode,
    lifetimes: StructureLifetimes,
) -> _Signatures:
    """Enumeration memo: region table per (array, mode, canonical lifetimes).

    The memo also holds one :class:`_RowTable` per canonical id table,
    which every mode's enumeration on this array shares.
    """
    memo = array._sig_memo
    if memo is None:
        memo = array._sig_memo = {}
    key = (mode, canon)
    sigs: Optional[_Signatures] = memo.get(key)
    metrics = get_metrics()
    if sigs is not None:
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return sigs
    with get_tracer().span(
        "enumerate", structure=lifetimes.name, mode=mode.name
    ) as span:
        table = memo.get(canon)
        if table is None:
            table = memo[canon] = _RowTable(array, canon.byte2iid)
        keys, weights, n_bands = _enumerate_signatures(
            array, canon.byte2iid, mode, table
        )
        sigs = _Signatures(keys, weights, mode.n_bits)
        span.set(rows=array.rows, bands=n_bands, signatures=sigs.n_signatures)
    memo[key] = sigs
    return sigs


def compute_mb_avf_batch(
    array: SramArray,
    lifetimes: StructureLifetimes,
    configs: Sequence[AvfConfig],
) -> List[MbAvfResult]:
    """MB-AVFs of one structure layout for many engine configurations.

    ``lifetimes`` is the structure's one lifetime table: byte ``i`` of it
    is byte id ``i`` of ``array``, every tile's bytes included.  The
    result is named after it.  The Sec. VIII rule (DUE preempts SDC: a
    wavefront reads a register row at once, so a detected region fires
    before an undetected one propagates) applies exactly to an
    ``INTER_THREAD`` array.

    Every cache described in the module docstring is shared across the
    batch, so use this instead of looping over :func:`compute_mb_avf`
    whenever several (mode, scheme) pairs are evaluated on one structure.
    """
    with get_tracer().span(
        "batch", structure=lifetimes.name, configs=len(configs)
    ):
        canon = _canonical_iset_ids(lifetimes)
        done = [_config_result(array, canon, lifetimes, cfg) for cfg in configs]
    return [
        MbAvfResult(
            structure=lifetimes.name,
            mode=cfg.mode,
            scheme=cfg.scheme.name,
            n_groups=array.n_groups(cfg.mode.height, cfg.mode.width),
            window_cycles=lifetimes.window_cycles,
            outcome_cycles={o: float(c) for o, c in zip(_REPORTED, cycles)},
            series_edges=None if cfg.series_edges is None
            else np.asarray(cfg.series_edges, dtype=np.int64),
            series=None if series is None else series.copy(),
        )
        for cfg, (cycles, series) in zip(configs, done)
    ]


def _config_result(
    array: SramArray,
    canon: _CanonicalIds,
    lifetimes: StructureLifetimes,
    cfg: AvfConfig,
) -> _Result:
    """One config's outcome cycles and series, from the enumeration memo's
    result cache or classified and integrated anew."""
    tracer = get_tracer()
    metrics = get_metrics()
    mode, scheme = cfg.mode, cfg.scheme
    sigs = _signatures_for(array, canon, mode, lifetimes)
    if metrics:
        # The dedup hit-rate is 1 - signatures/groups: every group
        # beyond its signature's first is classified for free.
        metrics.counter("avf.computations").inc()
        metrics.counter("avf.groups_enumerated").inc(
            array.n_groups(mode.height, mode.width)
        )
        metrics.counter("avf.unique_signatures").inc(sigs.n_signatures)
    key = (scheme, cfg.series_edges)
    cached = sigs.results.get(key)
    if cached is not None:
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return cached
    with tracer.span(
        "classify", signatures=sigs.n_signatures, scheme=scheme.name
    ) as span:
        kinds = np.array(
            [reaction_kind(scheme.react(n)) for n in range(mode.n_bits + 1)],
            dtype=np.int64,
        )
        events, weights, n_regions, n_combos = sigs.classify(canon, kinds)
        span.set(combinations=n_combos)
    if metrics:
        metrics.counter("avf.regions_classified").inc(n_regions)
    edges = None
    if cfg.series_edges is not None:
        edges = np.asarray(cfg.series_edges, dtype=np.int64)
    with tracer.span("integrate", signatures=sigs.n_signatures):
        cached = sigs.results[key] = _integrate(
            events, weights, array.style is Interleaving.INTER_THREAD, edges
        )
    return cached


def compute_mb_avf(
    array: SramArray,
    lifetimes: StructureLifetimes,
    mode: FaultMode,
    scheme: ProtectionScheme,
    *,
    series_edges: Optional[Sequence[int]] = None,
) -> MbAvfResult:
    """The DUE and SDC MB-AVF of ``array`` for one fault mode:
    :func:`compute_mb_avf_batch` of one config.

    ``series_edges`` optionally requests an AVF-over-time series with the
    given bucket boundaries (used for the paper's phase plots, Fig. 5/8).

    Repeated calls on the same ``(array, lifetimes)`` reuse the cached
    enumeration and classifications.
    """
    cfg = AvfConfig(
        mode=mode,
        scheme=scheme,
        series_edges=tuple(series_edges) if series_edges is not None else None,
    )
    return compute_mb_avf_batch(array, lifetimes, [cfg])[0]


def ace_locality(array: SramArray, lifetimes: StructureLifetimes) -> float:
    """ACE locality: tendency of physically adjacent bits to be ACE together.

    Defined as the aggregate Jaccard overlap of ACE time between horizontally
    adjacent bit pairs::

        locality = sum_pairs |ACE_i ∩ ACE_j| / sum_pairs |ACE_i ∪ ACE_j|

    1.0 means neighbours are always ACE at exactly the same cycles (the MB-AVF
    of a fault covering them collapses to the SB-AVF); 0.0 means ACE time
    never overlaps (MB-AVF approaches M times SB-AVF).  Structures with high
    ACE locality have lower MB-AVF (Sec. VI-B).

    Each tile's adjacent pairs are bucketed with one lexsort and the
    tiles' buckets merged with one more, and the unions of every distinct
    (lifetime id, lifetime id) pair are swept in one grouped
    :func:`union_rows` call; each overlap is then ``|ACE_i| + |ACE_j| -
    |ACE_i ∪ ACE_j|``, in exact int64.  When the tiles are separate arrays
    (one per CU, say) the result is the mean of each tile's locality.
    """
    canon = _canonical_iset_ids(lifetimes)
    u = canon.unique
    tile_rows = np.arange(array.tile_rows, dtype=np.intp)
    buckets = []
    for k in range(array.tiles):
        byte, _ = array.take_rows(tile_rows + k * array.tile_rows)
        iid_of = canon.byte2iid[byte]
        group = np.full(
            iid_of[:, 1:].size, k if array.separate_tiles else 0,
            dtype=np.int64,
        )
        buckets.append(_unique_rows(np.stack(
            [group, iid_of[:, :-1].ravel(), iid_of[:, 1:].ravel()], axis=1
        )))
    keyed, counts = _unique_rows(
        np.vstack([b for b, _ in buckets]),
        np.concatenate([n for _, n in buckets]),
    )
    group, uniq = keyed[:, 0], keyed[:, 1:]
    ace = u.cls >= int(AceClass.ACE)
    dur = np.zeros(len(u.ends) + 1, dtype=np.int64)
    np.cumsum((u.ends - u.starts) * ace, out=dur[1:])
    dur = dur[u.offsets[1:]] - dur[u.offsets[:-1]]  # ACE cycles per id
    member_off, idx = _csr_take(u.offsets, uniq.ravel())
    owner = np.repeat(
        np.arange(len(uniq), dtype=np.int64).repeat(2), np.diff(member_off)
    )
    keep = ace[idx]
    offsets, starts, ends, _ = union_rows(
        owner[keep], u.starts[idx[keep]], u.ends[idx[keep]],
        u.cls[idx[keep]], len(uniq),
    )
    covered = np.zeros(len(ends) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=covered[1:])
    union = covered[offsets[1:]] - covered[offsets[:-1]]
    inter = dur[uniq[:, 0]] + dur[uniq[:, 1]] - union
    n_tiles = array.tiles if array.separate_tiles else 1
    totals = np.zeros((2, n_tiles), dtype=np.int64)
    np.add.at(totals, (0, group), counts * inter)
    np.add.at(totals, (1, group), counts * union)
    return float(np.mean([i / t if t else 1.0 for i, t in totals.T.tolist()]))
