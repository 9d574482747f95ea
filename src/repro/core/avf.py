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
fully vectorized: every mode geometry (contiguous Mx1 wordline faults and
2-D ``HxW`` rectangles alike) runs one 2-axis ``sliding_window_view`` pass
keyed by domain-relative ids over each *distinct* band of H rows, weighted
by how often the band occurs, bucketed with a single weighted lexsort.

Grouped classify and integrate
------------------------------
The distinct group keys stay arrays.  They are decoded once into a region
table (each region's signature row, faulty-bit count and member id set),
and every region ACE union (eq. 5) is swept once per distinct id set.
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
  and cached on it, together with the region ACE unions (one CSR table),
* the region table is memoized per ``(array, mode, lifetimes)``, and with
  it each config's outcome cycles and series, keyed by ``(scheme,
  miscorrect_corrupts, due_preempts_sdc, series_edges)``.

:func:`compute_mb_avf_batch` exposes this directly: hand it a list of
:class:`AvfConfig` and it shares every cache across the whole batch; the
single-config :func:`compute_mb_avf` is a thin wrapper.  Cache traffic is
observable via the ``avf.batch_cache_hits`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from .faultmodes import FaultMode
from .intervals import (
    AceClass,
    IntervalSet,
    Outcome,
    intersection_duration,
    sweep_max,
)
from .layout import SramArray
from .protection import OUTCOME_TABLE, ProtectionScheme, reaction_kind

__all__ = [
    "StructureLifetimes",
    "AvfConfig",
    "MbAvfResult",
    "compute_mb_avf",
    "compute_mb_avf_batch",
    "compute_sb_avf",
    "merge_results",
    "ace_locality",
    "intersection_duration",
]


@dataclass
class StructureLifetimes:
    """Per-byte classed ACE intervals for one hardware structure.

    ``byte_isets[i]`` holds the :class:`AceClass` intervals of tracked byte
    ``i`` (all 8 bits of a byte share one classification; bit-level liveness
    refinements are already folded in by the lifetime builder).  The analysis
    window is ``[start_cycle, end_cycle)``; intervals must lie inside it.

    The engine caches derived state (canonical lifetime ids, region
    classifications) on the instance, so ``byte_isets`` must not be mutated
    after the first AVF computation.
    """

    name: str
    byte_isets: Sequence[IntervalSet]
    start_cycle: int
    end_cycle: int
    #: engine cache, filled by _canonical_iset_ids on first AVF computation
    _canon_cache: Optional["_CanonicalIds"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def window_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def sb_ace_fraction(self) -> float:
        """Plain single-bit AVF with no protection (fraction of ACE bit-cycles)."""
        total = sum(s.total(int(AceClass.ACE)) for s in self.byte_isets)
        return total / (len(self.byte_isets) * self.window_cycles)


@dataclass(frozen=True)
class AvfConfig:
    """One (fault mode, protection scheme) engine configuration.

    ``series_edges`` must be a tuple (the config is hashable so batches can
    deduplicate); :func:`compute_mb_avf` converts sequences for you.
    """

    mode: FaultMode
    scheme: ProtectionScheme
    due_preempts_sdc: bool = False
    miscorrect_corrupts: bool = False
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
        """Any-error AVF (SDC + DUE)."""
        return self._avf(Outcome.SDC, Outcome.TRUE_DUE, Outcome.FALSE_DUE)

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

    ``byte2iid`` maps byte ids to canonical interval-set ids (0 = the empty
    set); ``isets[iid]`` is the representative set.  The ACE union (eq. 5)
    of every region id set met so far is cached here as one CSR table,
    because its keys only make sense relative to this id table: the union
    of set ``g`` is ``starts/ends/cls[offsets[g]:offsets[g + 1]]``, and bit
    ``c`` of ``cls_mask[g]`` is set when class ``c`` occurs in it.  Set 0
    is the empty set.  Batches and repeated single computations share it.
    """

    __slots__ = (
        "byte2iid", "isets", "set_ids", "offsets", "starts", "ends", "cls",
        "cls_mask",
    )

    def __init__(self, byte2iid: np.ndarray, isets: List[IntervalSet]) -> None:
        self.byte2iid = byte2iid
        self.isets = isets
        #: sorted member iids -> row of the CSR union table
        self.set_ids: Dict[Tuple[int, ...], int] = {(): 0}
        self.offsets = np.zeros(2, dtype=np.int64)
        self.starts = self.ends = self.cls = np.zeros(0, dtype=np.int64)
        self.cls_mask = np.zeros(1, dtype=np.int64)

    def region_ace(self, id_rows: np.ndarray) -> np.ndarray:
        """CSR rows of the ACE unions of ``id_rows``, sweeping new ones once.

        Each row of ``id_rows`` is one region's sorted nonzero member iids,
        zero-padded on the right.
        """
        set_ids = self.set_ids
        rows = np.empty(len(id_rows), dtype=np.int64)
        new: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for j, row in enumerate(id_rows.tolist()):
            ids = tuple(i for i in row if i)
            g = set_ids.get(ids)
            if g is None:
                g = set_ids[ids] = len(set_ids)
                new.append(sweep_max([self.isets[i] for i in ids])._arrays())
            rows[j] = g
        if new:
            lens = np.array([len(s) for s, _, _ in new], dtype=np.int64)
            self.offsets = np.concatenate(
                [self.offsets, self.offsets[-1] + np.cumsum(lens)]
            )
            cls = np.concatenate([c for _, _, c in new])
            self.starts = np.concatenate([self.starts] + [s for s, _, _ in new])
            self.ends = np.concatenate([self.ends] + [e for _, e, _ in new])
            self.cls = np.concatenate([self.cls, cls])
            mask = np.zeros(len(new), dtype=np.int64)
            np.bitwise_or.at(
                mask,
                np.repeat(np.arange(len(new), dtype=np.intp), lens),
                np.left_shift(1, cls),
            )
            self.cls_mask = np.concatenate([self.cls_mask, mask])
        return rows


def _canonical_iset_ids(lifetimes: StructureLifetimes) -> _CanonicalIds:
    """Canonical lifetime ids for ``lifetimes``, computed once and cached.

    Bytes whose interval sets are byte-for-byte equal share one id, so all
    downstream caches collapse identical lifetimes.  Deduplication is by
    object identity first (stacked structures reuse set objects), then by
    the sets' canonical array encoding.
    """
    canon = lifetimes._canon_cache
    if canon is not None:
        metrics = get_metrics()
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return canon
    table: Dict[bytes, int] = {b"": 0}
    by_obj: Dict[int, int] = {}
    unique: List[IntervalSet] = [IntervalSet()]
    byte2iid = np.zeros(len(lifetimes.byte_isets), dtype=np.int32)
    for b, iset in enumerate(lifetimes.byte_isets):
        # id()-keyed interning is safe here: by_obj never outlives this
        # pass and every keyed object stays alive in lifetimes.byte_isets,
        # so ids cannot be recycled; ordering never depends on the ids.
        iid = by_obj.get(id(iset))  # staticcheck: ignore[D104]
        if iid is None:
            key = iset._key()
            iid = table.get(key)
            if iid is None:
                iid = len(unique)
                table[key] = iid
                unique.append(iset)
            by_obj[id(iset)] = iid  # staticcheck: ignore[D104]
        byte2iid[b] = iid
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


def _enumerate_signatures(
    array: SramArray, byte2iid: np.ndarray, mode: FaultMode
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Count fault groups per distinct group key.

    A group's key is the vector of (domain id relative to the first
    offset's domain, lifetime id) per position of the mode: ``int32`` keys
    of shape ``[S, 2k]``, the k relative domains first.  Equal keys imply an
    identical domain-equality pattern and identical member lifetimes, hence
    an identical classification.  Returns the distinct keys in lexsort
    order, the ``int64`` number of groups per key, and the number of
    distinct row bands enumerated.

    An ``HxW`` group lies within a band of H consecutive rows, and its key
    does not change when every domain id of the band shifts by one amount.
    Rows therefore get dense ids over ``[lifetime ids | domain ids − the
    row's first domain id]``; a band is keyed by its H row ids plus the H−1
    first-domain deltas to its first row, and only one representative per
    distinct band is windowed.

    The window pass is one 2-axis :func:`sliding_window_view` over the
    representatives, restricted to the mode's offsets; each window weighs
    as many groups as its band occurs, and equal keys are bucketed with one
    weighted lexsort.  Windows whose members are all lifetime-empty
    classify to nothing and are dropped up front (they still count in the
    denominator via ``n_groups``).
    """
    from numpy.lib.stride_tricks import sliding_window_view

    h, w = mode.height, mode.width
    k = mode.n_bits
    no_keys = np.zeros((0, 2 * k), dtype=np.int32)
    no_weights = np.zeros(0, dtype=np.int64)
    if h > array.rows or w > array.cols:
        return no_keys, no_weights, 0
    iid_of = byte2iid[array.byte_of]
    dom_of = array.domain_of
    first_dom = dom_of[:, 0]
    _, row_id = np.unique(
        _as_scalars(np.hstack([iid_of, dom_of - first_dom[:, None]])),
        return_inverse=True,
    )
    first_win = sliding_window_view(first_dom, h)
    band_keys = np.hstack([
        sliding_window_view(row_id, h),
        first_win[:, 1:] - first_win[:, :1],
    ])
    _, band_start, band_count = np.unique(
        _as_scalars(band_keys), return_index=True, return_counts=True
    )
    n_bands = len(band_start)
    band_rows = band_start[:, None] + np.arange(h, dtype=np.intp)
    dom_win = sliding_window_view(dom_of[band_rows], (h, w), axis=(1, 2))
    iid_win = sliding_window_view(iid_of[band_rows], (h, w), axis=(1, 2))
    per_band = dom_win.shape[2]
    n_win = n_bands * per_band
    sel = np.fromiter(
        (r * w + c for r, c in mode.offsets), dtype=np.intp, count=k
    )
    iid_flat = iid_win.reshape(n_win, h * w)[:, sel]
    active = iid_flat.any(axis=1)
    if not active.any():
        return no_keys, no_weights, n_bands
    dom_flat = dom_win.reshape(n_win, h * w)[:, sel][active]
    keys = np.empty((len(dom_flat), 2 * k), dtype=np.int32)
    keys[:, :k] = dom_flat - dom_flat[:, :1]
    keys[:, k:] = iid_flat[active]
    weights = np.repeat(
        band_count.astype(np.int64, copy=False), per_band
    )[active]
    uniq, counts = _unique_rows(keys, weights)
    return uniq, counts, n_bands


#: bit ``c`` of ``_LIVE_BITS[kind]`` is set when a region of reaction kind
#: ``kind`` turns ACE class ``c`` into a nonzero outcome
_LIVE_BITS = np.array(
    [sum(1 << c for c, o in enumerate(row) if o) for row in OUTCOME_TABLE],
    dtype=np.int64,
)
_OUTCOMES = np.array(OUTCOME_TABLE, dtype=np.int64)

#: the outcome classes an MB-AVF result reports, in ``Outcome`` order
_REPORTED = (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC)

#: (scheme, miscorrect_corrupts, due_preempts_sdc, series_edges)
_ResultKey = Tuple[ProtectionScheme, bool, bool, Optional[Tuple[int, ...]]]
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
    counts the distinct region multisets.

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
            empty = np.zeros(0, dtype=np.int64)
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
        self.region_row = first // k
        self.region_col = col[first]
        self.n_cols = int(col.max()) + 1
        self.region_bits = np.bincount(region)
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
        self.region_set = region_set.reshape(-1)
        self.set_rows = id_rows[set_first]
        pairs = self._row_table(
            self.region_bits * len(set_first) + self.region_set,
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
            self.region_mask = canon.cls_mask[self.set_union][self.region_set]
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
        union = self.set_union[code - kind * n_sets]
        lo = canon.offsets[union]
        count = canon.offsets[union + 1] - lo
        owner = np.repeat(np.arange(len(code), dtype=np.intp), count)
        idx = (
            lo[owner] + np.arange(len(owner), dtype=np.int64)
            - (np.cumsum(count) - count)[owner]
        )
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
    """Enumeration memo: region table per (array, mode, canonical lifetimes)."""
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
        keys, weights, n_bands = _enumerate_signatures(
            array, canon.byte2iid, mode
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
    """Compute MB-AVFs for many engine configurations in one pass.

    Canonical lifetime ids are resolved once; fault-group enumeration is
    memoized per mode; region ACE unions are shared across every config,
    and each config's outcome cycles and series are cached with its
    enumeration.  Use this instead of looping over :func:`compute_mb_avf`
    whenever several (mode, scheme) pairs are evaluated on the same
    structure — sweeps, design-space studies, the perf benches.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    results: List[MbAvfResult] = []
    with tracer.span(
        "batch", structure=lifetimes.name, configs=len(configs)
    ):
        canon = _canonical_iset_ids(lifetimes)
        for cfg in configs:
            mode, scheme = cfg.mode, cfg.scheme
            sigs = _signatures_for(array, canon, mode, lifetimes)
            n_groups = array.n_groups(mode.height, mode.width)
            if metrics:
                # The dedup hit-rate is 1 - signatures/groups: every group
                # beyond its signature's first is classified for free.
                metrics.counter("avf.computations").inc()
                metrics.counter("avf.groups_enumerated").inc(n_groups)
                metrics.counter("avf.unique_signatures").inc(sigs.n_signatures)

            edges = None
            if cfg.series_edges is not None:
                edges = np.asarray(cfg.series_edges, dtype=np.int64)
            key = (
                scheme, cfg.miscorrect_corrupts, cfg.due_preempts_sdc,
                cfg.series_edges,
            )
            cached = sigs.results.get(key)
            if cached is None:
                with tracer.span(
                    "classify", signatures=sigs.n_signatures, scheme=scheme.name
                ) as span:
                    kinds = np.array(
                        [
                            reaction_kind(
                                scheme.react(n),
                                miscorrect_corrupts=cfg.miscorrect_corrupts,
                            )
                            for n in range(mode.n_bits + 1)
                        ],
                        dtype=np.int64,
                    )
                    events, weights, n_regions, n_combos = sigs.classify(
                        canon, kinds
                    )
                    span.set(combinations=n_combos)
                if metrics:
                    metrics.counter("avf.regions_classified").inc(n_regions)
                with tracer.span("integrate", signatures=sigs.n_signatures):
                    cached = _integrate(
                        events, weights, cfg.due_preempts_sdc, edges
                    )
                sigs.results[key] = cached
            elif metrics:
                metrics.counter("avf.batch_cache_hits").inc()
            cycles, series = cached

            results.append(
                MbAvfResult(
                    structure=lifetimes.name,
                    mode=mode,
                    scheme=scheme.name,
                    n_groups=n_groups,
                    window_cycles=lifetimes.window_cycles,
                    outcome_cycles={
                        o: float(v) for o, v in zip(_REPORTED, cycles)
                    },
                    series_edges=edges,
                    series=None if series is None else series.copy(),
                )
            )
    return results


def compute_mb_avf(
    array: SramArray,
    lifetimes: StructureLifetimes,
    mode: FaultMode,
    scheme: ProtectionScheme,
    *,
    due_preempts_sdc: bool = False,
    miscorrect_corrupts: bool = False,
    series_edges: Optional[Sequence[int]] = None,
) -> MbAvfResult:
    """Compute the DUE and SDC MB-AVF of ``array`` for one fault mode.

    ``due_preempts_sdc`` enables the Sec. VIII simultaneous-read rule (a
    detected region fires before an undetected region's data can propagate,
    e.g. inter-thread interleaving within one GPU wavefront read).

    ``series_edges`` optionally requests an AVF-over-time series with the
    given bucket boundaries (used for the paper's phase plots, Fig. 5/8).

    Repeated calls on the same ``(array, lifetimes)`` reuse the cached
    enumeration and classifications; see :func:`compute_mb_avf_batch`.
    """
    cfg = AvfConfig(
        mode=mode,
        scheme=scheme,
        due_preempts_sdc=due_preempts_sdc,
        miscorrect_corrupts=miscorrect_corrupts,
        series_edges=tuple(series_edges) if series_edges is not None else None,
    )
    return compute_mb_avf_batch(array, lifetimes, [cfg])[0]


def compute_sb_avf(
    array: SramArray,
    lifetimes: StructureLifetimes,
    scheme: ProtectionScheme,
    *,
    series_edges: Optional[Sequence[int]] = None,
) -> MbAvfResult:
    """Single-bit AVF: MB-AVF of the degenerate 1x1 fault mode."""
    return compute_mb_avf(
        array, lifetimes, FaultMode.linear(1), scheme, series_edges=series_edges
    )


def merge_results(results: Sequence[MbAvfResult]) -> MbAvfResult:
    """Aggregate MB-AVF results over replicated structures.

    Used to combine the per-CU L1 caches, or the per-wavefront register
    files, into one structure-level AVF: outcome group-cycles and group
    counts add; all inputs must share the fault mode, scheme and analysis
    window.
    """
    if not results:
        raise ValueError("nothing to merge")
    first = results[0]
    outcome: Dict[Outcome, float] = {}
    n_groups = 0
    series = None
    for r in results:
        if r.mode != first.mode or r.scheme != first.scheme:
            raise ValueError("cannot merge results of different configurations")
        if r.window_cycles != first.window_cycles:
            raise ValueError("cannot merge results with different windows")
        n_groups += r.n_groups
        for o, cyc in r.outcome_cycles.items():
            outcome[o] = outcome.get(o, 0.0) + cyc
        if r.series is not None:
            series = r.series.copy() if series is None else series + r.series
    return MbAvfResult(
        structure=first.structure,
        mode=first.mode,
        scheme=first.scheme,
        n_groups=n_groups,
        window_cycles=first.window_cycles,
        outcome_cycles=outcome,
        series_edges=first.series_edges,
        series=series,
    )


def ace_locality(array: SramArray, lifetimes: StructureLifetimes) -> float:
    """ACE locality: tendency of physically adjacent bits to be ACE together.

    Defined as the aggregate Jaccard overlap of ACE time between horizontally
    adjacent bit pairs::

        locality = sum_pairs |ACE_i ∩ ACE_j| / sum_pairs |ACE_i ∪ ACE_j|

    1.0 means neighbours are always ACE at exactly the same cycles (the MB-AVF
    of a fault covering them collapses to the SB-AVF); 0.0 means ACE time
    never overlaps (MB-AVF approaches M times SB-AVF).  Structures with high
    ACE locality have lower MB-AVF (Sec. VI-B).

    All adjacent pairs of the whole array are bucketed with one lexsort
    (instead of one ``np.unique`` per row); the Jaccard terms are then
    evaluated once per distinct (lifetime id, lifetime id) pair.
    """
    canon = _canonical_iset_ids(lifetimes)
    isets = canon.isets
    iid_of = canon.byte2iid[array.byte_of]
    pairs = np.stack(
        [iid_of[:, :-1].ravel(), iid_of[:, 1:].ravel()], axis=1
    )
    uniq, counts = _unique_rows(pairs)
    inter = 0.0
    union = 0.0
    ace = int(AceClass.ACE)
    dur_cache: Dict[int, int] = {}

    def dur(i: int) -> int:
        d = dur_cache.get(i)
        if d is None:
            d = dur_cache[i] = isets[i].total_at_least(ace) if i else 0
        return d

    for (ia, ib), n in zip(uniq.tolist(), counts.tolist()):
        da = dur(ia)
        db = dur(ib)
        if da == 0 and db == 0:
            continue
        ov = intersection_duration(isets[ia], isets[ib], ace) if ia and ib else 0
        inter += n * ov
        union += n * (da + db - ov)
    return inter / union if union else 1.0
