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

Cross-configuration reuse
-------------------------
A sweep evaluates dozens of (mode, scheme, interleaving) configurations
over the *same* lifetimes, so the expensive intermediates are cached where
they can be shared:

* canonical lifetime ids are computed once per :class:`StructureLifetimes`
  and cached on it,
* fault-group signatures are memoized per ``(array, mode, lifetimes)``,
* region ACE unions, region outcomes and combined signature outcomes are
  cached on the lifetimes' canonical table, keyed by scheme, so every
  config after the first reuses them.

:func:`compute_mb_avf_batch` exposes this directly: hand it a list of
:class:`AvfConfig` and it shares every cache across the whole batch; the
single-config :func:`compute_mb_avf` is a thin wrapper.  Cache traffic is
observable via the ``avf.batch_cache_hits`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from .faultmodes import FaultMode
from .intervals import (
    AceClass,
    IntervalSet,
    Outcome,
    combine_outcomes,
    intersection_duration,
    sweep_max,
)
from .layout import SramArray
from .protection import ProtectionScheme, classify_region

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
    """Canonical lifetime-id table plus the per-lifetimes engine caches.

    ``byte2iid`` maps byte ids to canonical interval-set ids (0 = the empty
    set); ``isets[iid]`` is the representative set.  The region/signature
    caches live here because their keys only make sense relative to this id
    table; batches and repeated single computations share them.
    """

    __slots__ = ("byte2iid", "isets", "region_ace", "region_out", "combined")

    def __init__(self, byte2iid: np.ndarray, isets: List[IntervalSet]) -> None:
        self.byte2iid = byte2iid
        self.isets = isets
        #: frozenset[iid] -> swept ACE union of the member lifetimes
        self.region_ace: Dict[FrozenSet[int], IntervalSet] = {}
        #: (scheme, miscorrect, n_bits, ids) -> classified region outcome
        self.region_out: Dict[Tuple, IntervalSet] = {}
        #: (scheme, miscorrect, due_preempts, sig) -> combined group outcome
        self.combined: Dict[Tuple, IntervalSet] = {}


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


GroupSignature = Tuple[Tuple[int, FrozenSet[int]], ...]


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


def _sigs_from_keys(
    uniq: np.ndarray, counts: np.ndarray, k: int
) -> Dict[GroupSignature, int]:
    """Region signatures from deduplicated (relative domain, iid) keys."""
    sigs: Dict[GroupSignature, int] = {}
    for key, cnt in zip(uniq.tolist(), counts.tolist()):
        regions: Dict[int, List] = {}
        for pos in range(k):
            d = key[pos]
            iid = key[k + pos]
            ent = regions.get(d)
            if ent is None:
                regions[d] = ent = [0, set()]
            ent[0] += 1
            if iid:
                ent[1].add(iid)
        sig = tuple(sorted((n, frozenset(ids)) for n, ids in regions.values()))
        sigs[sig] = sigs.get(sig, 0) + cnt
    return sigs


def _enumerate_signatures(
    array: SramArray, byte2iid: np.ndarray, mode: FaultMode
) -> Tuple[Dict[GroupSignature, int], int]:
    """Count fault groups per canonical (regions) signature.

    A signature is the multiset of the group's overlapped regions, each
    region being ``(n_faulty_bits, frozenset of member lifetime ids)``.  Two
    groups with equal signatures have identical AVF classification.  Returns
    the signature counts and the number of distinct row bands enumerated.

    An ``HxW`` group lies within a band of H consecutive rows, and its key —
    the vector of (domain id relative to the first offset's domain, lifetime
    id) per position — does not change when every domain id of the band
    shifts by one amount.  Rows therefore get dense ids over ``[lifetime ids
    | domain ids − the row's first domain id]``; a band is keyed by its H
    row ids plus the H−1 first-domain deltas to its first row, and only one
    representative per distinct band is windowed.

    The window pass is one 2-axis :func:`sliding_window_view` over the
    representatives, restricted to the mode's offsets; each window weighs
    as many groups as its band occurs.  Equal keys imply an identical
    domain-equality pattern and identical member lifetimes, hence an
    identical classification; they are bucketed with one weighted lexsort.
    Windows whose members are all lifetime-empty classify to nothing and
    are dropped up front (they still count in the denominator via
    ``n_groups``).
    """
    from numpy.lib.stride_tricks import sliding_window_view

    h, w = mode.height, mode.width
    if h > array.rows or w > array.cols:
        return {}, 0
    k = mode.n_bits
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
        return {}, n_bands
    dom_flat = dom_win.reshape(n_win, h * w)[:, sel][active]
    keys = np.empty((len(dom_flat), 2 * k), dtype=np.int32)
    keys[:, :k] = dom_flat - dom_flat[:, :1]
    keys[:, k:] = iid_flat[active]
    weights = np.repeat(band_count, per_band)[active]
    uniq, counts = _unique_rows(keys, weights)
    return _sigs_from_keys(uniq, counts, k), n_bands


def _signatures_for(
    array: SramArray,
    canon: _CanonicalIds,
    mode: FaultMode,
    lifetimes: StructureLifetimes,
) -> Dict[GroupSignature, int]:
    """Enumeration memo: signatures per (array, mode, canonical lifetimes)."""
    memo = array._sig_memo
    if memo is None:
        memo = array._sig_memo = {}
    key = (mode, canon)
    sigs = memo.get(key)
    metrics = get_metrics()
    if sigs is not None:
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return sigs
    with get_tracer().span(
        "enumerate", structure=lifetimes.name, mode=mode.name
    ) as span:
        sigs, n_bands = _enumerate_signatures(array, canon.byte2iid, mode)
        span.set(rows=array.rows, bands=n_bands, signatures=len(sigs))
    memo[key] = sigs
    return sigs


def compute_mb_avf_batch(
    array: SramArray,
    lifetimes: StructureLifetimes,
    configs: Sequence[AvfConfig],
) -> List[MbAvfResult]:
    """Compute MB-AVFs for many engine configurations in one pass.

    Canonical lifetime ids are resolved once; fault-group enumeration is
    memoized per mode; region ACE unions, region classifications and
    combined signature outcomes are shared across every config (keyed by
    scheme where they depend on it).  Use this instead of looping over
    :func:`compute_mb_avf` whenever several (mode, scheme) pairs are
    evaluated on the same structure — sweeps, design-space studies, the
    perf benches.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    results: List[MbAvfResult] = []
    with tracer.span(
        "batch", structure=lifetimes.name, configs=len(configs)
    ):
        canon = _canonical_iset_ids(lifetimes)
        isets = canon.isets
        region_ace = canon.region_ace
        region_out = canon.region_out
        combined_cache = canon.combined
        for cfg in configs:
            mode, scheme = cfg.mode, cfg.scheme
            sigs = _signatures_for(array, canon, mode, lifetimes)
            n_groups = array.n_groups(mode.height, mode.width)
            if metrics:
                # The dedup hit-rate is 1 - signatures/groups: every group
                # beyond its signature's first is classified for free.
                metrics.counter("avf.computations").inc()
                metrics.counter("avf.groups_enumerated").inc(n_groups)
                metrics.counter("avf.unique_signatures").inc(len(sigs))

            out_key = (scheme, cfg.miscorrect_corrupts)
            comb_key = out_key + (cfg.due_preempts_sdc,)

            def region_outcome(n_bits: int, ids: FrozenSet[int]) -> IntervalSet:
                key = out_key + (n_bits, ids)
                cached = region_out.get(key)
                if cached is not None:
                    return cached
                ace = region_ace.get(ids)
                if ace is None:
                    ace = sweep_max([isets[i] for i in ids]) if ids else IntervalSet()
                    region_ace[ids] = ace
                out = classify_region(
                    scheme.react(n_bits),
                    ace,
                    miscorrect_corrupts=cfg.miscorrect_corrupts,
                )
                region_out[key] = out
                return out

            n_cached = len(region_out)
            with tracer.span(
                "classify", signatures=len(sigs), scheme=scheme.name
            ):
                combined_by_sig: Dict[GroupSignature, IntervalSet] = {}
                for sig in sigs:
                    cached = combined_cache.get(comb_key + (sig,))
                    if cached is None:
                        cached = combine_outcomes(
                            [region_outcome(n, ids) for n, ids in sig],
                            due_preempts_sdc=cfg.due_preempts_sdc,
                        )
                        combined_cache[comb_key + (sig,)] = cached
                    elif metrics:
                        metrics.counter("avf.batch_cache_hits").inc()
                    combined_by_sig[sig] = cached
            if metrics:
                metrics.counter("avf.regions_classified").inc(
                    len(region_out) - n_cached
                )

            outcome_cycles: Dict[Outcome, float] = {
                Outcome.FALSE_DUE: 0.0,
                Outcome.TRUE_DUE: 0.0,
                Outcome.SDC: 0.0,
            }
            edges = None
            series = None
            tmp = None
            if cfg.series_edges is not None:
                edges = np.asarray(cfg.series_edges, dtype=np.int64)
                series = np.zeros((len(edges) - 1, 4), dtype=np.float64)
                tmp = np.zeros_like(series)
            with tracer.span("integrate", signatures=len(sigs)):
                for sig, weight in sigs.items():
                    combined = combined_by_sig[sig]
                    if not combined:
                        continue
                    for s, e, c in combined:
                        outcome_cycles[Outcome(c)] += weight * (e - s)
                    if series is not None:
                        tmp.fill(0.0)
                        combined.bucket_accumulate(edges, tmp)
                        series += weight * tmp

            results.append(
                MbAvfResult(
                    structure=lifetimes.name,
                    mode=mode,
                    scheme=scheme.name,
                    n_groups=n_groups,
                    window_cycles=lifetimes.window_cycles,
                    outcome_cycles=outcome_cycles,
                    series_edges=edges,
                    series=series,
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
