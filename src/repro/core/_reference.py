"""Pure-Python reference implementations of the engine's hot paths.

The production kernels in :mod:`repro.core.intervals` and
:mod:`repro.core.avf` are numpy-vectorized; this module preserves the
original (pre-vectorization) per-event / per-placement implementations as
an executable specification, plus the whole-array windowed enumerator that
band deduplication replaced, the per-mode band enumerator that the shared
row table and prefix ranks replaced, the per-signature classify and
integrate body that the grouped event sweep replaced, the per-bit layout
assembly loop that array ops replaced, and the per-byte memory
consumption index that the study's one memory lifetime table replaced
for the L2 write-back verdict.  The equivalence suites
(``tests/core/test_vectorized_equivalence.py``,
``tests/core/test_band_enumeration.py``) test that the vectorized kernels,
the band-deduplicated enumerator and the batch API produce byte-identical
intervals, signatures, outcome cycles and series.

Nothing here is used on the production path — do not optimise it.
"""

from __future__ import annotations

import bisect
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..arch.isa import Program
from ..arch.trace import Trace
from .intervals import AceClass, Interval, IntervalSet, Outcome
from .layout import Interleaving, SramArray
from .protection import (
    KIND_NONE,
    OUTCOME_TABLE,
    ProtectionScheme,
    Reaction,
    reaction_kind,
)

__all__ = [
    "sweep_max_ref",
    "combine_outcomes_ref",
    "map_class_ref",
    "classify_region",
    "bucket_accumulate_ref",
    "total_ref",
    "total_at_least_ref",
    "intersection_duration_ref",
    "enumerate_signatures_ref",
    "enumerate_signatures_windowed_ref",
    "enumerate_signatures_banded_ref",
    "sigs_from_keys",
    "compute_mb_avf_batch_ref",
    "ace_locality_ref",
    "compute_outcome_cycles_ref",
    "assemble_ref",
    "MemoryConsumptionRef",
]


def _sorted_set(ivals: List[Interval]) -> IntervalSet:
    """IntervalSet of already sorted, coalesced, nonzero intervals."""
    a = np.array(ivals, dtype=np.int64).reshape(-1, 3).T.copy()
    return IntervalSet._from_arrays(a[0], a[1], a[2])


def sweep_max_ref(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Event-at-a-time pointwise maximum-class union (eq. 5)."""
    live = [s for s in sets if s]
    if not live:
        return IntervalSet()
    if len(live) == 1:
        return _sorted_set(live[0].intervals())
    events: List[Tuple[int, int, int]] = []  # (cycle, delta, cls)
    maxcls = 0
    for iset in live:
        for s, e, c in iset:
            events.append((s, +1, c))
            events.append((e, -1, c))
            if c > maxcls:
                maxcls = c
    events.sort()
    counts = [0] * (maxcls + 1)
    out: List[Interval] = []
    cur_cls = 0
    cur_start = 0
    i, n = 0, len(events)
    while i < n:
        cyc = events[i][0]
        while i < n and events[i][0] == cyc:
            _, d, c = events[i]
            counts[c] += d
            i += 1
        new_cls = 0
        for c in range(maxcls, 0, -1):
            if counts[c] > 0:
                new_cls = c
                break
        if new_cls != cur_cls:
            if cur_cls != 0 and cyc > cur_start:
                if out and out[-1][1] == cur_start and out[-1][2] == cur_cls:
                    ps, _, pc = out[-1]
                    out[-1] = (ps, cyc, pc)
                else:
                    out.append((cur_start, cyc, cur_cls))
            cur_start = cyc
            cur_cls = new_cls
    return _sorted_set(out)


def combine_outcomes_ref(
    sets: Sequence[IntervalSet], *, due_preempts_sdc: bool = False
) -> IntervalSet:
    """Reference group-outcome combination (Sec. VII-B / Sec. VIII rules)."""
    if not due_preempts_sdc:
        return sweep_max_ref(sets)
    merged = sweep_max_ref(sets)
    if not merged:
        return merged
    due_times = sweep_max_ref(
        [
            map_class_ref(
                s, lambda c: 1 if c in (Outcome.TRUE_DUE, Outcome.FALSE_DUE) else 0
            )
            for s in sets
        ]
    )
    if not due_times:
        return merged
    out: List[Interval] = []

    def emit(s: int, e: int, c: int) -> None:
        if out and out[-1][1] == s and out[-1][2] == c:
            ps, _, pc = out[-1]
            out[-1] = (ps, e, pc)
        else:
            out.append((s, e, c))

    due_ivals = due_times.intervals()
    for s, e, c in merged:
        if c != Outcome.SDC:
            emit(s, e, c)
            continue
        cur = s
        for ds, de, _ in due_ivals:
            if de <= cur or ds >= e:
                continue
            if ds > cur:
                emit(cur, ds, int(Outcome.SDC))
            ov_end = min(de, e)
            emit(max(ds, cur), ov_end, int(Outcome.TRUE_DUE))
            cur = ov_end
            if cur >= e:
                break
        if cur < e:
            emit(cur, e, int(Outcome.SDC))
    return _sorted_set(out)


def map_class_ref(iset: IntervalSet, fn: Callable[[int], int]) -> IntervalSet:
    """Per-interval class remap with adjacent same-class coalescing."""
    out: List[Interval] = []
    for s, e, c in iset:
        c2 = fn(c)
        if c2 == 0:
            continue
        if out and out[-1][1] == s and out[-1][2] == c2:
            ps, _, pc = out[-1]
            out[-1] = (ps, e, pc)
        else:
            out.append((s, e, c2))
    return _sorted_set(out)


def classify_region(reaction: Reaction, ace: IntervalSet) -> IntervalSet:
    """Map an overlapped region's ACE intervals to fault outcomes (eq. 6).

    ``ace`` carries :class:`AceClass` labels; the result carries
    :class:`Outcome` labels.  Corrected regions contribute nothing; detected
    regions raise true DUEs on ACE time and false DUEs on read-dead time;
    undetected regions turn ACE time into SDC and mask everything else.
    The engine's grouped classify reads the same
    :data:`~repro.core.protection.OUTCOME_TABLE` row per region.
    """
    kind = reaction_kind(reaction)
    if kind == KIND_NONE:
        return IntervalSet()
    row = OUTCOME_TABLE[kind]
    return map_class_ref(ace, lambda c: row[c] if c < len(row) else 0)


def bucket_accumulate_ref(iset: IntervalSet, edges: Sequence[int], out) -> None:
    """Per-interval, per-bucket overlap accumulation."""
    import bisect

    nb = len(edges) - 1
    for s, e, c in iset:
        lo = bisect.bisect_right(edges, s) - 1
        lo = max(lo, 0)
        for b in range(lo, nb):
            bs, be = edges[b], edges[b + 1]
            if bs >= e:
                break
            ov = min(e, be) - max(s, bs)
            if ov > 0:
                out[b][c] += ov


def total_ref(iset: IntervalSet, klass: int) -> int:
    return sum(e - s for s, e, c in iset if c == klass)


def total_at_least_ref(iset: IntervalSet, klass: int) -> int:
    return sum(e - s for s, e, c in iset if c >= klass)


def intersection_duration_ref(a: IntervalSet, b: IntervalSet, klass: int) -> int:
    """Two-pointer merge of cycles with both sets at class >= ``klass``."""
    ivals_a = [(s, e) for s, e, c in a if c >= klass]
    ivals_b = [(s, e) for s, e, c in b if c >= klass]
    total = 0
    i = j = 0
    while i < len(ivals_a) and j < len(ivals_b):
        s = max(ivals_a[i][0], ivals_b[j][0])
        e = min(ivals_a[i][1], ivals_b[j][1])
        if s < e:
            total += e - s
        if ivals_a[i][1] < ivals_b[j][1]:
            i += 1
        else:
            j += 1
    return total


GroupSignature = Tuple[Tuple[int, FrozenSet[int]], ...]


def _span(array: SramArray) -> int:
    """Rows of each array the references treat on its own: a tile when
    the tiles are separate arrays, else the whole array."""
    return array.tile_rows if array.separate_tiles else array.rows


def enumerate_signatures_ref(
    array: SramArray, byte2iid: np.ndarray, mode
) -> Dict[GroupSignature, int]:
    """Per-placement fault-group signature counting (any mode geometry).

    This is the generic nested-loop enumerator the vectorized 2-D windowed
    path (:func:`enumerate_signatures_windowed_ref`) replaced.  Unlike the
    production enumerator it also emits the signature of all-lifetime-empty
    placements (whose regions classify to nothing either way); equivalence
    tests compare after dropping it.  Separate tiles are placed in one at
    a time.
    """
    h, w = mode.height, mode.width
    rows, cols = array.rows, array.cols
    if not array.n_groups(h, w):
        return {}
    byte_of, dom_of = array.take_rows(np.arange(rows))
    iid_of = byte2iid[byte_of]
    sigs: Dict[GroupSignature, int] = {}
    offsets = mode.offsets
    span = _span(array)
    starts = [t + r for t in range(0, rows, span) for r in range(span - h + 1)]
    for r0 in starts:
        dom_rows = [list(map(int, dom_of[r0 + dr])) for dr in range(h)]
        iid_rows = [list(map(int, iid_of[r0 + dr])) for dr in range(h)]
        for c0 in range(cols - w + 1):
            regions: Dict[int, Tuple[int, set]] = {}
            for dr, dc in offsets:
                d = dom_rows[dr][c0 + dc]
                iid = iid_rows[dr][c0 + dc]
                if d in regions:
                    n, ids = regions[d]
                    if iid:
                        ids.add(iid)
                    regions[d] = (n + 1, ids)
                else:
                    regions[d] = (1, {iid} if iid else set())
            sig = tuple(
                sorted((n, frozenset(ids)) for n, ids in regions.values())
            )
            sigs[sig] = sigs.get(sig, 0) + 1
    return sigs


def sigs_from_keys(
    uniq: np.ndarray, counts: np.ndarray, k: int
) -> Dict[GroupSignature, int]:
    """Region signatures from deduplicated (relative domain, iid) keys.

    A signature is the multiset of a group's overlapped regions, each
    ``(n_faulty_bits, frozenset of member lifetime ids)``; keys with equal
    signatures merge and their counts add.  Decodes the keys of
    :func:`repro.core.avf._enumerate_signatures`.
    """
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


def enumerate_signatures_windowed_ref(
    array: SramArray, byte2iid: np.ndarray, mode
) -> Dict[GroupSignature, int]:
    """Whole-array windowed signature counting (any mode geometry).

    This is the vectorized enumerator that band deduplication replaced:
    every ``HxW`` placement of the whole array becomes a row of one 2-axis
    :func:`sliding_window_view`, restricted to the mode's offsets, keyed by
    (domain id relative to the first offset's domain, lifetime id) per
    position and bucketed with one lexsort.  Like the production enumerator
    it drops all-lifetime-empty placements.  Separate tiles are windowed
    along their own axis, so no window spans two.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    from .avf import _unique_rows

    h, w = mode.height, mode.width
    if not array.n_groups(h, w):
        return {}
    k = mode.n_bits
    byte_of, dom_of = array.take_rows(
        np.arange(array.rows).reshape(-1, _span(array))
    )
    iid_of = byte2iid[byte_of]
    dom_win = sliding_window_view(dom_of, (h, w), axis=(1, 2))
    iid_win = sliding_window_view(iid_of, (h, w), axis=(1, 2))
    n_win = int(np.prod(dom_win.shape[:3]))
    sel = np.fromiter(
        (r * w + c for r, c in mode.offsets), dtype=np.intp, count=k
    )
    iid_flat = iid_win.reshape(n_win, h * w)[:, sel]
    active = iid_flat.any(axis=1)
    if not active.any():
        return {}
    dom_flat = dom_win.reshape(n_win, h * w)[:, sel][active]
    keys = np.empty((len(dom_flat), 2 * k), dtype=np.int32)
    keys[:, :k] = dom_flat - dom_flat[:, :1]
    keys[:, k:] = iid_flat[active]
    uniq, counts = _unique_rows(keys)
    return sigs_from_keys(uniq, counts, k)


def enumerate_signatures_banded_ref(
    array: SramArray, byte2iid: np.ndarray, mode
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Per-mode band-deduplicated enumeration: keys, weights and band count.

    This is the enumerator that the shared row table and prefix ranks
    replaced, with the same outputs as
    :func:`repro.core.avf._enumerate_signatures`.  Every call gives the
    rows dense ids over ``[lifetime ids | domain ids − the row's first
    domain id]`` and keys each H-row band by its H row ids plus the H−1
    first-domain deltas to its first row.  One representative per distinct
    band is windowed with one 2-axis :func:`sliding_window_view`,
    restricted to the mode's offsets; each window weighs as many groups as
    its band occurs, all-lifetime-empty windows are dropped, and equal
    ``(relative domain, lifetime id)`` keys are bucketed with one weighted
    lexsort.  Separate tiles are banded along their own axis, so no band
    spans two.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    from .avf import _as_scalars, _unique_rows

    h, w = mode.height, mode.width
    k = mode.n_bits
    no_keys = np.zeros((0, 2 * k), dtype=np.int32)
    no_weights = np.zeros(0, dtype=np.int64)
    if not array.n_groups(h, w):
        return no_keys, no_weights, 0
    byte_of, dom_of = array.take_rows(np.arange(array.rows))
    iid_of = byte2iid[byte_of]
    first_dom = dom_of[:, 0]
    _, row_id = np.unique(
        _as_scalars(np.hstack([iid_of, dom_of - first_dom[:, None]])),
        return_inverse=True,
    )
    span = _span(array)
    n_starts = array.rows // span * (span - h + 1)
    first_win = sliding_window_view(first_dom.reshape(-1, span), h, axis=1)
    band_keys = np.hstack([
        sliding_window_view(row_id.reshape(-1, span), h, axis=1)
        .reshape(n_starts, h),
        (first_win[..., 1:] - first_win[..., :1]).reshape(n_starts, h - 1),
    ])
    _, band_start, band_count = np.unique(
        _as_scalars(band_keys), return_index=True, return_counts=True
    )
    tile, band_start = np.divmod(band_start, span - h + 1)
    band_start += tile * span
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


def ace_locality_ref(array: SramArray, lifetimes) -> float:
    """Row-at-a-time adjacent-pair ACE locality (Sec. VI-B), the mean over
    the tiles when they are separate arrays."""
    from .avf import _canonical_iset_ids

    canon = _canonical_iset_ids(lifetimes)
    byte2iid, isets = canon.byte2iid, canon.isets
    byte_of, _ = array.take_rows(np.arange(array.rows))
    iid_of = byte2iid[byte_of]
    span = _span(array)
    localities = []
    for base in range(0, array.rows, span):
        pair_counts: Dict[Tuple[int, int], int] = {}
        for row in iid_of[base:base + span]:
            keys = np.stack([row[:-1], row[1:]], axis=1)
            uniq, counts = np.unique(keys, axis=0, return_counts=True)
            for (a, b), n in zip(uniq.tolist(), counts.tolist()):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n
        inter = union = 0.0
        ace = int(AceClass.ACE)
        for (ia, ib), n in pair_counts.items():
            da = total_at_least_ref(isets[ia], ace) if ia else 0
            db = total_at_least_ref(isets[ib], ace) if ib else 0
            if da == 0 and db == 0:
                continue
            ov = (
                intersection_duration_ref(isets[ia], isets[ib], ace)
                if ia and ib
                else 0
            )
            inter += n * ov
            union += n * (da + db - ov)
        localities.append(inter / union if union else 1.0)
    return float(np.mean(localities))


def compute_outcome_cycles_ref(
    array: SramArray,
    lifetimes,
    mode,
    scheme: ProtectionScheme,
    *,
    series_edges: Optional[Sequence[int]] = None,
):
    """Reference MB-AVF core: per-placement enumeration + reference kernels.

    Returns ``(outcome_cycles, series)`` computed exactly as the
    pre-vectorization engine did: :func:`compute_mb_avf_batch_ref` over
    the signatures of :func:`enumerate_signatures_ref`.  The production
    :func:`repro.core.avf.compute_mb_avf` must reproduce both bit-for-bit.
    """
    from .avf import AvfConfig

    edges = None if series_edges is None else tuple(series_edges)
    cfg = AvfConfig(mode, scheme, edges)
    (res,) = compute_mb_avf_batch_ref(
        array, lifetimes, [cfg], signatures=enumerate_signatures_ref
    )
    return res.outcome_cycles, res.series


def compute_mb_avf_batch_ref(
    array: SramArray, lifetimes, configs, *, signatures=None
) -> list:
    """Reference batch body: classify and integrate one signature at a time.

    ``signatures`` enumerates each mode (by default the production
    enumerator's keys, decoded); then, per config and signature, every
    region's ACE union is swept (eq. 5), classified through the scheme's
    reaction (eq. 6), the regions are combined under the precedence rules
    and the combined outcome is integrated into outcome cycles and series
    buckets, the Sec. VIII rule applying exactly to an inter-thread
    array.  The grouped sweep of
    :func:`repro.core.avf.compute_mb_avf_batch` must return the same
    results bit for bit.
    """
    from .avf import MbAvfResult, _canonical_iset_ids, _enumerate_signatures

    canon = _canonical_iset_ids(lifetimes)
    isets = canon.isets
    region_ace: Dict[FrozenSet[int], IntervalSet] = {}
    results = []
    for cfg in configs:
        mode, scheme = cfg.mode, cfg.scheme
        if signatures is None:
            keys, weights, _ = _enumerate_signatures(array, canon.byte2iid, mode)
            sigs = sigs_from_keys(keys, weights, mode.n_bits)
        else:
            sigs = signatures(array, canon.byte2iid, mode)

        def region_outcome(n_bits: int, ids: FrozenSet[int]) -> IntervalSet:
            ace = region_ace.get(ids)
            if ace is None:
                ace = sweep_max_ref([isets[i] for i in ids]) if ids else IntervalSet()
                region_ace[ids] = ace
            return classify_region(scheme.react(n_bits), ace)

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
        for sig, weight in sigs.items():
            combined = combine_outcomes_ref(
                [region_outcome(n, ids) for n, ids in sig],
                due_preempts_sdc=array.style is Interleaving.INTER_THREAD,
            )
            if not combined:
                continue
            for s, e, c in combined:
                outcome_cycles[Outcome(c)] += weight * (e - s)
            if series is not None:
                tmp.fill(0.0)
                bucket_accumulate_ref(combined, edges, tmp)
                series += weight * tmp
        results.append(
            MbAvfResult(
                structure=lifetimes.name,
                mode=mode,
                scheme=scheme.name,
                n_groups=array.n_groups(mode.height, mode.width),
                window_cycles=lifetimes.window_cycles,
                outcome_cycles=outcome_cycles,
                series_edges=edges,
                series=series,
            )
        )
    return results


def assemble_ref(
    name: str,
    clusters: np.ndarray,
    domain_bytes: int,
    factor: int,
    style: Interleaving,
) -> SramArray:
    """Bit-at-a-time :func:`repro.core.layout._assemble`: physical position
    ``q`` of a cluster holds bit ``q // I`` of domain ``cluster[q % I]``."""
    rows_of_clusters = np.asarray(clusters).tolist()
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


class MemoryConsumptionRef:
    """Per-byte consumption index over global memory.

    Answers, for a byte written back to memory at cycle ``t``: will that
    value ever be consumed?  Consumption is a later live load before the
    next store, or membership in a program output buffer with no later
    store (the host reads outputs after the workload).
    """

    def __init__(
        self,
        trace: Trace,
        programs: Mapping[int, Program],
        mem_needed: np.ndarray,
        mem_size: int,
        output_ranges: Sequence[Tuple[int, int]],
    ) -> None:
        self._stores: Dict[int, List[int]] = {}
        self._loads: Dict[int, Tuple[List[int], List[bool]]] = {}
        self._is_output = np.zeros(mem_size, dtype=bool)
        for base, size in output_ranges:
            self._is_output[base : base + size] = True
        stored = np.zeros(mem_size, dtype=bool)
        rows = [
            (row, t, programs[wf].instrs[pc])
            for row, (wf, pc, t) in enumerate(
                zip(trace.wf.tolist(), trace.pc.tolist(), trace.t.tolist())
            )
        ]
        for row, t, ins in rows:
            if ins.op not in ("v_store", "v_store_u8"):
                continue
            addr, _ = trace.access_bytes(row, ins.nbytes)
            stored[addr] = True
            for a in addr.ravel().tolist():
                self._stores.setdefault(a, []).append(t)
        for row, t, ins in rows:
            if ins.op not in ("v_load", "v_load_u8"):
                continue
            addr, live = trace.access_bytes(row, ins.nbytes, mem_needed[row])
            kept = stored[addr]
            for a, is_live in zip(addr[kept].tolist(), live[kept].tolist()):
                ts, ls = self._loads.setdefault(a, ([], []))
                ts.append(t)
                ls.append(is_live)

    def _next_store_after(self, addr: int, t: int) -> float:
        ts = self._stores.get(addr)
        if not ts:
            return float("inf")
        i = bisect.bisect_right(ts, t)
        return ts[i] if i < len(ts) else float("inf")

    def live_after(self, addr: int, t: int) -> bool:
        """True if the value at ``addr`` as of cycle ``t`` is ever consumed."""
        horizon = self._next_store_after(addr, t)
        loads = self._loads.get(addr)
        if loads is not None:
            ts, ls = loads
            i = bisect.bisect_left(ts, t)
            while i < len(ts) and ts[i] <= horizon:
                if ls[i]:
                    return True
                i += 1
        return bool(self._is_output[addr]) and horizon == float("inf")
