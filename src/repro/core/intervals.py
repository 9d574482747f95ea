"""Classed cycle-interval algebra underpinning all AVF computations.

ACE analysis reduces to bookkeeping over half-open cycle intervals
``[start, end)`` tagged with an :class:`AceClass`.  Every bit (in practice,
every tracked byte) of a hardware structure owns one :class:`IntervalSet`
describing when its content is required for architecturally correct
execution.  Multi-bit AVF analysis then combines the interval sets of the
bits inside a fault group (the union of ACEness, eq. 5 of the paper) and
classifies the result according to the protection scheme's reaction.

Time units are abstract "cycles" (any monotonically increasing simulator
timestamp works).  All intervals are half-open and use integer endpoints.

Storage and kernels
-------------------
An :class:`IntervalSet` is backed by three contiguous ``int64`` arrays
(``starts``, ``ends``, ``classes``); the list-of-tuples surface
(:meth:`IntervalSet.__iter__`, :meth:`IntervalSet.append`,
:meth:`IntervalSet._from_sorted`) is a thin view over them.  Appends from
the lifetime trackers land in a small Python staging list and are folded
into the arrays on first read, so trace replay stays cheap while the
analysis kernels get flat arrays.

The hot operations (:func:`sweep_max`, :meth:`IntervalSet.clip`, the
totals and :func:`intersection_duration`) each have a vectorized numpy
kernel and a plain-Python small-input path; real lifetime sets are
usually a handful of intervals, where numpy's per-call overhead loses to
a tuple loop.  Both paths are property-tested to produce
byte-identical results against the reference implementations preserved in
:mod:`repro.core._reference`.
"""

from __future__ import annotations

import bisect
from enum import IntEnum
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "AceClass",
    "Outcome",
    "IntervalSet",
    "sweep_max",
    "intersection_duration",
]

#: Inputs below this many intervals take the plain-Python kernel path;
#: at or above it, the numpy kernels win.  Exposed for the equivalence
#: suite, which pins it to 0 (always vectorize) and to a huge value
#: (never vectorize) to cover both implementations.
SMALL_KERNEL_CUTOFF = 48

_EMPTY = np.empty(0, dtype=np.int64)


class AceClass(IntEnum):
    """Classification of a bit's content during a cycle interval.

    The ordering is a severity precedence: when several classes apply to the
    same instant (e.g. when taking the union over a fault group), the highest
    value wins.
    """

    #: Content is never consumed: a fault here is architecturally invisible.
    UNACE = 0
    #: Content is consumed, but only by dynamically-dead reads.  An error
    #: detector that fires on such a read raises a *false* DUE; an undetected
    #: fault here is still masked.
    READ_DEAD = 1
    #: Content is required for architecturally correct execution.  A fault is
    #: an error: SDC if undetected, true DUE if detected but uncorrected.
    ACE = 2


class Outcome(IntEnum):
    """Final classification of a fault (group) occurring at some cycle.

    The ordering is the precedence from Sec. VII-B of the paper:
    SDC > true DUE > false DUE > unACE.
    """

    UNACE = 0
    FALSE_DUE = 1
    TRUE_DUE = 2
    SDC = 3


Interval = Tuple[int, int, int]  # (start, end, cls)


class IntervalSet:
    """A sorted, coalesced set of non-overlapping classed intervals.

    Class ``0`` (:attr:`AceClass.UNACE` / :attr:`Outcome.UNACE`) is implicit:
    intervals with class 0 are never stored.  The same container is used both
    for :class:`AceClass`-tagged lifetimes and :class:`Outcome`-tagged fault
    classifications; the class is just a small non-negative integer.
    """

    __slots__ = ("_starts", "_ends", "_cls", "_tail", "_view", "_bytes")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        ivals = sorted((int(s), int(e), int(c)) for s, e, c in intervals)
        tail: List[Interval] = []
        for s, e, c in ivals:
            if e <= s:
                raise ValueError(f"empty or inverted interval [{s}, {e})")
            if c < 0:
                raise ValueError(f"negative class {c}")
            if c == 0:
                continue
            if tail and s < tail[-1][1]:
                raise ValueError("overlapping intervals; use sweep_max to merge")
            if tail and tail[-1][1] == s and tail[-1][2] == c:
                ps, _, pc = tail[-1]
                tail[-1] = (ps, e, pc)
            else:
                tail.append((s, e, c))
        self._starts = self._ends = self._cls = _EMPTY
        self._tail = tail
        self._view: List[Interval] = None
        self._bytes: bytes = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_sorted(cls, ivals: List[Interval]) -> "IntervalSet":
        """Trusted constructor for already sorted/coalesced/nonzero input."""
        obj = cls.__new__(cls)
        obj._starts = obj._ends = obj._cls = _EMPTY
        obj._tail = list(ivals)
        obj._view = None
        obj._bytes = None
        return obj

    @classmethod
    def _from_arrays(
        cls, starts: np.ndarray, ends: np.ndarray, classes: np.ndarray
    ) -> "IntervalSet":
        """Trusted constructor from already sorted/coalesced int64 arrays."""
        obj = cls.__new__(cls)
        obj._starts = starts
        obj._ends = ends
        obj._cls = classes
        obj._tail = []
        obj._view = None
        obj._bytes = None
        return obj

    def append(self, start: int, end: int, klass: int) -> None:
        """Append an interval that begins at or after every stored interval.

        This is the fast path used by lifetime trackers, which emit intervals
        in increasing time order.  Class-0 appends are ignored; adjacent
        same-class intervals are coalesced.
        """
        if end <= start or klass == 0:
            return
        tail = self._tail
        if tail:
            ps, pe, pc = tail[-1]
            if start < pe:
                raise ValueError(
                    f"append out of order: [{start},{end}) begins before {pe}"
                )
            if pe == start and pc == klass:
                tail[-1] = (ps, end, pc)
                self._view = None
                self._bytes = None
                return
        elif len(self._ends) and start < self._ends[-1]:
            raise ValueError(
                f"append out of order: [{start},{end}) begins before "
                f"{int(self._ends[-1])}"
            )
        tail.append((start, end, klass))
        self._view = None
        self._bytes = None

    # -- storage -----------------------------------------------------------

    def _flush(self) -> None:
        """Fold staged appends into the backing arrays."""
        tail = self._tail
        if not tail:
            return
        arr = np.asarray(tail, dtype=np.int64)
        starts, ends, classes = arr[:, 0], arr[:, 1], arr[:, 2]
        if len(self._starts):
            if (
                self._ends[-1] == starts[0]
                and self._cls[-1] == classes[0]
            ):
                starts = starts.copy()
                starts[0] = self._starts[-1]
                self._starts = self._starts[:-1]
                self._ends = self._ends[:-1]
                self._cls = self._cls[:-1]
            self._starts = np.concatenate([self._starts, starts])
            self._ends = np.concatenate([self._ends, ends])
            self._cls = np.concatenate([self._cls, classes])
        else:
            self._starts, self._ends, self._cls = starts, ends, classes
        self._tail = []

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The backing ``(starts, ends, classes)`` int64 arrays (flushed)."""
        if self._tail:
            self._flush()
        return self._starts, self._ends, self._cls

    def _tuple_view(self) -> List[Interval]:
        """Cached list-of-tuples view of the backing arrays."""
        view = self._view
        if view is None:
            s, e, c = self._arrays()
            view = self._view = list(zip(s.tolist(), e.tolist(), c.tolist()))
        return view

    def _key(self) -> bytes:
        """Canonical byte encoding: equal sets have equal keys."""
        key = self._bytes
        if key is None:
            s, e, c = self._arrays()
            key = self._bytes = (
                s.tobytes() + e.tobytes() + c.tobytes()
            )
        return key

    # -- queries -----------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._tuple_view())

    def __len__(self) -> int:
        if self._tail:
            self._flush()
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._tail) or len(self._starts) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IntervalSet({self._tuple_view()!r})"

    def intervals(self) -> List[Interval]:
        """Return the stored intervals as a list of ``(start, end, cls)``."""
        return list(self._tuple_view())

    def total(self, klass: int) -> int:
        """Total cycles spent exactly in class ``klass`` (0 not queryable)."""
        if klass == 0:
            raise ValueError("class 0 is implicit; its duration is unbounded")
        s, e, c = self._arrays()
        if len(s) < SMALL_KERNEL_CUTOFF:
            return sum(
                ie - is_ for is_, ie, ic in self._tuple_view() if ic == klass
            )
        return int(((e - s) * (c == klass)).sum())

    def total_at_least(self, klass: int) -> int:
        """Total cycles spent in class ``klass`` or any higher class."""
        s, e, c = self._arrays()
        if len(s) < SMALL_KERNEL_CUTOFF:
            return sum(
                ie - is_ for is_, ie, ic in self._tuple_view() if ic >= klass
            )
        return int(((e - s) * (c >= klass)).sum())

    def durations(self, nclasses: int) -> List[int]:
        """Per-class durations, index = class.  Index 0 is always 0."""
        s, e, c = self._arrays()
        if len(s) < SMALL_KERNEL_CUTOFF:
            out = [0] * nclasses
            for is_, ie, ic in self._tuple_view():
                out[ic] += ie - is_
            return out
        return (
            np.bincount(c, weights=(e - s), minlength=nclasses)
            .astype(np.int64, copy=False)
            .tolist()
        )

    def class_at(self, cycle: int) -> int:
        """The class in effect at ``cycle`` (0 if no interval covers it)."""
        view = self._tuple_view()
        idx = bisect.bisect_right(view, (cycle, float("inf"), 0)) - 1
        if idx >= 0:
            s, e, c = view[idx]
            if s <= cycle < e:
                return c
        return 0

    def span(self) -> Tuple[int, int]:
        """``(min start, max end)`` over stored intervals; (0, 0) if empty."""
        s, e, _ = self._arrays()
        if not len(s):
            return (0, 0)
        return (int(s[0]), int(e[-1]))

    # -- transforms --------------------------------------------------------

    def clip(self, start: int, end: int) -> "IntervalSet":
        """Restrict to the window ``[start, end)``; empty when ``start >= end``."""
        if start >= end:
            return IntervalSet._from_arrays(_EMPTY, _EMPTY, _EMPTY)
        s, e, c = self._arrays()
        n = len(s)
        if n < SMALL_KERNEL_CUTOFF:
            out: List[Interval] = []
            for is_, ie, ic in self._tuple_view():
                s2, e2 = max(is_, start), min(ie, end)
                if s2 < e2:
                    out.append((s2, e2, ic))
            return IntervalSet._from_sorted(out)
        # First interval ending after `start`, first interval starting at or
        # after `end`: everything between overlaps the window.
        i0 = int(np.searchsorted(e, start, side="right"))
        i1 = int(np.searchsorted(s, end, side="left"))
        if i0 >= i1:
            return IntervalSet._from_arrays(_EMPTY, _EMPTY, _EMPTY)
        s2 = np.clip(s[i0:i1], start, end)
        e2 = np.clip(e[i0:i1], start, end)
        return IntervalSet._from_arrays(s2, e2, c[i0:i1].copy())

    def map_class(self, fn: Callable[[int], int]) -> "IntervalSet":
        """Remap classes through ``fn``; class-0 results are dropped."""
        s, e, c = self._arrays()
        n = len(s)
        if n < SMALL_KERNEL_CUTOFF:
            out: List[Interval] = []
            for is_, ie, ic in self._tuple_view():
                c2 = fn(ic)
                if c2 == 0:
                    continue
                if out and out[-1][1] == is_ and out[-1][2] == c2:
                    ps, _, pc = out[-1]
                    out[-1] = (ps, ie, pc)
                else:
                    out.append((is_, ie, c2))
            return IntervalSet._from_sorted(out)
        # Apply fn once per distinct class, remap, drop zeros, coalesce.
        present = np.unique(c)
        lut = {int(k): int(fn(int(k))) for k in present}
        c2 = np.array([lut[int(k)] for k in c], dtype=np.int64)
        keep = c2 != 0
        if not keep.any():
            return IntervalSet._from_arrays(_EMPTY, _EMPTY, _EMPTY)
        ks, ke, kc = s[keep], e[keep], c2[keep]
        join = (ks[1:] == ke[:-1]) & (kc[1:] == kc[:-1])
        head = np.empty(len(ks), dtype=bool)
        head[0] = True
        np.logical_not(join, out=head[1:])
        idx = np.flatnonzero(head)
        ends = ke[np.append(idx[1:] - 1, len(ks) - 1)]
        return IntervalSet._from_arrays(ks[idx].copy(), ends, kc[idx].copy())

    def _coverage_at(
        self, t: np.ndarray, mask: np.ndarray = None
    ) -> np.ndarray:
        """Covered duration in ``[span start, t)`` per query point ``t``.

        ``mask`` optionally restricts to a subset of intervals (which stay
        sorted and disjoint).  The difference of two evaluations gives the
        overlap of this set with any window — the building block of the
        vectorized :func:`intersection_duration`.
        """
        s, e, _ = self._arrays()
        if mask is not None:
            s, e = s[mask], e[mask]
        if not len(s):
            return np.zeros(len(t), dtype=np.int64)
        cum = np.concatenate([[0], np.cumsum(e - s)])
        idx = np.searchsorted(s, t, side="right") - 1
        idxc = np.maximum(idx, 0)
        inside = np.clip(t - s[idxc], 0, e[idxc] - s[idxc])
        return np.where(idx >= 0, cum[idxc] + inside, 0)


def _sweep_max_vector(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Vectorized eq. 5 union: one event sort + per-class running coverage."""
    starts = []
    ends = []
    classes = []
    for iset in sets:
        s, e, c = iset._arrays()
        starts.append(s)
        ends.append(e)
        classes.append(c)
    s = np.concatenate(starts)
    e = np.concatenate(ends)
    c = np.concatenate(classes)
    # Boundary events: +1 at starts, -1 at ends, per class.
    times, inv = np.unique(np.concatenate([s, e]), return_inverse=True)
    cls2 = np.concatenate([c, c])
    delta = np.empty(2 * len(s), dtype=np.int64)
    delta[: len(s)] = 1
    delta[len(s):] = -1
    nseg = len(times) - 1
    active = np.zeros(nseg, dtype=np.int64)
    for k in np.unique(c)[::-1]:  # highest class wins
        m = cls2 == k
        d = np.zeros(len(times), dtype=np.int64)
        np.add.at(d, inv[m], delta[m])
        cov = np.cumsum(d)[:-1]
        np.copyto(active, k, where=(active == 0) & (cov > 0))
    if not active.any():
        return IntervalSet._from_arrays(_EMPTY, _EMPTY, _EMPTY)
    # Run-length encode the per-segment classes; segments share boundaries,
    # so equal-class runs coalesce and class-0 runs split, exactly like the
    # event-at-a-time reference.
    change = np.empty(nseg, dtype=bool)
    change[0] = True
    np.not_equal(active[1:], active[:-1], out=change[1:])
    idx = np.flatnonzero(change)
    run_cls = active[idx]
    run_start = times[idx]
    run_end = times[np.append(idx[1:], nseg)]
    keep = run_cls > 0
    return IntervalSet._from_arrays(
        run_start[keep], run_end[keep], run_cls[keep]
    )


def sweep_max(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Pointwise maximum-class union of interval sets (eq. 5).

    At every instant the resulting class is the maximum class among all
    inputs covering that instant.  This realises "a fault group is ACE if any
    of its bits is ACE" and, with :class:`AceClass` severity ordering,
    propagates the strongest consequence.
    """
    live = [s for s in sets if s]
    if not live:
        return IntervalSet()
    if len(live) == 1:
        only = live[0]
        s, e, c = only._arrays()
        return IntervalSet._from_arrays(s, e, c)
    if sum(len(s) for s in live) >= SMALL_KERNEL_CUTOFF:
        return _sweep_max_vector(live)
    events: List[Tuple[int, int, int]] = []  # (cycle, delta, cls)
    maxcls = 0
    for iset in live:
        for s, e, c in iset._tuple_view():
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
    return IntervalSet._from_sorted(out)


def intersection_duration(a: IntervalSet, b: IntervalSet, klass: int) -> int:
    """Cycles during which *both* sets are in class >= ``klass``."""
    sa, ea, ca = a._arrays()
    sb, eb, cb = b._arrays()
    if len(sa) + len(sb) < SMALL_KERNEL_CUTOFF:
        ivals_a = [(s, e) for s, e, c in a._tuple_view() if c >= klass]
        ivals_b = [(s, e) for s, e, c in b._tuple_view() if c >= klass]
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
    ma = ca >= klass
    mb = cb >= klass
    if not ma.any() or not mb.any():
        return 0
    # Overlap with b of each a-interval = coverage difference at its ends.
    lo = b._coverage_at(sa[ma], mask=mb)
    hi = b._coverage_at(ea[ma], mask=mb)
    return int((hi - lo).sum())
