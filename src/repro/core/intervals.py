"""Classed cycle-interval algebra underpinning all AVF computations.

ACE analysis reduces to bookkeeping over half-open cycle intervals
``[start, end)`` tagged with an :class:`AceClass`.  Every bit (in practice,
every tracked byte) of a hardware structure owns a sorted, coalesced set
of such intervals describing when its content is required for
architecturally correct execution.  Multi-bit AVF analysis then combines
the interval sets of the bits inside a fault group (the union of ACEness,
eq. 5 of the paper) and classifies the result according to the protection
scheme's reaction.

Time units are abstract "cycles" (any monotonically increasing simulator
timestamp works).  All intervals are half-open and use integer endpoints.

Rows and kernels
----------------
Interval sets are held as rows ``(group, start, end, cls)`` in ``int64``
arrays: a structure's lifetimes are one CSR table over its bytes
(:class:`~repro.core.avf.StructureLifetimes`), and a lone
:class:`IntervalSet` is the one-group case.  Two kernels act on rows:

* ``_coalesce_rows`` sorts, validates and coalesces them — the one
  rule for what a valid interval set is;
* :func:`union_rows` takes the eq. 5 max-class union of every group in
  one event sweep.

Both are property-tested against the reference implementations preserved
in :mod:`repro.core._reference`.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "AceClass",
    "Outcome",
    "IntervalSet",
    "union_rows",
    "sweep_max",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: ``(starts, ends, cls)`` or ``(offsets, starts, ends, cls)`` int64 arrays
Rows = Tuple[np.ndarray, ...]


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


def _coalesce_rows(
    group: np.ndarray, starts: np.ndarray, ends: np.ndarray, cls: np.ndarray
) -> Rows:
    """Sorted, validated and coalesced ``(group, start, end, cls)`` rows.

    Rows are sorted by ``(group, start)``.  Empty or inverted intervals and
    negative classes are rejected, class-0 rows are dropped, overlapping
    rows of one group are rejected, and touching rows of one group and
    class merge into one.
    """
    group, starts, ends, cls = (
        np.asarray(a, dtype=np.int64) for a in (group, starts, ends, cls)
    )
    bad = np.flatnonzero(ends <= starts)
    if len(bad):
        i = bad[0]
        raise ValueError(f"empty or inverted interval [{starts[i]}, {ends[i]})")
    if len(cls) and cls.min() < 0:
        raise ValueError(f"negative class {cls.min()}")
    keep = cls != 0
    order = np.lexsort((starts[keep], group[keep]))
    group, starts, ends, cls = (
        a[keep][order] for a in (group, starts, ends, cls)
    )
    same = group[1:] == group[:-1]
    if (same & (starts[1:] < ends[:-1])).any():
        raise ValueError("overlapping intervals; use sweep_max to merge")
    head = np.ones(len(starts), dtype=bool)
    head[1:] = ~(same & (starts[1:] == ends[:-1]) & (cls[1:] == cls[:-1]))
    tail = np.ones_like(head)
    tail[:-1] = head[1:]
    return group[head], starts[head], ends[tail], cls[head]


def _csr_take(
    offsets: np.ndarray, groups: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather CSR groups: ``(offsets, row index)`` of ``groups`` in order."""
    lo = offsets[groups]
    count = offsets[groups + 1] - lo
    out = np.zeros(len(lo) + 1, dtype=np.int64)
    np.cumsum(count, out=out[1:])
    idx = np.arange(out[-1], dtype=np.int64) - np.repeat(out[:-1] - lo, count)
    return out, idx


def union_rows(
    group: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    cls: np.ndarray,
    n_groups: int,
) -> Rows:
    """Grouped pointwise maximum-class union (eq. 5), as a CSR table.

    The rows of group ``g`` (``0 <= g < n_groups``) may overlap; at every
    instant the union's class is the highest class among the rows of ``g``
    covering it.  Returns ``(offsets, starts, ends, cls)``: the union of
    group ``g`` is rows ``offsets[g]:offsets[g + 1]``, sorted and coalesced
    (class 0 is implicit).

    One sort orders every group's boundary points; per-class running
    coverage counts then give each segment's class, highest first.  Every
    group's events balance, so the segment that joins two groups has no
    coverage and splits them.
    """
    n = len(starts)
    if not n:
        return np.zeros(n_groups + 1, dtype=np.int64), _EMPTY, _EMPTY, _EMPTY
    g2 = np.concatenate([group, group]).astype(np.int64, copy=False)
    t = np.concatenate([starts, ends]).astype(np.int64, copy=False)
    order = np.lexsort((t, g2))
    g2, t = g2[order], t[order]
    new_pt = np.ones(2 * n, dtype=bool)
    new_pt[1:] = (g2[1:] != g2[:-1]) | (t[1:] != t[:-1])
    pt = np.cumsum(new_pt) - 1
    times, owner = t[new_pt], g2[new_pt]
    nseg = max(len(times) - 1, 0)
    is_start = order < n
    c2 = np.concatenate([cls, cls])[order]
    active = np.zeros(nseg, dtype=np.int64)
    for k in np.unique(cls)[::-1]:  # highest class wins
        if k <= 0:
            continue
        m = c2 == k
        d = np.bincount(pt[m & is_start], minlength=len(times)) - np.bincount(
            pt[m & ~is_start], minlength=len(times)
        )
        np.copyto(active, k, where=(active == 0) & (np.cumsum(d)[:-1] > 0))
    # Run-length encode the per-segment classes: equal-class runs coalesce
    # and class-0 runs split, exactly like the event-at-a-time reference.
    change = np.ones(nseg, dtype=bool)
    np.not_equal(active[1:], active[:-1], out=change[1:])
    idx = np.flatnonzero(change)
    run_end = times[np.append(idx[1:], nseg)]
    keep = active[idx] > 0
    idx, run_end = idx[keep], run_end[keep]
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[idx], minlength=n_groups), out=offsets[1:])
    return offsets, times[idx], run_end, active[idx]


class IntervalSet:
    """A sorted, coalesced set of non-overlapping classed intervals.

    Class ``0`` (:attr:`AceClass.UNACE` / :attr:`Outcome.UNACE`) is implicit:
    intervals with class 0 are never stored.  The same container is used both
    for :class:`AceClass`-tagged lifetimes and :class:`Outcome`-tagged fault
    classifications; the class is just a small non-negative integer.  It is
    backed by three ``int64`` arrays (``starts``, ``ends``, ``classes``).
    """

    __slots__ = ("_starts", "_ends", "_cls")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        rows = np.array(
            [(int(s), int(e), int(c)) for s, e, c in intervals], dtype=np.int64
        ).reshape(-1, 3)
        if not len(rows):
            self._starts = self._ends = self._cls = _EMPTY
            return
        _, self._starts, self._ends, self._cls = _coalesce_rows(
            np.zeros(len(rows), dtype=np.int64), rows[:, 0], rows[:, 1],
            rows[:, 2],
        )

    @classmethod
    def _from_arrays(
        cls, starts: np.ndarray, ends: np.ndarray, classes: np.ndarray
    ) -> "IntervalSet":
        """Trusted constructor from already sorted/coalesced int64 arrays."""
        obj = cls.__new__(cls)
        obj._starts = starts
        obj._ends = ends
        obj._cls = classes
        return obj

    # -- queries -----------------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return zip(self._starts.tolist(), self._ends.tolist(), self._cls.tolist())

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return len(self._starts) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals() == other.intervals()

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"IntervalSet({self.intervals()!r})"

    def intervals(self) -> List[Interval]:
        """Return the stored intervals as a list of ``(start, end, cls)``."""
        return list(self)

    def total(self, klass: int) -> int:
        """Total cycles spent exactly in class ``klass`` (0 not queryable)."""
        if klass == 0:
            raise ValueError("class 0 is implicit; its duration is unbounded")
        return int(((self._ends - self._starts) * (self._cls == klass)).sum())

    def total_at_least(self, klass: int) -> int:
        """Total cycles spent in class ``klass`` or any higher class."""
        return int(((self._ends - self._starts) * (self._cls >= klass)).sum())

    def class_at(self, cycle: int) -> int:
        """The class in effect at ``cycle`` (0 if no interval covers it)."""
        i = int(np.searchsorted(self._starts, cycle, side="right")) - 1
        if i >= 0 and cycle < self._ends[i]:
            return int(self._cls[i])
        return 0


def sweep_max(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Pointwise maximum-class union of interval sets (eq. 5).

    At every instant the resulting class is the maximum class among all
    inputs covering that instant.  This realises "a fault group is ACE if any
    of its bits is ACE" and, with :class:`AceClass` severity ordering,
    propagates the strongest consequence.  It is the one-group form of
    :func:`union_rows`.
    """
    starts = np.concatenate([_EMPTY] + [s._starts for s in sets])
    _, s, e, c = union_rows(
        np.zeros(len(starts), dtype=np.int64),
        starts,
        np.concatenate([_EMPTY] + [s._ends for s in sets]),
        np.concatenate([_EMPTY] + [s._cls for s in sets]),
        1,
    )
    return IntervalSet._from_arrays(s, e, c)
