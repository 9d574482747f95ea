"""Unit tests for the classed interval algebra."""

import pytest

from repro.core._reference import bucket_accumulate_ref, combine_outcomes_ref
from repro.core.intervals import (
    AceClass,
    IntervalSet,
    Outcome,
    sweep_max,
)


class TestIntervalSetConstruction:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert len(s) == 0

    def test_basic(self):
        s = IntervalSet([(0, 10, 2), (20, 30, 1)])
        assert len(s) == 2
        assert s.total(2) == 10
        assert s.total(1) == 10

    def test_sorted_on_construction(self):
        s = IntervalSet([(20, 30, 1), (0, 10, 2)])
        assert s.intervals() == [(0, 10, 2), (20, 30, 1)]

    def test_class_zero_dropped(self):
        s = IntervalSet([(0, 10, 0), (10, 20, 1)])
        assert s.intervals() == [(10, 20, 1)]

    def test_adjacent_same_class_coalesced(self):
        s = IntervalSet([(0, 10, 2), (10, 20, 2)])
        assert s.intervals() == [(0, 20, 2)]

    def test_adjacent_different_class_kept(self):
        s = IntervalSet([(0, 10, 2), (10, 20, 1)])
        assert len(s) == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet([(5, 5, 1)])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet([(10, 5, 1)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet([(0, 10, 1), (5, 15, 2)])

    def test_negative_class_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet([(0, 10, -1)])


class TestAppend:
    def test_in_order(self):
        s = IntervalSet()
        s.append(0, 5, 2)
        s.append(10, 15, 1)
        assert s.intervals() == [(0, 5, 2), (10, 15, 1)]

    def test_coalesce(self):
        s = IntervalSet()
        s.append(0, 5, 2)
        s.append(5, 9, 2)
        assert s.intervals() == [(0, 9, 2)]

    def test_zero_class_ignored(self):
        s = IntervalSet()
        s.append(0, 5, 0)
        assert not s

    def test_empty_ignored(self):
        s = IntervalSet()
        s.append(5, 5, 2)
        assert not s

    def test_out_of_order_rejected(self):
        s = IntervalSet()
        s.append(10, 20, 1)
        with pytest.raises(ValueError):
            s.append(5, 8, 1)


class TestQueries:
    def test_class_at(self):
        s = IntervalSet([(0, 10, 2), (20, 30, 1)])
        assert s.class_at(0) == 2
        assert s.class_at(9) == 2
        assert s.class_at(10) == 0
        assert s.class_at(25) == 1
        assert s.class_at(30) == 0
        assert s.class_at(100) == 0

    def test_total_at_least(self):
        s = IntervalSet([(0, 10, 2), (20, 30, 1)])
        assert s.total_at_least(1) == 20
        assert s.total_at_least(2) == 10

    def test_total_of_class_zero_is_error(self):
        with pytest.raises(ValueError):
            IntervalSet().total(0)


class TestTransforms:
    def test_bucket_accumulate(self):
        s = IntervalSet([(0, 10, 2), (15, 25, 1)])
        out = [[0] * 3 for _ in range(3)]
        bucket_accumulate_ref(s, [0, 10, 20, 30], out)
        assert out[0][2] == 10
        assert out[1][1] == 5
        assert out[2][1] == 5


class TestSweepMax:
    def test_empty(self):
        assert not sweep_max([])
        assert not sweep_max([IntervalSet(), IntervalSet()])

    def test_single_passthrough(self):
        s = IntervalSet([(0, 10, 2)])
        assert sweep_max([s]).intervals() == [(0, 10, 2)]

    def test_disjoint_union(self):
        a = IntervalSet([(0, 10, 2)])
        b = IntervalSet([(20, 30, 1)])
        assert sweep_max([a, b]).intervals() == [(0, 10, 2), (20, 30, 1)]

    def test_overlap_takes_max_class(self):
        a = IntervalSet([(0, 20, 1)])
        b = IntervalSet([(5, 10, 2)])
        assert sweep_max([a, b]).intervals() == [(0, 5, 1), (5, 10, 2), (10, 20, 1)]

    def test_identical_inputs(self):
        a = IntervalSet([(0, 10, 2)])
        assert sweep_max([a, a, a]).intervals() == [(0, 10, 2)]

    def test_union_is_ace_if_any_bit_ace(self):
        # Eq. 4 of the paper: a group is ACE if any bit in it is ACE.
        bits = [
            IntervalSet([(0, 10, int(AceClass.ACE))]),
            IntervalSet([(10, 20, int(AceClass.ACE))]),
            IntervalSet(),
        ]
        merged = sweep_max(bits)
        assert merged.total(int(AceClass.ACE)) == 20

    def test_three_way_mixed(self):
        a = IntervalSet([(0, 30, 1)])
        b = IntervalSet([(10, 20, 2)])
        c = IntervalSet([(15, 25, 3)])
        out = sweep_max([a, b, c])
        assert out.intervals() == [
            (0, 10, 1),
            (10, 15, 2),
            (15, 25, 3),
            (25, 30, 1),
        ]


class TestCombineOutcomes:
    """The combination rules, on the reference the grouped sweep matches."""

    def _due(self, *ivals):
        return IntervalSet([(s, e, int(Outcome.TRUE_DUE)) for s, e in ivals])

    def _sdc(self, *ivals):
        return IntervalSet([(s, e, int(Outcome.SDC)) for s, e in ivals])

    def test_default_precedence_sdc_wins(self):
        # Sec. VII-B: SDC ACE + DUE ACE overlapping => SDC for caches.
        out = combine_outcomes_ref([self._sdc((0, 10)), self._due((0, 10))])
        assert out.total(int(Outcome.SDC)) == 10
        assert out.total_at_least(int(Outcome.TRUE_DUE)) == 10

    def test_due_preempts_sdc(self):
        # Sec. VIII: simultaneous read converts overlapping SDC+DUE to DUE.
        out = combine_outcomes_ref(
            [self._sdc((0, 10)), self._due((0, 10))], due_preempts_sdc=True
        )
        assert out.total(int(Outcome.SDC)) == 0
        assert out.total(int(Outcome.TRUE_DUE)) == 10

    def test_due_preempts_sdc_partial_overlap(self):
        out = combine_outcomes_ref(
            [self._sdc((0, 20)), self._due((5, 10))], due_preempts_sdc=True
        )
        assert out.intervals() == [
            (0, 5, int(Outcome.SDC)),
            (5, 10, int(Outcome.TRUE_DUE)),
            (10, 20, int(Outcome.SDC)),
        ]

    def test_preempt_with_false_due(self):
        fd = IntervalSet([(0, 10, int(Outcome.FALSE_DUE))])
        out = combine_outcomes_ref([self._sdc((0, 10)), fd], due_preempts_sdc=True)
        # Detection still fires; the error it stops was real, so true DUE.
        assert out.total(int(Outcome.TRUE_DUE)) == 10

    def test_sdc_alone_not_preempted(self):
        out = combine_outcomes_ref([self._sdc((0, 10))], due_preempts_sdc=True)
        assert out.total(int(Outcome.SDC)) == 10

    def test_empty(self):
        assert not combine_outcomes_ref([], due_preempts_sdc=True)
        assert not combine_outcomes_ref([IntervalSet()])
