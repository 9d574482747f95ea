"""Unit tests for the MB-AVF engine, including the paper's worked examples."""

import dataclasses

import numpy as np
import pytest

from repro.core.avf import (
    AvfConfig,
    ace_locality,
    compute_mb_avf,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import FaultMode
from repro.core.intervals import AceClass, IntervalSet, Outcome
from repro.core.layout import Interleaving, SramArray
from repro.core.protection import NoProtection, Parity, SecDed

from .tables import lifetimes_of

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)
#: single-bit AVF is the MB-AVF of the degenerate 1x1 fault mode
SB = FaultMode.linear(1)


def _array_two_domains(interleaved: bool) -> SramArray:
    """1 row, 16 bits, two 1-byte domains d0 and d1.

    Non-interleaved: cols 0-7 -> d0, cols 8-15 -> d1.
    Interleaved (x2): even cols -> d0, odd cols -> d1.
    """
    if interleaved:
        domain_of = np.array([[c % 2 for c in range(16)]], dtype=np.int32)
    else:
        domain_of = np.array([[c // 8 for c in range(16)]], dtype=np.int32)
    byte_of = domain_of.copy()
    return SramArray(
        "toy", byte_of, domain_of, domain_bytes=1,
        interleave_factor=2 if interleaved else 1,
        style=Interleaving.LOGICAL if interleaved else Interleaving.NONE,
    )


def _lifetimes(iset0, iset1, window=100):
    return lifetimes_of("toy", [iset0, iset1], 0, window)


class TestSbAvf:
    def test_unprotected_sb_avf_is_ace_fraction(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, NoProtection())
        # 8 bits ACE for 50 of 100 cycles, 8 bits never ACE.
        assert res.sdc_avf == pytest.approx(0.25)
        assert res.due_avf == 0.0
        assert lt.sb_ace_fraction() == pytest.approx(0.25)

    def test_parity_turns_sb_sdc_into_due(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, Parity())
        assert res.due_avf == pytest.approx(0.25)
        assert res.sdc_avf == 0.0

    def test_secded_corrects_single_bits(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, SecDed())
        assert res.due_avf == 0.0
        assert res.sdc_avf == 0.0

    def test_read_dead_gives_false_due(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 40, DEAD)]), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, Parity())
        assert res.false_due_avf == pytest.approx(8 * 40 / 1600)
        assert res.true_due_avf == 0.0


class TestMbAvfHandComputed:
    """Hand-computed 2x1 cases on the 16-bit toy array."""

    def test_parity_2x1_no_interleave(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, FaultMode.linear(2), Parity())
        assert res.n_groups == 15
        # 7 groups inside d0: 2 faulty bits -> parity blind -> SDC 50 each.
        # 1 straddling group: 1 faulty bit per domain -> both detected; only
        # d0 is ACE -> true DUE 50.  7 groups inside d1: unACE.
        assert res.outcome_cycles[Outcome.SDC] == pytest.approx(7 * 50)
        assert res.outcome_cycles[Outcome.TRUE_DUE] == pytest.approx(50)
        assert res.sdc_avf == pytest.approx(350 / 1500)
        assert res.due_avf == pytest.approx(50 / 1500)

    def test_secded_2x1_no_interleave(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, FaultMode.linear(2), SecDed())
        # In-domain groups detected (2 bits), straddling group corrected.
        assert res.due_avf == pytest.approx(350 / 1500)
        assert res.sdc_avf == 0.0

    def test_interleaving_splits_the_fault(self):
        arr = _array_two_domains(True)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, FaultMode.linear(2), Parity())
        # Every 2x1 group has 1 bit in each domain: detected everywhere.
        assert res.sdc_avf == 0.0
        assert res.due_avf == pytest.approx(15 * 50 / 1500)


class TestMbVsSbBounds:
    """Sec. IV-D: MB-AVF is between 1x and Mx the SB-AVF."""

    def test_ratio_is_one_when_bits_ace_together(self):
        arr = _array_two_domains(True)
        same = IntervalSet([(0, 50, ACE)])
        lt = _lifetimes(same, same)
        sb = compute_mb_avf(arr, lt, SB, NoProtection())
        mb = compute_mb_avf(arr, lt, FaultMode.linear(2), NoProtection())
        assert sb.sdc_avf == pytest.approx(0.5)
        assert mb.sdc_avf == pytest.approx(0.5)

    def test_ratio_is_m_when_ace_times_disjoint(self):
        arr = _array_two_domains(True)
        lt = _lifetimes(
            IntervalSet([(0, 50, ACE)]), IntervalSet([(50, 100, ACE)])
        )
        sb = compute_mb_avf(arr, lt, SB, NoProtection())
        mb = compute_mb_avf(arr, lt, FaultMode.linear(2), NoProtection())
        assert sb.sdc_avf == pytest.approx(0.5)
        assert mb.sdc_avf == pytest.approx(1.0)  # 2x the SB-AVF

    def test_mb_never_below_sb(self):
        rng = np.random.default_rng(7)
        arr = _array_two_domains(True)
        for _ in range(10):
            a = sorted(rng.integers(0, 100, 2).tolist())
            b = sorted(rng.integers(0, 100, 2).tolist())
            i0 = IntervalSet([(a[0], a[1], ACE)]) if a[0] < a[1] else IntervalSet()
            i1 = IntervalSet([(b[0], b[1], ACE)]) if b[0] < b[1] else IntervalSet()
            lt = _lifetimes(i0, i1)
            sb = compute_mb_avf(arr, lt, SB, NoProtection())
            mb = compute_mb_avf(arr, lt, FaultMode.linear(2), NoProtection())
            assert mb.sdc_avf >= sb.sdc_avf - 1e-12
            assert mb.sdc_avf <= 2 * sb.sdc_avf + 1e-12


class TestPaperFigure3:
    """Fig. 3: a 3x1 fault over two SEC-DED domains.

    The region with 2 faulty bits is detected (DUE); the region with 1 faulty
    bit is corrected.  The group's DUE ACE time is the 2-bit region's ACE
    time.
    """

    def test_figure3(self):
        arr = _array_two_domains(False)
        # d0 (bytes/bits 0-7) ACE [0, 10); d1 ACE [5, 20).
        lt = _lifetimes(
            IntervalSet([(0, 10, ACE)]), IntervalSet([(5, 20, ACE)]), window=30
        )
        res = compute_mb_avf(arr, lt, FaultMode.linear(3), SecDed())
        # Groups: cols 0..13. 6 fully in d0 (3 bits -> miscorrect -> SDC on
        # d0 ACE=10), col 6: 2 in d0 + 1 in d1 -> d0 detected (ACE 10 ->
        # true DUE), d1 corrected; col 7: 1 in d0 (corrected) + 2 in d1
        # (detected, ACE 15 -> true DUE); 6 fully in d1 -> SDC on 15.
        assert res.outcome_cycles[Outcome.SDC] == pytest.approx(6 * 10 + 6 * 15)
        assert res.outcome_cycles[Outcome.TRUE_DUE] == pytest.approx(10 + 15)
        assert res.n_groups == 14


class TestPaperFigure7:
    """Fig. 7: a 3x1 fault over two parity domains.

    The 2-bit region defeats parity (SDC if ACE); the 1-bit region is
    detected (DUE if ACE).  SDC takes precedence over DUE in the default
    (cache) model; the Sec. VIII simultaneous-read rule flips it to DUE.
    """

    def _setup(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(
            IntervalSet([(0, 10, ACE)]), IntervalSet([(0, 10, ACE)]), window=30
        )
        return arr, lt

    def test_figure7_default_precedence(self):
        arr, lt = self._setup()
        res = compute_mb_avf(arr, lt, FaultMode.linear(3), Parity())
        # 12 in-domain groups put 3 (odd) bits in one parity word: detected
        # -> true DUE on the 10 ACE cycles.  The 2 straddling groups (cols 6
        # and 7) have a 2-bit (undetected -> SDC) and a 1-bit (detected ->
        # DUE) region; SDC takes precedence.
        assert res.outcome_cycles[Outcome.SDC] == pytest.approx(2 * 10)
        assert res.outcome_cycles[Outcome.TRUE_DUE] == pytest.approx(12 * 10)

    def test_figure7_simultaneous_read(self):
        arr, lt = self._setup()
        # an inter-thread layout is read a row at once (Sec. VIII)
        arr = dataclasses.replace(arr, style=Interleaving.INTER_THREAD)
        res = compute_mb_avf(arr, lt, FaultMode.linear(3), Parity())
        # The straddling groups' SDC is preempted by the simultaneous DUE.
        assert res.outcome_cycles[Outcome.SDC] == pytest.approx(0)
        assert res.outcome_cycles[Outcome.TRUE_DUE] == pytest.approx(14 * 10)


class TestSeries:
    def test_series_buckets(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet([(0, 50, ACE)]), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, Parity(), series_edges=[0, 50, 100])
        due = res.series_avf(Outcome.TRUE_DUE)
        assert due[0] == pytest.approx(8 * 50 / (16 * 50))
        assert due[1] == pytest.approx(0.0)

    def test_series_requires_edges(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet(), IntervalSet())
        res = compute_mb_avf(arr, lt, SB, Parity())
        with pytest.raises(ValueError):
            res.series_avf(Outcome.SDC)


class TestAceLocality:
    def test_perfect_locality(self):
        arr = _array_two_domains(True)
        same = IntervalSet([(0, 50, ACE)])
        lt = _lifetimes(same, same)
        assert ace_locality(arr, lt) == pytest.approx(1.0)

    def test_zero_locality(self):
        arr = _array_two_domains(True)
        lt = _lifetimes(
            IntervalSet([(0, 50, ACE)]), IntervalSet([(50, 100, ACE)])
        )
        assert ace_locality(arr, lt) == pytest.approx(0.0, abs=1e-9)

    def test_untouched_structure(self):
        arr = _array_two_domains(True)
        lt = _lifetimes(IntervalSet(), IntervalSet())
        assert ace_locality(arr, lt) == 1.0

    def test_intersection_duration(self):
        """Partial overlap: 10 shared ACE cycles of the union's 30."""
        arr = _array_two_domains(True)
        lt = _lifetimes(
            IntervalSet([(0, 10, ACE), (20, 30, ACE)]),
            IntervalSet([(5, 25, ACE)]),
        )
        assert ace_locality(arr, lt) == 10 / 30


class TestLargeModesAndMiscorrection:
    def test_8x1_secded_x2_is_undetected(self):
        """Sec. VI-C: an 8x1 fault with SEC-DED x2 puts 4 bits per word."""
        arr = _array_two_domains(True)
        lt = _lifetimes(
            IntervalSet([(0, 50, ACE)]), IntervalSet([(0, 50, ACE)])
        )
        res = compute_mb_avf(arr, lt, FaultMode.linear(8), SecDed())
        assert res.sdc_avf > 0
        assert res.due_avf == 0.0

    def test_6x1_parity_x2_is_detected(self):
        """Sec. VIII: parity x2 sees 3 bits per word on a 6x1 -> detected."""
        arr = _array_two_domains(True)
        lt = _lifetimes(
            IntervalSet([(0, 50, ACE)]), IntervalSet([(0, 50, ACE)])
        )
        res = compute_mb_avf(arr, lt, FaultMode.linear(6), Parity())
        assert res.due_avf > 0
        assert res.sdc_avf == 0.0

    def test_empty_structure_all_unace(self):
        arr = _array_two_domains(False)
        lt = _lifetimes(IntervalSet(), IntervalSet())
        for m in (1, 2, 3, 8):
            res = compute_mb_avf(arr, lt, FaultMode.linear(m), Parity())
            assert res.total_avf == 0.0


class TestReplicas:
    """One engine call measures every identical copy of a structure."""

    def _replicas(self, window=30):
        arr = _array_two_domains(False)
        cu0 = lifetimes_of(
            "cu0", [IntervalSet([(0, 10, ACE)]), IntervalSet([(0, 10, ACE)])],
            0, 30,
        )
        cu1 = lifetimes_of(
            "cu1", [IntervalSet([(5, 25, ACE)]), IntervalSet([(2, 4, DEAD)])],
            0, window,
        )
        return arr, [cu0, cu1]

    def test_sums_cycles_groups_and_series(self):
        arr, replicas = self._replicas()
        cfg = AvfConfig(FaultMode.linear(3), Parity(), series_edges=(0, 15, 30))
        (got,) = compute_mb_avf_batch(arr, replicas, [cfg])
        parts = [
            compute_mb_avf(
                arr, lt, cfg.mode, cfg.scheme, series_edges=cfg.series_edges
            )
            for lt in replicas
        ]
        assert got.structure == "cu0"
        assert got.n_groups == sum(p.n_groups for p in parts)
        assert got.window_cycles == 30
        for o in (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC):
            assert got.outcome_cycles[o] == sum(
                p.outcome_cycles[o] for p in parts
            )
        assert got.outcome_cycles[Outcome.FALSE_DUE] > 0
        np.testing.assert_array_equal(
            got.series, parts[0].series + parts[1].series
        )

    def test_replicas_share_one_window(self):
        arr, replicas = self._replicas(window=40)
        cfg = AvfConfig(FaultMode.linear(2), Parity())
        with pytest.raises(ValueError, match="one analysis window"):
            compute_mb_avf_batch(arr, replicas, [cfg])

    def test_needs_a_replica(self):
        arr, _ = self._replicas()
        cfg = AvfConfig(FaultMode.linear(2), Parity())
        with pytest.raises(ValueError, match="at least one replica"):
            compute_mb_avf_batch(arr, [], [cfg])
