"""Unit tests for protection schemes and region classification."""

import pytest

from repro.core._reference import classify_region
from repro.core.intervals import AceClass, IntervalSet, Outcome
from repro.core.protection import (
    SCHEMES,
    Crc,
    DecTed,
    NoProtection,
    Parity,
    Reaction,
    SecDed,
)


class TestReactions:
    def test_no_protection(self):
        s = NoProtection()
        assert s.react(0) is Reaction.NO_FAULT
        for n in range(1, 9):
            assert s.react(n) is Reaction.UNDETECTED

    def test_parity_detects_odd(self):
        s = Parity()
        assert s.react(0) is Reaction.NO_FAULT
        for n in (1, 3, 5, 7):
            assert s.react(n) is Reaction.DETECTED
        for n in (2, 4, 6, 8):
            assert s.react(n) is Reaction.UNDETECTED

    def test_secded(self):
        s = SecDed()
        assert s.react(0) is Reaction.NO_FAULT
        assert s.react(1) is Reaction.CORRECTED
        assert s.react(2) is Reaction.DETECTED
        for n in (3, 4, 5, 8):
            assert s.react(n) is Reaction.MISCORRECTED

    def test_dected(self):
        s = DecTed()
        assert s.react(1) is Reaction.CORRECTED
        assert s.react(2) is Reaction.CORRECTED
        assert s.react(3) is Reaction.DETECTED
        assert s.react(4) is Reaction.MISCORRECTED

    def test_crc_bursts(self):
        s = Crc(8)
        for n in range(1, 9):
            assert s.react(n) is Reaction.DETECTED
        assert s.react(9) is Reaction.DETECTED  # odd weight
        assert s.react(10) is Reaction.UNDETECTED

    def test_crc_without_odd_detection(self):
        s = Crc(4, detects_odd=False)
        assert s.react(5) is Reaction.UNDETECTED


class TestOverheads:
    def test_paper_overhead_anchors(self):
        # Intro: SEC-DED on 128 data bits needs 9 check bits (7%), DEC-TED 17
        # (13%).
        assert SecDed().check_bits(128) == 9
        assert DecTed().check_bits(128) == 17
        assert SecDed().area_overhead(128) == pytest.approx(0.0703, abs=1e-3)
        assert DecTed().area_overhead(128) == pytest.approx(0.1328, abs=1e-3)

    def test_secded_32(self):
        # Sec. VIII: 32-bit register SEC-DED = 7 check bits = 21.9% overhead.
        assert SecDed().check_bits(32) == 7
        assert SecDed().area_overhead(32) == pytest.approx(0.219, abs=1e-3)

    def test_parity_32(self):
        # Sec. VIII: parity on a 32-bit register = 3.1% overhead.
        assert Parity().area_overhead(32) == pytest.approx(0.031, abs=1e-3)

    def test_no_protection_overhead(self):
        assert NoProtection().check_bits(64) == 0
        assert NoProtection().area_overhead(64) == 0.0

    def test_registry(self):
        assert set(SCHEMES) >= {"none", "parity", "secded", "dected", "crc8"}
        assert SCHEMES["parity"].name == "parity"


class TestClassifyRegion:
    ACE = IntervalSet([(0, 10, int(AceClass.ACE))])
    DEAD = IntervalSet([(0, 10, int(AceClass.READ_DEAD))])
    MIXED = IntervalSet(
        [(0, 10, int(AceClass.ACE)), (10, 20, int(AceClass.READ_DEAD))]
    )

    def test_corrected_is_unace(self):
        assert not classify_region(Reaction.CORRECTED, self.ACE)
        assert not classify_region(Reaction.NO_FAULT, self.ACE)

    def test_detected_ace_is_true_due(self):
        out = classify_region(Reaction.DETECTED, self.ACE)
        assert out.intervals() == [(0, 10, int(Outcome.TRUE_DUE))]

    def test_detected_dead_is_false_due(self):
        out = classify_region(Reaction.DETECTED, self.DEAD)
        assert out.intervals() == [(0, 10, int(Outcome.FALSE_DUE))]

    def test_undetected_ace_is_sdc(self):
        out = classify_region(Reaction.UNDETECTED, self.ACE)
        assert out.intervals() == [(0, 10, int(Outcome.SDC))]

    def test_undetected_dead_is_masked(self):
        assert not classify_region(Reaction.UNDETECTED, self.DEAD)

    def test_miscorrected_defaults_like_undetected(self):
        out = classify_region(Reaction.MISCORRECTED, self.MIXED)
        assert out.intervals() == [(0, 10, int(Outcome.SDC))]

    def test_mixed_detected(self):
        out = classify_region(Reaction.DETECTED, self.MIXED)
        assert out.intervals() == [
            (0, 10, int(Outcome.TRUE_DUE)),
            (10, 20, int(Outcome.FALSE_DUE)),
        ]

    def test_empty_region(self):
        assert not classify_region(Reaction.DETECTED, IntervalSet())
