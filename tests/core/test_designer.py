"""Tests for the protection-design optimizer."""

import math

import pytest

from repro.core import (
    TABLE_III,
    AvfStudy,
    FaultMode,
    Interleaving,
    NoProtection,
    Parity,
    SecDed,
)
from repro.core.designer import (
    VGPR_DESIGN_PALETTE,
    DesignPoint,
    DesignResult,
    choose_design,
    evaluate_designs,
    sb_approx_ser,
)
from repro.workloads import run


@pytest.fixture(scope="module")
def study():
    r = run("matmul")
    return AvfStudy(r.apu, r.output_ranges)


@pytest.fixture(scope="module")
def results(study):
    return evaluate_designs([study])


class TestEvaluateDesigns:
    def test_covers_palette(self, results):
        assert len(results) == len(VGPR_DESIGN_PALETTE)
        assert {r.label for r in results} == {
            p.label for p in VGPR_DESIGN_PALETTE
        }

    def test_rates_are_sane(self, results):
        for r in results:
            assert r.sdc_rate >= 0
            assert r.due_rate >= 0
            assert 0 < r.area_overhead < 0.5

    def test_area_overheads_match_paper(self, results):
        by_label = {r.label: r for r in results}
        assert by_label["parity tx4"].area_overhead == pytest.approx(1 / 32)
        assert by_label["secded rx2"].area_overhead == pytest.approx(7 / 32)

    def test_inter_thread_never_worse_on_sdc(self, results):
        by_label = {r.label: r for r in results}
        for scheme in ("parity", "secded"):
            for f in (2, 4):
                rx = by_label[f"{scheme} rx{f}"].sdc_rate
                tx = by_label[f"{scheme} tx{f}"].sdc_rate
                assert tx <= rx + 1e-9


class TestSbApproxSer:
    """The single-bit-AVF estimate Fig. 11 compares MB-AVF against."""

    def _sb(self, study):
        return study.avf("vgpr", FaultMode.linear(1), NoProtection()).sdc_avf

    def test_unprotected_scales_single_bit_avf(self, study):
        point = DesignPoint(
            "none", NoProtection(), Interleaving.INTRA_THREAD, 1
        )
        ser = sb_approx_ser(study, point)
        assert ser.structure == "vgpr"
        assert ser.due_fit == 0.0
        assert ser.sdc_fit == pytest.approx(
            self._sb(study) * sum(TABLE_III.values())
        )

    def test_reaction_at_worst_per_word_flip_count(self, study):
        """Parity x2 sees ceil(M/2) flips per word: odd is DUE, even SDC."""
        point = DesignPoint("p2", Parity(), Interleaving.INTER_THREAD, 2)
        ser = sb_approx_ser(study, point)
        flips = {m: math.ceil(int(m.split("x")[0]) / 2) for m in TABLE_III}
        due_modes = [m for m, n in flips.items() if n % 2 == 1]
        sdc_modes = [m for m, n in flips.items() if n % 2 == 0]
        sb = self._sb(study)
        assert ser.due_fit == pytest.approx(
            sb * sum(TABLE_III[m] for m in due_modes)
        )
        assert ser.sdc_fit == pytest.approx(
            sb * sum(TABLE_III[m] for m in sdc_modes)
        )

    def test_corrected_modes_contribute_nothing(self, study):
        """SEC-DED x8 corrects every Table III mode: one flip per word."""
        point = DesignPoint("s8", SecDed(), Interleaving.INTER_THREAD, 8)
        ser = sb_approx_ser(study, point)
        assert (ser.due_fit, ser.sdc_fit) == (0.0, 0.0)


class TestChooseDesign:
    def _fake(self, label, sdc, due, area):
        point = DesignPoint(label, Parity(), Interleaving.INTRA_THREAD, 2)
        return DesignResult(point, sdc, due, area)

    def test_picks_cheapest_feasible(self):
        results = [
            self._fake("cheap-bad", sdc=5.0, due=1.0, area=0.03),
            self._fake("cheap-good", sdc=0.5, due=1.0, area=0.03),
            self._fake("pricey-good", sdc=0.1, due=0.2, area=0.22),
        ]
        best = choose_design(results, sdc_target=1.0)
        assert best.label == "cheap-good"

    def test_due_target_filters(self):
        results = [
            self._fake("detect-happy", sdc=0.5, due=30.0, area=0.03),
            self._fake("balanced", sdc=0.6, due=0.5, area=0.22),
        ]
        best = choose_design(results, sdc_target=1.0, due_target=1.0)
        assert best.label == "balanced"

    def test_no_feasible_design(self):
        results = [self._fake("weak", sdc=9.0, due=9.0, area=0.03)]
        assert choose_design(results, sdc_target=0.1) is None

    def test_tie_breaks_on_sdc(self):
        results = [
            self._fake("a", sdc=0.9, due=0.0, area=0.03),
            self._fake("b", sdc=0.4, due=0.0, area=0.03),
        ]
        assert choose_design(results, sdc_target=1.0).label == "b"

    def test_end_to_end_prefers_parity_interleaving(self, results):
        """On real measurements, parity+interleaving meets mid targets at
        a fraction of SEC-DED's area (the Sec. VIII conclusion)."""
        worst = max(r.sdc_rate for r in results)
        best = choose_design(results, sdc_target=worst + 1)
        assert best is not None
        assert best.area_overhead == pytest.approx(1 / 32)  # parity wins
