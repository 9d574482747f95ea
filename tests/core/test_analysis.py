"""End-to-end AvfStudy pipeline tests on real workloads."""

import numpy as np
import pytest

from repro.core import (
    AvfStudy,
    FaultMode,
    Interleaving,
    NoProtection,
    Parity,
    SecDed,
)
from repro.core.intervals import Outcome
from repro.workloads import run


@pytest.fixture(scope="module")
def matmul_study():
    r = run("matmul")
    return AvfStudy(r.apu, r.output_ranges)


@pytest.fixture(scope="module")
def minife_study():
    r = run("minife")
    return AvfStudy(r.apu, r.output_ranges)


class TestCacheAvf:
    def test_unprotected_sb_is_ace_fraction(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        assert 0 < res.sdc_avf < 1
        assert res.due_avf == 0.0

    def test_parity_converts_sdc_to_due(self, matmul_study):
        unprot = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        par = matmul_study.cache_avf("l1", FaultMode.linear(1), Parity())
        assert par.sdc_avf == 0.0
        # Parity detects everything a fault would have corrupted, plus dead
        # reads (false DUE), so DUE AVF >= the unprotected SDC AVF.
        assert par.due_avf >= unprot.sdc_avf

    def test_secded_eliminates_single_bit_errors(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), SecDed())
        assert res.total_avf == 0.0

    def test_mb_avf_within_theoretical_bounds(self, matmul_study):
        """Sec. IV-D: SB-AVF <= MB-AVF <= M x SB-AVF (unprotected)."""
        sb = matmul_study.cache_avf("l1", FaultMode.linear(1), NoProtection())
        for m in (2, 3, 4):
            mb = matmul_study.cache_avf("l1", FaultMode.linear(m), NoProtection())
            assert mb.sdc_avf >= sb.sdc_avf - 1e-12
            assert mb.sdc_avf <= m * sb.sdc_avf + 1e-12

    def test_mb_avf_grows_with_fault_mode(self, matmul_study):
        """Sec. VI-C: larger fault modes have larger (unprotected) MB-AVF."""
        avfs = [
            matmul_study.cache_avf("l1", FaultMode.linear(m), NoProtection()).sdc_avf
            for m in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(avfs, avfs[1:]))

    def test_l2_also_measurable(self, matmul_study):
        res = matmul_study.cache_avf("l2", FaultMode.linear(2), Parity())
        assert res.n_groups > 0
        assert 0 <= res.total_avf <= 1

    def test_interleaving_splits_2x1_under_parity(self, matmul_study):
        plain = matmul_study.cache_avf("l1", FaultMode.linear(2), Parity())
        ilv = matmul_study.cache_avf(
            "l1", FaultMode.linear(2), Parity(),
            style=Interleaving.LOGICAL, factor=2,
        )
        # x2 interleaving puts each bit of a 2x1 fault in its own parity
        # word: everything becomes detectable.
        assert ilv.sdc_avf == 0.0
        assert plain.sdc_avf > 0.0

    def test_results_merge_over_cus(self, matmul_study):
        res = matmul_study.cache_avf("l1", FaultMode.linear(1), Parity())
        n_cus = len(matmul_study.apu.memsys.l1s)
        one_cu_groups = res.n_groups // n_cus
        assert res.n_groups == one_cu_groups * n_cus

    def test_invalid_level(self, matmul_study):
        with pytest.raises(ValueError):
            matmul_study.cache_avf("l3", FaultMode.linear(1), Parity())

    def test_series(self, minife_study):
        edges = np.linspace(0, minife_study.end_cycle, 9, dtype=int)
        res = minife_study.cache_avf(
            "l1", FaultMode.linear(2), Parity(), series_edges=edges,
        )
        series = res.series_avf(Outcome.TRUE_DUE)
        assert len(series) == 8
        assert (series >= 0).all() and (series <= 1).all()
        assert series.max() > 0


class TestVgprAvf:
    def test_basic(self, minife_study):
        res = minife_study.vgpr_avf(FaultMode.linear(1), Parity())
        assert 0 < res.due_avf < 1

    def test_inter_thread_preempts_sdc(self, minife_study):
        """Sec. VIII: simultaneous read converts SDC+DUE overlap to DUE."""
        intra = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2,
        )
        inter = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTER_THREAD, factor=2,
        )
        assert inter.sdc_avf <= intra.sdc_avf + 1e-12

    def test_force_preempt_flag(self, minife_study):
        forced = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2, due_preempts_sdc=True,
        )
        plain = minife_study.vgpr_avf(
            FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2,
        )
        assert forced.sdc_avf <= plain.sdc_avf + 1e-12


class TestAceLocality:
    def test_in_unit_range(self, matmul_study):
        for style, factor in (
            (Interleaving.LOGICAL, 2),
            (Interleaving.WAY_PHYSICAL, 2),
            (Interleaving.INDEX_PHYSICAL, 2),
        ):
            loc = matmul_study.cache_ace_locality("l1", style=style, factor=factor)
            assert 0.0 <= loc <= 1.0

    def test_logical_interleaving_has_higher_locality(self, matmul_study):
        """Sec. VI-B: same-line bits are ACE together more than cross-line."""
        logical = matmul_study.cache_ace_locality(
            "l1", style=Interleaving.LOGICAL, factor=2
        )
        way = matmul_study.cache_ace_locality(
            "l1", style=Interleaving.WAY_PHYSICAL, factor=2
        )
        assert logical >= way - 1e-9


#: every AvfStudy method that takes a cache level, called with ``level``
LEVEL_METHODS = {
    "cache_avf": lambda st, level: st.cache_avf(
        level, FaultMode.linear(1), Parity()
    ),
    "cache_avf_batch": lambda st, level: st.cache_avf_batch(level, []),
    "tag_avf": lambda st, level: st.tag_avf(
        level, FaultMode.linear(1), Parity()
    ),
    "tag_avf_batch": lambda st, level: st.tag_avf_batch(level, []),
    "cache_ace_locality": lambda st, level: st.cache_ace_locality(level),
}


@pytest.mark.parametrize("method", sorted(LEVEL_METHODS))
def test_unknown_cache_level_raises(matmul_study, method):
    """Only "l1" and "l2" name a cache; nothing falls back to the L2."""
    with pytest.raises(ValueError, match="l3"):
        LEVEL_METHODS[method](matmul_study, "l3")
