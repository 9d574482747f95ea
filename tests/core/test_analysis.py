"""End-to-end AvfStudy pipeline tests on real workloads."""

import dataclasses

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
from repro.core.avf import AvfConfig, compute_mb_avf_batch
from repro.core.intervals import Outcome
from repro.workloads import run

from .tables import one_tile_calls


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
        res = matmul_study.avf("l1", FaultMode.linear(1), NoProtection())
        assert 0 < res.sdc_avf < 1
        assert res.due_avf == 0.0

    def test_parity_converts_sdc_to_due(self, matmul_study):
        unprot = matmul_study.avf("l1", FaultMode.linear(1), NoProtection())
        par = matmul_study.avf("l1", FaultMode.linear(1), Parity())
        assert par.sdc_avf == 0.0
        # Parity detects everything a fault would have corrupted, plus dead
        # reads (false DUE), so DUE AVF >= the unprotected SDC AVF.
        assert par.due_avf >= unprot.sdc_avf

    def test_secded_eliminates_single_bit_errors(self, matmul_study):
        res = matmul_study.avf("l1", FaultMode.linear(1), SecDed())
        assert res.total_avf == 0.0

    def test_mb_avf_within_theoretical_bounds(self, matmul_study):
        """Sec. IV-D: SB-AVF <= MB-AVF <= M x SB-AVF (unprotected)."""
        sb = matmul_study.avf("l1", FaultMode.linear(1), NoProtection())
        for m in (2, 3, 4):
            mb = matmul_study.avf("l1", FaultMode.linear(m), NoProtection())
            assert mb.sdc_avf >= sb.sdc_avf - 1e-12
            assert mb.sdc_avf <= m * sb.sdc_avf + 1e-12

    def test_mb_avf_grows_with_fault_mode(self, matmul_study):
        """Sec. VI-C: larger fault modes have larger (unprotected) MB-AVF."""
        avfs = [
            matmul_study.avf("l1", FaultMode.linear(m), NoProtection()).sdc_avf
            for m in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(avfs, avfs[1:]))

    def test_l2_also_measurable(self, matmul_study):
        res = matmul_study.avf("l2", FaultMode.linear(2), Parity())
        assert res.n_groups > 0
        assert 0 <= res.total_avf <= 1

    def test_interleaving_splits_2x1_under_parity(self, matmul_study):
        plain = matmul_study.avf("l1", FaultMode.linear(2), Parity())
        ilv = matmul_study.avf(
            "l1", FaultMode.linear(2), Parity(),
            style=Interleaving.LOGICAL, factor=2,
        )
        # x2 interleaving puts each bit of a 2x1 fault in its own parity
        # word: everything becomes detectable.
        assert ilv.sdc_avf == 0.0
        assert plain.sdc_avf > 0.0

    def test_results_merge_over_cus(self, matmul_study):
        res = matmul_study.avf("l1", FaultMode.linear(1), Parity())
        n_cus = len(matmul_study.apu.memsys.l1s)
        one_cu_groups = res.n_groups // n_cus
        assert res.n_groups == one_cu_groups * n_cus

    def test_invalid_level(self, matmul_study):
        with pytest.raises(ValueError):
            matmul_study.avf("l3", FaultMode.linear(1), Parity())

    def test_series(self, minife_study):
        edges = np.linspace(0, minife_study.end_cycle, 9, dtype=int)
        res = minife_study.avf(
            "l1", FaultMode.linear(2), Parity(), series_edges=edges,
        )
        series = res.series_avf(Outcome.TRUE_DUE)
        assert len(series) == 8
        assert (series >= 0).all() and (series <= 1).all()
        assert series.max() > 0


class TestVgprAvf:
    def test_basic(self, minife_study):
        res = minife_study.avf("vgpr", FaultMode.linear(1), Parity())
        assert 0 < res.due_avf < 1

    def test_inter_thread_preempts_sdc(self, minife_study):
        """Sec. VIII: simultaneous read converts SDC+DUE overlap to DUE."""
        intra = minife_study.avf(
            "vgpr", FaultMode.linear(3), Parity(),
            style=Interleaving.INTRA_THREAD, factor=2,
        )
        inter = minife_study.avf(
            "vgpr", FaultMode.linear(3), Parity(),
            style=Interleaving.INTER_THREAD, factor=2,
        )
        assert inter.sdc_avf <= intra.sdc_avf + 1e-12


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


#: (structure, layouts) over every structure a study measures
STRUCTURE_LAYOUTS = [
    ("l1", [(None, 1), (Interleaving.WAY_PHYSICAL, 2),
            (Interleaving.INDEX_PHYSICAL, 2)]),
    ("l2", [(Interleaving.NONE, 1), (Interleaving.LOGICAL, 2)]),
    ("vgpr", [(None, 1), (Interleaving.INTRA_THREAD, 2),
              (Interleaving.INTER_THREAD, 2)]),
    ("l1.tags", [(None, 1), (None, 2)]),
    ("l2.tags", [(None, 1), (None, 4)]),
]


def _assert_same_result(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, f.name


def _summed(parts):
    """``parts``, one result per physical array, summed in order: the
    cycles, group counts and series add; the rest is the first part's."""
    cycles = {}
    for p in parts:
        for o, c in p.outcome_cycles.items():
            cycles[o] = cycles.get(o, 0.0) + c
    series = [p.series for p in parts if p.series is not None]
    return dataclasses.replace(
        parts[0],
        n_groups=sum(p.n_groups for p in parts),
        outcome_cycles=cycles,
        series=sum(series[1:], series[0].copy()) if series else None,
    )


class TestAvfBatch:
    @pytest.mark.parametrize(
        "structure,layouts", STRUCTURE_LAYOUTS,
        ids=[s for s, _ in STRUCTURE_LAYOUTS],
    )
    def test_is_engine_batch_summed_over_arrays(
        self, matmul_study, structure, layouts
    ):
        """One path: every structure's AVF is the engine batch on each of
        its physical arrays (every CU's L1 on the one-CU layout), under
        the layout's Sec. VIII rule, summed over them in order."""
        edges = tuple(np.linspace(0, matmul_study.end_cycle, 5, dtype=int))
        configs = [
            AvfConfig(mode=mode, scheme=scheme, series_edges=series)
            for mode in (FaultMode.linear(3), FaultMode.rect(2, 2))
            for scheme in (Parity(), SecDed())
            for series in (None, edges)
        ]
        for style, factor in layouts:
            got = matmul_study.avf_batch(
                structure, configs, style=style, factor=factor
            )
            per_array = [
                compute_mb_avf_batch(layout, lt, configs)
                for layout, lt in one_tile_calls(
                    matmul_study, structure, style, factor
                )
            ]
            assert len(got) == len(configs)
            for res, rs in zip(got, zip(*per_array)):
                _assert_same_result(res, _summed(rs))

    def test_default_styles(self, matmul_study):
        def layout(structure, style=None, factor=1):
            return matmul_study._structure(structure, style, factor)[0]

        assert layout("l1").style is Interleaving.NONE
        assert layout("l2").style is Interleaving.NONE
        assert layout("vgpr").style is Interleaving.INTRA_THREAD
        assert layout("l1.tags").style is Interleaving.NONE
        assert layout("l1.tags", factor=2).style is Interleaving.WAY_PHYSICAL
        # One layout object per key, whether the default is named or not.
        assert layout("vgpr") is layout("vgpr", Interleaving.INTRA_THREAD)


#: every AvfStudy method that takes a structure name, called with ``name``
STRUCTURE_METHODS = {
    "avf": lambda st, name: st.avf(name, FaultMode.linear(1), Parity()),
    "avf_batch": lambda st, name: st.avf_batch(name, []),
    "cache_avf": lambda st, name: st.cache_avf(
        name, FaultMode.linear(1), Parity()
    ),
    "cache_ace_locality": lambda st, name: st.cache_ace_locality(name),
}


@pytest.mark.parametrize("name", ["l3", "l3.tags"])
@pytest.mark.parametrize("method", sorted(STRUCTURE_METHODS))
def test_unknown_structure_raises(matmul_study, method, name):
    """Only the five structure names are measured; nothing falls back."""
    with pytest.raises(ValueError, match="l3"):
        STRUCTURE_METHODS[method](matmul_study, name)


@pytest.mark.parametrize("method", ["avf", "avf_batch"])
def test_tag_array_takes_no_style(matmul_study, method):
    """A tag array's factor alone picks its layout."""
    call = {
        "avf": lambda: matmul_study.avf(
            "l1.tags", FaultMode.linear(1), Parity(),
            style=Interleaving.WAY_PHYSICAL, factor=2,
        ),
        "avf_batch": lambda: matmul_study.avf_batch(
            "l2.tags", [], style=Interleaving.NONE
        ),
    }[method]
    with pytest.raises(ValueError, match="style"):
        call()


def test_aliases_ask_avf(matmul_study):
    """``cache_avf``/``vgpr_avf`` are :meth:`AvfStudy.avf` on their own
    structures, and ``cache_avf`` takes only a cache's data array."""
    mode, scheme = FaultMode.linear(2), Parity()
    kw = dict(style=Interleaving.LOGICAL, factor=2)
    _assert_same_result(
        matmul_study.cache_avf("l1", mode, scheme, **kw),
        matmul_study.avf("l1", mode, scheme, **kw),
    )
    _assert_same_result(
        matmul_study.vgpr_avf(mode, scheme),
        matmul_study.avf("vgpr", mode, scheme),
    )
    for name in ("vgpr", "l1.tags"):
        with pytest.raises(ValueError, match="level"):
            matmul_study.cache_avf(name, mode, scheme)


@pytest.mark.parametrize("name", ["vgpr", "l1.tags"])
def test_ace_locality_takes_only_a_cache_level(matmul_study, name):
    with pytest.raises(ValueError, match="level"):
        matmul_study.cache_ace_locality(name)
