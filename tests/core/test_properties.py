"""Property-based tests (hypothesis) on the core data structures."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import bucket_accumulate_ref, classify_region
from repro.core.avf import (
    AvfConfig,
    StructureLifetimes,
    compute_mb_avf,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import FaultMode
from repro.core.intervals import AceClass, IntervalSet, Outcome, sweep_max
from repro.core.layout import Interleaving, SramArray, build_cache_array
from repro.core.mttf import mttf_smbf_hours, mttf_tmbf_hours
from repro.core.protection import (
    SCHEMES,
    NoProtection,
    Parity,
    Reaction,
    SecDed,
)

from .tables import lifetimes_of

# -- strategies ---------------------------------------------------------------


@st.composite
def interval_sets(draw, max_cycle=200, max_intervals=6, max_class=3):
    """A random valid IntervalSet (sorted, disjoint, classed)."""
    n = draw(st.integers(0, max_intervals))
    points = draw(
        st.lists(
            st.integers(0, max_cycle), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    points.sort()
    ivals = []
    for k in range(n):
        cls = draw(st.integers(1, max_class))
        ivals.append((points[2 * k], points[2 * k + 1], cls))
    return IntervalSet(ivals)


class TestIntervalProperties:
    @given(st.lists(interval_sets(), max_size=5), st.integers(0, 200))
    def test_sweep_max_is_pointwise_max(self, sets, cycle):
        merged = sweep_max(sets)
        expected = max((s.class_at(cycle) for s in sets), default=0)
        assert merged.class_at(cycle) == expected

    @given(st.lists(interval_sets(), min_size=1, max_size=4))
    def test_sweep_idempotent(self, sets):
        once = sweep_max(sets)
        twice = sweep_max([once])
        assert once.intervals() == twice.intervals()

    @given(interval_sets())
    def test_bucket_accumulate_conserves_time(self, iset):
        # the buckets cover [0, 240), past every drawn cycle (<= 200)
        edges = list(range(0, 260, 20))
        out = [[0] * 4 for _ in range(len(edges) - 1)]
        bucket_accumulate_ref(iset, edges, out)
        for cls in (1, 2, 3):
            assert sum(row[cls] for row in out) == iset.total(cls)


class TestProtectionProperties:
    @given(st.sampled_from(sorted(SCHEMES)), st.integers(0, 16))
    def test_reaction_defined_everywhere(self, name, n):
        r = SCHEMES[name].react(n)
        assert isinstance(r, Reaction)
        if n == 0:
            assert r is Reaction.NO_FAULT
        else:
            assert r is not Reaction.NO_FAULT

    @given(st.integers(1, 64))
    def test_parity_detects_exactly_odd(self, n):
        r = Parity().react(n)
        assert (r is Reaction.DETECTED) == (n % 2 == 1)

    @given(st.integers(8, 512))
    def test_check_bit_overheads_ordered(self, data_bits):
        # Stronger codes never need fewer check bits.
        assert SCHEMES["secded"].check_bits(data_bits) >= 1
        assert (
            SCHEMES["dected"].check_bits(data_bits)
            > SCHEMES["secded"].check_bits(data_bits)
        )

    @given(interval_sets(max_class=2), st.sampled_from(list(Reaction)))
    def test_classified_time_never_exceeds_input(self, ace, reaction):
        out = classify_region(reaction, ace)
        assert out.total_at_least(1) <= ace.total_at_least(1)


class TestFaultModeProperties:
    @given(st.integers(1, 16))
    def test_linear_geometry(self, m):
        mode = FaultMode.linear(m)
        assert mode.n_bits == m
        assert mode.width == m and mode.height == 1
        assert (0, 0) in mode.offsets

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_rect_geometry(self, h, w):
        mode = FaultMode.rect(h, w)
        assert mode.n_bits == h * w
        assert mode.height == h and mode.width == w

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1, max_size=8, unique=True,
        )
    )
    def test_normalisation_anchors_origin(self, offsets):
        mode = FaultMode("custom", tuple(offsets))
        assert min(r for r, _ in mode.offsets) == 0
        assert min(c for _, c in mode.offsets) == 0
        assert mode.n_bits == len(offsets)


#: single-bit AVF is the MB-AVF of the degenerate 1x1 fault mode
SB = FaultMode.linear(1)


def _toy_lifetimes(spans, window=100):
    """Two-byte toy structure with hypothesis-chosen ACE spans."""
    isets = []
    for lo, hi in spans:
        if lo < hi:
            isets.append(IntervalSet([(lo, hi, int(AceClass.ACE))]))
        else:
            isets.append(IntervalSet())
    return lifetimes_of("toy", isets, 0, window)


def _toy_array(interleaved: bool) -> SramArray:
    if interleaved:
        domain_of = np.array([[c % 2 for c in range(16)]], dtype=np.int32)
    else:
        domain_of = np.array([[c // 8 for c in range(16)]], dtype=np.int32)
    return SramArray(
        "toy", domain_of.copy(), domain_of, 1,
        2 if interleaved else 1,
        Interleaving.LOGICAL if interleaved else Interleaving.NONE,
    )


class TestAvfEngineProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)),
            min_size=2, max_size=2,
        ),
        st.booleans(),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_unprotected_mb_avf_bounds(self, spans, interleaved, m):
        """SB-AVF <= MB-AVF <= M * SB-AVF for any lifetimes (Sec. IV-D)."""
        arr = _toy_array(interleaved)
        lt = _toy_lifetimes(spans)
        sb = compute_mb_avf(arr, lt, SB, NoProtection()).sdc_avf
        mb = compute_mb_avf(arr, lt, FaultMode.linear(m), NoProtection()).sdc_avf
        assert sb - 1e-12 <= mb <= m * sb + 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)),
            min_size=2, max_size=2,
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_avfs_partition_at_most_one(self, spans, m):
        arr = _toy_array(True)
        lt = _toy_lifetimes(spans)
        res = compute_mb_avf(arr, lt, FaultMode.linear(m), Parity())
        total = res.sdc_avf + res.true_due_avf + res.false_due_avf
        assert 0.0 <= total <= 1.0 + 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)),
            min_size=2, max_size=2,
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_secded_never_worse_than_parity_at_sdc(self, spans, m):
        arr = _toy_array(True)
        lt = _toy_lifetimes(spans)
        # At 2 bits per domain or fewer, SEC-DED's SDC cannot exceed
        # no-protection's SDC.
        if m <= 4:  # x2 interleave -> at most 2 faulty bits per domain
            unp = compute_mb_avf(arr, lt, FaultMode.linear(m), NoProtection())
            sec = compute_mb_avf(arr, lt, FaultMode.linear(m), SecDed())
            assert sec.sdc_avf <= unp.sdc_avf + 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)),
            min_size=2, max_size=2,
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_due_preemption_conserves_total(self, spans, m):
        """The Sec. VIII rule reclassifies SDC as DUE, never changes totals."""
        arr = _toy_array(True)
        lt = _toy_lifetimes(spans)
        mode = FaultMode.linear(m)
        plain = compute_mb_avf(arr, lt, mode, Parity())
        # the same maps as an inter-thread layout, which takes the rule
        inter = dataclasses.replace(arr, style=Interleaving.INTER_THREAD)
        pre = compute_mb_avf(inter, lt, mode, Parity())
        assert pre.sdc_avf <= plain.sdc_avf + 1e-12
        assert pre.total_avf == pytest.approx(plain.total_avf, abs=1e-12)


@pytest.fixture(scope="module", params=["vectoradd", "transpose"])
def real_structures(request):
    """A simulated workload's L1 and stacked VGPR as (array, lifetimes)."""
    from repro.experiments import build_study

    study = build_study(request.param, n_cus=1)
    return [
        study._structure(structure, style, factor)
        for structure, style, factor in (
            ("l1", Interleaving.WAY_PHYSICAL, 2),
            ("vgpr", Interleaving.INTRA_THREAD, 2),
            ("vgpr", Interleaving.INTER_THREAD, 4),
        )
    ]


REAL_MODES = [FaultMode.linear(1), FaultMode.linear(3), FaultMode.rect(2, 2)]


class TestRealWorkloadProperties:
    """Engine invariants on simulated lifetimes, not toy ones."""

    def test_window_series_sums_to_outcome_cycles(self, real_structures):
        for array, lts in real_structures:
            lo, hi = lts.start_cycle, lts.end_cycle
            edges = [lo, lo + (hi - lo) // 3, lo + (hi - lo) // 2, hi]
            for mode in REAL_MODES:
                for scheme in ("parity", "secded"):
                    res = compute_mb_avf(
                        array, lts, mode, SCHEMES[scheme], series_edges=edges,
                    )
                    for outcome, cycles in res.outcome_cycles.items():
                        assert res.series[:, int(outcome)].sum() == cycles

    def test_unprotected_1x1_sdc_is_sb_ace_fraction(self, real_structures):
        for array, lts in real_structures:
            sdc = compute_mb_avf(array, lts, SB, NoProtection()).sdc_avf
            assert sdc == pytest.approx(lts.sb_ace_fraction(), rel=1e-12)

    def test_outcome_avfs_partition_at_most_one(self, real_structures):
        for array, lts in real_structures:
            for mode in REAL_MODES:
                for scheme in SCHEMES.values():
                    res = compute_mb_avf(array, lts, mode, scheme)
                    avfs = [res.sdc_avf, res.true_due_avf, res.false_due_avf]
                    assert min(avfs) >= 0.0
                    assert sum(avfs) <= 1.0

    def test_unprotected_mb_avf_bounds(self, real_structures):
        """SB-AVF <= MB-AVF <= M * SB-AVF for an M-bit mode (Sec. IV-D)."""
        modes = [FaultMode.linear(m) for m in (2, 3, 8)]
        modes.append(FaultMode.rect(2, 2))
        for array, lts in real_structures:
            sb = compute_mb_avf(array, lts, SB, NoProtection()).sdc_avf
            for mode in modes:
                mb = compute_mb_avf(array, lts, mode, NoProtection()).sdc_avf
                assert sb - 1e-12 <= mb <= mode.n_bits * sb + 1e-12, mode.name

    def test_time_shift_leaves_avfs_unchanged(self, real_structures):
        """Shifting every interval and the window by the same offset is
        invisible to the engine: outcome cycles and AVFs are exact."""
        delta = 1000
        for array, lts in real_structures:
            shifted = StructureLifetimes(
                lts.name, lts.offsets, lts.starts + delta, lts.ends + delta,
                lts.cls, lts.start_cycle + delta, lts.end_cycle + delta,
            )
            for mode in REAL_MODES:
                for scheme in SCHEMES.values():
                    a = compute_mb_avf(array, lts, mode, scheme)
                    b = compute_mb_avf(array, shifted, mode, scheme)
                    assert a.outcome_cycles == b.outcome_cycles
                    for name in ("sdc_avf", "true_due_avf",
                                 "false_due_avf", "due_avf", "total_avf"):
                        assert getattr(a, name) == getattr(b, name)


def test_sec_viii_rule_only_moves_sdc_to_true_due():
    """The Sec. VIII rule on an inter-thread VGPR layout, against the same
    byte and domain maps relabelled intra-thread: the group count, the
    false-DUE and the total cycles agree, and SDC falls by exactly the
    cycles true DUE gains."""
    from repro.experiments import build_study

    study = build_study("vectoradd", n_cus=1)
    configs = [
        AvfConfig(mode=FaultMode.linear(m), scheme=Parity()) for m in (2, 3, 4)
    ]
    moved = 0.0
    for factor in (2, 4):
        layout, lifetimes = study._structure(
            "vgpr", Interleaving.INTER_THREAD, factor
        )
        relabelled = dataclasses.replace(
            layout, style=Interleaving.INTRA_THREAD
        )
        for cfg, ruled, plain in zip(
            configs,
            compute_mb_avf_batch(layout, lifetimes, configs),
            compute_mb_avf_batch(relabelled, lifetimes, configs),
        ):
            got, want = ruled.outcome_cycles, plain.outcome_cycles
            assert ruled.n_groups == plain.n_groups, cfg
            assert got[Outcome.FALSE_DUE] == want[Outcome.FALSE_DUE], cfg
            assert sum(got.values()) == sum(want.values()), cfg
            fell = want[Outcome.SDC] - got[Outcome.SDC]
            assert fell >= 0, cfg
            assert got[Outcome.TRUE_DUE] - want[Outcome.TRUE_DUE] == fell, cfg
            moved += fell
    assert moved > 0  # the rule bites somewhere in the grid


class TestLayoutProperties:
    @given(
        st.sampled_from([2, 4, 8]),
        st.sampled_from([2, 4]),
        st.sampled_from(
            [Interleaving.LOGICAL, Interleaving.WAY_PHYSICAL,
             Interleaving.INDEX_PHYSICAL]
        ),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_layout_bijection(self, n_sets, n_ways, style, factor):
        arr = build_cache_array(
            n_sets, n_ways, 64, style=style, factor=factor
        )
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert (arr.byte_of.ravel() // 4 == arr.domain_of.ravel()).all()


class TestMttfProperties:
    @given(
        st.floats(0.001, 1000.0),
        st.floats(0.0001, 0.5),
        st.integers(1 << 20, 1 << 32),
    )
    def test_smbf_mttf_positive_and_monotone(self, fit, frac, bits):
        base = mttf_smbf_hours(bits, fit, frac)
        assert base > 0
        assert mttf_smbf_hours(bits, fit * 2, frac) < base
        assert mttf_smbf_hours(bits, fit, min(frac * 2, 1.0)) < base

    @given(st.floats(0.001, 1000.0), st.floats(1.0, 1e7))
    def test_tmbf_decreases_with_lifetime(self, fit, hours):
        bits = 1 << 28
        assert mttf_tmbf_hours(bits, fit, hours * 2) < mttf_tmbf_hours(
            bits, fit, hours
        )
