"""Equivalence suite: vectorized engine vs the pure-Python reference.

The numpy interval kernels, the band-deduplicated enumerator and the batch
API's grouped classify-and-integrate sweep must be *bit-for-bit*
interchangeable with the reference implementations preserved in
:mod:`repro.core._reference` — same intervals, same signature multisets,
same outcome cycles, same series arrays.  Randomized inputs are
seeded (hypothesis + a fixed-seed numpy generator) so failures replay.

The kernels and the engine are also run with every cycle shifted to a
time origin of ``10**9``: all arithmetic is exact int64, so moving the
origin must change nothing.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _reference as ref
from repro.core.avf import (
    AvfConfig,
    _canonical_iset_ids,
    _enumerate_signatures,
    _unique_rows,
    ace_locality,
    compute_mb_avf,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import FaultMode
from repro.core.intervals import IntervalSet, sweep_max, union_rows
from repro.core.layout import Interleaving, build_cache_array
from repro.core.protection import SCHEMES

from .tables import lifetimes_of

ORIGINS = [0, 10**9]  # time origin every cycle is shifted to


def shifted(iset, origin):
    """``iset`` with every interval moved ``origin`` cycles later."""
    return IntervalSet([(s + origin, e + origin, c) for s, e, c in iset])


# -- strategies ---------------------------------------------------------------


@st.composite
def interval_sets(draw, max_cls=3, max_ivals=12, horizon=200):
    """A valid IntervalSet: sorted, non-overlapping, classes 1..max_cls."""
    n = draw(st.integers(0, max_ivals))
    cuts = draw(
        st.lists(
            st.integers(0, horizon), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    cuts.sort()
    return IntervalSet(
        (cuts[2 * i], cuts[2 * i + 1], draw(st.integers(1, max_cls)))
        for i in range(n)
    )


set_lists = st.lists(interval_sets(), min_size=0, max_size=6)


def as_tuples(iset):
    return list(iset)


# -- interval kernels ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(sets=set_lists)
@pytest.mark.parametrize("origin", ORIGINS)
def test_sweep_max_matches_reference(sets, origin):
    sets = [shifted(s, origin) for s in sets]
    assert as_tuples(sweep_max(sets)) == as_tuples(ref.sweep_max_ref(sets))


@settings(max_examples=60, deadline=None)
@given(iset=interval_sets(), klass=st.integers(1, 4))
@pytest.mark.parametrize("origin", ORIGINS)
def test_totals_match_reference(iset, klass, origin):
    iset = shifted(iset, origin)
    assert iset.total(klass) == ref.total_ref(iset, klass)
    assert iset.total_at_least(klass) == ref.total_at_least_ref(iset, klass)


@settings(max_examples=60, deadline=None)
@given(a=interval_sets(), b=interval_sets(), klass=st.integers(1, 3))
@pytest.mark.parametrize("origin", ORIGINS)
def test_intersection_duration_matches_reference(a, b, klass, origin):
    """The overlap ``ace_locality`` uses: ``|a| + |b| - |a ∪ b|`` at
    class >= ``klass`` equals the reference two-pointer intersection."""
    a, b = shifted(a, origin), shifted(b, origin)
    got = (
        a.total_at_least(klass) + b.total_at_least(klass)
        - sweep_max([a, b]).total_at_least(klass)
    )
    assert got == ref.intersection_duration_ref(a, b, klass)


def _random_iset(rng, end_cycle=120, max_ivals=5):
    """A random valid interval set inside ``[0, end_cycle)``."""
    ivals = []
    t = 0
    while t < end_cycle - 2 and len(ivals) < max_ivals:
        t += int(rng.integers(1, 25))
        d = int(rng.integers(1, 20))
        if t + d >= end_cycle:
            break
        ivals.append((t, t + d, int(rng.integers(1, 4))))
        t += d
    return IntervalSet(ivals)


@pytest.mark.parametrize("seed", range(6))
def test_union_rows_matches_reference_per_group(seed):
    """Every group's union equals the reference sweep of its members,
    including groups with no members and groups of one member."""
    rng = np.random.default_rng(seed)
    groups = [
        [_random_iset(rng) for _ in range(int(rng.integers(0, 5)))]
        for _ in range(int(rng.integers(1, 40)))
    ]
    rows = np.array(
        [
            (g, s, e, c)
            for g, members in enumerate(groups)
            for iset in members
            for s, e, c in iset
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    rows = rows[rng.permutation(len(rows))]  # the kernel sorts its input
    offsets, starts, ends, cls = union_rows(*rows.T, len(groups))
    assert len(offsets) == len(groups) + 1
    for g, members in enumerate(groups):
        lo, hi = offsets[g], offsets[g + 1]
        got = list(zip(starts[lo:hi].tolist(), ends[lo:hi].tolist(),
                       cls[lo:hi].tolist()))
        assert got == as_tuples(ref.sweep_max_ref(members)), g


# -- _unique_rows --------------------------------------------------------------


def test_unique_rows_empty_input():
    empty = np.empty((0, 4), dtype=np.int32)
    uniq, counts = _unique_rows(empty)
    assert uniq.shape == (0, 4)
    assert counts.shape == (0,)


def test_unique_rows_counts():
    a = np.array([[1, 2], [0, 1], [1, 2], [1, 2], [0, 1]], dtype=np.int32)
    uniq, counts = _unique_rows(a)
    got = {tuple(r): c for r, c in zip(uniq.tolist(), counts.tolist())}
    assert got == {(0, 1): 2, (1, 2): 3}
    assert counts.sum() == len(a)


def test_unique_rows_weighted_counts_match_counter():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, size=(200, 3)).astype(np.int32)
    weights = rng.integers(1, 50, size=len(a)).astype(np.int64)
    want = Counter()
    for row, wt in zip(a.tolist(), weights.tolist()):
        want[tuple(row)] += wt
    uniq, counts = _unique_rows(a, weights)
    got = {tuple(r): c for r, c in zip(uniq.tolist(), counts.tolist())}
    assert got == dict(want)
    assert len(got) == len(uniq)


def test_unique_rows_weighted_empty_input():
    empty = np.empty((0, 4), dtype=np.int32)
    uniq, counts = _unique_rows(empty, np.zeros(0, dtype=np.int64))
    assert uniq.shape == (0, 4)
    assert counts.shape == (0,)


# -- enumeration + full engine -----------------------------------------------


def _random_lifetimes(rng, n_bytes, end_cycle=120, share=0.3, origin=0):
    """Random classed lifetimes with deliberate duplicate interval sets."""
    pool = [_random_iset(rng, end_cycle) for _ in range(max(2, n_bytes // 3))]
    isets = [
        IntervalSet() if rng.random() < share
        else shifted(pool[int(rng.integers(0, len(pool)))], origin)
        for _ in range(n_bytes)
    ]
    return lifetimes_of("t", isets, origin, origin + end_cycle)


def _ruled(array, due):
    """``array`` relabelled inter-thread when ``due``: the same maps under
    the Sec. VIII rule, which only an inter-thread layout takes."""
    if not due:
        return array
    return dataclasses.replace(array, style=Interleaving.INTER_THREAD)


MODES = [
    FaultMode.linear(1),
    FaultMode.linear(2),
    FaultMode.linear(4),
    FaultMode.rect(2, 2),
    FaultMode.rect(2, 3),
    FaultMode.rect(4, 4),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
def test_enumerator_matches_reference(seed, mode):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    canon = _canonical_iset_ids(lts)
    keys, weights, _ = _enumerate_signatures(array, canon.byte2iid, mode)
    got = ref.sigs_from_keys(keys, weights, mode.n_bits)
    want = ref.enumerate_signatures_ref(array, canon.byte2iid, mode)
    # The production enumerator drops all-lifetime-empty placements (they
    # classify to nothing); the reference emits their signature.  Outcomes
    # are unaffected — compare after dropping empty signatures.
    want = {
        sig: n for sig, n in want.items() if any(ids for _, ids in sig)
    }
    assert got == want


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scheme", ["none", "parity", "secded"])
@pytest.mark.parametrize("due", [False, True])
@pytest.mark.parametrize("origin", ORIGINS)
def test_engine_outcomes_match_reference(seed, scheme, due, origin):
    rng = np.random.default_rng(seed)
    array = _ruled(build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.NONE, factor=1, name="t",
    ), due)
    mode = FaultMode.rect(2, 2) if seed else FaultMode.linear(3)
    edges = tuple(origin + e for e in (0, 30, 60, 90, 120))
    lts = _random_lifetimes(rng, array.n_bytes, origin=origin)
    res = compute_mb_avf(
        array, lts, mode, SCHEMES[scheme], series_edges=edges,
    )
    want_cycles, want_series = ref.compute_outcome_cycles_ref(
        array, lts, mode, SCHEMES[scheme], series_edges=edges,
    )
    assert res.outcome_cycles == want_cycles
    np.testing.assert_array_equal(res.series, want_series)


@pytest.mark.parametrize("seed", [0, 3])
def test_batch_matches_singles(seed):
    configs = [
        AvfConfig(mode=m, scheme=SCHEMES[s])
        for m in (FaultMode.linear(2), FaultMode.rect(2, 2))
        for s in ("parity", "secded")
    ]
    for due in (False, True):
        rng = np.random.default_rng(seed)
        array = _ruled(build_cache_array(
            4, 2, 16, domain_bytes=4,
            style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
        ), due)
        lts_batch = _random_lifetimes(rng, array.n_bytes)
        batch = compute_mb_avf_batch(array, lts_batch, configs)
        # Fresh lifetimes (and a fresh array memo) for the single-call runs
        # so the comparison does not share state with the batch.
        rng = np.random.default_rng(seed)
        array2 = _ruled(build_cache_array(
            4, 2, 16, domain_bytes=4,
            style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
        ), due)
        lts_single = _random_lifetimes(rng, array2.n_bytes)
        for cfg, got in zip(configs, batch):
            want = compute_mb_avf(array2, lts_single, cfg.mode, cfg.scheme)
            assert got.outcome_cycles == want.outcome_cycles
            assert got.n_groups == want.n_groups
            assert got.due_avf == want.due_avf
            assert got.sdc_avf == want.sdc_avf


def test_batch_reuses_caches(monkeypatch):
    from repro import obs

    rng = np.random.default_rng(7)
    array = build_cache_array(4, 2, 16, domain_bytes=4, name="t")
    lts = _random_lifetimes(rng, array.n_bytes)
    configs = [
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["parity"]),
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["secded"]),
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["parity"]),
    ]
    obs.enable()
    try:
        obs.get_metrics().reset()
        compute_mb_avf_batch(array, lts, configs)
        snap = obs.get_metrics().snapshot()
        # config 3 re-enumerates nothing and re-classifies nothing: the
        # memoized enumeration and the config-result cache both hit.
        assert snap["counters"]["avf.batch_cache_hits"] > 0
        assert snap["counters"]["avf.computations"] == 3
    finally:
        obs.disable()


def test_row_table_reuse_is_not_a_cache_hit():
    from repro import obs
    from repro.core.avf import _RowTable

    rng = np.random.default_rng(7)
    array = build_cache_array(4, 2, 16, domain_bytes=4, name="t")
    lts = _random_lifetimes(rng, array.n_bytes)
    configs = [
        AvfConfig(mode=FaultMode.linear(m), scheme=SCHEMES["parity"])
        for m in (1, 2, 3)
    ]
    obs.enable()
    try:
        obs.get_metrics().reset()
        compute_mb_avf_batch(array, lts, configs)
        counters = obs.get_metrics().snapshot()["counters"]
        # three fresh modes share one row table, which counts as no hit
        assert counters.get("avf.batch_cache_hits", 0) == 0
    finally:
        obs.disable()
    tables = [t for t in array._sig_memo.values() if isinstance(t, _RowTable)]
    assert len(tables) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ace_locality_matches_reference(seed):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    got = ace_locality(array, lts)
    rng = np.random.default_rng(seed)
    lts2 = _random_lifetimes(rng, array.n_bytes)
    want = ref.ace_locality_ref(array, lts2)
    assert got == want


# -- grouped classify + integrate vs the per-signature reference --------------

GROUPED_MODES = [
    FaultMode.linear(1),
    FaultMode.linear(2),
    FaultMode.linear(3),
    FaultMode.linear(8),
    FaultMode.rect(2, 2),
    FaultMode.rect(4, 4),
]

#: no series; edges that start before and end after the [0, 120) window;
#: one bucket over exactly the window; uneven buckets inside it; one
#: bucket wholly before it
SERIES_EDGES = [
    None, (-20, 30, 60, 150), (0, 120), (10, 11, 50, 119), (-100, -50),
]


def _assert_same_results(got, want, configs):
    assert len(got) == len(want) == len(configs)
    for cfg, g, w in zip(configs, got, want):
        assert g.outcome_cycles == w.outcome_cycles, cfg
        assert g.n_groups == w.n_groups, cfg
        if w.series is None:
            assert g.series is None, cfg
        else:
            np.testing.assert_array_equal(g.series, w.series, err_msg=str(cfg))
            np.testing.assert_array_equal(g.series_edges, w.series_edges)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "style", [Interleaving.NONE, Interleaving.WAY_PHYSICAL], ids=["none", "way"]
)
def test_grouped_batch_matches_reference(seed, style):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4, style=style,
        factor=1 if style is Interleaving.NONE else 2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    grid = list(itertools.product(
        GROUPED_MODES, SCHEMES.values(), (False, True), (False, True)
    ))
    # the edge variants take turns; five of them against the four
    # (due, corrupts) pairs, so every pair meets every variant
    for due in (False, True):
        ruled = _ruled(array, due)
        configs = [
            AvfConfig(
                mode=mode, scheme=scheme, miscorrect_corrupts=corrupts,
                series_edges=SERIES_EDGES[i % len(SERIES_EDGES)],
            )
            for i, (mode, scheme, d, corrupts) in enumerate(grid)
            if d is due
        ]
        got = compute_mb_avf_batch(ruled, lts, configs)
        want = ref.compute_mb_avf_batch_ref(ruled, lts, configs)
        _assert_same_results(got, want, configs)
        # a second pass answers every config from the result cache
        _assert_same_results(
            compute_mb_avf_batch(ruled, lts, configs), want, configs
        )


@pytest.mark.parametrize("window", [(0, 120), (50, 50)], ids=["window", "none"])
def test_grouped_batch_all_empty_lifetimes(window):
    array = build_cache_array(4, 2, 16, domain_bytes=4, name="t")
    lts = lifetimes_of("t", [IntervalSet()] * array.n_bytes, *window)
    configs = [
        AvfConfig(
            mode=mode, scheme=SCHEMES["parity"], series_edges=(0, 60, 120),
        )
        for mode in GROUPED_MODES
    ]
    for ruled in (array, _ruled(array, True)):
        got = compute_mb_avf_batch(ruled, lts, configs)
        _assert_same_results(
            got, ref.compute_mb_avf_batch_ref(ruled, lts, configs), configs
        )
        for res in got:
            assert set(res.outcome_cycles.values()) == {0.0}
            assert not res.series.any()
            assert res.total_avf == 0.0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", GROUPED_MODES, ids=[m.name for m in GROUPED_MODES])
def test_unique_signatures_count_region_multisets(seed, mode):
    """``avf.unique_signatures`` counts distinct multisets of regions.

    Each region is (faulty bits, member lifetime ids); the multisets are
    keyed here by a total order on sorted id tuples.
    """
    from repro import obs

    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    canon = _canonical_iset_ids(lts)
    keys, weights, _ = _enumerate_signatures(array, canon.byte2iid, mode)
    multisets = {
        tuple(sorted((n, tuple(sorted(ids))) for n, ids in sig))
        for sig in ref.sigs_from_keys(keys, weights, mode.n_bits)
    }
    registry, _ = obs.enable()
    try:
        compute_mb_avf(array, lts, mode, SCHEMES["parity"])
        counters = registry.snapshot()["counters"]
    finally:
        obs.disable()
    assert counters["avf.unique_signatures"] == len(multisets)


#: every L1 interleaving and every register-file interleaving the studies use
L1_LAYOUTS = [
    (Interleaving.NONE, 1),
    (Interleaving.LOGICAL, 2),
    (Interleaving.WAY_PHYSICAL, 2),
    (Interleaving.INDEX_PHYSICAL, 2),
    (Interleaving.WAY_PHYSICAL, 4),
]
VGPR_LAYOUTS = [
    (style, factor)
    for style in (Interleaving.INTRA_THREAD, Interleaving.INTER_THREAD)
    for factor in (1, 2, 4)
]


@pytest.mark.parametrize("workload", ["vectoradd", "transpose"])
def test_real_workload_grid_matches_reference(workload):
    from repro.experiments import build_study

    study = build_study(workload, n_cus=1)
    edges = tuple(np.linspace(0, study.end_cycle, 9).astype(int).tolist())
    configs = [
        AvfConfig(
            mode=mode, scheme=SCHEMES[scheme],
            series_edges=edges if mode.n_bits == 2 else None,
        )
        for mode in (
            FaultMode.linear(1), FaultMode.linear(2), FaultMode.linear(3),
            FaultMode.linear(8), FaultMode.rect(2, 2),
        )
        for scheme in ("parity", "secded", "dected")
    ]
    cases = [
        study._structure(structure, style, factor)
        for structure, layouts in (("l1", L1_LAYOUTS), ("vgpr", VGPR_LAYOUTS))
        for style, factor in layouts
    ]
    for array, lts in cases:
        got = compute_mb_avf_batch(array, lts, configs)
        want = ref.compute_mb_avf_batch_ref(array, lts, configs)
        _assert_same_results(got, want, configs)
