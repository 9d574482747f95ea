"""Band-deduplicated enumeration vs the enumeration references.

The production enumerator ranks one representative per distinct row band
and weights its groups by how often the band occurs.  Its keys, decoded
with the reference decoder, must give the same signature dict, in the same
insertion order, as the whole-array windowed enumerator, and the same
multiset as the per-placement reference; its raw keys, weights and band
count must equal the per-mode band enumerator's whatever order modes come
in.  Random lifetimes rarely repeat a row, so the arrays here are
stacked the way :meth:`AvfStudy._structure` lays out wavefronts: one
block's layout and lifetimes repeated several times, byte and domain ids
offset per block.  A tiled array (one tile plus a tile count) must give
exactly what its densely stacked copy gives.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core import _reference as ref
from repro.core import avf
from repro.core.analysis import _stack
from repro.core.avf import (
    AvfConfig,
    _canonical_iset_ids,
    _enumerate_signatures,
    ace_locality,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import MX1_MODES, FaultMode
from repro.core.intervals import IntervalSet
from repro.core.layout import (
    Interleaving,
    SramArray,
    build_cache_array,
    build_regfile_array,
    build_tag_array,
)
from repro.core.protection import SCHEMES

from .tables import lifetimes_of

MODES = [
    FaultMode.linear(1),
    FaultMode.linear(4),
    FaultMode.linear(8),
    FaultMode.rect(2, 1),
    FaultMode.rect(2, 2),
    FaultMode.rect(3, 3),
    FaultMode.rect(4, 4),
    # non-contiguous: a knight's-move pair plus a far bit on the first row
    FaultMode("knight", ((0, 0), (1, 2), (0, 5))),
]

LAYOUTS = {
    **{
        f"regfile-{style.value}x{factor}": build_regfile_array(
            8, 4, style=style, factor=factor, name="t"
        )
        for style in (Interleaving.INTRA_THREAD, Interleaving.INTER_THREAD)
        for factor in (1, 2, 4)
    },
    **{
        f"cache-{style.value}": build_cache_array(
            4, 2, 16, domain_bytes=4, style=style,
            factor=1 if style is Interleaving.NONE else 2, name="t",
        )
        for style in (
            Interleaving.NONE,
            Interleaving.LOGICAL,
            Interleaving.WAY_PHYSICAL,
            Interleaving.INDEX_PHYSICAL,
        )
    },
    "tags-x2": build_tag_array(4, 4, factor=2, name="t"),
}


def _block_lifetimes(rng, n_bytes, end_cycle=120):
    """One block's per-byte lifetimes, drawn from a small pool."""
    pool = [IntervalSet()]
    for _ in range(3):
        ivals = []
        t = int(rng.integers(0, 20))
        while t < end_cycle - 30:
            d = int(rng.integers(1, 20))
            ivals.append((t, t + d, int(rng.integers(1, 4))))
            t += d + int(rng.integers(1, 15))
        pool.append(IntervalSet(ivals))
    return [pool[int(rng.integers(0, len(pool)))] for _ in range(n_bytes)]


def _stacked(base, rng, n_blocks=5):
    """``n_blocks`` copies of ``base`` stacked, ids offset per block.

    Every block but one reuses the first block's lifetimes, so whole bands
    repeat; the odd block adds bands that occur once.
    """
    first = _block_lifetimes(rng, base.n_bytes)
    odd = _block_lifetimes(rng, base.n_bytes)
    isets = []
    for k in range(n_blocks):
        isets.extend(odd if k == 2 else first)
    array = SramArray(
        "t",
        np.vstack([base.byte_of + np.int32(k * base.n_bytes)
                   for k in range(n_blocks)]),
        np.vstack([base.domain_of + np.int32(k * base.n_domains)
                   for k in range(n_blocks)]),
        base.domain_bytes, base.interleave_factor, base.style,
    )
    return array, lifetimes_of("t", isets, 0, 120)


def _dense_copy(tiled):
    """``tiled`` stacked into one tile, ids offset per block by hand."""
    n_bytes, n_domains = tiled.tile_bytes, tiled.tile_domains
    return SramArray(
        tiled.name,
        np.vstack([tiled.byte_of + np.int32(k * n_bytes)
                   for k in range(tiled.tiles)]),
        np.vstack([tiled.domain_of + np.int32(k * n_domains)
                   for k in range(tiled.tiles)]),
        tiled.domain_bytes, tiled.interleave_factor, tiled.style,
    )


def _tiled(base, rng, n_blocks=6):
    """``n_blocks`` tiles of ``base`` and their lifetimes.

    Blocks repeat the first block's lifetimes, except block 2, which has
    its own, and block 4, whose bytes are all lifetime-empty.
    """
    first = _block_lifetimes(rng, base.n_bytes)
    odd = _block_lifetimes(rng, base.n_bytes)
    empty = [IntervalSet()] * base.n_bytes
    isets = []
    for k in range(n_blocks):
        isets.extend(odd if k == 2 else empty if k == 4 else first)
    return (
        dataclasses.replace(base, tiles=n_blocks),
        lifetimes_of("t", isets, 0, 120),
    )


def _signatures(array, byte2iid, mode):
    """The production enumeration, decoded into reference signatures."""
    keys, weights, n_bands = _enumerate_signatures(array, byte2iid, mode)
    return ref.sigs_from_keys(keys, weights, mode.n_bits), n_bands


def _nonempty(sigs):
    """The per-placement reference also counts all-empty placements."""
    return {sig: n for sig, n in sigs.items() if any(ids for _, ids in sig)}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_stacked_arrays_match_both_references(layout, seed):
    rng = np.random.default_rng(seed)
    array, lts = _stacked(LAYOUTS[layout], rng)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    for mode in MODES:
        got, n_bands = _signatures(array, byte2iid, mode)
        windowed = ref.enumerate_signatures_windowed_ref(array, byte2iid, mode)
        assert got == windowed, mode.name
        assert list(got) == list(windowed), mode.name
        want = ref.enumerate_signatures_ref(array, byte2iid, mode)
        assert got == _nonempty(want), mode.name
        if mode.height <= array.rows:
            # stacking repeats bands, so fewer are windowed than exist
            assert 0 < n_bands < array.rows - mode.height + 1, mode.name


#: the orders in which the prefix-rank test feeds modes through one memo:
#: each Mx1 mode extends the one before; none does; and rect modes in
#: between (a 2-row column before the 2x2 block it is no prefix of, and a
#: repeated mode, which the memo answers)
ORDERS = {
    "ascending": list(MX1_MODES),
    "descending": list(MX1_MODES[::-1]),
    "interleaved": [
        FaultMode.linear(2), FaultMode.rect(2, 1), FaultMode.rect(2, 2),
        FaultMode.linear(3), FaultMode.rect(3, 2), FaultMode.linear(8),
        FaultMode.linear(1), FaultMode.rect(2, 1), FaultMode.linear(5),
        FaultMode.linear(4), FaultMode.linear(7), FaultMode.linear(6),
    ],
}


@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_shared_row_table_matches_banded_reference(layout, seed, order,
                                                   monkeypatch):
    """Prefix ranks over one shared row table vs the per-mode band pass.

    Modes go through one ``_signatures_for`` memo in the given order, so
    each enumeration starts from whatever rank grid and band tables the
    modes before it left; every one must equal the reference exactly.
    """
    rng = np.random.default_rng(seed)
    array, lts = _stacked(LAYOUTS[layout], rng)
    canon = _canonical_iset_ids(lts)
    seen = []

    def record(array, byte2iid, mode, table=None):
        assert table is not None
        out = _enumerate_signatures(array, byte2iid, mode, table)
        seen.append((mode, table, out))
        return out

    monkeypatch.setattr(avf, "_enumerate_signatures", record)
    for mode in ORDERS[order]:
        avf._signatures_for(array, canon, mode, lts)
    assert all(table is seen[0][1] for _, table, _ in seen)
    distinct = list(dict.fromkeys(ORDERS[order]))
    assert [mode for mode, _, _ in seen] == distinct
    for mode, _, (keys, weights, n_bands) in seen:
        want_keys, want_weights, want_bands = (
            ref.enumerate_signatures_banded_ref(array, canon.byte2iid, mode)
        )
        assert keys.dtype == want_keys.dtype and weights.dtype == np.int64
        assert np.array_equal(keys, want_keys), mode.name
        assert np.array_equal(weights, want_weights), mode.name
        assert n_bands == want_bands, mode.name


@pytest.mark.parametrize("layout", ["regfile-inter_threadx2", "tags-x2"])
def test_dense_token_path_matches_banded_reference(layout, monkeypatch):
    """Past the packing limit, tokens are densely ranked before packing."""
    monkeypatch.setattr(avf, "_PACK_LIMIT", 0)
    array, lts = _stacked(LAYOUTS[layout], np.random.default_rng(2))
    byte2iid = _canonical_iset_ids(lts).byte2iid
    table = avf._RowTable(array, byte2iid)
    for mode in ORDERS["interleaved"]:
        got = _enumerate_signatures(array, byte2iid, mode, table)
        want = ref.enumerate_signatures_banded_ref(array, byte2iid, mode)
        assert np.array_equal(got[0], want[0]), mode.name
        assert np.array_equal(got[1], want[1]), mode.name
        assert got[2] == want[2], mode.name


def test_band_key_keeps_cross_row_domain_stride():
    """Equal rows whose first domains step by different strides.

    Every row holds the same lifetimes and the same domain pattern, so all
    rows share one row id.  Rows 0 and 1 start at the same domain (a
    vertical group there has one region), the later rows at different
    ones (two regions): without the base deltas in the band key, every
    band would count as the first one.
    """
    cols = 16
    pattern = np.repeat(np.arange(cols // 8, dtype=np.int32), 8)
    first = np.array([0, 0, 10, 20, 30, 30], dtype=np.int32)
    domain_of = pattern[None, :] + first[:, None]
    byte_of = domain_of * 4 + (np.arange(cols, dtype=np.int32) % 8 // 2)
    isets = {}
    for b in np.unique(byte_of).tolist():
        isets[b] = IntervalSet([(b % 4 * 10, b % 4 * 10 + 5, 2)])
    n_bytes = int(byte_of.max()) + 1
    lts = lifetimes_of(
        "t", [isets.get(b, IntervalSet()) for b in range(n_bytes)], 0, 120
    )
    array = SramArray("t", byte_of, domain_of, 4, 1, Interleaving.NONE)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    for mode in (FaultMode.rect(2, 1), FaultMode.rect(2, 2), MODES[-1]):
        got, n_bands = _signatures(array, byte2iid, mode)
        assert got == ref.enumerate_signatures_windowed_ref(
            array, byte2iid, mode
        ), mode.name
        assert got == _nonempty(
            ref.enumerate_signatures_ref(array, byte2iid, mode)
        ), mode.name
        assert n_bands == 2, mode.name


def test_enumerate_span_records_rows_and_bands():
    from repro import obs
    from repro.core.avf import compute_mb_avf
    from repro.core.protection import SCHEMES

    array, lts = _stacked(
        LAYOUTS["regfile-intra_threadx2"], np.random.default_rng(0)
    )
    mode = FaultMode.rect(2, 2)
    _, tracer = obs.enable()
    try:
        compute_mb_avf(array, lts, mode, SCHEMES["parity"])
    finally:
        obs.disable()
    (span,) = [e for e in tracer.events if e.name == "enumerate"]
    sigs, n_bands = _signatures(
        array, _canonical_iset_ids(lts).byte2iid, mode
    )
    multisets = {
        tuple(sorted((n, tuple(sorted(ids))) for n, ids in sig)) for sig in sigs
    }
    assert span.args == {
        "structure": "t", "mode": mode.name, "rows": array.rows,
        "bands": n_bands, "signatures": len(multisets),
    }


#: the ``pipeline-*`` benchmark grid: Sec. VIII palette VGPR layouts, four
#: L1 layouts and the L2, each over the Table III modes plus a 2x2 block
GRID = (
    [("vgpr", Interleaving.INTRA_THREAD, f) for f in (2, 4)]
    + [("vgpr", Interleaving.INTER_THREAD, f) for f in (2, 4)]
    + [
        ("l1", Interleaving.NONE, 1),
        ("l1", Interleaving.LOGICAL, 2),
        ("l1", Interleaving.WAY_PHYSICAL, 2),
        ("l1", Interleaving.INDEX_PHYSICAL, 2),
        ("l2", Interleaving.NONE, 1),
    ]
)


def test_real_workload_grid_matches_windowed_reference():
    from repro.experiments import build_study

    study = build_study("matmul", n_cus=1)
    for structure, style, factor in GRID:
        array, lts = study._structure(structure, style, factor)
        for lt in lts:
            byte2iid = _canonical_iset_ids(lt).byte2iid
            for mode in list(MX1_MODES) + [FaultMode.rect(2, 2)]:
                got, _ = _signatures(array, byte2iid, mode)
                want = ref.enumerate_signatures_windowed_ref(
                    array, byte2iid, mode
                )
                label = (structure, style.value, factor, mode.name)
                assert got == want, label
                assert list(got) == list(want), label


#: Mx1 modes stay within a row; 2x2 and 3x2 bands cross tile boundaries
TILED_MODES = list(MX1_MODES) + [FaultMode.rect(2, 2), FaultMode.rect(3, 2)]


def _outcomes(result):
    series = None if result.series is None else result.series.tolist()
    return (
        result.n_groups, result.window_cycles, result.outcome_cycles, series
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_tiled_array_matches_its_stacked_copy(layout, seed):
    tiled, lts = _tiled(LAYOUTS[layout], np.random.default_rng(seed))
    stacked = _dense_copy(tiled)
    geometry = ("rows", "cols", "n_bits", "n_bytes", "n_domains")
    assert [getattr(tiled, g) for g in geometry] == [
        getattr(stacked, g) for g in geometry
    ]
    byte_of, domain_of = tiled.take_rows(np.arange(tiled.rows))
    assert byte_of.dtype == domain_of.dtype == np.int32
    assert np.array_equal(byte_of, stacked.byte_of)
    assert np.array_equal(domain_of, stacked.domain_of)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    for mode in TILED_MODES:
        got = _enumerate_signatures(tiled, byte2iid, mode)
        want = _enumerate_signatures(stacked, byte2iid, mode)
        assert got[0].dtype == want[0].dtype, mode.name
        assert np.array_equal(got[0], want[0]), mode.name
        assert np.array_equal(got[1], want[1]), mode.name
        assert got[2] == want[2], mode.name
    edges = (0, 30, 60, 90, 120)
    configs = [
        AvfConfig(mode, SCHEMES[name], series_edges=edges)
        for mode in TILED_MODES for name in ("parity", "secded")
    ]
    for got, want in zip(
        compute_mb_avf_batch(tiled, [lts], configs),
        compute_mb_avf_batch(stacked, [lts], configs),
    ):
        assert _outcomes(got) == _outcomes(want), got.mode.name
    locality = ace_locality(tiled, lts)
    assert locality == ace_locality(stacked, lts)
    assert locality == ref.ace_locality_ref(tiled, lts)


def test_row_table_of_many_tiles_allocates_less_than_its_dense_maps():
    """The row table reads rows through the tile: building it (and two
    band heights) for 2,000 tiles allocates less than one dense copy of
    the array's two maps would take."""
    tile = build_regfile_array(
        16, 8, style=Interleaving.INTRA_THREAD, factor=2, name="t"
    )
    rng = np.random.default_rng(0)
    blocks = [
        lifetimes_of("t", _block_lifetimes(rng, tile.n_bytes), 0, 120)
        for _ in range(3)
    ]
    n_tiles = 2000
    array = dataclasses.replace(tile, tiles=n_tiles)
    lts = _stack("t", [blocks[k % 3] for k in range(n_tiles)], 120)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    tracemalloc.start()
    try:
        table = avf._RowTable(array, byte2iid)
        table.band(1)
        table.band(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = 2 * array.n_bits * tile.byte_of.itemsize
    assert peak < dense, (peak, dense)


def test_rows_equal_across_byte_groupings_share_an_id():
    """Two tile-row shapes with one domain pattern: the odd rows group
    their columns into bytes alternately, the even rows in halves.  Rows
    equal bit for bit still share a row id, so bands and keys match the
    reference built on dense rows."""
    rows, cols = np.arange(6)[:, None], np.arange(16)
    domain_of = np.repeat(rows, 16, axis=1).astype(np.int32)
    byte_of = (2 * rows + np.where(rows % 2, cols % 2, cols // 8)).astype(
        np.int32
    )
    live = IntervalSet([(5, 20, 2)])
    isets = [IntervalSet()] * 12
    for b in (4, 5, 6, 7, 8, 10):
        isets[b] = live
    lts = lifetimes_of("t", isets, 0, 120)
    array = SramArray("t", byte_of, domain_of, 2, 1, Interleaving.NONE)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    table = avf._RowTable(array, byte2iid)
    # rows 0/1 are all empty and rows 2/3 all live; rows 4 and 5 differ
    row_id = table.row_id.tolist()
    assert row_id[0] == row_id[1] and row_id[2] == row_id[3]
    assert len(set(row_id)) == 4
    for mode in (FaultMode.linear(2), FaultMode.rect(2, 1),
                 FaultMode.rect(2, 2)):
        keys, weights, n_bands = _enumerate_signatures(
            array, byte2iid, mode, table
        )
        want = ref.enumerate_signatures_banded_ref(array, byte2iid, mode)
        assert np.array_equal(keys, want[0]), mode.name
        assert np.array_equal(weights, want[1]), mode.name
        assert n_bands == want[2], mode.name
