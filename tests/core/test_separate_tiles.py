"""Separate tiles: one layout over physically separate arrays of one design.

Every CU's L1 is its own SRAM array, so no fault group spans two CUs.
The study lays the L1s (data and tags) out as one tiled array with
``separate_tiles`` over one stacked lifetime table.  Its group count,
keys, ACE locality and outcome cycles must be those of its tiles taken
one at a time.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import _reference as ref
from repro.core.analysis import _stack
from repro.core.avf import (
    AvfConfig,
    _canonical_iset_ids,
    _enumerate_signatures,
    ace_locality,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import FaultMode
from repro.core.intervals import AceClass, IntervalSet
from repro.core.layout import CACHE_STYLES, Interleaving, build_cache_array
from repro.core.protection import Parity
from repro.experiments import build_study
from repro.workloads import names

from .tables import lifetimes_of, one_tile_calls


def _tiles():
    """A 2-set, 2-way, 8-byte-line cache (4 rows of 64 bits), and two
    tiles' tables in which every byte holds a lifetime of its own."""
    tile = build_cache_array(2, 2, 8, name="t")
    n = tile.tile_bytes
    ace, dead = int(AceClass.ACE), int(AceClass.READ_DEAD)
    parts = [
        lifetimes_of("t", [
            IntervalSet([(b, b + 2 + b % 7, ace if b % 3 else dead)])
            for b in range(k * n, (k + 1) * n)
        ], 0, 200)
        for k in range(2)
    ]
    return tile, parts


def _two_tiles(tile, separate):
    return dataclasses.replace(tile, tiles=2, separate_tiles=separate)


def _dense(tile, k):
    """Tile ``k`` of a tiled ``tile`` as an array of its own."""
    return dataclasses.replace(
        tile,
        byte_of=tile.byte_of + np.int32(k * tile.tile_bytes),
        domain_of=tile.domain_of + np.int32(k * tile.tile_domains),
    )


@pytest.mark.parametrize(
    "mode", [FaultMode.rect(2, 1), FaultMode.rect(2, 2)], ids=["2x1", "2x2"]
)
def test_no_group_spans_two_separate_tiles(mode):
    tile, parts = _tiles()
    lts = _stack("t", parts, 200)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    separate, joined = _two_tiles(tile, True), _two_tiles(tile, False)
    h, w = mode.height, mode.width
    assert separate.n_groups(h, w) == 2 * (4 - h + 1) * (64 - w + 1)
    assert joined.n_groups(h, w) == (8 - h + 1) * (64 - w + 1)
    got = _enumerate_signatures(separate, byte2iid, mode)
    whole = _enumerate_signatures(joined, byte2iid, mode)
    # every byte is live, so every group has a key
    assert got[1].sum() == separate.n_groups(h, w)
    assert whole[1].sum() == joined.n_groups(h, w)
    # the groups across the boundary hold keys no tile has on its own
    assert len(whole[0]) > len(got[0])
    sigs = ref.sigs_from_keys(got[0], got[1], mode.n_bits)
    per_tile = {}
    for k in range(2):
        for sig, n in ref.enumerate_signatures_ref(
            _dense(tile, k), byte2iid, mode
        ).items():
            per_tile[sig] = per_tile.get(sig, 0) + n
    assert sigs == per_tile
    windowed = ref.enumerate_signatures_windowed_ref(separate, byte2iid, mode)
    assert list(sigs.items()) == list(windowed.items())
    want = ref.enumerate_signatures_banded_ref(separate, byte2iid, mode)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_mode_taller_than_a_separate_tile_has_no_groups():
    tile, parts = _tiles()
    lts = _stack("t", parts, 200)
    byte2iid = _canonical_iset_ids(lts).byte2iid
    separate = _two_tiles(tile, True)
    mode = FaultMode.rect(5, 1)
    assert separate.n_groups(5, 1) == 0
    assert _two_tiles(tile, False).n_groups(5, 1) == 4 * 64
    keys, weights, n_bands = _enumerate_signatures(separate, byte2iid, mode)
    assert keys.shape == (0, 10) and len(weights) == 0 and n_bands == 0
    assert ref.enumerate_signatures_ref(separate, byte2iid, mode) == {}
    assert ref.enumerate_signatures_windowed_ref(
        separate, byte2iid, mode
    ) == {}
    assert len(ref.enumerate_signatures_banded_ref(
        separate, byte2iid, mode
    )[0]) == 0
    (res,) = compute_mb_avf_batch(separate, lts, [AvfConfig(mode, Parity())])
    assert res.n_groups == 0
    assert not any(res.outcome_cycles.values())
    assert res.total_avf == 0.0


def test_ace_locality_of_separate_tiles_is_their_mean():
    tile, parts = _tiles()
    lts = _stack("t", parts, 200)
    each = [ace_locality(tile, lt) for lt in parts]
    assert each[0] != each[1]
    got = ace_locality(_two_tiles(tile, True), lts)
    assert got == float(np.mean(each))
    assert got == ref.ace_locality_ref(_two_tiles(tile, True), lts)
    pooled = ace_locality(_two_tiles(tile, False), lts)
    assert pooled == ref.ace_locality_ref(_two_tiles(tile, False), lts)


#: the uninterleaved L1 (every style's x1 layout is the same array), every
#: interleaved style at x2 and x4, and the tag array at x1, x2 and x4
L1_LAYOUTS = (
    [("l1", Interleaving.NONE, 1)]
    + [("l1", style, f) for style in CACHE_STYLES[1:] for f in (2, 4)]
    + [("l1.tags", None, f) for f in (1, 2, 4)]
)
L1_MODES = [FaultMode.linear(m) for m in range(1, 9)] + [
    FaultMode.rect(2, 1), FaultMode.rect(2, 2), FaultMode.rect(3, 3)
]


@pytest.mark.parametrize("name", names())
def test_tiled_l1_is_the_sum_of_its_cus(name):
    """On every workload, the one tiled call per L1 layout gives each
    CU's own call summed: integer outcome cycles and group counts."""
    study = build_study(name)
    configs = [AvfConfig(mode, Parity()) for mode in L1_MODES]
    for structure, style, factor in L1_LAYOUTS:
        got = study.avf_batch(structure, configs, style=style, factor=factor)
        per_cu = [
            compute_mb_avf_batch(layout, lt, configs)
            for layout, lt in one_tile_calls(study, structure, style, factor)
        ]
        assert len(per_cu) == len(study.apu.memsys.l1s) == 4
        for res, parts in zip(got, zip(*per_cu)):
            label = (structure, factor, res.mode.name)
            assert res.n_groups == sum(p.n_groups for p in parts), label
            for outcome, cycles in res.outcome_cycles.items():
                assert cycles.is_integer(), label
                assert cycles == sum(
                    p.outcome_cycles[outcome] for p in parts
                ), label
