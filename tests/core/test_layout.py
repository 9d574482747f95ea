"""Unit tests for physical layouts and interleaving styles."""

import numpy as np
import pytest

from repro.arch.cache import L1_CONFIG, L2_CONFIG
from repro.core import _reference as ref
from repro.core import layout
from repro.core.layout import (
    CACHE_STYLES,
    REGFILE_STYLES,
    Interleaving,
    build_cache_array,
    build_regfile_array,
    build_tag_array,
    cache_byte_index,
    regfile_byte_index,
)
from repro.experiments import SCALED_L1, SCALED_L2


class TestIndexHelpers:
    def test_cache_byte_index(self):
        assert cache_byte_index(0, 0, 0, n_ways=4, line_bytes=64) == 0
        assert cache_byte_index(0, 1, 0, n_ways=4, line_bytes=64) == 64
        assert cache_byte_index(1, 0, 5, n_ways=4, line_bytes=64) == 4 * 64 + 5

    def test_regfile_byte_index(self):
        assert regfile_byte_index(0, 0, 0, n_regs=8) == 0
        assert regfile_byte_index(0, 1, 0, n_regs=8) == 4
        assert regfile_byte_index(1, 0, 2, n_regs=8) == 8 * 4 + 2

    def test_byte_indices_broadcast(self):
        thread, reg, byte = np.ix_(range(3), range(8), range(4))
        ids = regfile_byte_index(thread, reg, byte, n_regs=8)
        assert ids.shape == (3, 8, 4)
        assert ids.ravel().tolist() == list(range(3 * 8 * 4))
        way, off = np.ix_(range(4), range(64))
        lines = cache_byte_index(2, way, off, n_ways=4, line_bytes=64)
        assert lines.ravel().tolist() == list(range(8 * 64, 12 * 64))


class TestCacheLayoutInvariants:
    @pytest.mark.parametrize(
        "style,factor",
        [
            (Interleaving.NONE, 1),
            (Interleaving.LOGICAL, 2),
            (Interleaving.LOGICAL, 4),
            (Interleaving.WAY_PHYSICAL, 2),
            (Interleaving.WAY_PHYSICAL, 4),
            (Interleaving.INDEX_PHYSICAL, 2),
            (Interleaving.INDEX_PHYSICAL, 4),
        ],
    )
    def test_complete_and_consistent(self, style, factor):
        n_sets, n_ways, line_bytes, domain_bytes = 8, 4, 64, 4
        arr = build_cache_array(
            n_sets, n_ways, line_bytes,
            domain_bytes=domain_bytes, style=style, factor=factor,
        )
        total_bits = n_sets * n_ways * line_bytes * 8
        assert arr.n_bits == total_bits
        # Every byte appears exactly 8 times (once per bit).
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert len(counts) == n_sets * n_ways * line_bytes
        # Every domain appears exactly domain_bits times.
        dcounts = np.bincount(arr.domain_of.ravel())
        assert (dcounts == domain_bytes * 8).all()
        # Domain/byte maps agree with the domain-covers-consecutive-bytes rule.
        assert (arr.byte_of.ravel() // domain_bytes == arr.domain_of.ravel()).all()

    def test_no_interleave_adjacent_bits_same_domain(self):
        arr = build_cache_array(4, 2, 64, style=Interleaving.NONE)
        # Without interleaving, bits 0..31 of a row share a domain.
        assert len(set(arr.domain_of[0, :32].tolist())) == 1

    def test_x2_alternates_domains(self):
        arr = build_cache_array(
            4, 2, 64, style=Interleaving.LOGICAL, factor=2
        )
        row = arr.domain_of[0]
        # Adjacent bits belong to different domains within a cluster.
        assert row[0] != row[1]
        assert row[0] == row[2]

    def test_logical_keeps_bits_in_same_line(self):
        n_sets, n_ways, line_bytes = 4, 2, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.LOGICAL, factor=2
        )
        lines = arr.byte_of // line_bytes
        for r in range(arr.rows):
            assert len(set(lines[r].tolist())) == 1

    def test_way_physical_mixes_ways_not_sets(self):
        n_sets, n_ways, line_bytes = 4, 4, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.WAY_PHYSICAL, factor=2
        )
        line_of = arr.byte_of // line_bytes
        set_of = line_of // n_ways
        way_of = line_of % n_ways
        # Adjacent bits: same set, different way.
        assert (set_of[:, :-1] == set_of[:, 1:]).all()
        assert (way_of[0, 0] != way_of[0, 1])

    def test_index_physical_mixes_sets_not_ways(self):
        n_sets, n_ways, line_bytes = 4, 4, 64
        arr = build_cache_array(
            n_sets, n_ways, line_bytes, style=Interleaving.INDEX_PHYSICAL, factor=2
        )
        line_of = arr.byte_of // line_bytes
        set_of = line_of // n_ways
        way_of = line_of % n_ways
        assert (way_of[:, :-1] == way_of[:, 1:]).all()
        assert set_of[0, 0] != set_of[0, 1]
        # Indices in a cluster are adjacent.
        assert abs(int(set_of[0, 0]) - int(set_of[0, 1])) == 1

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, style=Interleaving.WAY_PHYSICAL, factor=3)
        with pytest.raises(ValueError):
            build_cache_array(3, 2, 64, style=Interleaving.INDEX_PHYSICAL, factor=2)
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, factor=0)

    def test_line_not_multiple_of_domain(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 62, domain_bytes=4)

    def test_regfile_style_rejected_for_cache(self):
        with pytest.raises(ValueError):
            build_cache_array(4, 2, 64, style=Interleaving.INTER_THREAD, factor=2)


class TestRegfileLayout:
    @pytest.mark.parametrize(
        "style,factor",
        [
            (Interleaving.NONE, 1),
            (Interleaving.INTRA_THREAD, 2),
            (Interleaving.INTRA_THREAD, 4),
            (Interleaving.INTER_THREAD, 2),
            (Interleaving.INTER_THREAD, 4),
        ],
    )
    def test_complete(self, style, factor):
        n_threads, n_regs = 16, 8
        arr = build_regfile_array(n_threads, n_regs, style=style, factor=factor)
        assert arr.n_bits == n_threads * n_regs * 32
        counts = np.bincount(arr.byte_of.ravel())
        assert (counts == 8).all()
        assert (arr.byte_of.ravel() // 4 == arr.domain_of.ravel()).all()

    def test_intra_thread_adjacency(self):
        arr = build_regfile_array(
            4, 4, style=Interleaving.INTRA_THREAD, factor=2
        )
        n_regs = 4
        thread_of = arr.domain_of // n_regs
        reg_of = arr.domain_of % n_regs
        # Adjacent bits: same thread, different register.
        assert (thread_of[:, :-1] == thread_of[:, 1:]).all()
        assert reg_of[0, 0] != reg_of[0, 1]

    def test_inter_thread_adjacency(self):
        arr = build_regfile_array(
            4, 4, style=Interleaving.INTER_THREAD, factor=2
        )
        n_regs = 4
        thread_of = arr.domain_of // n_regs
        reg_of = arr.domain_of % n_regs
        # Within a cluster: same register, different thread.  (Cluster
        # boundaries switch register, so only check inside the first cluster.)
        assert reg_of[0, 0] == reg_of[0, 1]
        assert thread_of[0, 0] != thread_of[0, 1]
        # A row only mixes threads from one thread-group.
        factor = 2
        assert len(set((thread_of[0] // factor).tolist())) == 1

    def test_group_count(self):
        arr = build_regfile_array(4, 4, style=Interleaving.INTER_THREAD, factor=2)
        # 2x1 groups per row = cols - 1.
        assert arr.n_groups(1, 2) == arr.rows * (arr.cols - 1)

    def test_cache_style_rejected_for_regfile(self):
        with pytest.raises(ValueError):
            build_regfile_array(4, 4, style=Interleaving.WAY_PHYSICAL, factor=2)

    def test_bad_factors(self):
        with pytest.raises(ValueError):
            build_regfile_array(4, 3, style=Interleaving.INTRA_THREAD, factor=2)
        with pytest.raises(ValueError):
            build_regfile_array(3, 4, style=Interleaving.INTER_THREAD, factor=2)


def _cache_cases():
    """Every cache style at factors 1, 2 and 4 on the scaled caches and
    the paper's L1; one factor per style on the paper's (large) L2."""
    for cfg in (SCALED_L1, SCALED_L2, L1_CONFIG):
        for style in CACHE_STYLES:
            for factor in (1, 2, 4):
                yield cfg, style, factor
    for style in CACHE_STYLES:
        yield L2_CONFIG, style, 4


class TestAssembleMatchesReference:
    """The array-op assembly builds the bit-at-a-time loop's maps."""

    @pytest.fixture
    def built(self, monkeypatch):
        pairs = []
        real = layout._assemble

        def both(*args):
            got = real(*args)
            pairs.append((got, ref.assemble_ref(*args)))
            return got

        monkeypatch.setattr(layout, "_assemble", both)
        return pairs

    @staticmethod
    def _check(pairs):
        ((got, want),) = pairs
        for name in ("byte_of", "domain_of"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int32, name
            assert np.array_equal(a, b), name
        assert (got.name, got.domain_bytes, got.interleave_factor,
                got.style, got.tiles) == (
            want.name, want.domain_bytes, want.interleave_factor,
            want.style, want.tiles,
        )

    @pytest.mark.parametrize("cfg, style, factor", list(_cache_cases()))
    def test_cache(self, cfg, style, factor, built):
        build_cache_array(
            cfg.n_sets, cfg.n_ways, cfg.line_bytes, style=style, factor=factor
        )
        self._check(built)

    @pytest.mark.parametrize("cfg", [SCALED_L1, SCALED_L2, L1_CONFIG, L2_CONFIG])
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_tags(self, cfg, factor, built):
        build_tag_array(cfg.n_sets, cfg.n_ways, factor=factor)
        self._check(built)

    @pytest.mark.parametrize("style", REGFILE_STYLES)
    @pytest.mark.parametrize("factor", [1, 2, 4, 8, 16])
    def test_regfile(self, style, factor, built):
        build_regfile_array(16, 16, style=style, factor=factor)
        self._check(built)


class TestTiles:
    def test_tiles_count_every_tile(self):
        tile = build_regfile_array(16, 8, style=Interleaving.INTER_THREAD,
                                   factor=4)
        arr = layout.SramArray(
            "t", tile.byte_of, tile.domain_of, tile.domain_bytes,
            tile.interleave_factor, tile.style, tiles=3,
        )
        assert arr.rows == 3 * tile.rows and arr.cols == tile.cols
        assert arr.n_bits == 3 * tile.n_bits
        assert arr.n_bytes == 3 * tile.n_bytes
        assert arr.n_domains == 3 * tile.n_domains
        assert arr.n_groups(2, 2) == (arr.rows - 1) * (arr.cols - 1)

    def test_take_rows_offsets_ids_per_tile(self):
        tile = build_regfile_array(4, 4, factor=2)
        arr = layout.SramArray(
            "t", tile.byte_of, tile.domain_of, tile.domain_bytes,
            tile.interleave_factor, tile.style, tiles=3,
        )
        byte_of, domain_of = arr.take_rows(np.arange(arr.rows))
        for k in range(3):
            rows = slice(k * tile.rows, (k + 1) * tile.rows)
            assert np.array_equal(
                byte_of[rows], tile.byte_of + k * tile.n_bytes
            )
            assert np.array_equal(
                domain_of[rows], tile.domain_of + k * tile.n_domains
            )
        # any shape of rows; with columns, single bits
        b, d = arr.take_rows(np.array([[5, 0], [11, 7]]))
        assert b.shape == d.shape == (2, 2, arr.cols)
        assert np.array_equal(b[1, 0], byte_of[11])
        b, d = arr.take_rows(np.array([[9], [2]]), np.array([0, 3, 5]))
        assert np.array_equal(b, byte_of[[[9], [2]], [0, 3, 5]])
        assert np.array_equal(d, domain_of[[[9], [2]], [0, 3, 5]])
        # reading rows leaves the tile as it was
        assert np.array_equal(arr.byte_of, tile.byte_of)

    def test_tiles_must_be_positive(self):
        tile = build_regfile_array(4, 4)
        with pytest.raises(ValueError, match="at least one tile"):
            layout.SramArray(
                "t", tile.byte_of, tile.domain_of, 4, 1, tile.style, tiles=0
            )
