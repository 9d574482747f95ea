"""Integration tests: simulator events -> per-byte ACE lifetimes."""

import tracemalloc

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, imm, s, v
from repro.core import analysis
from repro.core.analysis import AvfStudy
from repro.core.intervals import AceClass
from repro.core.lifetime import analyze_memory, analyze_vgpr
from repro.experiments import build_study

from .tables import lifetimes_of

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)


def _addr_calc(p, base_sreg, out_reg=9):
    p.shl(v(out_reg), v(0), imm(2))
    p.iadd(v(out_reg), v(out_reg), s(base_sreg))
    return v(out_reg)


class TestL1Lifetimes:
    def _study_copy_kernel(self, reload_count=1):
        """in -> out copy; the input line is loaded `reload_count` times."""
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        mem.view_u32("in")[:] = np.arange(16, dtype=np.uint32)
        p = ProgramBuilder()
        a = _addr_calc(p, 2, 8)
        for _ in range(reload_count):
            p.load(v(2), a)
        b = _addr_calc(p, 3, 9)
        p.store(v(2), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [inp, out])])
        return AvfStudy(apu, [mem.buffer("out")]), mem, inp

    def test_loaded_bytes_become_ace(self):
        study, mem, inp = self._study_copy_kernel(reload_count=3)
        lt = study.l1_lifetimes()[0]
        ace_bytes = sum(1 for iset in lt.byte_isets if iset.total_at_least(ACE))
        # One 64-byte line worth of input data was consumed live.
        assert ace_bytes == 64

    def test_more_reuse_more_ace_time(self):
        s1, _, _ = self._study_copy_kernel(reload_count=1)
        s2, _, _ = self._study_copy_kernel(reload_count=8)
        t1 = sum(i.total_at_least(ACE) for i in s1.l1_lifetimes()[0].byte_isets)
        t2 = sum(i.total_at_least(ACE) for i in s2.l1_lifetimes()[0].byte_isets)
        assert t2 > t1

    def test_dead_load_yields_read_dead(self):
        """A load whose value is never used leaves READ_DEAD time in the L1."""
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        a = _addr_calc(p, 2, 8)
        p.load(v(2), a)          # dead: v2 never used
        p.load(v(3), a)          # keep the line resident a little longer
        p.load(v(2), a)          # still dead
        b = _addr_calc(p, 3, 9)
        p.store(imm(1), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [inp, out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        lt = study.l1_lifetimes()[0]
        dead = sum(i.total(DEAD) for i in lt.byte_isets)
        live = sum(i.total(ACE) for i in lt.byte_isets)
        assert dead > 0
        assert live == 0

    def test_untouched_cache_is_unace(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        b = _addr_calc(p, 2, 9)
        p.store(imm(1), b)
        apu = Apu(memory=mem, n_cus=2)
        apu.run([Launch(p.build(), 16, [out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        # CU1 never ran anything: its L1 must be entirely unACE.
        lt = study.l1_lifetimes()[1]
        assert all(not iset for iset in lt.byte_isets)


class TestL2WritebackLiveness:
    def _run_store_kernel(self, output_names):
        mem = GlobalMemory()
        outa = mem.alloc("a", 64)
        outb = mem.alloc("b", 64)
        p = ProgramBuilder()
        a = _addr_calc(p, 2, 8)
        p.store(v(0), a)
        b = _addr_calc(p, 3, 9)
        p.store(v(0), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [outa, outb])])
        ranges = [mem.buffer(n) for n in output_names]
        return AvfStudy(apu, ranges)

    def test_output_store_is_ace_until_flush(self):
        study = self._run_store_kernel(["a", "b"])
        lt = study.l2_lifetime()
        ace = sum(i.total(ACE) for i in lt.byte_isets)
        assert ace > 0

    def test_scratch_store_is_not_ace(self):
        study = self._run_store_kernel([])  # nothing is program output
        lt = study.l2_lifetime()
        ace = sum(i.total(ACE) for i in lt.byte_isets)
        assert ace == 0

    def test_output_membership_decides_liveness(self):
        # Declaring buffer b dead must remove exactly its ACE contribution
        # (b is stored later, so its ACE window is shorter than a's).
        both = self._run_store_kernel(["a", "b"])
        one = self._run_store_kernel(["a"])
        ace_both = sum(i.total(ACE) for i in both.l2_lifetime().byte_isets)
        ace_one = sum(i.total(ACE) for i in one.l2_lifetime().byte_isets)
        assert ace_both > ace_one > 0


class TestL2FillTransitivity:
    def test_l2_copy_live_only_if_l1_copy_consumed(self):
        """The L2 byte read to fill the L1 inherits the L1 copy's fate."""
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        a = _addr_calc(p, 2, 8)
        p.load(v(2), a)
        b = _addr_calc(p, 3, 9)
        p.store(v(2), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [inp, out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        l2 = study.l2_lifetime()
        ace = sum(i.total(ACE) for i in l2.byte_isets)
        # The input line passed through the L2 and its L1 copy was consumed:
        # the L2 read-for-fill is a live read, but only instantaneously
        # (fill happened immediately after the L2 fill), so ACE time may be
        # zero; READ_DEAD/ACE classification still marks the read.
        total_classified = sum(
            i.total_at_least(1) for i in l2.byte_isets
        )
        assert total_classified >= 0  # smoke: no crash, classification ran
        assert ace >= 0


class TestVgprLifetimes:
    def test_register_ace_between_write_and_read(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.imul(v(2), v(0), imm(3))     # v2 written
        p.mov(v(3), imm(0))
        # waste some cycles
        for _ in range(10):
            p.iadd(v(3), v(3), imm(1))
        p.iadd(v(4), v(2), v(3))       # v2 read (live)
        b = _addr_calc(p, 2, 9)
        p.store(v(4), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        lts = study.vgpr_lifetimes()
        assert len(lts) == 1
        ace = sum(i.total(ACE) for i in lts[0].byte_isets)
        assert ace > 0

    def test_dead_register_not_ace(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.imul(v(2), v(0), imm(3))     # dead: never used
        for _ in range(10):
            p.iadd(v(3), v(3), imm(1))
        b = _addr_calc(p, 2, 9)
        p.store(imm(7), b)
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        lt = study.vgpr_lifetimes()[0]
        n_regs = study.vgpr_regs
        # v2's bytes across all lanes: (lane * n_regs + 2)*4 ...
        for lane in range(16):
            for bofs in range(4):
                iset = lt.byte_isets[(lane * n_regs + 2) * 4 + bofs]
                assert iset.total_at_least(ACE) == 0

    def test_wavefront_count(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 4 * 16 * 4)
        p = ProgramBuilder()
        b = _addr_calc(p, 2, 9)
        p.store(v(0), b)
        apu = Apu(memory=mem)
        apu.run([Launch(p.build(), 64, [out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        assert len(study.vgpr_lifetimes()) == 4


def _random_table(rng, n_bytes, end_cycle):
    """Random sorted, disjoint, classed intervals for each byte."""
    isets = []
    for _ in range(n_bytes):
        cuts = np.unique(rng.integers(0, end_cycle, rng.integers(0, 12)))
        classes = rng.integers(0, 3, max(len(cuts) - 1, 0))
        isets.append([
            (int(a), int(b), int(c))
            for a, b, c in zip(cuts[:-1], cuts[1:], classes) if c
        ])
    return lifetimes_of("random", isets, 0, end_cycle)


class TestClassAt:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_interval_set(self, seed):
        rng = np.random.default_rng(seed)
        lt = _random_table(rng, 40, 100)
        ids = rng.integers(0, lt.n_bytes, 500)
        cycles = rng.integers(-2, 103, 500)
        expected = [
            lt.byte_isets[b].class_at(c)
            for b, c in zip(ids.tolist(), cycles.tolist())
        ]
        assert lt.class_at(ids, cycles).tolist() == expected

    def test_broadcasts_cycles_against_bytes(self):
        lt = lifetimes_of("t", [[(2, 5, ACE)], [(0, 3, DEAD)]], 0, 10)
        got = lt.class_at([0, 1], [[2], [4], [9]])
        assert got.tolist() == [[ACE, DEAD], [ACE, 0], [0, 0]]
        assert int(lt.class_at(0, 4)) == ACE

    def test_empty_table(self):
        lt = lifetimes_of("t", [[], []], 0, 10)
        assert lt.class_at([0, 1], 3).tolist() == [0, 0]


class TestMemoryRegions:
    @pytest.mark.parametrize("name", ["vectoradd", "matmul", "histogram"])
    def test_region_slice_matches_analyze_memory(self, name):
        study = build_study(name, seed=0)
        base, size = study.footprint
        regions = list(study.apu.memory.buffers().values()) + [
            study.footprint, (base - 64, 128), (base + size - 64, 128),
        ]
        for region in regions:
            got = study.memory_lifetimes(region)
            want = analyze_memory(
                study.apu.trace, study.apu.wf_programs,
                study.liveness.mem_needed, region, study.output_ranges,
                study.end_cycle,
            )
            for field in ("offsets", "starts", "ends", "cls"):
                assert np.array_equal(
                    getattr(got, field), getattr(want, field)
                ), (region, field)
            assert (got.name, got.start_cycle, got.end_cycle) == (
                want.name, want.start_cycle, want.end_cycle
            )

    def test_one_memory_analysis_per_study(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return analyze_memory(*args, **kwargs)

        monkeypatch.setattr(analysis, "analyze_memory", counted)
        study = build_study("matmul", seed=0)
        study.l2_lifetime()
        for region in study.output_ranges:
            study.memory_lifetimes(region)
        assert calls == [study.footprint]


class TestByteRange:
    FIELDS = ("starts", "ends", "cls")

    @pytest.mark.parametrize("lo, hi", [
        (-8, -2), (-5, 6), (10, 30), (0, 40), (33, 47), (41, 50), (12, 12),
    ], ids=["before", "across-start", "inside", "whole", "across-end",
            "past", "empty"])
    def test_rows_are_the_parents(self, lo, hi):
        lt = _random_table(np.random.default_rng(7), 40, 100)
        view = lt.byte_range(lo, hi)
        assert view.n_bytes == hi - lo
        assert (view.name, view.start_cycle, view.end_cycle) == (
            lt.name, lt.start_cycle, lt.end_cycle
        )
        for b in range(lo, hi):
            want = lt.byte_isets[b].intervals() if 0 <= b < lt.n_bytes else []
            assert view.byte_isets[b - lo].intervals() == want, b
        inside = range(max(lo, 0), min(hi, lt.n_bytes))
        assert len(view.starts) == sum(len(lt.byte_isets[b]) for b in inside)
        for field in self.FIELDS:
            assert len(view.starts) == 0 or np.shares_memory(
                getattr(view, field), getattr(lt, field)
            ), field

    def test_takes_a_name(self):
        lt = _random_table(np.random.default_rng(0), 8, 50)
        assert lt.byte_range(2, 4, "part").name == "part"

    def test_inverted_range_rejected(self):
        lt = _random_table(np.random.default_rng(0), 8, 50)
        with pytest.raises(ValueError):
            lt.byte_range(5, 4)


def _same_table(got, want):
    for field in ("offsets", "starts", "ends", "cls"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.name, got.start_cycle, got.end_cycle) == (
        want.name, want.start_cycle, want.end_cycle
    )


def _table_nbytes(table):
    return sum(
        getattr(table, f).nbytes for f in ("offsets", "starts", "ends", "cls")
    )


class TestOneTablePerStructure:
    @pytest.mark.parametrize("name", ["matmul", "dct", "minife"])
    def test_vgpr_views_match_per_wavefront_analysis(self, name):
        study = build_study(name, seed=0)
        views = study.vgpr_lifetimes()
        trace = study.apu.trace
        by_wf = trace.wf_rows()
        none = np.zeros(0, dtype=np.int64)
        programs = sorted(study.apu.wf_programs.items())
        assert len(views) == len(programs)
        table = study._tables["vgpr"]
        for view, (wf, program) in zip(views, programs):
            _same_table(view, analyze_vgpr(
                trace, by_wf.get(wf, none), program,
                study.liveness.src_needed, wf, study.vgpr_regs,
                study.end_cycle,
            ))
            for field in ("starts", "ends", "cls"):
                assert len(view.starts) == 0 or np.shares_memory(
                    getattr(view, field), getattr(table, field)
                )

    def test_l1_views_share_the_stacked_table(self):
        study = build_study("matmul", seed=0)
        views = study.l1_lifetimes()
        table = study._tables["l1"]
        assert [v.name for v in views] == [
            l1.name for l1 in study.apu.memsys.l1s
        ]
        assert table.name == views[0].name
        assert sum(v.n_bytes for v in views) == table.n_bytes
        for view in views:
            assert np.shares_memory(view.starts, table.starts)

    def test_vgpr_rows_are_held_once(self):
        study = build_study("minife", seed=0)
        for structure in ("memory", "l1", "l2", "l1.tags", "l2.tags"):
            study._lifetimes(structure)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            views = study.vgpr_lifetimes()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        table = _table_nbytes(study._tables["vgpr"])
        # the table plus the views' own offsets: a second copy of the
        # rows would double it
        assert table <= held < 1.5 * table
        assert len(views) == len(study.apu.wf_programs)
        assert sorted(study._tables) == [
            "l1", "l1.tags", "l2", "l2.tags", "memory", "vgpr",
        ]
