"""Tests for wavefront scheduling, latency hiding and CU distribution."""

import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, imm, s, v


def _memory_bound_kernel():
    """Each thread issues a chain of dependent loads from its own lines."""
    p = ProgramBuilder()
    p.shl(v(2), v(0), imm(6))          # one line per thread
    p.iadd(v(2), v(2), s(2))
    for _ in range(4):
        p.load(v(3), v(2))
        p.iadd(v(2), v(2), imm(0))     # keep the chain alive
    return p.build()


class TestLatencyHiding:
    def test_more_wavefronts_hide_memory_latency(self):
        """Round-robin issue overlaps one wavefront's stalls with others'
        work: 4 wavefronts on one CU finish in far less than 4x the time
        of 1 wavefront."""
        def cycles(n_threads):
            mem = GlobalMemory()
            buf = mem.alloc("buf", 1 << 14)
            apu = Apu(memory=mem, n_cus=1)
            apu.run([Launch(_memory_bound_kernel(), n_threads, [buf])])
            stats = apu.launches[0]
            return stats.cycles

        one = cycles(16)
        four = cycles(64)
        assert four < 2.5 * one

    def test_multiple_cus_split_work(self):
        def cycles(n_cus):
            mem = GlobalMemory()
            buf = mem.alloc("buf", 1 << 16)
            apu = Apu(memory=mem, n_cus=n_cus)
            apu.run([Launch(_memory_bound_kernel(), 256, [buf])])
            stats = apu.launches[0]
            return stats.cycles

        assert cycles(4) < cycles(1)


class TestSchedulingFairness:
    def test_round_robin_interleaves_wavefronts(self):
        mem = GlobalMemory()
        buf = mem.alloc("buf", 4096)
        p = ProgramBuilder()
        for _ in range(8):
            p.iadd(v(2), v(2), imm(1))
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 32, [buf])])
        # Two wavefronts of pure ALU work: their trace rows must
        # interleave rather than run one wavefront to completion first.
        wf_seq = apu.trace.wf.tolist()
        first_wf1 = wf_seq.index(1)
        assert first_wf1 < 8  # wavefront 1 issues before wavefront 0 retires

    def test_resident_limit_admits_later_wavefronts(self):
        mem = GlobalMemory()
        buf = mem.alloc("buf", 1 << 14)
        apu = Apu(memory=mem, n_cus=1, max_resident_wavefronts=2)
        apu.run([Launch(_memory_bound_kernel(), 16 * 6, [buf])])
        stats = apu.launches[0]
        # All six wavefronts ran to completion despite only 2 being
        # resident at a time.
        assert stats.n_wavefronts == 6
        assert len(set(apu.trace.wf.tolist())) == 6

    def test_cycle_skipping_when_stalled(self):
        """With a single stalled wavefront the clock jumps to its ready
        time instead of ticking cycle by cycle (no livelock, exact time)."""
        mem = GlobalMemory()
        buf = mem.alloc("buf", 4096)
        p = ProgramBuilder()
        p.iadd(v(2), imm(0), s(2))
        p.load(v(3), v(2))
        p.load(v(4), v(2))
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [buf])])
        stats = apu.launches[0]
        # miss latency (4+24+120) dominates; total well under 1000 proves
        # the run loop advanced, and well over the latency proves it waited.
        assert 140 <= stats.cycles <= 400


class TestLaunchEdgeCases:
    def test_zero_threads_rejected(self):
        apu = Apu(memory=GlobalMemory())
        p = ProgramBuilder().build()
        with pytest.raises(ValueError):
            apu.run([Launch(p, 0)])

    def test_single_thread_masks_other_lanes(self):
        mem = GlobalMemory()
        buf = mem.alloc("buf", 64)
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(2), v(2), s(2))
        p.store(imm(7), v(2))
        apu = Apu(memory=mem)
        apu.run([Launch(p.build(), 1, [buf])])
        got = mem.view_u32("buf")
        assert got[0] == 7
        assert (got[1:16] == 0).all()

    def test_launch_stats_accumulate(self):
        mem = GlobalMemory()
        buf = mem.alloc("buf", 64)
        p = ProgramBuilder()
        p.iadd(v(2), imm(0), s(2))
        p.store(imm(1), v(2))
        apu = Apu(memory=mem)
        apu.run([
            Launch(p.build(), 16, [buf], name="first"),
            Launch(p.build(), 16, [buf], name="second"),
        ])
        assert [l.name for l in apu.launches] == ["first", "second"]
        assert apu.launches[1].start_cycle >= apu.launches[0].end_cycle
