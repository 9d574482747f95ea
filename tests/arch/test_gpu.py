"""Integration tests for the SIMT simulator (ISA semantics + timing)."""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, fimm, imm, s, v


def _run(program, n_threads, args, mem=None, apu_kwargs=None):
    apu = Apu(memory=mem or GlobalMemory(), **(apu_kwargs or {}))
    apu.run([Launch(program, n_threads, args)])
    return apu, apu.launches[0]


class TestVectorAdd:
    def _build(self):
        p = ProgramBuilder()
        # args: s2=a, s3=b, s4=c
        p.shl(v(2), v(0), imm(2))          # v2 = tid*4
        p.iadd(v(3), v(2), s(2))           # &a[tid]
        p.iadd(v(4), v(2), s(3))           # &b[tid]
        p.load(v(5), v(3))
        p.load(v(6), v(4))
        p.iadd(v(7), v(5), v(6))
        p.iadd(v(8), v(2), s(4))           # &c[tid]
        p.store(v(7), v(8))
        return p.build()

    def test_functional(self):
        mem = GlobalMemory()
        n = 64
        a = mem.alloc("a", n * 4)
        b = mem.alloc("b", n * 4)
        c = mem.alloc("c", n * 4)
        mem.view_u32("a")[:] = np.arange(n, dtype=np.uint32)
        mem.view_u32("b")[:] = np.arange(n, dtype=np.uint32) * 10
        apu, stats = _run(self._build(), n, [a, b, c], mem)
        assert (mem.view_u32("c") == np.arange(n) * 11).all()
        assert stats.n_wavefronts == 4
        assert stats.instructions == 4 * 8  # vector instructions are recorded
        assert stats.cycles > 0

    def test_partial_last_wavefront(self):
        mem = GlobalMemory()
        n = 20  # 2 wavefronts, second only 4 active lanes
        a = mem.alloc("a", 32 * 4)
        b = mem.alloc("b", 32 * 4)
        c = mem.alloc("c", 32 * 4)
        mem.view_u32("a")[:] = 5
        mem.view_u32("b")[:] = 7
        apu, _ = _run(self._build(), n, [a, b, c], mem)
        out = mem.view_u32("c")
        assert (out[:n] == 12).all()
        assert (out[n:] == 0).all()  # inactive lanes wrote nothing

    def test_cache_hits_on_rerun(self):
        def l1_after(n_passes):
            mem = GlobalMemory()
            n = 16
            a = mem.alloc("a", n * 4)
            b = mem.alloc("b", n * 4)
            c = mem.alloc("c", n * 4)
            apu = Apu(memory=mem, n_cus=1)
            apu.run([Launch(self._build(), n, [a, b, c])] * n_passes)
            return apu.memsys.l1s[0]

        miss_1 = l1_after(1).misses
        rerun = l1_after(2)
        miss_2 = rerun.misses - miss_1
        assert miss_2 == 0  # everything resident after the first pass
        assert rerun.hits > 0


class TestAluSemantics:
    def _exec_unary(self, build_fn, inputs, out_reg=3):
        """Run a 1-wavefront program over `inputs` preloaded into v2."""
        mem = GlobalMemory()
        buf = mem.alloc("in", 16 * 4)
        out = mem.alloc("out", 16 * 4)
        mem.view_u32("in")[: len(inputs)] = np.asarray(inputs, dtype=np.uint32)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.load(v(2), v(9))
        build_fn(p)
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(3))
        p.store(v(out_reg), v(9))
        apu, _ = _run(p.build(), 16, [buf, out], mem)
        return mem.view_u32("out")

    def test_integer_wraparound(self):
        out = self._exec_unary(
            lambda p: p.iadd(v(3), v(2), imm(1)), [0xFFFFFFFF] * 16
        )
        assert (out == 0).all()

    def test_shifts(self):
        out = self._exec_unary(lambda p: p.shl(v(3), v(2), imm(4)), [0x11] * 16)
        assert (out == 0x110).all()
        out = self._exec_unary(lambda p: p.shr(v(3), v(2), imm(4)), [0x110] * 16)
        assert (out == 0x11).all()

    def test_ashr_sign_extends(self):
        out = self._exec_unary(
            lambda p: p.ashr(v(3), v(2), imm(1)), [0x80000000] * 16
        )
        assert (out == 0xC0000000).all()

    def test_float_roundtrip(self):
        def body(p):
            p.cvt_i2f(v(3), v(2))
            p.fmul(v(3), v(3), fimm(2.5))
            p.cvt_f2i(v(3), v(3))

        out = self._exec_unary(body, list(range(16)))
        assert (out == (np.arange(16) * 2.5).astype(np.int64)).all()

    def test_fmac(self):
        def body(p):
            p.mov(v(3), fimm(10.0))
            p.cvt_i2f(v(4), v(2))
            p.fmac(v(3), v(4), fimm(3.0))  # v3 = 10 + in*3
            p.cvt_f2i(v(3), v(3))

        out = self._exec_unary(body, list(range(16)))
        assert (out == 10 + np.arange(16) * 3).all()

    def test_cndmask_predication(self):
        def body(p):
            p.cmp("lt", v(2), imm(8))
            p.cndmask(v(3), imm(111), imm(222))

        out = self._exec_unary(body, list(range(16)))
        assert (out[:8] == 111).all()
        assert (out[8:] == 222).all()

    def test_min_max_signed(self):
        def body(p):
            p.imin(v(3), v(2), imm(0))

        out = self._exec_unary(body, [0xFFFFFFFE] * 16)  # -2 signed
        assert (out == 0xFFFFFFFE).all()

    def test_shuffle_up(self):
        out = self._exec_unary(
            lambda p: p.shuffle_up(v(3), v(2), 1), list(range(16))
        )
        assert out[0] == 0
        assert (out[1:] == np.arange(15)).all()

    def test_shuffle_xor(self):
        out = self._exec_unary(
            lambda p: p.shuffle_xor(v(3), v(2), 1), list(range(16))
        )
        assert (out == (np.arange(16) ^ 1)).all()

    def test_readlane(self):
        def body(p):
            p.readlane(s(10), v(2), 5)
            p.mov(v(3), s(10))

        out = self._exec_unary(body, list(range(16)))
        assert (out == 5).all()

    @pytest.mark.parametrize("delta", [16, 40])
    def test_shuffle_up_past_the_wavefront_reads_zero(self, delta):
        out = self._exec_unary(
            lambda p: p.shuffle_up(v(3), v(2), delta), list(range(1, 17))
        )
        assert (out == 0).all()


class TestControlFlow:
    def test_scalar_loop(self):
        """Sum 1..10 per lane with a scalar loop."""
        mem = GlobalMemory()
        out = mem.alloc("out", 16 * 4)
        p = ProgramBuilder()
        p.mov(v(2), imm(0))
        p.s_mov(s(10), imm(1))
        p.label("loop")
        p.iadd(v(2), v(2), s(10))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("le", s(10), imm(10))
        p.cbranch("loop")
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(v(2), v(9))
        apu, _ = _run(p.build(), 16, [out], mem)
        assert (mem.view_u32("out") == 55).all()

    def test_branch_unconditional(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 16 * 4)
        p = ProgramBuilder()
        p.mov(v(2), imm(1))
        p.branch("skip")
        p.mov(v(2), imm(999))  # dead code, skipped
        p.label("skip")
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(v(2), v(9))
        apu, _ = _run(p.build(), 16, [out], mem)
        assert (mem.view_u32("out") == 1).all()

    def test_runaway_guard(self):
        p = ProgramBuilder()
        p.label("forever")
        p.branch("forever")
        apu = Apu(memory=GlobalMemory(), max_cycles=10_000)
        with pytest.raises(RuntimeError, match="max_cycles"):
            apu.run([Launch(p.build(), 16, [])])


class TestLds:
    def test_lds_roundtrip(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 16 * 4)
        p = ProgramBuilder()
        p.shl(v(2), v(1), imm(2))            # lane*4
        p.imul(v(3), v(0), imm(7))
        p.lds_store(v(3), v(2))
        # Read the neighbour's slot (reversed lane).
        p.isub(v(4), imm(15), v(1))
        p.shl(v(4), v(4), imm(2))
        p.lds_load(v(5), v(4))
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(v(5), v(9))
        apu, _ = _run(p.build(), 16, [out], mem)
        assert (mem.view_u32("out") == (15 - np.arange(16)) * 7).all()

    @pytest.mark.parametrize("store", [False, True], ids=["load", "store"])
    def test_access_past_lds_bytes_raises_memory_error(self, store):
        """The LDS is bounds-checked like global memory."""
        p = ProgramBuilder()
        p.shl(v(2), v(1), imm(2))
        p.iadd(v(2), v(2), imm(4))           # lane 15 reaches byte 64
        if store:
            p.lds_store(v(1), v(2))
        else:
            p.lds_load(v(3), v(2))
        with pytest.raises(MemoryError):
            _run(p.build(), 16, [], apu_kwargs={"lds_bytes": 64})


class TestDuplicateAddressStores:
    """Every active lane stores to one address: the highest lane wins."""

    @pytest.mark.parametrize("byte", [False, True], ids=["word", "byte"])
    def test_last_active_lane_wins(self, byte):
        mem = GlobalMemory()
        out = mem.alloc("out", 8)
        p = ProgramBuilder()
        p.cmp("lt", v(0), imm(11))
        p.imul(v(5), v(0), imm(7))
        p.iadd(v(5), v(5), imm(0x101))     # lane value: 0x101 + 7 * lane
        p.mov(v(9), s(2))                  # one address for every lane
        (p.store_u8 if byte else p.store)(v(5), v(9), pred=True)
        apu, _ = _run(p.build(), 16, [out], mem)
        last = 0x101 + 7 * 10  # lane 10 is the last lane with lane < 11
        if byte:
            assert mem.view_u8("out").tolist() == [last & 0xFF] + [0] * 7
        else:
            assert mem.view_u32("out").tolist() == [last, 0]


class TestPredicatedMemory:
    def test_predicated_store(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 16 * 4)
        mem.view_u32("out")[:] = 0xAAAAAAAA
        p = ProgramBuilder()
        p.cmp("lt", v(0), imm(4))
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(imm(7), v(9), pred=True)
        apu, _ = _run(p.build(), 16, [out], mem)
        got = mem.view_u32("out")
        assert (got[:4] == 7).all()
        assert (got[4:] == 0xAAAAAAAA).all()

    def test_predicated_load_leaves_dst(self):
        mem = GlobalMemory()
        buf = mem.alloc("in", 16 * 4)
        out = mem.alloc("out", 16 * 4)
        mem.view_u32("in")[:] = 42
        p = ProgramBuilder()
        p.mov(v(5), imm(1))
        p.cmp("ge", v(0), imm(8))
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(2), v(9), s(2))
        p.load(v(5), v(2), pred=True)
        p.iadd(v(9), v(9), s(3))
        p.store(v(5), v(9))
        apu, _ = _run(p.build(), 16, [buf, out], mem)
        got = mem.view_u32("out")
        assert (got[:8] == 1).all()
        assert (got[8:] == 42).all()


class TestTiming:
    def test_l1_hit_faster_than_miss(self):
        def time_of(n_loads_same_line):
            mem = GlobalMemory()
            buf = mem.alloc("in", 4096)
            p = ProgramBuilder()
            p.iadd(v(2), imm(0), s(2))
            for _ in range(n_loads_same_line):
                p.load(v(3), v(2))
            apu = Apu(memory=mem, n_cus=1)
            apu.run([Launch(p.build(), 16, [buf])])
            return apu.launches[0].cycles

        one = time_of(1)
        ten = time_of(10)
        # After the first miss, subsequent loads hit: per-load cost is small.
        assert (ten - one) < 10 * 9

    def test_multiple_launches_share_clock(self):
        mem = GlobalMemory()
        buf = mem.alloc("in", 256)
        p = ProgramBuilder()
        p.iadd(v(2), imm(0), s(2))
        p.load(v(3), v(2))
        apu = Apu(memory=mem)
        apu.run([Launch(p.build(), 16, [buf]), Launch(p.build(), 16, [buf])])
        s1, s2 = apu.launches
        assert s2.start_cycle >= s1.end_cycle

    def test_run_flushes_and_locks(self):
        mem = GlobalMemory()
        buf = mem.alloc("in", 256)
        p = ProgramBuilder()
        p.iadd(v(2), imm(0), s(2))
        p.store(imm(3), v(2))
        apu = Apu(memory=mem)
        end = apu.run([Launch(p.build(), 16, [buf])])
        assert end == apu.cycle == apu.launches[0].end_cycle + 1
        assert (apu.memsys.l2.tags == -1).all()  # flushed
        with pytest.raises(RuntimeError, match="already ran"):
            apu.run([])
        with pytest.raises(RuntimeError, match="already ran"):
            apu.run([Launch(p.build(), 16, [buf])])


@pytest.mark.parametrize("n_cus", [0, -1])
def test_apu_needs_a_compute_unit(n_cus):
    with pytest.raises(ValueError, match="n_cus"):
        Apu(n_cus=n_cus)
