"""Tests for dynamic-dead-instruction and logic-masking analysis."""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, imm, s, v
from repro.arch.liveness import analyze_liveness


def _analyze(program, n_threads, args, mem, outputs):
    """The device and its liveness verdicts."""
    apu = Apu(memory=mem, n_cus=1)
    apu.run([Launch(program, n_threads, args)])
    ranges = [mem.buffer(o) for o in outputs]
    res = analyze_liveness(
        apu.trace, apu.wf_programs, mem.size, ranges, lds_size=apu.lds_bytes,
    )
    return apu, res


def _rows_of(apu, op):
    """The trace rows that ran ``op``, in trace order."""
    trace = apu.trace
    return [
        i for i, (wf, pc) in enumerate(zip(trace.wf, trace.pc))
        if apu.wf_programs[wf].instrs[pc].op == op
    ]


def _mem_needed(apu, res, row):
    """A memory row's ``mem_needed`` bits on the lanes that accessed memory."""
    return res.mem_needed[row][apu.trace.acc[row]]


class TestDeadCode:
    def test_unused_value_is_dead(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.imul(v(2), v(0), imm(3))     # used
        p.imul(v(3), v(0), imm(5))     # never used -> dead
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(v(2), v(9))
        apu, res = _analyze(p.build(), 16, [out], mem, ["out"])
        muls = _rows_of(apu, "v_mul")
        assert res.live[muls[0]]
        assert not res.live[muls[1]]

    def test_transitively_dead_chain(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.imul(v(2), v(0), imm(3))     # feeds v3
        p.iadd(v(3), v(2), imm(1))     # feeds v4
        p.ixor(v(4), v(3), imm(7))     # never used
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(imm(1), v(9))
        apu, res = _analyze(p.build(), 16, [out], mem, ["out"])
        assert not res.live[_rows_of(apu, "v_mul")[0]]
        assert not res.live[_rows_of(apu, "v_xor")[0]]

    def test_store_to_scratch_buffer_is_dead(self):
        mem = GlobalMemory()
        scratch = mem.alloc("scratch", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))       # &scratch
        p.store(imm(5), v(8))          # written, never read -> dead
        p.iadd(v(9), v(9), s(3))       # &out
        p.store(imm(6), v(9))
        apu, res = _analyze(p.build(), 16, [scratch, out], mem, ["out"])
        stores = _rows_of(apu, "v_store")
        assert not res.live[stores[0]]
        assert res.live[stores[1]]
        assert (_mem_needed(apu, res, stores[1]) != 0).all()

    def test_overwritten_store_is_dead(self):
        mem = GlobalMemory()
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(9), v(9), s(2))
        p.store(imm(1), v(9))          # overwritten before any read -> dead
        p.store(imm(2), v(9))
        apu, res = _analyze(p.build(), 16, [out], mem, ["out"])
        stores = _rows_of(apu, "v_store")
        assert not res.live[stores[0]]
        assert res.live[stores[1]]

    def test_load_feeding_output_is_live(self):
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        p.iadd(v(9), v(9), s(3))
        p.store(v(2), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        ld = _rows_of(apu, "v_load")[0]
        assert res.live[ld]
        assert (_mem_needed(apu, res, ld) == 0xFFFFFFFF).all()


class TestLogicMasking:
    def _masked_load(self, body, out_bytes=64):
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", out_bytes)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        body(p)
        p.iadd(v(9), v(9), s(3))
        p.store(v(3), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        return _mem_needed(apu, res, _rows_of(apu, "v_load")[0])

    def test_and_masks_bits(self):
        needed = self._masked_load(lambda p: p.iand(v(3), v(2), imm(0xFF)))
        assert (needed == 0xFF).all()

    def test_or_masks_set_bits(self):
        needed = self._masked_load(lambda p: p.ior(v(3), v(2), imm(0xFFFF0000)))
        assert (needed == 0x0000FFFF).all()

    def test_shr_shifts_needed_bits(self):
        # v3 = (v2 >> 16) & 0xFF needs bits 16..23 of v2.
        def body(p):
            p.shr(v(3), v(2), imm(16))
            p.iand(v(3), v(3), imm(0xFF))

        needed = self._masked_load(body)
        assert (needed == 0x00FF0000).all()

    def test_byte_store_needs_low_byte(self):
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        p.iadd(v(9), v(0), s(3))
        p.store_u8(v(2), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        ld = _rows_of(apu, "v_load")[0]
        assert (_mem_needed(apu, res, ld) == 0xFF).all()

    def test_cmp_needs_everything(self):
        def body(p):
            p.cmp("lt", v(2), imm(100))
            p.cndmask(v(3), imm(1), imm(0))

        needed = self._masked_load(body)
        assert (needed == 0xFFFFFFFF).all()

    def test_cndmask_uses_snapshot(self):
        """Only the taken side of a select keeps its producer live."""
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        p.imul(v(4), v(0), imm(9))
        p.cmp("lt", v(0), imm(16))     # uniformly true -> v2 side taken
        p.cndmask(v(3), v(2), v(4))
        p.iadd(v(9), v(9), s(3))
        p.store(v(3), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        assert res.live[_rows_of(apu, "v_load")[0]]
        assert not res.live[_rows_of(apu, "v_mul")[0]]  # untaken side is dead


class TestLdsLiveness:
    def test_value_through_lds_stays_live(self):
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        p.shl(v(7), v(1), imm(2))
        p.lds_store(v(2), v(7))
        p.lds_load(v(3), v(7))
        p.iadd(v(9), v(9), s(3))
        p.store(v(3), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        assert res.live[_rows_of(apu, "v_load")[0]]
        assert res.live[_rows_of(apu, "lds_store")[0]]

    def test_unread_lds_store_is_dead(self):
        mem = GlobalMemory()
        inp = mem.alloc("in", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(9), v(0), imm(2))
        p.iadd(v(8), v(9), s(2))
        p.load(v(2), v(8))
        p.shl(v(7), v(1), imm(2))
        p.lds_store(v(2), v(7))        # never loaded back
        p.iadd(v(9), v(9), s(3))
        p.store(imm(4), v(9))
        apu, res = _analyze(p.build(), 16, [inp, out], mem, ["out"])
        assert not res.live[_rows_of(apu, "lds_store")[0]]
        assert not res.live[_rows_of(apu, "v_load")[0]]


class TestDuplicateAddressStores:
    """Lanes 0-10 store to one address; memory keeps lane 10's value, so
    only lane 10's stored bits are needed (the rule the store applies)."""

    @pytest.mark.parametrize("byte", [False, True], ids=["word", "byte"])
    def test_only_the_last_active_lane_is_needed(self, byte):
        mem = GlobalMemory()
        out = mem.alloc("out", 8)
        p = ProgramBuilder()
        p.cmp("lt", v(0), imm(11))
        p.imul(v(5), v(0), imm(7))
        p.iadd(v(5), v(5), imm(0x101))
        p.mov(v(9), s(2))                  # one address for every lane
        (p.store_u8 if byte else p.store)(v(5), v(9), pred=True)
        apu, res = _analyze(p.build(), 16, [out], mem, ["out"])
        (store,) = _rows_of(apu, "v_store_u8" if byte else "v_store")
        mem_needed = res.mem_needed[store]
        assert np.flatnonzero(mem_needed).tolist() == [10]
        assert mem_needed[10] == (0xFF if byte else 0xFFFFFFFF)
        assert res.src_needed[store, 0].tolist() == mem_needed.tolist()
