"""Direct tests for MemoryConsumption and fill-map merging."""

import numpy as np

from repro.arch import Apu, GlobalMemory, ProgramBuilder, imm, s, v
from repro.arch.liveness import analyze_liveness
from repro.core.lifetime import MemoryConsumption, merge_fill_maps


def _trace(build_fn, outputs, n_threads=16):
    mem = GlobalMemory()
    bufs = {}
    for name in ("a", "b", "c"):
        bufs[name] = mem.alloc(name, 64)
    mem.view_u32("a")[:] = np.arange(16, dtype=np.uint32)
    p = ProgramBuilder()
    build_fn(p)
    apu = Apu(memory=mem, n_cus=1)
    apu.launch(p.build(), n_threads, [bufs["a"], bufs["b"], bufs["c"]])
    apu.finish()
    ranges = [mem.buffer(n) for n in outputs]
    analyze_liveness(
        apu.records,
        {w: prog.n_vregs for w, prog in apu.wf_programs.items()},
        mem.size, ranges, lds_size=apu.lds_bytes,
    )
    return apu, mem, ranges, bufs


def _copy_a_to_b(p):
    p.shl(v(2), v(0), imm(2))
    p.iadd(v(3), v(2), s(2))
    p.load(v(4), v(3))
    p.iadd(v(5), v(2), s(3))
    p.store(v(4), v(5))


class TestMemoryConsumption:
    def test_output_byte_live_after_store(self):
        apu, mem, ranges, bufs = _trace(_copy_a_to_b, outputs=("b",))
        mc = MemoryConsumption(apu.records, mem.size, ranges)
        store_t = max(r.t for r in apu.records if r.op == "v_store")
        assert mc.live_after(bufs["b"], store_t)

    def test_scratch_byte_dead_after_store(self):
        apu, mem, ranges, bufs = _trace(_copy_a_to_b, outputs=())
        mc = MemoryConsumption(apu.records, mem.size, [])
        store_t = max(r.t for r in apu.records if r.op == "v_store")
        assert not mc.live_after(bufs["b"], store_t)

    def test_overwrite_kills_earlier_value(self):
        def body(p):
            _copy_a_to_b(p)
            p.store(imm(0), v(5))  # second store to b

        apu, mem, ranges, bufs = _trace(body, outputs=("b",))
        mc = MemoryConsumption(apu.records, mem.size, ranges)
        stores = sorted(r.t for r in apu.records if r.op == "v_store")
        first, second = stores[0], stores[-1]
        assert first < second
        # The value as of just after the first store is overwritten before
        # the host reads; as of the second store it is live.
        assert not mc.live_after(bufs["b"], first)
        assert mc.live_after(bufs["b"], second)

    def test_live_load_consumes(self):
        def body(p):
            _copy_a_to_b(p)
            # read b back and store into c
            p.load(v(6), v(5))
            p.iadd(v(7), v(2), s(4))
            p.store(v(6), v(7))

        apu, mem, ranges, bufs = _trace(body, outputs=("c",))
        mc = MemoryConsumption(apu.records, mem.size, ranges)
        first_store = min(r.t for r in apu.records if r.op == "v_store")
        # b is not an output, but its value is consumed by the load that
        # feeds c.
        assert mc.live_after(bufs["b"], first_store)

    def test_untracked_address(self):
        apu, mem, ranges, bufs = _trace(_copy_a_to_b, outputs=("b",))
        mc = MemoryConsumption(apu.records, mem.size, ranges)
        # 'a' is never stored by the kernel: no instance tracking needed.
        assert not mc.live_after(bufs["a"], 0)


class TestMergeFillMaps:
    def test_union_semantics(self):
        r1 = np.array([True, False, False])
        l1 = np.array([True, False, False])
        r2 = np.array([False, True, False])
        l2 = np.array([False, False, False])
        merged = merge_fill_maps([{1: (r1, l1)}, {1: (r2, l2), 2: (r2, l2)}])
        assert merged[1][0].tolist() == [True, True, False]
        assert merged[1][1].tolist() == [True, False, False]
        assert 2 in merged

    def test_copies_do_not_alias(self):
        r = np.array([True])
        l = np.array([False])
        merged = merge_fill_maps([{7: (r, l)}])
        merged[7][0][0] = False
        assert r[0]  # original unchanged

    def test_empty(self):
        assert merge_fill_maps([]) == {}
