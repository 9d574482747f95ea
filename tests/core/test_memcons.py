"""Direct tests for the L2 write-back verdict and the L1 fill ids.

A dirty byte written back to memory is live iff the study's memory
lifetime table says memory consumes it (``repro.core.lifetime._consumed``).
"""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, imm, s, v
from repro.arch.cache import FILL, WRITEBACK_READ
from repro.core import AvfStudy
from repro.core._reference import MemoryConsumptionRef
from repro.core.intervals import AceClass
from repro.core.lifetime import _consumed
from repro.experiments import build_study

from .tables import lifetimes_of

ACE = int(AceClass.ACE)
DEAD = int(AceClass.READ_DEAD)


def _trace(build_fn, outputs, n_threads=16):
    mem = GlobalMemory()
    bufs = {}
    for name in ("a", "b", "c"):
        bufs[name] = mem.alloc(name, 64)
    mem.view_u32("a")[:] = np.arange(16, dtype=np.uint32)
    p = ProgramBuilder()
    build_fn(p)
    apu = Apu(memory=mem, n_cus=1)
    apu.run([Launch(p.build(), n_threads, [bufs["a"], bufs["b"], bufs["c"]])])
    study = AvfStudy(apu, [mem.buffer(n) for n in outputs])
    return study, bufs


def _address_table(study):
    """The study's memory lifetimes indexed by address."""
    return study.memory_lifetimes((0, sum(study.footprint)))


def _live_after(study, addr, t):
    return bool(_consumed(_address_table(study), [addr], t)[0])


def _copy_a_to_b(p):
    p.shl(v(2), v(0), imm(2))
    p.iadd(v(3), v(2), s(2))
    p.load(v(4), v(3))
    p.iadd(v(5), v(2), s(3))
    p.store(v(4), v(5))


def _store_times(study):
    apu = study.apu
    trace = apu.trace
    return sorted(
        t for t, wf, pc in zip(trace.t, trace.wf, trace.pc)
        if apu.wf_programs[wf].instrs[pc].op == "v_store"
    )


class TestWritebackVerdict:
    def test_output_byte_live_after_store(self):
        study, bufs = _trace(_copy_a_to_b, outputs=("b",))
        assert _live_after(study, bufs["b"], _store_times(study)[-1])

    def test_scratch_byte_dead_after_store(self):
        study, bufs = _trace(_copy_a_to_b, outputs=())
        assert not _live_after(study, bufs["b"], _store_times(study)[-1])

    def test_overwrite_kills_earlier_value(self):
        def body(p):
            _copy_a_to_b(p)
            p.store(imm(0), v(5))  # second store to b

        study, bufs = _trace(body, outputs=("b",))
        stores = _store_times(study)
        first, second = stores[0], stores[-1]
        assert first < second
        # The value as of just after the first store is overwritten before
        # the host reads; as of the second store it is live.
        assert not _live_after(study, bufs["b"], first)
        assert _live_after(study, bufs["b"], second)

    def test_live_load_consumes(self):
        def body(p):
            _copy_a_to_b(p)
            # read b back and store into c
            p.load(v(6), v(5))
            p.iadd(v(7), v(2), s(4))
            p.store(v(6), v(7))

        study, bufs = _trace(body, outputs=("c",))
        # b is not an output, but its value is consumed by the load that
        # feeds c.
        assert _live_after(study, bufs["b"], _store_times(study)[0])

    def test_untouched_address(self):
        study, bufs = _trace(_copy_a_to_b, outputs=("b",))
        # 'c' is never loaded, stored or read by the host: never consumed.
        assert not _live_after(study, bufs["c"], 0)
        # 'a' is never stored, but its host value feeds the copy into the
        # output.  (It can never be dirty, so no write-back asks.)
        assert _live_after(study, bufs["a"], 0)

    def test_past_the_table_is_dead(self):
        study, bufs = _trace(_copy_a_to_b, outputs=("b",))
        end = sum(study.footprint)
        assert not _consumed(_address_table(study), [end, end + 64], 0).any()

    def test_ace_row_is_closed_at_both_ends(self):
        # A live load at the write-back cycle itself ends the ACE row
        # there, and still consumes the value.
        table = lifetimes_of(
            "memory", [[(2, 5, ACE)], [(2, 5, DEAD), (5, 7, ACE)]], 0, 10
        )
        got = {
            t: _consumed(table, [0, 1], t).tolist() for t in (1, 2, 5, 6, 7, 8)
        }
        assert got == {
            1: [False, False], 2: [True, False], 5: [True, True],
            6: [False, True], 7: [False, True], 8: [False, False],
        }


@pytest.mark.parametrize("name", ["matmul", "histogram", "srad", "minife"])
def test_writeback_verdict_matches_reference(name):
    """Every dirty byte of every L2 write-back: the table's verdict equals
    the per-byte consumption index it replaced."""
    study = build_study(name, seed=0)
    apu = study.apu
    ref = MemoryConsumptionRef(
        apu.trace, apu.wf_programs, study.liveness.mem_needed,
        apu.memory.size, study.output_ranges,
    )
    table = _address_table(study)
    n = 0
    ev = apu.memsys.l2.events()
    for k in np.flatnonzero(ev.kind == WRITEBACK_READ):
        t = int(ev.t[k])
        addrs = ev.line[k] + np.flatnonzero(ev.dirty[ev.ref[k]])
        expected = [ref.live_after(a, t) for a in addrs.tolist()]
        assert _consumed(table, addrs, t).tolist() == expected
        n += len(addrs)
    assert n, "no write-backs: nothing was compared"


def test_l1_fill_ids_are_disjoint():
    """Fill ids come from one device-wide counter, so the L1s' fill
    verdicts share one map with no key written twice."""
    study = build_study("matmul", seed=0)
    per_l1 = [
        set(ev.ref[ev.kind == FILL].tolist())
        for ev in (l1.events() for l1 in study.apu.memsys.l1s)
    ]
    assert len(per_l1) > 1 and all(per_l1)
    assert sum(map(len, per_l1)) == len(set().union(*per_l1))
    study.l1_lifetimes()
    assert set(study._fills) == set().union(*per_l1)
