"""The columnar trace and the cache event tables that point into it."""

import numpy as np
import pytest

from repro.arch.cache import DEMAND_READ, FILL, FILL_READ, WRITE
from repro.arch.isa import MEM_OPS, WAVEFRONT_LANES
from repro.workloads import names, run

_OPS = {DEMAND_READ: ("v_load", "v_load_u8"), WRITE: ("v_store", "v_store_u8")}


@pytest.mark.parametrize("name", names())
def test_cache_events_resolve_to_trace_rows(name):
    """Every demand read and write names the global load or store row
    that touched its line, every L2 fill read links to an L1 fill, and
    the launches' instruction counts add up to the trace's rows."""
    apu = run(name, seed=0).apu
    trace, memsys = apu.trace, apu.memsys
    assert sum(s.instructions for s in apu.launches) == len(trace)
    assert apu.stats()["instructions"] == len(trace)
    lb = memsys.line_bytes
    for cache in memsys.l1s + [memsys.l2]:
        ev = cache.events()
        for k in np.flatnonzero(np.isin(ev.kind, list(_OPS))):
            row = int(ev.ref[k])
            ins = apu.wf_programs[int(trace.wf[row])].instrs[int(trace.pc[row])]
            assert ins.op in _OPS[int(ev.kind[k])]
            assert trace.t[row] == ev.t[k]
            addr, _ = trace.access_bytes(row, ins.nbytes)
            assert (addr - addr % lb == ev.line[k]).any()
    l1_fills = set()
    for l1 in memsys.l1s:
        ev = l1.events()
        l1_fills.update(ev.ref[ev.kind == FILL].tolist())
    ev = memsys.l2.events()
    l2_links = set(ev.ref[ev.kind == FILL_READ].tolist())
    assert l2_links and l2_links <= l1_fills


@pytest.mark.parametrize("name", ["vectoradd", "minife"])
def test_trace_columns(name):
    """Shapes and dtypes of the columns, and their zero/``exec`` values
    outside memory ops."""
    apu = run(name, seed=0).apu
    trace = apu.trace
    n = len(trace)
    for col in (trace.t, trace.wf, trace.pc):
        assert col.dtype == np.int64 and col.shape == (n,)
    for col in (trace.exec, trace.acc, trace.vcc):
        assert col.dtype == bool and col.shape == (n, WAVEFRONT_LANES)
    assert trace.addrs.dtype == np.uint32
    assert trace.addrs.shape == (n, WAVEFRONT_LANES)
    is_mem = np.array([
        apu.wf_programs[wf].instrs[pc].op in MEM_OPS
        for wf, pc in zip(trace.wf.tolist(), trace.pc.tolist())
    ])
    assert is_mem.any() and not is_mem.all()
    assert (trace.acc[~is_mem] == trace.exec[~is_mem]).all()
    assert not trace.addrs[~is_mem].any()
    assert (np.diff(trace.t) >= 0).all()
    rows = trace.wf_rows()
    assert sorted(rows) == sorted(set(trace.wf.tolist()))
    for wf, r in rows.items():
        assert (trace.wf[r] == wf).all() and (np.diff(r) > 0).all()
    assert sum(len(r) for r in rows.values()) == n
