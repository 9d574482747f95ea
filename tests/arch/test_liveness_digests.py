"""Pinned liveness digests: every registered workload, two seeds.

The committed ``liveness_digests.json`` records, per ``(workload, seed)``
run through :func:`repro.workloads.run` at its default ``n_cus`` and
analyzed by :func:`repro.arch.liveness.analyze_liveness` with the
workload's output ranges, a sha256 over every trace row's ``live``, its
loaded value's needed bits (loads), its stored value's needed bits
(stores) and each source's needed bits (in trace order; ``-`` where the
row's static instruction has no such mask: not a load, not a store, or a
source that is not a VGPR), a sha256 of the returned needed-memory map,
and the row count.  Any
change to the liveness pass's verdicts or needed-bit masks changes one of
them, so a rewrite of the pass must keep this file byte-identical.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/arch/test_liveness_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.liveness import analyze_liveness
from repro.workloads import names, run

DIGESTS = Path(__file__).with_name("liveness_digests.json")
SEEDS = (0, 1)


def _feed(h, mask):
    """Hash one optional per-lane mask, telling ``None`` apart."""
    if mask is None:
        h.update(b"-")
    else:
        h.update(b"+")
        h.update(np.ascontiguousarray(mask, dtype=np.uint32).tobytes())


def liveness_digest(name, seed):
    """The pinned fingerprint of one workload's liveness annotations."""
    result = run(name, seed=seed)
    apu = result.apu
    trace = apu.trace
    res = analyze_liveness(
        trace,
        apu.wf_programs,
        apu.memory.size,
        result.output_ranges,
        lds_size=apu.lds_bytes,
    )
    h = hashlib.sha256()
    for i, (wf, pc) in enumerate(zip(trace.wf.tolist(), trace.pc.tolist())):
        ins = apu.wf_programs[wf].instrs[pc]
        h.update(b"L" if res.live[i] else b"D")
        _feed(h, res.mem_needed[i] if "load" in ins.op else None)
        _feed(h, res.mem_needed[i] if "store" in ins.op else None)
        h.update(len(ins.srcs).to_bytes(1, "little"))
        for j, src in enumerate(ins.srcs):
            _feed(h, res.src_needed[i, j] if src[0] == "v" else None)
    return {
        "records_sha256": h.hexdigest(),
        "needed_mem_sha256": hashlib.sha256(
            np.packbits(res.needed_mem).tobytes()
        ).hexdigest(),
        "n_records": len(trace),
    }


def _key(name, seed):
    return f"{name}/seed{seed}"


def test_every_workload_and_seed_is_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(
        _key(name, seed) for name in names() for seed in SEEDS
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", names())
def test_liveness_matches_pinned_digest(name, seed):
    pinned = json.loads(DIGESTS.read_text())
    assert liveness_digest(name, seed) == pinned[_key(name, seed)]


if __name__ == "__main__":
    table = {
        _key(name, seed): liveness_digest(name, seed)
        for name in names() for seed in SEEDS
    }
    lines = [
        f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
