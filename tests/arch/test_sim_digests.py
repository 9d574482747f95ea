"""Pinned simulator digests: every registered workload, two seeds.

The committed ``sim_digests.json`` records, per ``(workload, seed)`` run
through :func:`repro.workloads.run` at its default ``n_cus``, a sha256 of
the final global-memory image, a sha256 of every trace row's
``(uid, t, wf)`` (the uid is the row index), the row count, the end cycle, and each L1's and the
L2's ``(hits, misses)``.  Any change to the simulator's functional
results, timing, issue order or cache behaviour changes one of them, so
a hot-path rewrite must keep this file byte-identical.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/arch/test_sim_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import names, run

DIGESTS = Path(__file__).with_name("sim_digests.json")
SEEDS = (0, 1)


def sim_digest(name, seed):
    """The pinned fingerprint of one workload run."""
    result = run(name, seed=seed)
    trace = result.apu.trace
    records = np.stack(
        [np.arange(len(trace)), trace.t, trace.wf], axis=1
    ).astype(np.int64)
    memsys = result.apu.memsys
    return {
        "memory_sha256": hashlib.sha256(
            result.memory.data.tobytes()
        ).hexdigest(),
        "records_sha256": hashlib.sha256(records.tobytes()).hexdigest(),
        "n_records": len(records),
        "end_cycle": int(result.end_cycle),
        "l1": [[int(c.hits), int(c.misses)] for c in memsys.l1s],
        "l2": [int(memsys.l2.hits), int(memsys.l2.misses)],
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
def test_simulation_matches_pinned_digest(name, seed):
    pinned = json.loads(DIGESTS.read_text())
    assert sim_digest(name, seed) == pinned[_key(name, seed)]


if __name__ == "__main__":
    table = {
        _key(name, seed): sim_digest(name, seed)
        for name in names() for seed in SEEDS
    }
    lines = [
        f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
