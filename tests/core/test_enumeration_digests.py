"""Pinned enumeration digests: every registered workload at seed 0.

The committed ``enumeration_digests.json`` records, per workload opened
through :func:`repro.experiments.build_study`, one fingerprint of
:func:`repro.core.avf._enumerate_signatures` per fault mode (the eight
Table III ``Mx1`` modes and a 2x2 block) on two layouts: every L1 under
the uninterleaved layout, and the stacked register file under 2-way
inter-thread interleaving.  A fingerprint is the sha256 of the distinct
keys (their shape and int64 values, in returned order), the int64 group
weights and the number of distinct row bands.  Any change to the
enumerator's keys, their order, their weights or its band count changes
one of them, so a rewrite of the enumerator must keep this file
byte-identical.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/core/test_enumeration_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.avf import _canonical_iset_ids, _enumerate_signatures
from repro.core.faultmodes import MX1_MODES, FaultMode
from repro.core.layout import Interleaving
from repro.experiments import build_study
from repro.workloads import names

DIGESTS = Path(__file__).with_name("enumeration_digests.json")
SEED = 0
MODES = list(MX1_MODES) + [FaultMode.rect(2, 2)]


def enumeration_digest(array, lifetimes, mode):
    """The pinned fingerprint of one ``(array, lifetimes, mode)`` enumeration."""
    byte2iid = _canonical_iset_ids(lifetimes).byte2iid
    keys, weights, n_bands = _enumerate_signatures(array, byte2iid, mode)
    h = hashlib.sha256()
    h.update(np.array(keys.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(keys, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(weights, dtype=np.int64).tobytes())
    h.update(np.int64(n_bands).tobytes())
    return h.hexdigest()


def study_digest(name):
    """Per-mode fingerprints of one workload's L1s and stacked VGPR."""
    study = build_study(name, seed=SEED)
    l1, l1_lts = study._structure("l1", Interleaving.NONE, 1)
    vgpr, (vgpr_lt,) = study._structure("vgpr", Interleaving.INTER_THREAD, 2)
    return {
        "l1": [
            [enumeration_digest(l1, lt, mode) for mode in MODES]
            for lt in l1_lts
        ],
        "vgpr": [enumeration_digest(vgpr, vgpr_lt, mode) for mode in MODES],
    }


def test_every_workload_is_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(names())


@pytest.mark.parametrize("name", names())
def test_enumeration_matches_pinned_digest(name):
    pinned = json.loads(DIGESTS.read_text())
    assert study_digest(name) == pinned[name]


if __name__ == "__main__":
    table = {name: study_digest(name) for name in names()}
    lines = [
        f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
