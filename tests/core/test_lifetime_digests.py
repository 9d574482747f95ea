"""Pinned lifetime digests: every registered workload at seed 0.

The committed ``lifetime_digests.json`` records, per workload opened
through :func:`repro.experiments.build_study`, a fingerprint of every
structure's per-byte ACE lifetimes: each L1, the L2, the register file
(all wavefronts in stacked order), the L1 and L2 tag arrays
(``tag_bytes=3``) and the memory lifetimes of each output range.  A
fingerprint is the sha256 of the int64 ``(byte, start, end, cls)`` rows
in byte order, the row count and the byte count.  For each L1, the L2 and
the stacked register file it also records the number of distinct
lifetimes and the sha256 of the int64 canonical id of every byte.  Any
change to the lifetime extractors, the interval builder or the canonical
numbering changes one of them, so a rewrite of those layers must keep
this file byte-identical.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/core/test_lifetime_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.avf import _canonical_iset_ids
from repro.core.layout import Interleaving
from repro.core.lifetime import derive_tag_lifetimes
from repro.experiments import build_study
from repro.workloads import names

DIGESTS = Path(__file__).with_name("lifetime_digests.json")
SEED = 0


def _sha(a):
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype=np.int64).tobytes()
    ).hexdigest()


def lifetime_digest(lt, *, canonical=False):
    """The pinned fingerprint of one structure's lifetimes."""
    rows = [
        (b, s, e, c)
        for b, iset in enumerate(lt.byte_isets)
        for s, e, c in iset.intervals()
    ]
    out = {
        "rows_sha256": _sha(np.array(rows, dtype=np.int64).reshape(-1, 4)),
        "n_rows": len(rows),
        "n_bytes": len(lt.byte_isets),
    }
    if canonical:
        byte2iid = _canonical_iset_ids(lt).byte2iid
        out["n_distinct"] = len(np.unique(byte2iid))
        out["byte2iid_sha256"] = _sha(byte2iid)
    return out


def study_digest(name):
    """Fingerprints of every structure of one workload's study."""
    study = build_study(name, seed=SEED)
    memsys = study.apu.memsys
    l1s = study.l1_lifetimes()
    l2 = study.l2_lifetime()
    _, (vgpr,) = study._structure("vgpr", Interleaving.INTRA_THREAD, 1)
    return {
        "l1": [lifetime_digest(lt, canonical=True) for lt in l1s],
        "l2": lifetime_digest(l2, canonical=True),
        "vgpr": lifetime_digest(vgpr, canonical=True),
        "l1_tags": [
            lifetime_digest(derive_tag_lifetimes(
                lt, memsys.l1s[0].config.line_bytes, tag_bytes=3
            ))
            for lt in l1s
        ],
        "l2_tags": lifetime_digest(derive_tag_lifetimes(
            l2, memsys.l2.config.line_bytes, tag_bytes=3
        )),
        "memory": [
            lifetime_digest(study.memory_lifetimes(rng))
            for rng in study.output_ranges
        ],
    }


def test_every_workload_is_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(names())


@pytest.mark.parametrize("name", names())
def test_lifetimes_match_pinned_digest(name):
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
