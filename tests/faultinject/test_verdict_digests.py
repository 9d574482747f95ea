"""Pinned injection verdicts: the Table II benchmarks at seeds 0 and 1.

The committed ``verdict_digests.json`` records, per benchmark and seed
(``n_cus=2``), the first 16 single-bit VGPR specs of
:func:`repro.faultinject.run_campaign`'s seeded stream and the first 16
memory points :func:`repro.faultinject.validate_memory_avf` draws over
the footprint.  Every point carries its simulated verdict and its
:func:`repro.faultinject.injection_class`.  A change to the simulator,
the fault scheduling, the point draws or the lifetime class lookup
changes an entry, so a rewrite of those layers must keep this file
byte-identical.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/faultinject/test_verdict_digests.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.lifetime import analyze_vgpr
from repro.faultinject import injection_class
from repro.faultinject.campaign import _Injector
from repro.faultinject.validation import _draw_points
from repro.workloads.suite import OPENCL_SAMPLES

DIGESTS = Path(__file__).with_name("verdict_digests.json")
SEEDS = (0, 1)
N_CUS = 2
N_POINTS = 16
KEYS = [f"{b}/{seed}" for b in OPENCL_SAMPLES for seed in SEEDS]


def verdict_digest(benchmark, seed):
    """Each drawn point with its verdict and deciding lifetime class."""
    runner = _Injector(benchmark, seed, N_CUS)
    study = runner.study
    # The seeded streams of run_campaign and validate_memory_avf.
    rng = np.random.default_rng(seed + 0xFA117)
    singles = [runner.random_spec(rng) for _ in range(N_POINTS)]
    rng = np.random.default_rng(seed + 0x5EED)
    points = _draw_points(rng, study.footprint, study.end_cycle, N_POINTS)
    return {
        "singles": [
            [s.wf, s.reg, s.lane, s.bits[0], s.cycle, runner.inject(s),
             int(injection_class(study, s))]
            for s in singles
        ],
        "memory": [
            [p.addr, p.bit, p.cycle, runner.inject(p),
             int(injection_class(study, p))]
            for p in points
        ],
    }


def test_every_point_set_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_verdicts_match_pinned_digest(key):
    benchmark, seed = key.split("/")
    pinned = json.loads(DIGESTS.read_text())
    assert verdict_digest(benchmark, int(seed)) == pinned[key]


def _wavefront_class(study, spec):
    """The deciding class read from the spec's own wavefront's lifetimes,
    analysed alone: byte ``(lane * vgpr_regs + reg) * 4 + bit // 8``."""
    trace = study.apu.trace
    rows = trace.wf_rows().get(spec.wf, np.zeros(0, dtype=np.int64))
    lifetimes = analyze_vgpr(
        trace, rows, study.apu.wf_programs[spec.wf],
        study.liveness.src_needed, spec.wf, study.vgpr_regs, study.end_cycle,
    )
    ids = [(spec.lane * study.vgpr_regs + spec.reg) * 4 + b // 8
           for b in spec.bits]
    return int(lifetimes.class_at(ids, spec.cycle - 1).max())


@pytest.mark.parametrize("key", KEYS)
def test_injection_class_matches_per_wavefront_lookup(key, monkeypatch):
    benchmark, seed = key.split("/")
    runner = _Injector(benchmark, int(seed), N_CUS)
    # it reads the one VGPR table, never a per-wavefront list
    monkeypatch.setattr(runner.study, "vgpr_lifetimes", None)
    rng = np.random.default_rng(int(seed) + 0xFA117)
    specs = [runner.random_spec(rng) for _ in range(N_POINTS)]
    specs += [runner.random_spec(rng, n) for n in (2, 5, 12)]
    assert [injection_class(runner.study, s) for s in specs] == [
        _wavefront_class(runner.study, s) for s in specs
    ]


if __name__ == "__main__":
    table = {
        key: verdict_digest(key.split("/")[0], int(key.split("/")[1]))
        for key in KEYS
    }
    lines = [
        f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
