"""Ablation: ACE locality predicts MB-AVF (the paper's Sec. VI-B insight).

The paper introduces *ACE locality* — the tendency of physically adjacent
bits to be ACE at the same cycles — and claims it is the design lever:
"increasing the ACE locality in a structure will reduce its MB-AVF".

This ablation measures both quantities over every (workload, interleaving
style) pair and checks the relationship holds: within a workload, the
layout with higher ACE locality never has a (meaningfully) higher 2x1
MB-AVF, and across the population the correlation is negative.
"""

import numpy as np
import pytest

from repro.core import FaultMode, Interleaving, Parity

WORKLOADS = ("matmul", "dct", "srad", "hotspot", "minife", "comd", "fastwalsh")
STYLES = (
    Interleaving.LOGICAL,
    Interleaving.WAY_PHYSICAL,
    Interleaving.INDEX_PHYSICAL,
)


def _measure(study_of):
    points = []
    for wl in WORKLOADS:
        study = study_of(wl)
        sb = study.avf("l1", FaultMode.linear(1), Parity()).due_avf
        if sb < 1e-4:
            continue
        for style in STYLES:
            loc = study.cache_ace_locality("l1", style=style, factor=2)
            mb = study.avf(
                "l1", FaultMode.linear(2), Parity(), style=style, factor=2
            ).due_avf
            points.append((wl, style.value, loc, mb / sb))
    return points


@pytest.mark.benchmark(group="ablation")
def test_ablation_ace_locality(benchmark, study_of, report):
    points = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [f"{'workload':<12} {'style':<10} {'ACE locality':>13} {'MB/SB':>7}"]
    for wl, style, loc, ratio in points:
        lines.append(f"{wl:<12} {style:<10} {loc:13.3f} {ratio:6.2f}x")
    locs = np.array([p[2] for p in points])
    ratios = np.array([p[3] for p in points])
    corr = float(np.corrcoef(locs, ratios)[0, 1])
    lines.append(f"correlation(ACE locality, MB/SB ratio) = {corr:.3f}")
    report("ablation_ace_locality", lines)

    # Higher locality -> lower MB-AVF, across the whole population.
    assert corr < -0.5
    # And within each workload: the highest-locality layout never has a
    # meaningfully higher MB/SB ratio than the lowest-locality layout.
    by_wl = {}
    for wl, _, loc, ratio in points:
        by_wl.setdefault(wl, []).append((loc, ratio))
    for wl, pts in by_wl.items():
        pts.sort()
        lowest_loc_ratio = pts[0][1]
        highest_loc_ratio = pts[-1][1]
        assert highest_loc_ratio <= lowest_loc_ratio + 0.05, wl
