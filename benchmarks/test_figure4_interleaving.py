"""Figure 4: 2x1 DUE MB-AVF of the L1 cache under x2 interleaving styles.

Shape targets (Sec. VI-B): for every workload the 2x1 MB-AVF lies between
1x and 2x the single-bit AVF; logical interleaving (highest ACE locality)
is consistently closest to the 1x minimum; physical styles vary by
workload access pattern.
"""

import numpy as np
import pytest

from repro.core import FaultMode, Interleaving, Parity
from repro.workloads.suite import EVALUATION_SET

STYLES = (
    ("logical", Interleaving.LOGICAL),
    ("way", Interleaving.WAY_PHYSICAL),
    ("index", Interleaving.INDEX_PHYSICAL),
)


def _measure(study_of):
    rows = {}
    for wl in EVALUATION_SET:
        study = study_of(wl)
        sb = study.avf("l1", FaultMode.linear(1), Parity()).due_avf
        ratios = {}
        for label, style in STYLES:
            mb = study.avf(
                "l1", FaultMode.linear(2), Parity(), style=style, factor=2
            ).due_avf
            ratios[label] = mb / sb if sb > 0 else float("nan")
        rows[wl] = (sb, ratios)
    return rows


@pytest.mark.benchmark(group="figure4")
def test_figure4_interleaving(benchmark, study_of, report):
    rows = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [f"{'workload':<14} {'SB-AVF':>8} {'logical':>9} {'way':>9} {'index':>9}"]
    for wl, (sb, ratios) in rows.items():
        lines.append(
            f"{wl:<14} {sb:8.4f} "
            + " ".join(f"{ratios[lab]:8.2f}x" for lab, _ in STYLES)
        )
    measured = {
        lab: [r[lab] for _, (sb, r) in rows.items() if sb > 1e-6]
        for lab, _ in STYLES
    }
    means = {lab: float(np.mean(v)) for lab, v in measured.items()}
    lines.append(
        "mean           ........ "
        + " ".join(f"{means[lab]:8.2f}x" for lab, _ in STYLES)
    )
    report("figure4_interleaving", lines)

    # Shape target 1: MB-AVF within [1x, 2x] of SB-AVF for every workload.
    # (The 2x bound carries a cols/(cols-1) row-boundary factor: a row of C
    # bits holds C-1 groups, so the denominator shrinks slightly.)
    for lab, vals in measured.items():
        for r in vals:
            assert 1.0 - 1e-6 <= r <= 2.0 * 1.005, (lab, r)
    # Shape target 2: logical interleaving has the lowest mean ratio.
    assert means["logical"] <= means["way"] + 1e-9
    assert means["logical"] <= means["index"] + 1e-9
    # Shape target 3: physical interleaving costs extra MB-AVF on average.
    assert max(means["way"], means["index"]) > means["logical"]
