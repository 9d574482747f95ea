"""Figure 9: SDC MB-AVF for 5x1-8x1 faults with SEC-DED ECC and x2 interleave.

With x2 interleaving every mode from 5x1 to 8x1 touches exactly two cache
lines.  Shape targets (Sec. VII-C): the SDC AVF jumps from 5x1 to 6x1 —
a 5x1 fault leaves one word with only 2 flipped bits (detected: some DUE),
while a 6x1 fault is undetected in *both* words — and then plateaus from
6x1 to 8x1 because bits within a line have high ACE locality.
"""

import numpy as np
import pytest

from repro.core import FaultMode, Interleaving, NoProtection, SecDed
from repro.workloads.suite import EVALUATION_SET

MODES = (5, 6, 7, 8)


def _measure(study_of):
    rows = {}
    for wl in EVALUATION_SET:
        study = study_of(wl)
        sb = study.avf("l1", FaultMode.linear(1), NoProtection()).sdc_avf
        per_mode = {}
        for m in MODES:
            res = study.avf(
                "l1", FaultMode.linear(m), SecDed(),
                style=Interleaving.WAY_PHYSICAL, factor=2,
            )
            per_mode[m] = (res.sdc_avf, res.due_avf)
        rows[wl] = (sb, per_mode)
    return rows


@pytest.mark.benchmark(group="figure9")
def test_figure9_sdc_large_modes(benchmark, study_of, report):
    rows = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [
        f"{'workload':<14} {'SB':>8} | SDC "
        + " ".join(f"{m}x1".rjust(8) for m in MODES)
        + " | DUE(5x1)"
    ]
    for wl, (sb, pm) in rows.items():
        lines.append(
            f"{wl:<14} {sb:8.4f} |     "
            + " ".join(f"{pm[m][0]:8.4f}" for m in MODES)
            + f" | {pm[5][1]:8.4f}"
        )
    active = {wl: v for wl, v in rows.items() if v[0] > 1e-4}
    mean = {m: np.mean([v[1][m][0] for v in active.values()]) for m in MODES}
    due5 = np.mean([v[1][5][1] for v in active.values()])
    lines.append(
        f"{'mean':<14} {'':>8} |     "
        + " ".join(f"{mean[m]:8.4f}" for m in MODES)
        + f" | {due5:8.4f}"
    )
    lines.append(f"6x1/5x1 SDC jump = {mean[6] / mean[5]:.2f}x; "
                 f"8x1/6x1 plateau = {mean[8] / mean[6]:.2f}x")
    report("figure9_sdc_large_modes", lines)

    # Shape target 1: SDC jumps substantially from 5x1 to 6x1.
    assert mean[6] > 1.3 * mean[5]
    # Shape target 2: plateau (at most slight increase) from 6x1 to 8x1.
    assert mean[8] <= 1.35 * mean[6]
    assert mean[7] >= mean[6] - 1e-9
    # Shape target 3: 5x1 retains a detected component (one word sees only
    # 2 bits); 6x1 is all-SDC.
    assert due5 > 0
    due6 = np.mean([v[1][6][1] for v in active.values()])
    assert due6 <= due5
