"""Figure 10: true vs false DUE by fault mode.

False DUEs are detections of dynamically-dead data — the error rate a
design *adds* by detecting errors it did not need to catch.  Shape targets
(Sec. VII-D): false DUE is a small contributor on average, but significant
for some workloads; how its share moves with fault-mode size depends on the
workload's access pattern (it can go either way).
"""

import numpy as np
import pytest

from repro.core import FaultMode, Interleaving, Parity
from repro.workloads.suite import EVALUATION_SET

MODES = (1, 2, 4)


def _measure(study_of):
    rows = {}
    for wl in EVALUATION_SET:
        study = study_of(wl)
        per_mode = {}
        for m in MODES:
            res = study.avf(
                "l1", FaultMode.linear(m), Parity(),
                style=Interleaving.WAY_PHYSICAL, factor=4,
            )
            per_mode[m] = (res.true_due_avf, res.false_due_avf)
        # The L2 sees fill and writeback reads of dead data too.
        l2 = study.avf("l2", FaultMode.linear(1), Parity())
        rows[wl] = (per_mode, (l2.true_due_avf, l2.false_due_avf))
    return rows


def _share(t, f):
    return f / (t + f) if (t + f) > 0 else 0.0


@pytest.mark.benchmark(group="figure10")
def test_figure10_false_due(benchmark, study_of, report):
    rows = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [
        f"{'workload':<14} " + " ".join(
            f"{'L1 ' + str(m) + 'x1 f%':>11}" for m in MODES
        ) + f" {'L2 1x1 f%':>11}"
    ]
    shares = {m: [] for m in MODES}
    l2_shares = []
    for wl, (pm, l2) in rows.items():
        cells = []
        for m in MODES:
            sh = _share(*pm[m])
            if pm[m][0] + pm[m][1] > 1e-5:
                shares[m].append(sh)
            cells.append(f"{sh:11.1%}")
        l2sh = _share(*l2)
        if l2[0] + l2[1] > 1e-5:
            l2_shares.append(l2sh)
        lines.append(f"{wl:<14} " + " ".join(cells) + f" {l2sh:11.1%}")
    mean_l1 = float(np.mean(shares[1])) if shares[1] else 0.0
    mean_l2 = float(np.mean(l2_shares)) if l2_shares else 0.0
    lines.append(f"mean false-DUE share: L1 {mean_l1:.1%}, L2 {mean_l2:.1%}")
    report("figure10_false_due", lines)

    # Shape target 1: false DUE exists somewhere (detection is not free).
    all_shares = [s for v in shares.values() for s in v] + l2_shares
    assert max(all_shares) > 0.0
    # Shape target 2: on average false DUE is a minority contributor.
    assert mean_l1 < 0.5
    # Shape target 3: some workload has a markedly higher false-DUE share
    # than the mean (the paper's CoMD/srad effect).
    assert max(all_shares) > 2 * min(mean_l1, mean_l2) or max(all_shares) > 0.1
