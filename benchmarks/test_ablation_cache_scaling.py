"""Ablation: cache capacity vs AVF (the scaled-substitution sanity check).

DESIGN.md substitutes scaled caches (4KB L1 / 32KB L2) for the paper's
16KB/256KB pair, arguing AVF depends on the working-set-to-capacity ratio.
This ablation runs the same workload against both configurations and checks
the expected behaviours:

* the *utilised fraction* drives AVF: quadrupling the capacity without
  growing the working set cuts the AVF by roughly the capacity ratio;
* MB/SB ratios (the paper's normalised results) are far more stable across
  capacities than the absolute AVFs — which is what licenses the scaling.
"""

import pytest

from repro.core import AvfStudy, FaultMode, Interleaving, Parity
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run


def _measure():
    out = {}
    for label, kwargs in (
        ("scaled-4KB", scaled_apu_kwargs()),
        ("paper-16KB", {}),
    ):
        result = run("minife", apu_kwargs=kwargs or None)
        study = AvfStudy(result.apu, result.output_ranges)
        sb = study.avf("l1", FaultMode.linear(1), Parity()).due_avf
        mb = study.avf(
            "l1", FaultMode.linear(2), Parity(),
            style=Interleaving.WAY_PHYSICAL, factor=2,
        ).due_avf
        out[label] = (sb, mb)
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_cache_scaling(benchmark, report):
    res = benchmark.pedantic(_measure, rounds=1, iterations=1)
    lines = [f"{'config':<12} {'SB-AVF':>8} {'2x1 way':>9} {'MB/SB':>7}"]
    ratios = {}
    for label, (sb, mb) in res.items():
        ratios[label] = mb / sb if sb else float("nan")
        lines.append(f"{label:<12} {sb:8.4f} {mb:9.4f} {ratios[label]:6.2f}x")
    report("ablation_cache_scaling", lines)

    sb_small = res["scaled-4KB"][0]
    sb_big = res["paper-16KB"][0]
    # Absolute AVF drops with unused capacity (same working set).
    assert sb_small > 1.5 * sb_big
    # The normalised MB/SB ratio is stable across capacities (within 25%).
    assert ratios["scaled-4KB"] == pytest.approx(ratios["paper-16KB"], rel=0.25)
