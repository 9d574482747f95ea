"""Figure 5: MiniFE SB-AVF and 2x1 MB-AVF over time (program phases).

Shape targets (Sec. VI-B): both AVFs track the benchmark's cache usage over
time, but the MB/SB ratio *changes across phases* — the ratio is a property
of ACE locality, not of the AVF level — and the interleaving styles differ
by phase.
"""

import numpy as np
import pytest

from repro.core import FaultMode, Interleaving, Parity
from repro.core.intervals import Outcome

BUCKETS = 10


def _measure(study_of):
    study = study_of("minife")
    edges = np.linspace(0, study.end_cycle, BUCKETS + 1).astype(int)
    sb = study.avf(
        "l1", FaultMode.linear(1), Parity(), series_edges=edges
    )
    series = {"sb": _due_series(sb)}
    for label, style in (
        ("logical", Interleaving.LOGICAL),
        ("way", Interleaving.WAY_PHYSICAL),
        ("index", Interleaving.INDEX_PHYSICAL),
    ):
        mb = study.avf(
            "l1", FaultMode.linear(2), Parity(),
            style=style, factor=2, series_edges=edges,
        )
        series[label] = _due_series(mb)
    return edges, series


def _due_series(res):
    return res.series_avf(Outcome.TRUE_DUE) + res.series_avf(Outcome.FALSE_DUE)


@pytest.mark.benchmark(group="figure5")
def test_figure5_minife_phases(benchmark, study_of, report):
    edges, series = benchmark.pedantic(
        _measure, args=(study_of,), rounds=1, iterations=1
    )
    lines = [f"{'bucket':>7} {'SB':>8} {'2x1 log':>9} {'2x1 way':>9} {'2x1 idx':>9} {'idx/SB':>8}"]
    for b in range(BUCKETS):
        sb = series["sb"][b]
        ratio = series["index"][b] / sb if sb > 1e-9 else float("nan")
        lines.append(
            f"{b:>7} {sb:8.4f} {series['logical'][b]:9.4f} "
            f"{series['way'][b]:9.4f} {series['index'][b]:9.4f} {ratio:8.2f}"
        )
    report("figure5_minife_phases", lines)

    sb = series["sb"]
    active = sb > 0.02
    assert active.sum() >= 3, "minife must show several active phases"
    # Shape target 1: AVF varies over time (phases exist).
    assert sb[active].max() > 1.5 * sb[active].min()
    # Shape target 2: the MB/SB ratio itself changes between phases.
    ratios = series["index"][active] / sb[active]
    assert ratios.max() - ratios.min() > 0.02
    assert (ratios >= 1.0 - 1e-6).all()
    # Shape target 3: per-bucket MB-AVF of every style stays within [SB, 2xSB]
    # (up to the row-boundary group-count factor).
    for label in ("logical", "way", "index"):
        r = series[label][active] / sb[active]
        assert (r <= 2.0 * 1.005).all(), label
