"""Ablation: two-dimensional fault modes (arbitrary geometries, Sec. VI-A).

The paper's model "supports fault modes with arbitrary geometries,
including contiguous and non-contiguous fault modes of any size"; its
evaluation focuses on Mx1 wordline faults.  This ablation exercises the
generic-geometry path at scale with square and vertical modes and checks
the geometric orderings:

* a 2x2 fault contains both 2x1 rows, so its AVF dominates the 2x1 AVF;
* a vertical 1x2 fault spans two wordlines (different lines in every
  layout), behaving like physical interleaving even when the horizontal
  layout is logical;
* an L-shaped (non-contiguous bounding box) mode sits between its subset
  and superset modes.
"""

import pytest

from repro.core import FaultMode, Interleaving, NoProtection

MODES = {
    "2x1": FaultMode.linear(2),
    "1x2 (vertical)": FaultMode.rect(2, 1),
    "2x2": FaultMode.rect(2, 2),
    "L-shape": FaultMode("L", ((0, 0), (1, 0), (1, 1))),
    "3x3": FaultMode.rect(3, 3),
}


def _measure(study_of):
    study = study_of("minife")
    out = {}
    for label, mode in MODES.items():
        res = study.avf(
            "l1", mode, NoProtection(),
            style=Interleaving.LOGICAL, factor=2,
        )
        out[label] = res.sdc_avf
    out["SB"] = study.avf(
        "l1", FaultMode.linear(1), NoProtection()
    ).sdc_avf
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_rect_modes(benchmark, study_of, report):
    avf = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [f"{'mode':<16} {'SDC AVF (unprotected)':>22}"]
    for label in ("SB", *MODES):
        lines.append(f"{label:<16} {avf[label]:22.4f}")
    report("ablation_rect_modes", lines)

    # Containment ordering: adding bits to a mode can only increase the
    # unprotected AVF (union of ACEness grows).
    assert avf["2x2"] >= avf["2x1"] - 1e-12
    assert avf["2x2"] >= avf["1x2 (vertical)"] - 1e-12
    assert avf["2x2"] >= avf["L-shape"] - 1e-12
    assert avf["L-shape"] >= avf["1x2 (vertical)"] - 1e-12
    assert avf["3x3"] >= avf["2x2"] - 1e-12
    # Every multi-bit mode dominates the single-bit AVF.
    for label in MODES:
        assert avf[label] >= avf["SB"] - 1e-12
