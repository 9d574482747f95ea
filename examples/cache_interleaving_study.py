"""Interleaving-style study on the L1 cache (paper Figure 4, miniature).

Compares the 2x1 DUE MB-AVF (normalised to single-bit AVF) of three x2
interleaving styles — logical, way-physical and index-physical — across a
handful of workloads.  The paper's finding: logical interleaving has the
highest ACE locality and therefore the lowest MB-AVF.

Run with:  python examples/cache_interleaving_study.py
"""

from repro.core import AvfStudy, FaultMode, Interleaving, Parity
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run

WORKLOADS = ("matmul", "dct", "srad", "minife")
STYLES = (
    ("logical", Interleaving.LOGICAL),
    ("way-physical", Interleaving.WAY_PHYSICAL),
    ("index-physical", Interleaving.INDEX_PHYSICAL),
)


def main() -> None:
    header = f"{'workload':<12} {'SB-AVF':>8}" + "".join(
        f" {name:>15}" for name, _ in STYLES
    )
    print(header)
    print("-" * len(header))
    for wl in WORKLOADS:
        result = run(wl, apu_kwargs=scaled_apu_kwargs())
        study = AvfStudy(result.apu, result.output_ranges)
        sb = study.avf("l1", FaultMode.linear(1), Parity()).due_avf
        row = f"{wl:<12} {sb:8.4f}"
        for _, style in STYLES:
            mb = study.avf(
                "l1", FaultMode.linear(2), Parity(), style=style, factor=2
            ).due_avf
            ratio = mb / sb if sb else float("nan")
            row += f" {ratio:13.2f}x"
        print(row)
    print("\n(values are 2x1 MB-AVF normalised to SB-AVF; the paper finds")
    print(" logical interleaving consistently closest to the 1.0x minimum)")


if __name__ == "__main__":
    main()
