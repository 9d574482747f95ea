"""VGPR protection design study (paper Sec. VIII / Figure 11, miniature).

Chooses a protection scheme for the GPU vector register file by combining
per-fault-mode MB-AVFs with the raw fault rates of Table III into SDC and
DUE soft error rates, for parity vs SEC-DED ECC and intra- vs inter-thread
interleaving.  The paper's conclusion — parity with x4 inter-thread
interleaving beats SEC-DED at a fraction of the area — emerges from the
same computation here.

Run with:  python examples/vgpr_protection_design.py
"""

from repro.core import (
    AvfStudy,
    FaultMode,
    Interleaving,
    Parity,
    SecDed,
    TABLE_III,
    soft_error_rate,
)
from repro.workloads import run

WORKLOADS = ("matmul", "transpose", "histogram")
DESIGNS = [
    ("parity rx2", Parity(), Interleaving.INTRA_THREAD, 2),
    ("parity rx4", Parity(), Interleaving.INTRA_THREAD, 4),
    ("parity tx2", Parity(), Interleaving.INTER_THREAD, 2),
    ("parity tx4", Parity(), Interleaving.INTER_THREAD, 4),
    ("secded rx2", SecDed(), Interleaving.INTRA_THREAD, 2),
    ("secded tx2", SecDed(), Interleaving.INTER_THREAD, 2),
]


def main() -> None:
    studies = []
    for wl in WORKLOADS:
        result = run(wl)
        studies.append(AvfStudy(result.apu, result.output_ranges))

    print(f"{'design':<12} {'area ovh':>9} {'SDC rate':>9} {'DUE rate':>9}")
    print("-" * 42)
    for label, scheme, style, factor in DESIGNS:
        sdc = due = 0.0
        for study in studies:
            avf_by_mode = {}
            for mode_name, _fit in TABLE_III.items():
                m = int(mode_name.split("x")[0])
                res = study.avf(
                    "vgpr", FaultMode.linear(m), scheme,
                    style=style, factor=factor,
                )
                avf_by_mode[mode_name] = (res.due_avf, res.sdc_avf)
            ser = soft_error_rate(TABLE_III, avf_by_mode, "vgpr")
            sdc += ser.sdc_fit / len(studies)
            due += ser.due_fit / len(studies)
        ovh = scheme.area_overhead(32)
        print(f"{label:<12} {ovh:8.1%} {sdc:9.4f} {due:9.4f}")
    print("\n(rates in the Table III unit where the total raw fault rate is")
    print(" 100; the paper finds parity tx4 yields the lowest SDC rate)")


if __name__ == "__main__":
    main()
