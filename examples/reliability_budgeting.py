"""Chip-level reliability budgeting with MB-AVF, SER and MTTF models.

Pulls the whole library together the way an architect would during design:

1. measure MB-AVFs of the L1 data array, the L1 tag array and the VGPR on
   a workload mix;
2. fold them with per-mode raw fault rates into per-structure SERs and a
   chip-level SER (eq. 3 of the paper);
3. ask the design optimizer for the cheapest VGPR protection meeting an
   SDC target (the Sec. VIII flow);
4. sanity-check against the Markov-chain (MACAU-style) intrinsic-MTTF
   model for the chosen code with scrubbing.

Run with:  python examples/reliability_budgeting.py
"""

from repro.core import (
    TABLE_III,
    AvfStudy,
    FaultMode,
    Parity,
    SecDed,
    cache_mttf_hours,
    chip_ser,
    choose_design,
    evaluate_designs,
    soft_error_rate,
)
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run

WORKLOADS = ("matmul", "dct", "srad")


def _structure_ser(study, structure, name, scheme):
    avf_by_mode = {}
    for mode_name in TABLE_III:
        m = int(mode_name.split("x")[0])
        res = study.avf(name, FaultMode.linear(m), scheme)
        avf_by_mode[mode_name] = (res.due_avf, res.sdc_avf)
    return soft_error_rate(TABLE_III, avf_by_mode, structure)


def main() -> None:
    studies = []
    for wl in WORKLOADS:
        result = run(wl, apu_kwargs=scaled_apu_kwargs())
        studies.append(AvfStudy(result.apu, result.output_ranges))

    # --- per-structure SER under a baseline design (parity everywhere) ----
    print("per-structure SER (parity, no interleaving), averaged over "
          f"{len(WORKLOADS)} workloads:")
    sers = []
    for structure, name in (
        ("l1-data", "l1"), ("l1-tags", "l1.tags"), ("vgpr", "vgpr"),
    ):
        due = sdc = 0.0
        for study in studies:
            ser = _structure_ser(study, structure, name, Parity())
            due += ser.due_fit / len(studies)
            sdc += ser.sdc_fit / len(studies)
        from repro.core import StructureSer  # local import for the record
        sers.append(StructureSer(structure, due, sdc))
        print(f"  {structure:<8} DUE {due:8.4f}  SDC {sdc:8.4f}")
    total = chip_ser(sers)
    print(f"  {'chip':<8} DUE {total.due_fit:8.4f}  SDC {total.sdc_fit:8.4f}")

    # --- VGPR design choice under an SDC budget ---------------------------
    results = evaluate_designs(studies)
    target = 0.10  # SDC budget for the VGPR, in Table III rate units
    best = choose_design(results, sdc_target=target)
    print(f"\nVGPR designs (SDC target {target}):")
    for r in sorted(results, key=lambda r: r.sdc_rate):
        mark = " <-- chosen" if best and r.label == best.label else ""
        print(f"  {r.label:<12} area {r.area_overhead:5.1%} "
              f"SDC {r.sdc_rate:7.4f}  DUE {r.due_rate:7.4f}{mark}")

    # --- intrinsic MTTF cross-check (Markov / MACAU-style) ----------------
    print("\nintrinsic 32MB-cache MTTF (hours), 1 FIT/Mbit, daily scrub:")
    for scheme, label in ((Parity(), "parity"), (SecDed(), "secded")):
        mttf = cache_mttf_hours(
            scheme, 32 << 20, raw_fit_per_mbit=1.0, scrub_interval_hours=24.0,
            smbf_defeat_fraction=0.001,
        )
        print(f"  {label:<8} {mttf:12.3e}")


if __name__ == "__main__":
    main()
