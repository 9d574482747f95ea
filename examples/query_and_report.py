"""Persist measurements, then answer questions without re-simulating.

The pipeline this demonstrates (docs/results-store.md):

1. measure a small VGPR protection sweep and sink it into a sqlite
   results store (idempotent: run this script twice, nothing doubles);
2. query the store — per-design mean SDC MB-AVF — with zero further
   simulation;
3. render the byte-stable HTML report from the store alone.

Run with:  python examples/query_and_report.py
"""

from pathlib import Path

from repro.core import (
    SCHEMES,
    AvfStudy,
    FaultMode,
    Interleaving,
    figure2_sweep,
)
from repro.core.sweep import sweep_avf
from repro.report import build_report
from repro.store import ResultStore
from repro.workloads import run


def main() -> None:
    store_path = Path("results.sqlite")

    # -- 1. measure and persist (the only simulation in this script) ----
    for name in ("vectoradd", "transpose"):
        result = run(name)
        study = AvfStudy(result.apu, result.output_ranges)
        with ResultStore(store_path) as store:
            points = sweep_avf(
                study, "vgpr",
                modes=[FaultMode.linear(2), FaultMode.linear(4)],
                schemes=[SCHEMES["none"], SCHEMES["parity"]],
                layouts=[
                    (Interleaving.INTRA_THREAD, 1),
                    (Interleaving.INTER_THREAD, 2),
                ],
                store=store,
                workload=name,
            )
        print(f"{name}: {len(points)} sweep points persisted")
    with ResultStore(store_path) as store:
        store.put_mttf_rows(figure2_sweep())
        info = store.summary()
    print(f"store now holds {info['avf_results']} AVF rows, "
          f"{info['mttf_rows']} MTTF rows\n")

    # -- 2. query: no simulator, no AVF engine, just the store ----------
    with ResultStore(store_path) as store:
        result = store.query(structure="vgpr")
        per_design = result.group_by(
            ("scheme", "style", "factor"), value="sdc_avf", agg="mean"
        )
    print("mean SDC MB-AVF per protection design (both workloads):")
    for (scheme, style, factor), sdc in per_design.items():
        print(f"  {scheme:<8} {style:<14} x{factor}   {sdc:.6f}")

    # -- 3. render the report from the store alone ----------------------
    with ResultStore(store_path) as store:
        index = build_report(store, Path("report"))
    print(f"\nreport written to {index} (open it in a browser)")


if __name__ == "__main__":
    main()
