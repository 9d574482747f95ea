"""Quickstart: measure single- and multi-bit AVFs of a GPU L1 cache.

Runs the vector-add workload on the simulated APU, then computes the
single-bit AVF and the 2x1 multi-bit AVF of the L1 data array under parity
protection with x2 logical interleaving — the paper's core measurement
(Sec. V/VI).

Run with:  python examples/quickstart.py
"""

from repro.core import AvfStudy, FaultMode, Interleaving, Parity
from repro.experiments import scaled_apu_kwargs
from repro.workloads import run


def main() -> None:
    # 1. Execute a workload to completion on the simulated APU.  Outputs are
    #    verified against a numpy reference automatically.  (matmul has
    #    cache reuse, so its L1 AVF is interesting; a streaming kernel like
    #    vectoradd consumes each line the cycle it arrives and shows ~0.)
    result = run("matmul", apu_kwargs=scaled_apu_kwargs())
    print(f"ran {result.name}: {result.total_instructions} vector instructions, "
          f"{result.end_cycle} cycles")

    # 2. Build an AVF study: this runs the liveness (dynamic-dead + logic
    #    masking) analysis and prepares per-structure lifetimes.
    study = AvfStudy(result.apu, result.output_ranges)

    # 3. Single-bit AVF (the classic ACE-analysis measurement).
    sb = study.avf("l1", FaultMode.linear(1), Parity())
    print(f"L1 single-bit DUE AVF (parity): {sb.due_avf:.4f}")

    # 4. 2x1 spatial multi-bit AVF with x2 logical interleaving.
    mb = study.avf(
        "l1", FaultMode.linear(2), Parity(),
        style=Interleaving.LOGICAL, factor=2,
    )
    print(f"L1 2x1 DUE MB-AVF (parity, logical x2): {mb.due_avf:.4f}")
    print(f"L1 2x1 SDC MB-AVF:                      {mb.sdc_avf:.4f}")

    # 5. The paper's headline property: MB-AVF is between 1x and Mx the
    #    single-bit AVF, with the ratio set by ACE locality.
    if sb.due_avf > 0:
        print(f"MB/SB ratio: {mb.due_avf / sb.due_avf:.2f} "
              f"(theoretical range 1.0 - 2.0)")
    loc = study.cache_ace_locality(
        "l1", style=Interleaving.LOGICAL, factor=2
    )
    print(f"ACE locality of the interleaved layout: {loc:.3f}")


if __name__ == "__main__":
    main()
