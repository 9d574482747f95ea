"""MB-AVF: architectural vulnerability factors for spatial multi-bit faults.

A reproduction of Wilkening et al., "Calculating Architectural Vulnerability
Factors for Spatial Multi-Bit Transient Faults" (MICRO 2014): a GPU/APU
performance simulator with ACE-analysis instrumentation, an MB-AVF engine
covering DUE and SDC AVFs for arbitrary fault modes, protection schemes and
interleaving styles, a fault-injection framework, and the paper's workloads
and experiments.

Quickstart::

    from repro import core, workloads

    run = workloads.run("vectoradd")
    study = core.AvfStudy(run.apu, run.output_ranges)
    res = study.avf(
        "l1", core.FaultMode.linear(2), core.Parity(),
        style=core.Interleaving.LOGICAL, factor=2,
    )
    print(res.due_avf, res.sdc_avf)
"""

from . import arch, core, faultinject, workloads

__version__ = "1.0.0"

__all__ = ["arch", "core", "faultinject", "workloads", "__version__"]
