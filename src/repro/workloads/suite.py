"""Workload registry and the one-call entry point used by the experiments."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from .amdapp import (
    Dct,
    DwtHaar1D,
    FastWalshTransform,
    Histogram,
    MatrixMultiplication,
    MatrixTranspose,
    PrefixSum,
    RecursiveGaussian,
    ScanLargeArrays,
)
from .base import Workload, WorkloadRun, run_workload
from .mantevo import CoMD, MiniFe
from .rodinia import Hotspot, Srad
from .rodinia2 import Backprop, KMeans, NeedlemanWunsch, Pathfinder
from .simple import Reduction, VectorAdd

__all__ = ["REGISTRY", "names", "run", "OPENCL_SAMPLES", "EVALUATION_SET"]

#: All available workloads by name.
REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        VectorAdd, Reduction,
        MatrixMultiplication, MatrixTranspose, PrefixSum, ScanLargeArrays,
        Histogram, FastWalshTransform, DwtHaar1D, Dct, RecursiveGaussian,
        Srad, Hotspot, Backprop, KMeans, Pathfinder, NeedlemanWunsch,
        MiniFe, CoMD,
    )
}

#: The AMD OpenCL sample subset used for the Table II injection study.
OPENCL_SAMPLES = (
    "scan", "dct", "dwthaar", "fastwalsh", "histogram", "transpose",
    "prefixsum", "recursivegaussian", "matmul",
)

#: The default cross-workload evaluation set for the cache AVF figures
#: (Figures 4, 6, 9, 10, 11) — one representative per access-pattern family.
EVALUATION_SET = (
    "vectoradd", "reduction", "matmul", "transpose", "prefixsum", "histogram",
    "fastwalsh", "dct", "srad", "hotspot", "minife", "comd",
)


def names() -> List[str]:
    """All registered workload names, sorted."""
    return sorted(REGISTRY)


def run(
    name: str,
    *,
    seed: int = 0,
    n_cus: int = 4,
    apu_kwargs: Optional[dict] = None,
) -> WorkloadRun:
    """Instantiate, execute and verify a workload by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown workload {name!r}; have {names()}")
    return run_workload(
        REGISTRY[name](seed=seed), n_cus=n_cus, apu_kwargs=apu_kwargs
    )
