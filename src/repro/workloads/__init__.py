"""The paper's workloads (Rodinia / AMD OpenCL samples / Mantevo analogues)."""

from .base import Workload, WorkloadRun, new_device, run_workload
from .suite import EVALUATION_SET, OPENCL_SAMPLES, REGISTRY, names, run

__all__ = [
    "Workload",
    "WorkloadRun",
    "new_device",
    "run_workload",
    "EVALUATION_SET",
    "OPENCL_SAMPLES",
    "REGISTRY",
    "names",
    "run",
]
