"""GPU/APU simulation substrate: ISA, caches, memory, execution, liveness."""

from .cache import L1_CONFIG, L2_CONFIG, Cache, CacheConfig, MemSystem
from .gpu import (
    Apu, ComputeUnit, Launch, LaunchStats, SimulationHang, Wavefront,
)
from .isa import (
    WAVEFRONT_LANES,
    Instr,
    Program,
    ProgramBuilder,
    fimm,
    imm,
    s,
    v,
)
from .liveness import analyze_liveness
from .memory import GlobalMemory

__all__ = [
    "L1_CONFIG",
    "L2_CONFIG",
    "Cache",
    "CacheConfig",
    "MemSystem",
    "Apu",
    "ComputeUnit",
    "Launch",
    "LaunchStats",
    "SimulationHang",
    "Wavefront",
    "WAVEFRONT_LANES",
    "Instr",
    "Program",
    "ProgramBuilder",
    "fimm",
    "imm",
    "s",
    "v",
    "analyze_liveness",
    "GlobalMemory",
]
