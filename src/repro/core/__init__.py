"""Core MB-AVF analysis: the paper's primary contribution."""

from .analysis import AvfStudy
from .designer import (
    VGPR_DESIGN_PALETTE,
    DesignPoint,
    DesignResult,
    choose_design,
    evaluate_designs,
    sb_approx_ser,
)
from .markov import WordMarkovModel, cache_mttf_hours, word_mttf_hours
from .sweep import (
    SweepPoint,
    sweep_avf,
    sweep_cache_avf,
    sweep_vgpr_avf,
    tabulate,
)
from .avf import (
    AvfConfig,
    MbAvfResult,
    StructureLifetimes,
    ace_locality,
    compute_mb_avf,
    compute_mb_avf_batch,
)
from .faultmodes import MX1_MODES, FaultMode
from .intervals import AceClass, IntervalSet, Outcome
from .layout import (
    Interleaving,
    SramArray,
    build_cache_array,
    build_regfile_array,
    build_tag_array,
)
from .lifetime import derive_tag_lifetimes
from .mttf import figure2_sweep, mttf_smbf_hours, mttf_tmbf_hours
from .protection import (
    SCHEMES,
    Crc,
    DecTed,
    NoProtection,
    Parity,
    ProtectionScheme,
    Reaction,
    SecDed,
)
from .ser import (
    TABLE_I,
    TABLE_III,
    StructureSer,
    chip_ser,
    fault_mode_fractions,
    soft_error_rate,
)

__all__ = [
    "AvfStudy",
    "VGPR_DESIGN_PALETTE",
    "DesignPoint",
    "DesignResult",
    "choose_design",
    "evaluate_designs",
    "sb_approx_ser",
    "WordMarkovModel",
    "cache_mttf_hours",
    "word_mttf_hours",
    "SweepPoint",
    "sweep_avf",
    "sweep_cache_avf",
    "sweep_vgpr_avf",
    "tabulate",
    "AvfConfig",
    "MbAvfResult",
    "StructureLifetimes",
    "ace_locality",
    "compute_mb_avf",
    "compute_mb_avf_batch",
    "MX1_MODES",
    "FaultMode",
    "AceClass",
    "IntervalSet",
    "Outcome",
    "Interleaving",
    "SramArray",
    "build_cache_array",
    "build_regfile_array",
    "build_tag_array",
    "derive_tag_lifetimes",
    "figure2_sweep",
    "mttf_smbf_hours",
    "mttf_tmbf_hours",
    "SCHEMES",
    "Crc",
    "DecTed",
    "NoProtection",
    "Parity",
    "ProtectionScheme",
    "Reaction",
    "SecDed",
    "TABLE_I",
    "TABLE_III",
    "StructureSer",
    "chip_ser",
    "fault_mode_fractions",
    "soft_error_rate",
]
