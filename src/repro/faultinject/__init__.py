"""Fault-injection framework (the paper's multi2sim-based study analogue)."""

from .campaign import (
    BenchmarkCampaign,
    InjectionOutcome,
    InjectionSpec,
    MemorySpec,
    ace_interference_study,
    injection_class,
    run_campaign,
)
from .validation import ValidationResult, validate_memory_avf

__all__ = [
    "BenchmarkCampaign",
    "InjectionOutcome",
    "InjectionSpec",
    "MemorySpec",
    "ace_interference_study",
    "injection_class",
    "run_campaign",
    "ValidationResult",
    "validate_memory_avf",
]
