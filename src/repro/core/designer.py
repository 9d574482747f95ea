"""Protection-design exploration: minimise area under an SDC target.

Sec. VIII of the paper frames the architect's problem as "minimize overall
die area spent on reliability while achieving specified SER targets".  This
module automates that flow: evaluate a palette of (scheme, interleaving)
design points against measured MB-AVFs and per-mode raw fault rates, then
pick the cheapest design meeting the target.  :func:`sb_approx_ser` is the
estimate a designer without MB-AVF analysis would make instead (Fig. 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .analysis import AvfStudy
from .avf import AvfConfig
from .faultmodes import FaultMode
from .layout import Interleaving
from .protection import (
    NoProtection,
    Parity,
    ProtectionScheme,
    Reaction,
    SecDed,
)
from .ser import TABLE_III, StructureSer, soft_error_rate

__all__ = ["DesignPoint", "DesignResult", "evaluate_designs", "choose_design",
           "sb_approx_ser", "VGPR_DESIGN_PALETTE"]


@dataclass(frozen=True)
class DesignPoint:
    """One candidate protection design for a structure."""

    label: str
    scheme: ProtectionScheme
    style: Interleaving
    factor: int

    def area_overhead(self, word_bits: int = 32) -> float:
        return self.scheme.check_bits(word_bits) / word_bits


@dataclass(frozen=True)
class DesignResult:
    """A design point with its evaluated rates."""

    point: DesignPoint
    sdc_rate: float
    due_rate: float
    area_overhead: float

    @property
    def label(self) -> str:
        return self.point.label


#: The Sec. VIII palette: parity/SEC-DED x intra(r)/inter(t)-thread x2/x4.
VGPR_DESIGN_PALETTE: Tuple[DesignPoint, ...] = (
    DesignPoint("parity rx2", Parity(), Interleaving.INTRA_THREAD, 2),
    DesignPoint("parity rx4", Parity(), Interleaving.INTRA_THREAD, 4),
    DesignPoint("parity tx2", Parity(), Interleaving.INTER_THREAD, 2),
    DesignPoint("parity tx4", Parity(), Interleaving.INTER_THREAD, 4),
    DesignPoint("secded rx2", SecDed(), Interleaving.INTRA_THREAD, 2),
    DesignPoint("secded rx4", SecDed(), Interleaving.INTRA_THREAD, 4),
    DesignPoint("secded tx2", SecDed(), Interleaving.INTER_THREAD, 2),
    DesignPoint("secded tx4", SecDed(), Interleaving.INTER_THREAD, 4),
)


def _modes_of(fit_by_mode: Mapping[str, float]) -> List[int]:
    return sorted(int(m.split("x")[0]) for m in fit_by_mode)


def evaluate_designs(
    studies: Sequence[AvfStudy],
    *,
    structure: str = "vgpr",
    designs: Sequence[DesignPoint] = VGPR_DESIGN_PALETTE,
    fit_by_mode: Mapping[str, float] = TABLE_III,
    word_bits: int = 32,
) -> List[DesignResult]:
    """Measure the SDC/DUE rate of every design point over the workloads.

    Rates are the per-mode raw fault rates weighted by the per-mode MB-AVFs
    (eq. 3), averaged across the given studies.  Design points sharing a
    layout are measured in one :meth:`AvfStudy.avf_batch` per study, which
    applies the Sec. VIII rule.
    """
    modes = _modes_of(fit_by_mode)
    by_layout: Dict[Tuple[Interleaving, int], List[int]] = {}
    for i, point in enumerate(designs):
        by_layout.setdefault((point.style, point.factor), []).append(i)
    sdc = [0.0] * len(designs)
    due = [0.0] * len(designs)
    for study in studies:
        for (style, factor), members in by_layout.items():
            configs = [
                AvfConfig(mode=FaultMode.linear(m), scheme=designs[i].scheme)
                for i in members
                for m in modes
            ]
            res = study.avf_batch(
                structure, configs, style=style, factor=factor
            )
            for j, i in enumerate(members):
                chunk = res[j * len(modes):(j + 1) * len(modes)]
                avf_by_mode = {
                    f"{m}x1": (r.due_avf, r.sdc_avf)
                    for m, r in zip(modes, chunk)
                }
                ser = soft_error_rate(fit_by_mode, avf_by_mode, structure)
                sdc[i] += ser.sdc_fit / len(studies)
                due[i] += ser.due_fit / len(studies)
    return [
        DesignResult(point, sdc[i], due[i], point.area_overhead(word_bits))
        for i, point in enumerate(designs)
    ]


def sb_approx_ser(study: AvfStudy, point: DesignPoint) -> StructureSer:
    """The VGPR SER a designer estimates with only single-bit AVF in hand.

    Every fault mode's AVF is approximated by the single-bit ACE fraction;
    the scheme reaction is derived from the worst per-word flip count
    (``ceil(M / factor)``).
    """
    sb = study.avf("vgpr", FaultMode.linear(1), NoProtection()).sdc_avf
    avf_by_mode: Dict[str, Tuple[float, float]] = {}
    for m in _modes_of(TABLE_III):
        reaction = point.scheme.react(math.ceil(m / point.factor))
        if reaction in (Reaction.UNDETECTED, Reaction.MISCORRECTED):
            avf_by_mode[f"{m}x1"] = (0.0, sb)
        elif reaction is Reaction.DETECTED:
            avf_by_mode[f"{m}x1"] = (sb, 0.0)
        else:
            avf_by_mode[f"{m}x1"] = (0.0, 0.0)
    return soft_error_rate(TABLE_III, avf_by_mode, "vgpr")


def choose_design(
    results: Sequence[DesignResult],
    *,
    sdc_target: float,
    due_target: Optional[float] = None,
) -> Optional[DesignResult]:
    """Cheapest design meeting the SDC (and optionally DUE) target.

    Ties on area break toward lower SDC.  Returns None when no candidate
    meets the targets — the signal to strengthen the palette.
    """
    feasible = [
        r for r in results
        if r.sdc_rate <= sdc_target
        and (due_target is None or r.due_rate <= due_target)
    ]
    if not feasible:
        return None
    return min(feasible, key=lambda r: (r.area_overhead, r.sdc_rate))
