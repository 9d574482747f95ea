"""Configuration sweeps: measure a grid of AVFs in one call.

The experiments repeatedly measure (fault mode x protection scheme x
interleaving) grids; this utility packages that loop with caching-friendly
iteration order and a flat, easily-tabulated result form.

Every sweep runs the engine's batch path: the cells that share a physical
layout form one batch, so enumeration and region caches are shared
across that layout's schemes and modes.  Journaled, resumable and
parallel sweeps over many benchmarks go through
:func:`repro.experiments.sweep_benchmarks` (``journal=``, ``jobs=``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .analysis import AvfStudy, _cache_level
from .avf import AvfConfig, MbAvfResult
from .faultmodes import FaultMode
from .layout import Interleaving
from .protection import ProtectionScheme

__all__ = [
    "SweepPoint", "sweep_avf", "sweep_cache_avf", "sweep_vgpr_avf", "tabulate",
]


@dataclass(frozen=True)
class SweepPoint:
    """One measured configuration of a sweep."""

    structure: str
    mode: str
    scheme: str
    style: str
    factor: int
    due_avf: float
    sdc_avf: float
    true_due_avf: float
    false_due_avf: float

    @classmethod
    def from_result(
        cls, structure: str, style: Interleaving, factor: int, res: MbAvfResult
    ) -> "SweepPoint":
        return cls(
            structure=structure,
            mode=res.mode.name,
            scheme=res.scheme,
            style=style.value,
            factor=factor,
            due_avf=res.due_avf,
            sdc_avf=res.sdc_avf,
            true_due_avf=res.true_due_avf,
            false_due_avf=res.false_due_avf,
        )


def _sink(
    points: Sequence[SweepPoint], store, workload: str, seed: int
) -> None:
    """Persist sweep points through the results sink, if one was given."""
    if store is None:
        return
    # Lazy import: sweeps must not pull sqlite machinery in unless a
    # sink was actually requested.
    from ..store import ingest_sweep_points, persist

    persist(
        store,
        lambda sink: ingest_sweep_points(
            sink, points, workload=workload, seed=seed
        ),
    )


def sweep_avf(
    study: AvfStudy,
    structure: str,
    *,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Optional[Iterable[Tuple[Optional[Interleaving], int]]] = None,
    store=None,
    workload: str = "unknown",
    seed: int = 0,
) -> List[SweepPoint]:
    """Measure every (mode, scheme, layout) combination on ``structure``.

    Each ``(style, factor)`` layout is one :meth:`AvfStudy.avf_batch` over
    all its (scheme, mode) cells, so enumeration and region caches are
    shared across them.  ``layouts`` defaults to the structure's default
    layout; a ``None`` style is the structure's default style.

    ``store`` (a :class:`~repro.store.ResultStore` or path) persists the
    measured points under ``workload``/``seed`` through
    :func:`repro.store.persist`; the write is keyed by the canonical
    configuration tuple, so re-running the same sweep into the same
    store is a no-op, and a store that fails to take it does not fail
    the sweep.
    """
    modes = list(modes)
    configs = [AvfConfig(mode=m, scheme=s) for s in schemes for m in modes]
    cells: Dict[Tuple[Optional[Interleaving], int], List[AvfConfig]] = {}
    for key in ((None, 1),) if layouts is None else layouts:
        cells.setdefault(key, []).extend(configs)
    points: List[SweepPoint] = []
    for (style, factor), batch in cells.items():
        layout, _ = study._structure(structure, style, factor)
        for res in study.avf_batch(
            structure, batch, style=style, factor=factor
        ):
            points.append(
                SweepPoint.from_result(structure, layout.style, factor, res)
            )
    _sink(points, store, workload, seed)
    return points


def sweep_cache_avf(study: AvfStudy, level: str, **kw) -> List[SweepPoint]:
    """:func:`sweep_avf` of the ``level`` ("l1" or "l2") cache's data
    array."""
    return sweep_avf(study, _cache_level(level), **kw)


def sweep_vgpr_avf(study: AvfStudy, **kw) -> List[SweepPoint]:
    """:func:`sweep_avf` of the vector register file."""
    return sweep_avf(study, "vgpr", **kw)


def tabulate(
    points: Sequence[SweepPoint],
    *,
    value: str = "due_avf",
    rows: str = "mode",
    cols: str = "scheme",
) -> Tuple[List[str], List[str], Dict[Tuple[str, str], float]]:
    """Pivot a sweep into (row labels, column labels, cell values).

    ``rows``/``cols`` name SweepPoint fields; cells hold the chosen value.
    Several points sharing a cell is almost always a malformed sweep (the
    pivot loses data), so collisions warn — the last point still wins.
    """
    row_labels: List[str] = []
    col_labels: List[str] = []
    cells: Dict[Tuple[str, str], float] = {}
    for p in points:
        r = str(getattr(p, rows))
        c = str(getattr(p, cols))
        if r not in row_labels:
            row_labels.append(r)
        if c not in col_labels:
            col_labels.append(c)
        if (r, c) in cells:
            warnings.warn(
                f"tabulate: several points share cell ({r}, {c}); "
                "the last one wins — pivot on more fields to keep them apart",
                stacklevel=2,
            )
        cells[(r, c)] = getattr(p, value)
    return row_labels, col_labels, cells
