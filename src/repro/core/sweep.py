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
from typing import Dict, Iterable, List, Sequence, Tuple

from .analysis import AvfStudy, due_preempts_sdc_for
from .avf import AvfConfig, MbAvfResult
from .faultmodes import FaultMode
from .layout import Interleaving
from .protection import ProtectionScheme

__all__ = ["SweepPoint", "sweep_cache_avf", "sweep_vgpr_avf", "tabulate"]


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


def _run_grid(
    structure: str,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Iterable[Tuple[Interleaving, int]],
    measure_batch,
) -> List[SweepPoint]:
    """Evaluate the grid, one engine batch per physical layout.

    Every (scheme, mode) cell of a layout goes to
    ``measure_batch(style, factor, pairs)`` together.
    """
    modes = list(modes)
    pairs = [(scheme, mode) for scheme in schemes for mode in modes]
    groups: Dict[Tuple[Interleaving, int], List[Tuple]] = {}
    for style, factor in layouts:
        groups.setdefault((style, factor), []).extend(pairs)
    points: List[SweepPoint] = []
    for (style, factor), cells in groups.items():
        for res in measure_batch(style, factor, cells):
            points.append(SweepPoint.from_result(structure, style, factor, res))
    return points


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


def sweep_cache_avf(
    study: AvfStudy,
    level: str,
    *,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Iterable[Tuple[Interleaving, int]] = ((Interleaving.NONE, 1),),
    domain_bytes: int = 4,
    store=None,
    workload: str = "unknown",
    seed: int = 0,
) -> List[SweepPoint]:
    """Measure every (mode, scheme, layout) combination on a cache level.

    ``store`` (a :class:`~repro.store.ResultStore` or path) persists the
    measured points under ``workload``/``seed`` through
    :func:`repro.store.persist`; the write is keyed by the canonical
    configuration tuple, so re-running the same sweep into the same
    store is a no-op, and a store that fails to take it does not fail
    the sweep.
    """

    def measure_batch(style, factor, pairs):
        configs = [AvfConfig(mode=m, scheme=s) for s, m in pairs]
        return study.cache_avf_batch(
            level, configs,
            style=style, factor=factor, domain_bytes=domain_bytes,
        )

    points = _run_grid(level, modes, schemes, layouts, measure_batch)
    _sink(points, store, workload, seed)
    return points


def sweep_vgpr_avf(
    study: AvfStudy,
    *,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Iterable[Tuple[Interleaving, int]] = (
        (Interleaving.INTRA_THREAD, 1),
    ),
    store=None,
    workload: str = "unknown",
    seed: int = 0,
) -> List[SweepPoint]:
    """Measure every (mode, scheme, layout) combination on the VGPR.

    ``store``/``workload``/``seed`` persist the points exactly as in
    :func:`sweep_cache_avf`.
    """

    def measure_batch(style, factor, pairs):
        due = due_preempts_sdc_for(style)
        configs = [
            AvfConfig(mode=m, scheme=s, due_preempts_sdc=due)
            for s, m in pairs
        ]
        return study.vgpr_avf_batch(configs, style=style, factor=factor)

    points = _run_grid("vgpr", modes, schemes, layouts, measure_batch)
    _sink(points, store, workload, seed)
    return points


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
