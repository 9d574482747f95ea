"""Configuration sweeps: measure a grid of AVFs in one call.

The experiments repeatedly measure (fault mode x protection scheme x
interleaving) grids; this utility packages that loop with caching-friendly
iteration order and a flat, easily-tabulated result form.

Sweeps can optionally run through the campaign runtime
(:mod:`repro.runtime`): pass an :class:`~repro.runtime.Executor` and each
grid cell becomes a journaled task, so a long sweep is restartable and a
cell that fails (a harness bug on one configuration) is reported and
skipped instead of aborting the grid.

The same hook distributes a sweep: pass an executor built with
``fabric=`` (a :class:`~repro.runtime.fabric.FabricCoordinator`) and
``job=`` the ``sweep`` entrypoint (:func:`repro.runtime.fabric.sweep_job`)
and each cell is leased to a worker node instead — the nodes rebuild the study from the
job context and return the same JSON-safe points, the replicated
journal keeps the sweep resumable across node loss, and cells the fleet
cannot finish are demoted to the driver, which runs them through
``cell_fn``.  Registry schemes only (:data:`repro.core.protection.SCHEMES`):
a custom scheme object cannot be shipped as JSON.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .analysis import AvfStudy
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


def _scheme_label(scheme: ProtectionScheme) -> str:
    return getattr(scheme, "name", type(scheme).__name__.lower())


def _run_grid(
    structure, cells, measure, executor, measure_batch=None
) -> List[SweepPoint]:
    """Evaluate grid cells directly, or as journaled runtime tasks.

    ``cells`` is a list of ``(cell_id, (style, factor, scheme, mode))``.
    The direct path groups cells sharing a physical layout and hands each
    group to ``measure_batch(style, factor, pairs)`` (one engine batch per
    layout, so enumeration and region caches are shared across the group's
    schemes and modes); with an executor, each cell is instead a journaled
    task returning the point as a JSON-safe dict (so journaled sweeps
    reload exactly) and failed cells are warned about and dropped — the
    sweep degrades instead of dying.  An executor built with ``fabric=``
    leases the cells to worker nodes instead, and runs demoted cells on
    the driver through ``cell_fn``.
    """
    if executor is None:
        if measure_batch is not None:
            groups: Dict[Tuple, List[Tuple]] = {}
            for _, (style, factor, scheme, mode) in cells:
                groups.setdefault((style, factor), []).append((scheme, mode))
            points: List[SweepPoint] = []
            for (style, factor), pairs in groups.items():
                for res in measure_batch(style, factor, pairs):
                    points.append(
                        SweepPoint.from_result(structure, style, factor, res)
                    )
            return points
        return [
            SweepPoint.from_result(
                structure, style, factor, measure(style, factor, scheme, mode)
            )
            for _, (style, factor, scheme, mode) in cells
        ]
    from ..runtime import Task, TaskOutcome

    def cell_fn(args) -> dict:
        style, factor, scheme, mode = args
        res = measure(style, factor, scheme, mode)
        return asdict(SweepPoint.from_result(structure, style, factor, res))

    tasks = [Task(id=cell_id, payload=args) for cell_id, args in cells]
    results = executor.run(tasks, fn=cell_fn)
    points: List[SweepPoint] = []
    for task in tasks:
        r = results[task.id]
        if r.ok:
            points.append(SweepPoint(**r.value))
        elif r.outcome == TaskOutcome.POISONED:
            # The breaker quarantined this cell: it repeatedly killed its
            # worker, which for a pure-python AVF measurement points at a
            # systematic problem (OOM on that configuration), not noise.
            warnings.warn(
                f"sweep cell {task.id} was quarantined by the circuit "
                f"breaker ({r.error}); point dropped — this configuration "
                "likely cannot be measured on this host",
                stacklevel=3,
            )
        else:
            warnings.warn(
                f"sweep cell {task.id} failed ({r.outcome}): {r.error}; "
                "point dropped",
                stacklevel=3,
            )
    return points


def _sink(
    points: Sequence[SweepPoint], store, workload: str, seed: int
) -> None:
    """Persist sweep points when a store sink was requested."""
    if store is None:
        return
    # Lazy import: sweeps must not pull sqlite machinery in unless a
    # sink was actually requested.
    from ..store import ingest_sweep_points, open_store

    with open_store(store) as sink:
        ingest_sweep_points(sink, points, workload=workload, seed=seed)


def _grid(
    structure: str,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Iterable[Tuple[Interleaving, int]],
) -> List[Tuple[str, Tuple]]:
    cells = []
    for style, factor in layouts:
        for scheme in schemes:
            for mode in modes:
                cell_id = (
                    f"sweep/{structure}/{style.value}x{factor}/"
                    f"{_scheme_label(scheme)}/{mode.name}"
                )
                cells.append((cell_id, (style, factor, scheme, mode)))
    return cells


def sweep_cache_avf(
    study: AvfStudy,
    level: str,
    *,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Iterable[Tuple[Interleaving, int]] = ((Interleaving.NONE, 1),),
    domain_bytes: int = 4,
    executor: Optional["Executor"] = None,
    store=None,
    workload: str = "unknown",
    seed: int = 0,
) -> List[SweepPoint]:
    """Measure every (mode, scheme, layout) combination on a cache level.

    ``store`` (a :class:`~repro.store.ResultStore` or path) persists the
    measured points under ``workload``/``seed``; the write is keyed by
    the canonical configuration tuple, so re-running the same sweep into
    the same store is a no-op.
    """

    def measure(style, factor, scheme, mode):
        return study.cache_avf(
            level, mode, scheme,
            style=style, factor=factor, domain_bytes=domain_bytes,
        )

    def measure_batch(style, factor, pairs):
        configs = [AvfConfig(mode=m, scheme=s) for s, m in pairs]
        return study.cache_avf_batch(
            level, configs,
            style=style, factor=factor, domain_bytes=domain_bytes,
        )

    points = _run_grid(
        level, _grid(level, list(modes), list(schemes), list(layouts)),
        measure, executor, measure_batch,
    )
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
    executor: Optional["Executor"] = None,
    store=None,
    workload: str = "unknown",
    seed: int = 0,
) -> List[SweepPoint]:
    """Measure every (mode, scheme, layout) combination on the VGPR.

    ``store``/``workload``/``seed`` persist the points exactly as in
    :func:`sweep_cache_avf`.
    """

    def measure(style, factor, scheme, mode):
        return study.vgpr_avf(mode, scheme, style=style, factor=factor)

    def measure_batch(style, factor, pairs):
        due = style is Interleaving.INTER_THREAD
        configs = [
            AvfConfig(mode=m, scheme=s, due_preempts_sdc=due)
            for s, m in pairs
        ]
        return study.vgpr_avf_batch(configs, style=style, factor=factor)

    points = _run_grid(
        "vgpr", _grid("vgpr", list(modes), list(schemes), list(layouts)),
        measure, executor, measure_batch,
    )
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
