"""Standard configuration shared by the paper-reproduction experiments.

The paper's APU has a 16KB L1 per CU and a 256KB L2, exercised by full
Rodinia / AMD SDK / Mantevo datasets (megabytes of traffic over billions of
cycles).  Our workloads are scaled-down analogues, so the experiments scale
the caches by the same factor — 4KB L1s and a 32KB L2 — preserving the
working-set-to-capacity ratios that AVF behaviour actually depends on.
(The architectural defaults in :mod:`repro.arch.cache` remain the paper's
sizes; only the experiment harness uses the scaled pair.)
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .arch.cache import CacheConfig
from .core.analysis import AvfStudy
from .core.faultmodes import FaultMode
from .core.layout import Interleaving
from .core.protection import ProtectionScheme
from .core.sweep import SweepPoint, sweep_avf
from .obs import format_report, get_metrics, get_tracer
from .runtime import Executor, Journal, Task
from .workloads import run

__all__ = [
    "SCALED_L1",
    "SCALED_L2",
    "scaled_apu_kwargs",
    "build_study",
    "StudyCache",
    "sweep_benchmarks",
    "observability_report",
]

#: 4KB, 4-way L1 per CU (the paper's 16KB scaled with the datasets).
SCALED_L1 = CacheConfig(n_sets=16, n_ways=4, line_bytes=64, hit_latency=4)
#: 32KB, 8-way shared L2 (the paper's 256KB scaled with the datasets).
SCALED_L2 = CacheConfig(n_sets=64, n_ways=8, line_bytes=64, hit_latency=24)


def scaled_apu_kwargs() -> Dict:
    """Apu constructor overrides for the experiment configuration."""
    return {"l1_config": SCALED_L1, "l2_config": SCALED_L2}


def build_study(name: str, *, seed: int = 0, n_cus: int = 4) -> AvfStudy:
    """Run a workload under the experiment configuration and open a study."""
    result = run(name, seed=seed, n_cus=n_cus, apu_kwargs=scaled_apu_kwargs())
    return AvfStudy(result.apu, result.output_ranges)


class StudyCache:
    """Memoised :func:`build_study` — one simulation per workload, reused
    across every (fault mode, scheme, interleaving) measurement."""

    def __init__(self) -> None:
        self._cache: Dict[str, AvfStudy] = {}

    def __call__(self, name: str) -> AvfStudy:
        if name not in self._cache:
            self._cache[name] = build_study(name)
        return self._cache[name]


# -- cross-benchmark sweeps through the campaign runtime ---------------------

_GRID_STUDIES: Optional[StudyCache] = None


def _init_grid_worker() -> None:
    """One memoised study cache per worker process."""
    global _GRID_STUDIES
    _GRID_STUDIES = StudyCache()


def _grid_task(payload) -> List[dict]:
    """Measure one benchmark's whole (mode, scheme, layout) grid.

    The sweep runs the engine's batch path: every (mode, scheme) cell of a
    layout shares one enumeration and one region-classification cache, so
    the grid costs little more than its most expensive cell.
    """
    name, structure, modes, schemes, layouts = payload
    points = sweep_avf(
        _GRID_STUDIES(name), structure,
        modes=modes, schemes=schemes, layouts=layouts,
    )
    return [asdict(p) for p in points]


def sweep_benchmarks(
    benchmarks: Sequence[str],
    structure: str = "l1",
    *,
    modes: Iterable[FaultMode],
    schemes: Iterable[ProtectionScheme],
    layouts: Optional[Iterable[Tuple[Optional[Interleaving], int]]] = None,
    jobs: int = 0,
    journal: Optional[Union[Journal, str]] = None,
    store=None,
) -> Tuple[Dict[str, List[SweepPoint]], Dict[str, str]]:
    """Measure one sweep grid across many benchmarks through the runtime.

    Each benchmark is one task: with ``jobs >= 1`` benchmarks are simulated
    in parallel isolated workers, and a ``journal`` makes the whole grid
    resumable.  Returns ``(points by benchmark, failures by benchmark)`` —
    a benchmark whose simulation fails is reported in the second mapping
    instead of aborting the sweep.

    ``store`` (a :class:`~repro.store.ResultStore` or path) persists
    every measured point under its benchmark name through
    :func:`repro.store.persist`: a store that fails to take the write
    does not fail the sweep, and the warning names the ``journal`` to
    resume from.
    """
    modes = tuple(modes)
    schemes = tuple(schemes)
    layouts = ((None, 1),) if layouts is None else tuple(layouts)
    tasks = [
        Task(
            id=f"grid/{structure}/{name}",
            payload=(name, structure, modes, schemes, layouts),
            meta={"benchmark": name, "structure": structure},
        )
        for name in benchmarks
    ]
    with Executor(
        _grid_task,
        jobs=jobs,
        journal=journal,
        initializer=_init_grid_worker,
    ) as executor:
        with get_tracer().span(
            "sweep", structure=structure, benchmarks=len(tasks),
            cells=len(modes) * len(schemes) * len(layouts),
        ):
            results = executor.run(tasks)
    points: Dict[str, List[SweepPoint]] = {}
    failed: Dict[str, str] = {}
    for name, task in zip(benchmarks, tasks):
        r = results[task.id]
        if r.ok:
            points[name] = [SweepPoint(**d) for d in r.value]
        else:
            failed[name] = f"{r.outcome}: {r.error}"
    if store is not None:
        from .store import ingest_sweep_points, persist

        def write(sink) -> None:
            for name in sorted(points):
                ingest_sweep_points(sink, points[name], workload=name)

        persist(store, write, journal=journal)
    return points, failed


def observability_report() -> str:
    """Text account of the current observability session: per-stage span
    timings plus the metrics snapshot.  Meaningful after running
    experiments with :mod:`repro.obs` enabled (``repro stats`` does this
    end to end)."""
    return format_report(get_metrics(), get_tracer())
