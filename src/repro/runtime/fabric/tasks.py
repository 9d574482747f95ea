"""Named task entrypoints: how a fabric node rebuilds a task function.

Remote workers cannot receive callables — the fabric ships a
:class:`~repro.runtime.fabric.protocol.JobSpec` (an entrypoint *kind*
plus a JSON context) and every node rebuilds the task function locally
from this registry.  Each entrypoint provides:

``build(ctx)``
    Construct the task function once per job (workers cache it by the
    job digest, so e.g. the injection entrypoint pays its golden run a
    single time per benchmark per node).

``encode(payload)``
    Convert a driver-side task payload (which may be a rich object like
    an :class:`~repro.faultinject.campaign.InjectionSpec`) into the
    JSON form shipped in a lease; the built function receives exactly
    this JSON form.

Registered kinds:

* ``stub`` — arithmetic self-test tasks (the fabric's own test suite and
  smoke checks; no simulator involved).
* ``injection`` — one fault injection of a
  :class:`~repro.faultinject.campaign.BenchmarkCampaign`.
* ``sweep_grid`` — one (workload, layout, scheme, mode) cell of a
  cross-benchmark sweep (:func:`repro.experiments.sweep_benchmarks`):
  the payload names its workload, so cells of *different* benchmarks
  ride one job and can land on any node; each node memoises one study
  per workload for the life of the job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

from .protocol import JobSpec

__all__ = [
    "Entrypoint",
    "ENTRYPOINTS",
    "register_entrypoint",
    "resolve",
    "stub_job",
    "injection_job",
    "sweep_grid_job",
]


@dataclass(frozen=True)
class Entrypoint:
    """One named task kind any fabric node can rebuild from JSON."""

    kind: str
    build: Callable[[Dict[str, Any]], Callable[[Any], Any]]
    encode: Callable[[Any], Any]


ENTRYPOINTS: Dict[str, Entrypoint] = {}


def register_entrypoint(
    kind: str,
    build: Callable[[Dict[str, Any]], Callable[[Any], Any]],
    encode: Callable[[Any], Any] = lambda payload: payload,
) -> Entrypoint:
    """Register (or replace) a task entrypoint under ``kind``."""
    ep = Entrypoint(kind=kind, build=build, encode=encode)
    ENTRYPOINTS[kind] = ep
    return ep


def resolve(job: JobSpec) -> Entrypoint:
    ep = ENTRYPOINTS.get(job.kind)
    if ep is None:
        raise KeyError(
            f"unknown fabric task kind {job.kind!r}; known: "
            + ", ".join(sorted(ENTRYPOINTS))
        )
    return ep


# -- stub: fabric self-test tasks --------------------------------------------


def _build_stub(ctx: Dict[str, Any]) -> Callable[[Any], Any]:
    mul = int(ctx.get("mul", 2))
    sleep = float(ctx.get("sleep", 0.0))

    def fn(payload: Any) -> int:
        if sleep:
            time.sleep(sleep)
        return int(payload) * mul

    return fn


def stub_job(mul: int = 2, sleep: float = 0.0) -> JobSpec:
    """Arithmetic self-test job: task ``i`` returns ``i * mul``."""
    ctx: Dict[str, Any] = {"mul": mul}
    if sleep:
        ctx["sleep"] = sleep
    return JobSpec("stub", ctx)


register_entrypoint("stub", _build_stub)


# -- injection: one fault injection of a benchmark campaign ------------------


def _build_injection(ctx: Dict[str, Any]) -> Callable[[Any], Any]:
    # Lazy import: tasks must stay importable from worker nodes without
    # dragging the whole campaign stack in until a job actually needs it.
    from ...faultinject.campaign import InjectionSpec, _Injector
    from ...workloads.suite import REGISTRY

    benchmark = ctx["benchmark"]
    if benchmark not in REGISTRY:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    runner = _Injector(
        REGISTRY[benchmark],
        int(ctx.get("seed", 0)),
        int(ctx.get("n_cus", 2)),
        max_cycles=int(ctx["max_cycles"]),
    )

    def fn(payload: Any) -> str:
        return runner.inject(InjectionSpec.from_dict(payload))

    return fn


def _encode_injection(payload: Any) -> Any:
    if hasattr(payload, "to_dict"):
        return payload.to_dict()
    return payload


def injection_job(
    benchmark: str, *, seed: int = 0, n_cus: int = 2, max_cycles: int,
) -> JobSpec:
    """One benchmark's injection context (golden run rebuilt per node)."""
    return JobSpec(
        "injection",
        {
            "benchmark": benchmark,
            "seed": seed,
            "n_cus": n_cus,
            "max_cycles": max_cycles,
        },
    )


register_entrypoint("injection", _build_injection, _encode_injection)


# -- sweep_grid: one cell of a cross-benchmark sweep --------------------------


def _encode_mode(mode: Any) -> Dict[str, Any]:
    return {
        "name": mode.name,
        "offsets": [[int(r), int(c)] for r, c in mode.offsets],
    }


def _decode_mode(data: Dict[str, Any]):
    from ...core.faultmodes import FaultMode

    return FaultMode(
        str(data["name"]),
        tuple((int(r), int(c)) for r, c in data["offsets"]),
    )


def _encode_sweep_cell(payload: Any) -> Any:
    from ...core.protection import SCHEMES
    from ...core.sweep import _scheme_label

    style, factor, scheme, mode = payload
    label = _scheme_label(scheme)
    if SCHEMES.get(label) is not scheme:
        raise ValueError(
            f"fabric sweeps can only ship registry protection schemes; "
            f"{label!r} is not (or does not match) an entry in "
            "repro.core.protection.SCHEMES"
        )
    return {
        "style": style.value,
        "factor": int(factor),
        "scheme": label,
        "mode": _encode_mode(mode),
    }


def _encode_grid_cell(payload: Any) -> Any:
    if isinstance(payload, dict):
        return payload
    workload, cell = payload
    return {"workload": str(workload), "cell": _encode_sweep_cell(cell)}


def _build_sweep_grid(ctx: Dict[str, Any]) -> Callable[[Any], Any]:
    from dataclasses import asdict

    from ...core.analysis import AvfStudy
    from ...core.layout import Interleaving
    from ...core.protection import SCHEMES
    from ...core.sweep import SweepPoint
    from ...workloads import run

    structure = ctx["structure"]
    seed = int(ctx.get("seed", 0))
    n_cus = int(ctx.get("n_cus", 4))
    domain_bytes = int(ctx.get("domain_bytes", 4))
    apu_kwargs = None
    if ctx.get("scaled", True):
        from ...experiments import scaled_apu_kwargs

        apu_kwargs = scaled_apu_kwargs()
    styles = {s.value: s for s in Interleaving}
    # One simulation per workload per node: workers cache the built
    # function by job digest, so this dict lives as long as the job and
    # every cell of a workload after the first is pure analysis.
    studies: Dict[str, AvfStudy] = {}

    def study_for(workload: str) -> AvfStudy:
        if workload not in studies:
            result = run(
                workload, seed=seed, n_cus=n_cus, apu_kwargs=apu_kwargs
            )
            studies[workload] = AvfStudy(result.apu, result.output_ranges)
        return studies[workload]

    def fn(payload: Any) -> Dict[str, Any]:
        cell = payload["cell"]
        study = study_for(str(payload["workload"]))
        style = styles[cell["style"]]
        factor = int(cell["factor"])
        scheme = SCHEMES[cell["scheme"]]
        mode = _decode_mode(cell["mode"])
        if structure == "vgpr":
            res = study.vgpr_avf(mode, scheme, style=style, factor=factor)
        else:
            res = study.cache_avf(
                structure, mode, scheme,
                style=style, factor=factor, domain_bytes=domain_bytes,
            )
        return asdict(SweepPoint.from_result(structure, style, factor, res))

    return fn


def sweep_grid_job(
    structure: str,
    *,
    seed: int = 0,
    n_cus: int = 4,
    scaled: bool = True,
    domain_bytes: int = 4,
) -> JobSpec:
    """Cross-benchmark sweep context: cells carry their own workload
    name, so one job covers the whole benchmark grid and any node can
    serve any cell (rebuilding at most one study per workload)."""
    return JobSpec(
        "sweep_grid",
        {
            "structure": structure,
            "seed": seed,
            "n_cus": n_cus,
            "scaled": scaled,
            "domain_bytes": domain_bytes,
        },
    )


register_entrypoint("sweep_grid", _build_sweep_grid, _encode_grid_cell)
