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

    runner = _Injector(
        ctx["benchmark"], int(ctx.get("seed", 0)), int(ctx.get("n_cus", 2))
    )

    def fn(payload: Any) -> str:
        return runner.inject(InjectionSpec.from_dict(payload))

    return fn


def _encode_injection(payload: Any) -> Any:
    if hasattr(payload, "to_dict"):
        return payload.to_dict()
    return payload


def injection_job(benchmark: str, *, seed: int = 0, n_cus: int = 2) -> JobSpec:
    """One benchmark's injection context (golden run rebuilt per node)."""
    return JobSpec(
        "injection", {"benchmark": benchmark, "seed": seed, "n_cus": n_cus}
    )


register_entrypoint("injection", _build_injection, _encode_injection)
