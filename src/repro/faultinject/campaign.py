"""Fault-injection campaigns: the Table II ACE-interference study.

The paper validates its SDC MB-AVF model (Sec. VII-A) by checking how often
*ACE interference* occurs — a multi-bit fault whose bits interact at program
level such that the group's outcome differs from what the single-bit
ACEness of its members predicts (e.g. two flips cancelling in an XOR).

The study proceeds exactly as in the paper:

1. random single-bit injections into the VGPR identify SDC ACE bits
   (injections whose corrupted output differs from the golden output);
2. multi-bit fault groups are formed from each SDC ACE bit plus physically
   adjacent bits, and injected as one simultaneous flip;
3. a group exhibits ACE interference when the multi-bit injection is
   *masked* even though it contains a known SDC ACE bit.

The paper finds 2 interfering groups out of 1730 SDC ACE bits (~0.1%),
concluding single-bit ACE analysis is a sound basis for SDC MB-AVF.

Each injected run is judged where it runs, in ``_Injector.inject``: the
outputs match the golden run (masked) or not (SDC), the simulator passed
its cycle budget (:class:`~repro.arch.gpu.SimulationHang`: hang), or it
raised anything else after the flip (crash).  The verdict is the task's
value in the fault-tolerant campaign runtime (:mod:`repro.runtime`),
which knows nothing of simulators: with ``jobs >= 1`` each simulation
executes in an isolated worker process with a wall-clock timeout and
bounded retries, and with a ``journal`` every completed injection is
checkpointed so a killed campaign resumes from where it died.  An
exception out of a task is a harness failure (``infra_error``), never a
verdict.

The same runner serves the memory-image validation
(:mod:`repro.faultinject.validation`): a :class:`MemorySpec` schedules
its flip in the data image where an :class:`InjectionSpec` schedules
one in a register, and everything else is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..arch.gpu import SimulationHang
from ..core.analysis import AvfStudy
from ..core.faultmodes import FaultMode
from ..core.intervals import AceClass
from ..core.layout import regfile_byte_index
from ..core.protection import SCHEMES
from ..obs import get_metrics, get_tracer
from ..runtime import (
    ChaosPolicy,
    Executor,
    Journal,
    RetryPolicy,
    Task,
    TaskOutcome,
    TaskResult,
)
from ..workloads.base import new_device, run_workload
from ..workloads.suite import OPENCL_SAMPLES, REGISTRY

__all__ = [
    "InjectionOutcome",
    "InjectionSpec",
    "MemorySpec",
    "injection_class",
    "BenchmarkCampaign",
    "run_campaign",
    "ace_interference_study",
]

#: cycle budget for one injected simulation before it counts as a hang
DEFAULT_MAX_CYCLES = 2_000_000


class InjectionOutcome:
    """Verdict labels for a single injection run."""

    MASKED = "masked"      # output identical to golden
    SDC = "sdc"            # output silently corrupted
    CRASH = "crash"        # the run raised (bad address, illegal op...)
    HANG = "hang"          # the run passed its cycle budget

    #: Table II counts crash and hang alike as non-SDC detections
    ALL = (MASKED, SDC, CRASH, HANG)


@dataclass(frozen=True)
class InjectionSpec:
    """One fault: flip ``bits`` of (wavefront, register, lane) at ``cycle``."""

    wf: int
    reg: int
    lane: int
    bits: Tuple[int, ...]
    cycle: int

    @property
    def bitmask(self) -> int:
        mask = 0
        for b in self.bits:
            mask |= 1 << b
        return mask

    def to_dict(self) -> Dict:
        """JSON-safe form, journaled as task provenance."""
        return {
            "wf": self.wf, "reg": self.reg, "lane": self.lane,
            "bits": list(self.bits), "cycle": self.cycle,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "InjectionSpec":
        return cls(
            int(data["wf"]), int(data["reg"]), int(data["lane"]),
            tuple(int(b) for b in data["bits"]), int(data["cycle"]),
        )

    @property
    def trace_args(self) -> Dict:
        return {"wf": self.wf, "reg": self.reg, "bits": len(self.bits)}

    def schedule(self, apu) -> None:
        apu.inject_fault(self.wf, self.reg, self.lane, self.bitmask, self.cycle)


class MemorySpec(NamedTuple):
    """One fault: flip ``bit`` of the memory byte at ``addr`` at ``cycle``."""

    addr: int
    bit: int
    cycle: int

    @property
    def trace_args(self) -> Dict:
        return {"addr": self.addr, "bit": self.bit}

    def schedule(self, apu) -> None:
        apu.inject_memory_fault(self.addr, 1 << self.bit, self.cycle)


def injection_class(
    study: AvfStudy, spec: Union[InjectionSpec, MemorySpec]
) -> int:
    """The lifetime class that decides the flip ``spec`` schedules.

    A flip scheduled at cycle ``c`` lands before the first instruction
    issued at ``t >= c``.  Lifetime intervals are half-open
    ``[write, read)``, so the injection interval of a byte is
    ``(write, read]`` and the deciding class is ``class_at(c - 1)``.  A
    class below ``AceClass.ACE`` proves the flip masked.

    A VGPR spec reads the study's one VGPR table, whose tiles are the
    wavefronts in id order: byte :func:`regfile_byte_index` ``(lane, reg,
    bit // 8)`` of its wavefront's tile (over ``study.vgpr_regs``, the
    padded register count, not the wavefront's own), and takes the
    highest class over its bits.  A memory spec reads the study's memory
    table; a byte outside the allocated footprint is UNACE.
    """
    if isinstance(spec, MemorySpec):
        memory = study.memory_lifetimes((spec.addr, 1))
        return int(memory.class_at(0, spec.cycle - 1))
    if spec.reg >= study.apu.wf_programs[spec.wf].n_vregs:
        return AceClass.UNACE  # the simulator drops the flip
    wfs = sorted(study.apu.wf_programs)
    vgpr = study._lifetimes("vgpr")
    tile_bytes = vgpr.n_bytes // len(wfs)
    ids = wfs.index(spec.wf) * tile_bytes + regfile_byte_index(
        spec.lane, spec.reg, np.asarray(spec.bits) // 8, study.vgpr_regs
    )
    return int(vgpr.class_at(ids, spec.cycle - 1).max())


@dataclass
class BenchmarkCampaign:
    """Results of the injection study for one benchmark."""

    benchmark: str
    n_single_injections: int = 0
    single_outcomes: Dict[str, int] = field(default_factory=dict)
    sdc_ace_bits: List[InjectionSpec] = field(default_factory=list)
    #: per fault mode width: (groups injected, groups with ACE interference)
    multibit: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: injections that exhausted their retries, by runtime outcome
    #: (``timeout``, ``worker_died``, ``infra_error``, ``poisoned``);
    #: these carry no verdict and are excluded from the single/multibit
    #: tallies above.
    failures: Dict[str, int] = field(default_factory=dict)
    #: ACE model context: the unprotected single-bit VGPR SDC AVF the
    #: injection outcomes are validated against (``None`` on records
    #: archived before this field existed)
    model_sdc_avf: Optional[float] = None

    @property
    def n_sdc_ace_bits(self) -> int:
        return len(self.sdc_ace_bits)

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    def interference_total(self) -> int:
        return sum(i for _, i in self.multibit.values())

    def to_dict(self) -> Dict:
        """JSON-safe form for archiving campaign results."""
        return {
            "benchmark": self.benchmark,
            "n_single_injections": self.n_single_injections,
            "single_outcomes": dict(self.single_outcomes),
            "sdc_ace_bits": [s.to_dict() for s in self.sdc_ace_bits],
            "multibit": {str(m): list(v) for m, v in self.multibit.items()},
            "failures": dict(self.failures),
            "model_sdc_avf": self.model_sdc_avf,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchmarkCampaign":
        return cls(
            benchmark=data["benchmark"],
            n_single_injections=int(data["n_single_injections"]),
            single_outcomes=dict(data["single_outcomes"]),
            sdc_ace_bits=[
                InjectionSpec.from_dict(d) for d in data["sdc_ace_bits"]
            ],
            multibit={
                int(m): (int(v[0]), int(v[1]))
                for m, v in data["multibit"].items()
            },
            failures=dict(data.get("failures", {})),
            model_sdc_avf=data.get("model_sdc_avf"),
        )


def _output_bytes(mem, names: Sequence[str]) -> bytes:
    """The bytes of the named output buffers, as the host reads them."""
    return b"".join(
        mem.data[b : b + sz].tobytes()
        for b, sz in (mem.buffer(n) for n in names)
    )


class _Injector:
    """Runs one benchmark repeatedly with identical inputs: one golden run,
    then one simulation per injected fault, VGPR or memory alike.

    ``max_cycles`` is the hang budget of each injected run; only tests
    lower it.
    """

    def __init__(
        self, benchmark: str, seed: int, n_cus: int,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> None:
        if benchmark not in REGISTRY:
            raise KeyError(f"unknown benchmark {benchmark!r}")
        self.benchmark = benchmark
        self.workload_cls = REGISTRY[benchmark]
        self.seed = seed
        self.n_cus = n_cus
        self.max_cycles = max_cycles
        wl = self.workload_cls(seed=seed)
        golden_run = run_workload(wl, n_cus=n_cus)
        #: kept for the ACE-model side of the campaign and the validation
        self.golden_run = golden_run
        self.golden = _output_bytes(golden_run.memory, wl.outputs)
        # VGPR targeting: wavefront activity windows + register counts.
        t = golden_run.apu.trace.t
        self.windows: Dict[int, Tuple[int, int]] = {
            wf: (int(t[rows].min()), int(t[rows].max()))
            for wf, rows in golden_run.apu.trace.wf_rows().items()
        }
        self.n_vregs = {
            w: p.n_vregs for w, p in golden_run.apu.wf_programs.items()
        }

    @cached_property
    def study(self) -> AvfStudy:
        """The ACE model of the golden run, built on first use."""
        return AvfStudy(self.golden_run.apu, self.golden_run.output_ranges)

    def random_spec(self, rng: np.random.Generator, n_bits: int = 1) -> InjectionSpec:
        wf = int(rng.choice(sorted(self.windows)))
        lo, hi = self.windows[wf]
        reg = int(rng.integers(0, self.n_vregs[wf]))
        lane = int(rng.integers(0, 16))
        # Sample the group base from [0, 32 - n_bits] so all n_bits flips
        # stay in-word without collapsing into duplicates near bit 31.
        start = int(rng.integers(0, 33 - n_bits))
        spec = InjectionSpec(
            wf, reg, lane, tuple(range(start, start + n_bits)), cycle=int(
                rng.integers(lo, hi + 1)
            ),
        )
        assert len(spec.bits) == n_bits
        return spec

    def inject(self, spec: Union[InjectionSpec, MemorySpec]) -> str:
        """Run one injected simulation and return its verdict.

        An exception out of :meth:`Apu.run` is a consequence of the flip:
        :class:`SimulationHang` is a hang, anything else a crash.  An
        exception before the run (device setup, an out-of-range spec) has
        no fault behind it and propagates.
        """
        get_metrics().counter("campaign.injections").inc()
        with get_tracer().span("inject", **spec.trace_args) as span:
            wl = self.workload_cls(seed=self.seed)
            apu = new_device(
                wl, n_cus=self.n_cus,
                apu_kwargs={"max_cycles": self.max_cycles},
            )
            launches = list(wl.kernels())
            spec.schedule(apu)
            try:
                apu.run(launches)
            except SimulationHang:
                verdict = InjectionOutcome.HANG
            except Exception:
                verdict = InjectionOutcome.CRASH
            else:
                verdict = (
                    InjectionOutcome.MASKED
                    if _output_bytes(apu.memory, wl.outputs) == self.golden
                    else InjectionOutcome.SDC
                )
            span.set(verdict=verdict)
            return verdict


# -- worker-process entry points (must be module-level for spawn pickling) ----

_WORKER_RUNNER: Optional[_Injector] = None


def _init_injection_worker(benchmark: str, seed: int, n_cus: int) -> None:
    """Build this worker's runner (one golden run) once."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = _Injector(benchmark, seed, n_cus)


def _injection_task(spec: Union[InjectionSpec, MemorySpec]) -> str:
    return _WORKER_RUNNER.inject(spec)


def _make_executor(
    runner: _Injector,
    jobs: int,
    timeout: Optional[float],
    retry: Optional[RetryPolicy],
    journal: Optional[Union[Journal, str]],
    progress: Union[bool, str] = False,
    chaos: Optional[ChaosPolicy] = None,
    fabric=None,
):
    if fabric is not None:
        # Distributed mode: shard injections across the fabric's worker
        # nodes.  The runner's inject runs demoted tasks on the driver, so
        # a dead or partitioned fleet degrades to inline execution
        # without a second golden run.  Executor-level chaos does not
        # apply here — the fabric has its own node-level chaos points
        # (ChaosSpec: node_kill, rpc_*, heartbeat_blackout) carried by
        # the worker processes and RPC clients.
        from ..runtime.fabric import injection_job

        return Executor(
            runner.inject,
            fabric=fabric,
            job=injection_job(
                runner.benchmark, seed=runner.seed, n_cus=runner.n_cus
            ),
            journal=journal,
            retry=retry,
            timeout=timeout,
            progress=progress,
        )
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = inline)")
    if jobs >= 1:
        return Executor(
            _injection_task,
            jobs=jobs,
            timeout=timeout,
            retry=retry,
            journal=journal,
            initializer=_init_injection_worker,
            initargs=(runner.benchmark, runner.seed, runner.n_cus),
            progress=progress,
            chaos=chaos,
        )
    # Inline: reuse the parent's runner (one golden run total).
    return Executor(
        runner.inject, jobs=0, retry=retry, journal=journal,
        progress=progress, chaos=chaos,
    )


def _tally(
    failures: Dict[str, int], result: TaskResult
) -> Optional[str]:
    """The injection verdict of a runtime result.

    Only an ``OK`` result carries one, as its value; any other is a
    harness failure, counted in ``failures`` by outcome, and None is
    returned.
    """
    if result.outcome == TaskOutcome.OK:
        return result.value
    failures[result.outcome] = failures.get(result.outcome, 0) + 1
    return None


def run_campaign(
    benchmark: str,
    *,
    n_single: int = 60,
    modes: Sequence[int] = (2, 3, 4),
    max_groups_per_mode: int = 20,
    seed: int = 0,
    n_cus: int = 2,
    jobs: int = 0,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Union[Journal, str]] = None,
    progress: Union[bool, str] = False,
    chaos: Optional[ChaosPolicy] = None,
    fabric=None,
    store=None,
) -> BenchmarkCampaign:
    """The Table II procedure for one benchmark.

    ``n_single`` random single-bit injections find SDC ACE bits; each SDC ACE
    bit seeds one multi-bit group per mode width (the bit plus its physical
    neighbours), capped at ``max_groups_per_mode`` groups per mode.

    ``jobs``, ``timeout``, ``retry`` and ``journal`` configure the campaign
    runtime: ``jobs >= 1`` runs injections in that many isolated worker
    processes, ``timeout`` bounds each simulation's wall-clock time,
    ``retry`` governs re-execution of infrastructure failures, and
    ``journal`` (a path or :class:`~repro.runtime.Journal`) checkpoints
    every injection so an interrupted campaign can be resumed by re-running
    the same call.  All task ids are derived from the seeded spec sequence,
    so a resumed campaign reproduces the uninterrupted result exactly.

    ``chaos`` (dev/test only) fault-injects the campaign runtime itself —
    worker crashes, hangs, corrupted journal writes — per a seeded
    :class:`~repro.runtime.ChaosPolicy`; resume such a campaign *without*
    the chaos policy or its write faults replay.

    ``fabric`` (a :class:`~repro.runtime.fabric.FabricCoordinator`)
    shards the injections across worker *nodes* instead of local worker
    processes: lease-based assignment, replicated shard journals, and
    graceful demotion to local execution if the fleet dies.  ``jobs``
    is ignored in fabric mode; the same journal resumes either mode.

    ``store`` (a :class:`~repro.store.ResultStore` or a path to one)
    persists the finished campaign: the Table II summary lands in the
    ``campaigns`` table and, when a ``journal`` was used, every journaled
    injection verdict lands in ``injections`` keyed by record identity —
    so re-running a resumed campaign (or re-ingesting the same journal
    through ``repro campaign merge --store``) adds nothing twice.  A
    store that fails to take the write does not fail the campaign: see
    :func:`repro.store.persist`.
    """
    if n_single < 0 or max_groups_per_mode < 0:
        raise ValueError(
            "n_single and max_groups_per_mode must be >= 0, not "
            f"{n_single} and {max_groups_per_mode}"
        )
    tracer = get_tracer()
    with tracer.span("golden", benchmark=benchmark):
        runner = _Injector(benchmark, seed, n_cus)
    rng = np.random.default_rng(seed + 0xFA117)
    out = BenchmarkCampaign(benchmark, n_single_injections=n_single)
    # The ACE-model context the verdicts validate: the unprotected
    # single-bit VGPR SDC AVF of the golden run, so a traced campaign
    # records the full methodology (simulate, lifetime, enumerate,
    # integrate, inject) in one timeline.
    with tracer.span("model", benchmark=benchmark):
        out.model_sdc_avf = runner.study.avf(
            "vgpr", FaultMode.linear(1), SCHEMES["none"]
        ).sdc_avf
    singles = [runner.random_spec(rng) for _ in range(n_single)]
    with _make_executor(
        runner, jobs, timeout, retry, journal, progress, chaos, fabric,
    ) as executor:
        single_tasks = [
            Task(
                id=f"{benchmark}/single/{i:05d}",
                payload=spec,
                meta=spec.to_dict(),
            )
            for i, spec in enumerate(singles)
        ]
        with tracer.span("singles", benchmark=benchmark, n=len(single_tasks)):
            results = executor.run(single_tasks)
        for task, spec in zip(single_tasks, singles):
            verdict = _tally(out.failures, results[task.id])
            if verdict is None:
                continue
            out.single_outcomes[verdict] = (
                out.single_outcomes.get(verdict, 0) + 1
            )
            if verdict == InjectionOutcome.SDC:
                out.sdc_ace_bits.append(spec)
        get_metrics().counter("campaign.sdc_ace_bits").inc(
            len(out.sdc_ace_bits)
        )
        # All mode widths go through one executor pass so process-mode
        # workers (each paying a golden-run initialisation) spawn once.
        bases = out.sdc_ace_bits[:max_groups_per_mode]
        group_tasks: List[Tuple[int, Task]] = []
        for m in modes:
            for j, base in enumerate(bases):
                start = min(base.bits[0], 32 - m)
                g = InjectionSpec(
                    base.wf, base.reg, base.lane,
                    tuple(range(start, start + m)), base.cycle,
                )
                group_tasks.append((m, Task(
                    id=f"{benchmark}/multi/{m}/{j:05d}",
                    payload=g,
                    meta=g.to_dict(),
                )))
        with tracer.span("multibit", benchmark=benchmark, n=len(group_tasks)):
            results = executor.run(t for _, t in group_tasks)
        tallies = {m: [0, 0] for m in modes}
        for m, task in group_tasks:
            verdict = _tally(out.failures, results[task.id])
            if verdict is None:
                continue
            tallies[m][0] += 1
            # The group contains a proven SDC ACE bit; a masked outcome
            # means the extra flips cancelled the corruption: ACE
            # interference.
            if verdict == InjectionOutcome.MASKED:
                tallies[m][1] += 1
        for m in modes:
            out.multibit[m] = tuple(tallies[m])
    if store is not None:
        # Lazy import: campaigns must not drag sqlite machinery in
        # unless a sink was actually requested.
        from ..store import ingest_campaign, ingest_journal, persist

        def write(sink) -> None:
            ingest_campaign(sink, out, seed=seed, n_cus=n_cus)
            if journal is not None:
                ingest_journal(sink, journal, seed=seed)

        persist(store, write, journal=journal)
    return out


def ace_interference_study(
    benchmarks: Optional[Sequence[str]] = None, **kwargs
) -> List[BenchmarkCampaign]:
    """Run the Table II study over the AMD OpenCL sample suite.

    Runtime options (``jobs``, ``timeout``, ``retry``, ``journal``) pass
    through to :func:`run_campaign`; a single shared journal covers the
    whole study because task ids are namespaced per benchmark.
    """
    names = benchmarks if benchmarks is not None else OPENCL_SAMPLES
    journal = kwargs.pop("journal", None)
    if journal is not None and not isinstance(journal, Journal):
        journal = Journal(journal)
    return [run_campaign(b, journal=journal, **kwargs) for b in names]
