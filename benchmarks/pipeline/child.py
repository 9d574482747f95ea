"""One round of the pipeline benchmark, in a fresh interpreter.

``run.py`` launches this file once per cold round, one at a time::

    python3 benchmarks/pipeline/child.py --workload pipeline-minife --seed 0 \\
        --workdir DIR [--jobs 2] [--traced] [--expected FILE] [--chrome FILE]

A round imports the package (launch to imports done is the set-up time),
runs the workload's cold pass, checks every output, runs the warm passes
in the same process and prints one JSON line on stdout.  ``--setup-only``
stops after the imports.

The entry point sits under ``if __name__ == "__main__"``: ``suite-l1``
starts spawn workers, and spawn re-imports this file in each of them.
Importing it runs no workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core import (
    MX1_MODES,
    VGPR_DESIGN_PALETTE,
    AvfStudy,
    Crc,
    DecTed,
    FaultMode,
    Interleaving,
    NoProtection,
    Parity,
    SecDed,
    sweep_cache_avf,
    sweep_vgpr_avf,
)
from repro.experiments import scaled_apu_kwargs, sweep_benchmarks
from repro.runtime import Journal
from repro.store import ResultStore, ingest_results, ingest_sweep_points
from repro.workloads import run


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: the Table III fault modes (1x1 .. 8x1) and the two schemes of Sec. VIII
MODES = MX1_MODES
SCHEMES = (Parity(), SecDed())
#: the Sec. VIII palette's layouts: intra/inter-thread interleaving x2/x4
VGPR_LAYOUTS = tuple(
    dict.fromkeys((p.style, p.factor) for p in VGPR_DESIGN_PALETTE)
)
L1_LAYOUTS = (
    (Interleaving.NONE, 1),
    (Interleaving.LOGICAL, 2),
    (Interleaving.WAY_PHYSICAL, 2),
    (Interleaving.INDEX_PHYSICAL, 2),
)
L2_LAYOUTS = ((Interleaving.NONE, 1),)
#: longest task first, so the two workers finish close together and the
#: makespan does not hinge on which worker a late long task lands on
SUITE = (
    "dct", "srad", "hotspot", "matmul", "fastwalsh",
    "transpose", "reduction", "histogram", "vectoradd", "prefixsum",
)
SUITE_LAYOUTS = ((Interleaving.NONE, 1), (Interleaving.WAY_PHYSICAL, 2))
#: equal buckets of the Fig. 5-style time series in ``query-minife``
SERIES_BUCKETS = 64
#: a row is [workload, structure, style, factor, scheme, mode] + VALUES
KEY_FIELDS = 6
VALUES = ("due_avf", "sdc_avf", "true_due_avf", "false_due_avf")


class Round:
    """State of one round: seed, scratch paths, jobs, timings and counts.

    :meth:`time` adds the wall clock of a block to each named total, timed
    from outside the package; it times nothing outside the cold pass.
    """

    def __init__(self, seed: int, workdir: Path, jobs: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = jobs
        self.store_path = workdir / "results.db"
        self.cold = True
        self.times: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def time(self, *names: str):
        return self._time(names) if self.cold else nullcontext()

    @contextmanager
    def _time(self, names: Sequence[str]):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            for name in names:
                self.times[name] = self.times.get(name, 0.0) + elapsed


def point_row(workload: str, p) -> list:
    return [
        workload, p.structure, p.style, p.factor, p.scheme, p.mode,
        p.due_avf, p.sdc_avf, p.true_due_avf, p.false_due_avf,
    ]


def result_row(workload: str, style: Interleaving, factor: int, res) -> list:
    return [
        workload, res.structure, style.value, factor, res.scheme,
        res.mode.name, res.due_avf, res.sdc_avf, res.true_due_avf,
        res.false_due_avf,
    ]


def simulate(rnd: Round, benchmark: str) -> AvfStudy:
    """Simulate and verify ``benchmark`` and open its study, timed."""
    with rnd.time("workloads.simulate_s"):
        result = run(
            benchmark, seed=rnd.seed, n_cus=4, apu_kwargs=scaled_apu_kwargs()
        )
    with rnd.time("arch.liveness_s"):
        return AvfStudy(result.apu, result.output_ranges)


def lifetime_counts(rnd: Round, structures: Sequence, vgpr: Sequence) -> None:
    rnd.counts["core.lifetime.vgpr_bytes"] = sum(
        len(lt.byte_isets) for lt in vgpr
    )
    rnd.counts["core.lifetime.intervals"] = sum(
        len(iset) for lt in list(structures) + list(vgpr)
        for iset in lt.byte_isets
    )


def count_rows(rnd: Round, stored: Dict[str, int]) -> None:
    if rnd.cold:
        rnd.counts["store.rows_ingested"] = stored["ingested"]
    else:
        rnd.counts.setdefault("store.rows_deduped", stored["deduped"])


class Pipeline:
    """One workload to the Sec. VIII sweep: VGPR palette, L1 and L2 grids.

    144 cells: 4 VGPR layouts x 2 schemes x 8 modes, 4 L1 layouts x 2 x 8
    and the L2 without interleaving x 2 x 8.  One engine batch runs per
    layout, through the same sweep functions the experiments use.  The
    warm pass reruns the grid on the same study, so every cache hits.
    """

    warm_passes = 3
    warm_repeats_cold = True

    def __init__(self, benchmark: str) -> None:
        self.benchmark = benchmark
        self.study: Optional[AvfStudy] = None
        self.grid = (
            [("vgpr", layout) for layout in VGPR_LAYOUTS]
            + [("l1", layout) for layout in L1_LAYOUTS]
            + [("l2", layout) for layout in L2_LAYOUTS]
        )
        self.cells = len(self.grid) * len(SCHEMES) * len(MODES)

    def cold(self, rnd: Round) -> List[list]:
        study = self.study = simulate(rnd, self.benchmark)
        with rnd.time("core.lifetime.l1_s"):
            study.l1_lifetimes()
        with rnd.time("core.lifetime.memcons_s"):
            study.memcons
        with rnd.time("core.lifetime.l2_s"):
            study.l2_lifetime()
        with rnd.time("core.lifetime.vgpr_s"):
            study.vgpr_lifetimes()
        return self.sweep(rnd)

    def warm(self, rnd: Round) -> List[list]:
        return self.sweep(rnd)

    def sweep(self, rnd: Round) -> List[list]:
        points = []
        seen = set()
        for structure, layout in self.grid:
            names = ["core.avf.batch_s"]
            if structure not in seen:
                names.append("core.avf.first_batch_s")
                seen.add(structure)
            with rnd.time(*names):
                if structure == "vgpr":
                    points += sweep_vgpr_avf(
                        self.study, modes=MODES, schemes=SCHEMES,
                        layouts=[layout],
                    )
                else:
                    points += sweep_cache_avf(
                        self.study, structure, modes=MODES,
                        schemes=SCHEMES, layouts=[layout],
                    )
        with rnd.time("store.ingest_s"), ResultStore(rnd.store_path) as store:
            stored = ingest_sweep_points(
                store, points, workload=self.benchmark, seed=rnd.seed,
            )
        count_rows(rnd, stored)
        return [point_row(self.benchmark, p) for p in points]

    def inspect(self, rnd: Round) -> None:
        study = self.study
        lifetime_counts(
            rnd, study.l1_lifetimes() + [study.l2_lifetime()],
            study.vgpr_lifetimes(),
        )


class Query:
    """One ``repro avf``-style question on minife, stored like ``--store``.

    The 2x1 VGPR AVF under parity with inter-thread x2 interleaving, and
    the 2x1 L1 AVF under parity with way-physical x2 interleaving plus a
    64-bucket time series (Fig. 5).  The warm pass asks the same two
    questions under every other registry scheme, SEC-DED first: canonical
    ids and enumeration are cached, classification is fresh.  A second
    such pass would find every cache warm, so there is one per round.
    """

    warm_passes = 1
    warm_schemes = (SecDed(), DecTed(), Crc(8), NoProtection())
    warm_repeats_cold = False
    cells = 2
    benchmark = "minife"
    vgpr = (Interleaving.INTER_THREAD, 2)
    l1 = (Interleaving.WAY_PHYSICAL, 2)
    mode = FaultMode.linear(2)

    def __init__(self) -> None:
        self.study: Optional[AvfStudy] = None
        self.edges: Optional[np.ndarray] = None

    def cold(self, rnd: Round) -> List[list]:
        study = self.study = simulate(rnd, self.benchmark)
        self.edges = np.linspace(
            0, study.end_cycle, SERIES_BUCKETS + 1
        ).astype(int)
        with rnd.time("core.lifetime.vgpr_s"):
            study.vgpr_lifetimes()
        with rnd.time("core.lifetime.l1_s"):
            study.l1_lifetimes()
        return self._ask(rnd, Parity())

    def warm(self, rnd: Round) -> List[list]:
        return [row for s in self.warm_schemes for row in self._ask(rnd, s)]

    def _ask(self, rnd: Round, scheme) -> List[list]:
        batch = ("core.avf.batch_s", "core.avf.first_batch_s")
        with rnd.time(*batch):
            vgpr = self.study.vgpr_avf(
                self.mode, scheme, style=self.vgpr[0], factor=self.vgpr[1],
            )
        with rnd.time(*batch):
            l1 = self.study.cache_avf(
                "l1", self.mode, scheme, style=self.l1[0],
                factor=self.l1[1], series_edges=self.edges,
            )
        asked = ((self.vgpr, vgpr), (self.l1, l1))
        with rnd.time("store.ingest_s"), ResultStore(rnd.store_path) as store:
            stored = [
                ingest_results(
                    store, [res], workload=self.benchmark,
                    style=style.value, factor=factor, seed=rnd.seed,
                    source="cli/avf",
                )
                for (style, factor), res in asked
            ]
        count_rows(rnd, {
            key: sum(s[key] for s in stored) for key in ("ingested", "deduped")
        })
        rows = [
            result_row(self.benchmark, style, factor, res)
            for (style, factor), res in asked
        ]
        rows[1].append(l1.series.tolist())
        return rows

    def inspect(self, rnd: Round) -> None:
        study = self.study
        lifetime_counts(rnd, study.l1_lifetimes(), study.vgpr_lifetimes())


class Suite:
    """The L1 grid over ten benchmarks through the campaign runtime.

    8 modes x 2 schemes x {none x1, way x2} per benchmark: 320 cells, one
    runtime task per benchmark, with a journal and a results store.  The
    warm pass reruns the sweep against the same journal and store: the
    resume path, where no task runs again and the store ingest is
    deduplicated.  ``sweep_benchmarks`` simulates each benchmark at its
    registry seed, so ``--seed`` does not change this workload's inputs.
    """

    warm_passes = 15
    warm_repeats_cold = True
    cells = len(SUITE) * len(SUITE_LAYOUTS) * len(SCHEMES) * len(MODES)

    def cold(self, rnd: Round) -> List[list]:
        with rnd.time("runtime.sweep_s"):
            return self.sweep(rnd)

    def warm(self, rnd: Round) -> List[list]:
        return self.sweep(rnd)

    def sweep(self, rnd: Round) -> List[list]:
        points, failed = sweep_benchmarks(
            SUITE, "l1", modes=MODES, schemes=SCHEMES, layouts=SUITE_LAYOUTS,
            jobs=rnd.jobs, journal=str(rnd.workdir / "journal.jsonl"),
            store=str(rnd.store_path),
        )
        for name, error in sorted(failed.items()):
            print(f"suite-l1: {name} failed: {error}", file=sys.stderr)
        return [
            point_row(name, p) for name in SUITE for p in points.get(name, [])
        ]

    def inspect(self, rnd: Round) -> None:
        """Task times and attempts from the journal's records."""
        records = Journal(rnd.workdir / "journal.jsonl").load().values()
        durations = [float(r["duration"]) for r in records]
        rnd.counts["runtime.tasks"] = len(durations)
        rnd.counts["runtime.attempts"] = sum(int(r["attempts"]) for r in records)
        rnd.times["runtime.task_sum_s"] = sum(durations)
        rnd.times["runtime.task_s_median"] = statistics.median(durations)
        rnd.times["runtime.task_s_max"] = max(durations)
        rnd.times["runtime.overhead_s"] = (
            rnd.times["runtime.sweep_s"] - sum(durations) / max(rnd.jobs, 1)
        )


WORKLOADS = {
    "pipeline-minife": lambda: Pipeline("minife"),
    "pipeline-matmul": lambda: Pipeline("matmul"),
    "query-minife": Query,
    "suite-l1": Suite,
}


# -- output checks ---------------------------------------------------------


def row_problem(row: Sequence) -> Optional[str]:
    """A paper invariant the row breaks, or None.

    Every AVF lies in [0, 1]; DUE is true DUE plus false DUE; a 1x1 fault
    is always corrected by SEC-DED and never silent under parity.
    """
    key = row[:KEY_FIELDS]
    due, sdc, true_due, false_due = row[KEY_FIELDS:KEY_FIELDS + 4]
    for name, value in zip(VALUES, (due, sdc, true_due, false_due)):
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            return f"{key}: {name}={value!r} outside [0, 1]"
    if abs(true_due + false_due - due) > 1e-12:
        return f"{key}: true+false DUE {true_due + false_due!r} != DUE {due!r}"
    mode, scheme = key[5], key[4]
    if mode == "1x1" and scheme == "secded" and (due or sdc):
        return f"{key}: SEC-DED leaves a 1x1 fault uncorrected"
    if mode == "1x1" and scheme == "parity" and sdc:
        return f"{key}: parity lets a 1x1 fault through silently"
    return None


def compare_rows(
    label: str, got: Sequence[list], want: Optional[Sequence[list]]
) -> List[str]:
    """One message per bad row: an invariant broken, or not equal to ``want``.

    Rows are compared exactly after a JSON round trip, which keeps every
    float's ``repr``.  A missing or extra row is one message.
    """
    problems = [f"{label}: {p}" for p in map(row_problem, got) if p]
    if want is None:
        return problems
    got = json.loads(json.dumps(got))
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            at = next(
                (j for j, (a, b) in enumerate(zip(g, w)) if a != b),
                min(len(g), len(w)),
            )
            problems.append(
                f"{label}: row {i} {w[:KEY_FIELDS]} differs at field {at}: "
                f"got {_short(g[at:at + 1])}, want {_short(w[at:at + 1])}"
            )
    for i in range(len(want), len(got)):
        problems.append(f"{label}: unexpected row {got[i][:KEY_FIELDS]}")
    for i in range(len(got), len(want)):
        problems.append(f"{label}: missing row {want[i][:KEY_FIELDS]}")
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 80 else text[:77] + "..."


def store_problems(store_path: Path, rows: Sequence[list]) -> List[str]:
    """Rows missing from the store, or read back with other values."""
    with ResultStore(store_path) as store:
        stored = {
            (r.workload, r.structure, r.style, r.factor, r.scheme, r.mode):
            [r.due_avf, r.sdc_avf, r.true_due_avf, r.false_due_avf]
            for r in store.query()
        }
    problems = []
    for row in rows:
        key = tuple(row[:KEY_FIELDS])
        values = list(row[KEY_FIELDS:KEY_FIELDS + 4])
        if key not in stored:
            problems.append(f"store: row {key} missing")
        elif stored[key] != values:
            problems.append(
                f"store: row {key} reads back {stored[key]}, computed {values}"
            )
    return problems


def digest(rows: Sequence[list]) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- trace attribution -----------------------------------------------------


def span_totals(events: Iterable) -> Dict[str, float]:
    """Summed duration per span name."""
    totals: Dict[str, float] = {}
    for e in events:
        totals[e.name] = totals.get(e.name, 0.0) + e.duration
    return totals


def self_time(events: Sequence, parent: str) -> float:
    """Total duration of ``parent`` spans minus the time their children cover.

    A child is a span one level deeper that lies inside the parent's
    interval; time covered by several children counts once.
    """
    eps = 1e-9
    total = 0.0
    for p in events:
        if p.name != parent:
            continue
        end = p.start + p.duration
        children = sorted(
            (c.start, c.start + c.duration)
            for c in events
            if c.depth == p.depth + 1
            and c.start >= p.start - eps
            and c.start + c.duration <= end + eps
        )
        covered = 0.0
        reach = p.start
        for s, e in children:
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        total += p.duration - covered
    return total


def layer_metrics(
    cold_events: Sequence,
    check_events: Sequence,
    counters: Dict[str, Dict[str, float]],
    times: Dict[str, float],
    cold_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of a traced round (named in BENCHMARK.json).

    ``counters`` holds registry counter snapshots taken at the end of the
    cold pass (``cold``), of the checks (``check``) and of the first warm
    pass (``warm``).  Times are span totals of the cold pass, except
    ``store.query_s`` (the read-back check) and MemoryConsumption, which
    has no span and is timed from outside.
    """
    spans = span_totals(cold_events)
    lifetime = {}
    for e in cold_events:
        if e.name == "lifetime":
            key = e.args.get("structure")
            lifetime[key] = lifetime.get(key, 0.0) + e.duration
    lifetime_total = sum(lifetime.values()) + times.get(
        "core.lifetime.memcons_s", 0.0
    )
    cold = counters["cold"]
    simulate = spans.get("simulate", 0.0)
    instructions = cold.get("sim.instructions", 0)
    groups = cold.get("avf.groups_enumerated", 0)
    signatures = cold.get("avf.unique_signatures", 0)
    covered = (
        simulate + spans.get("liveness", 0.0) + lifetime_total
        + spans.get("batch", 0.0) + spans.get("ingest", 0.0)
    )
    return {
        "workloads.simulate_s": simulate,
        "arch.instructions": instructions,
        "arch.cycles": cold.get("sim.cycles", 0),
        "arch.sim_ips": instructions / simulate if simulate else 0.0,
        "arch.liveness_s": spans.get("liveness", 0.0),
        "core.lifetime.l1_s": lifetime.get("l1", 0.0),
        "core.lifetime.total_s": lifetime_total,
        "core.avf.batch_s": spans.get("batch", 0.0),
        "core.avf.canon_s": self_time(cold_events, "batch"),
        "core.avf.enumerate_s": spans.get("enumerate", 0.0),
        "core.avf.classify_s": spans.get("classify", 0.0),
        "core.avf.integrate_s": spans.get("integrate", 0.0),
        "core.avf.groups_enumerated": groups,
        "core.avf.unique_signatures": signatures,
        "core.avf.regions_classified": cold.get("avf.regions_classified", 0),
        "core.avf.batch_cache_hits": cold.get("avf.batch_cache_hits", 0),
        "core.avf.signature_ratio": signatures / groups if groups else 0.0,
        "store.ingest_s": spans.get("ingest", 0.0),
        "store.query_s": span_totals(check_events).get("query", 0.0),
        "store.rows_ingested": cold.get("store.ingested", 0),
        "store.rows_deduped": (
            counters["warm"].get("store.deduped", 0)
            - counters["check"].get("store.deduped", 0)
        ),
        "trace.coverage_frac": covered / cold_s,
    }


# -- one round -------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure(args: argparse.Namespace, t_ready: float) -> dict:
    workload = WORKLOADS[args.workload]()
    rnd = Round(args.seed, Path(args.workdir), args.jobs)
    expected = None
    if args.expected and Path(args.expected).is_file():
        expected = json.loads(Path(args.expected).read_text())
    registry, tracer = obs.enable() if args.traced else (None, None)
    marks: Dict[str, int] = {}
    counters: Dict[str, Dict[str, float]] = {}

    def mark(phase: str) -> None:
        if tracer is not None:
            marks[phase] = len(tracer.events)
            counters[phase] = registry.snapshot()["counters"]

    t0 = time.perf_counter()
    cold_rows = workload.cold(rnd)
    cold_s = time.perf_counter() - t0
    rnd.cold = False
    mark("cold")

    want_cold = expected["cold"] if expected else None
    problems = compare_rows("cold", cold_rows, want_cold)
    problems += store_problems(rnd.store_path, cold_rows)
    workload.inspect(rnd)
    rnd.counts["cells"] = len(cold_rows)
    attempts = rnd.counts.get("runtime.attempts")
    if attempts is not None and attempts != rnd.counts["runtime.tasks"]:
        problems.append(
            f"runtime: {attempts} attempts for {rnd.counts['runtime.tasks']} "
            "tasks"
        )
    mark("check")

    if expected:
        want_warm = expected.get("warm", want_cold)
    elif workload.warm_repeats_cold:
        want_warm = json.loads(json.dumps(cold_rows))
    else:
        want_warm = None
    warm_s = []
    warm_rows: List[list] = []
    for _ in range(workload.warm_passes):
        t0 = time.perf_counter()
        warm_rows = workload.warm(rnd)
        warm_s.append(time.perf_counter() - t0)
        if len(warm_s) == 1:
            mark("warm")
        problems += compare_rows("warm", warm_rows, want_warm)
    problems += store_problems(rnd.store_path, warm_rows)

    missing = max(0, workload.cells - len(cold_rows))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "t_ready": t_ready,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "peak_rss_mb": peak_rss_mb(),
        "cells": workload.cells,
        "failed": min(workload.cells, missing + len(problems)),
        "problems": problems[:5],
        "digest": digest(cold_rows),
        "expected": expected is not None,
        "times": rnd.times,
        "counts": rnd.counts,
    }
    if tracer is not None:
        events = tracer.events
        result["layers"] = layer_metrics(
            events[:marks["cold"]], events[marks["cold"]:marks["check"]],
            counters, rnd.times, cold_s,
        )
        if args.chrome:
            tracer.export_chrome(args.chrome)
        obs.disable()
    if args.write_expected:
        doc = {"workload": args.workload, "seed": args.seed, "cold": cold_rows}
        if warm_rows != cold_rows:
            doc["warm"] = warm_rows
        Path(args.write_expected).write_text(
            json.dumps(doc, separators=(",", ":")) + "\n"
        )
    return result


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", help="scratch directory for store and journal")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--expected", help="expected outputs (JSON) to check")
    ap.add_argument("--write-expected", help="write this round's outputs here")
    ap.add_argument("--chrome", help="write the round's Chrome trace here")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    t_ready = now()
    args = parse_args(argv)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0
    if not (args.workload and args.workdir):
        print("child.py: --workload and --workdir are required", file=sys.stderr)
        return 2
    result = measure(args, t_ready)
    for problem in result["problems"]:
        print(f"{args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
