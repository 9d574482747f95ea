"""Command-line interface: run workloads and AVF studies from the shell.

Examples::

    python -m repro list
    python -m repro run matmul
    python -m repro avf matmul --structure l1 --mode 2x1 --scheme parity \\
        --style logical --factor 2
    python -m repro ser matmul --structure vgpr --scheme parity \\
        --style inter_thread --factor 4
    python -m repro inject transpose --singles 30
    python -m repro inject transpose --jobs 2 --timeout 60 --retries 2 \\
        --resume campaign.jsonl
    python -m repro campaign --jobs 4 --resume table2.jsonl
    python -m repro campaign compact --resume table2.jsonl
    python -m repro campaign --fabric coordinator --listen 127.0.0.1:7777 \\
        --shard-dir shards/ --resume table2.jsonl
    python -m repro campaign --fabric worker --connect 127.0.0.1:7777 \\
        --node-id n0 --shard-dir shards/
    python -m repro campaign merge --resume table2.jsonl --shard-dir shards/
    python -m repro stats -- campaign transpose --singles 10
    python -m repro mttf
    python -m repro avf matmul --store results.sqlite
    python -m repro query --store results.sqlite --workload matmul --json
    python -m repro query --store results.sqlite --group-by scheme,style \\
        --value sdc_avf --agg mean
    python -m repro report build --store results.sqlite --out report/
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import sys
from typing import Callable, List, Optional

from . import obs
from .arch.cache import L1_CONFIG, L2_CONFIG
from .runtime.errors import CampaignInterrupted
from .core import (
    SCHEMES,
    AvfStudy,
    FaultMode,
    Interleaving,
    TABLE_III,
    figure2_sweep,
    soft_error_rate,
)
from .core.layout import (
    CACHE_STYLES,
    REGFILE_STYLES,
    SramArray,
    build_cache_array,
    build_regfile_array,
)
from .experiments import observability_report, scaled_apu_kwargs
from .workloads import names, run

__all__ = ["main"]

_STYLES = {s.value: s for s in Interleaving}


def _parse_mode(text: str) -> FaultMode:
    """'3x1' -> linear mode; '2x2' -> rectangular mode."""
    try:
        w, h = (int(x) for x in text.lower().split("x"))
        return FaultMode.linear(w) if h == 1 else FaultMode.rect(h, w)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad fault mode {text!r} (want MxN, M and N >= 1)"
        )


def _positive_int(text: str) -> int:
    """An integer >= 1 (compute units, interleaving factors)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {n}")
    return n


def _nonnegative_int(text: str) -> int:
    """An integer >= 0 (injection counts, row limits)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


def _build_study(args) -> AvfStudy:
    kwargs = scaled_apu_kwargs() if args.scaled else None
    result = run(args.workload, seed=args.seed, n_cus=args.cus,
                 apu_kwargs=kwargs)
    return AvfStudy(result.apu, result.output_ranges)


class _UsageError(Exception):
    """A request the run turned out unable to answer: exits 2 with its
    message, as a bad flag does."""


def _layout_problem(
    args, build: Callable[[], Optional[SramArray]]
) -> Optional[str]:
    """Why the layout ``build()`` returns cannot answer ``args``, if it
    cannot: the layout's own ``ValueError``, or an ``avf --mode`` larger
    than the array.  ``build`` may return None to check the factor only."""
    try:
        layout = build()
    except ValueError as exc:
        return f"--style {args.style} --factor {args.factor}: {exc}"
    mode = getattr(args, "mode", None)
    if layout is not None and mode is not None and not layout.n_groups(
        mode.height, mode.width
    ):
        return (
            f"--mode {mode.name} does not fit the {args.structure} array "
            f"({layout.rows} rows x {layout.cols} columns)"
        )
    return None


def _planned_layout(args) -> Optional[SramArray]:
    """The asked layout as far as it is known before the run.

    The caches' geometry is fixed by ``--scaled``/``--paper-caches``.  The
    register file's register count is the run's, so only its thread count
    is checked here: an inter-thread layout does not depend on the
    register count, and one register per thread stands in for it."""
    style = _STYLES[args.style]
    if args.structure == "vgpr":
        if style is Interleaving.INTER_THREAD:
            build_regfile_array(
                AvfStudy.vgpr_threads, 1, style=style, factor=args.factor
            )
        return None
    configs = scaled_apu_kwargs() if args.scaled else {
        "l1_config": L1_CONFIG, "l2_config": L2_CONFIG,
    }
    cfg = configs[f"{args.structure}_config"]
    return build_cache_array(
        cfg.n_sets, cfg.n_ways, cfg.line_bytes, style=style,
        factor=args.factor,
    )


def _layout_study(args) -> AvfStudy:
    """The run's study, once the asked layout is known to fit the run."""
    study = _build_study(args)
    problem = _layout_problem(args, lambda: study._structure(
        args.structure, _STYLES[args.style], args.factor
    )[0])
    if problem:
        raise _UsageError(problem)
    return study


def _measure(study: AvfStudy, args, mode: FaultMode):
    return study.avf(
        args.structure, mode, SCHEMES[args.scheme],
        style=_STYLES[args.style], factor=args.factor,
    )


def _emit(args, payload: dict, render) -> None:
    """One output path for every reporting subcommand: machine-readable
    JSON when ``--json`` was given, the text renderer otherwise."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        render()


def _cmd_list(args) -> int:
    for name in names():
        print(name)
    return 0


def _cmd_run(args) -> int:
    result = run(args.workload, seed=args.seed, n_cus=args.cus,
                 apu_kwargs=scaled_apu_kwargs() if args.scaled else None)
    l2 = result.apu.memsys.l2
    caches = {
        l1.name: {"hits": l1.hits, "misses": l1.misses}
        for l1 in result.apu.memsys.l1s
    }
    caches["l2"] = {"hits": l2.hits, "misses": l2.misses}
    payload = {
        "workload": result.name,
        "launches": len(result.stats),
        "instructions": result.total_instructions,
        "cycles": result.end_cycle,
        "caches": caches,
        "verified": True,
    }

    def render() -> None:
        print(f"workload:      {result.name}")
        print(f"launches:      {len(result.stats)}")
        print(f"instructions:  {result.total_instructions}")
        print(f"cycles:        {result.end_cycle}")
        for l1 in result.apu.memsys.l1s:
            total = l1.hits + l1.misses
            rate = l1.hits / total if total else 0.0
            print(f"{l1.name} hit rate:  {rate:.1%} ({l1.hits}/{total})")
        total = l2.hits + l2.misses
        print(f"l2 hit rate:   {l2.hits / total if total else 0:.1%} "
              f"({l2.hits}/{total})")
        print("output verified against numpy reference: OK")

    _emit(args, payload, render)
    return 0


def _store_notice(args, counts: Optional[dict]) -> None:
    """Report what a ``--store`` write added (nothing after a failed one).

    With ``--json`` the notice goes to stderr so stdout stays one JSON
    document."""
    if counts is None:
        return
    print(
        f"stored: {counts['ingested']} new, "
        f"{counts['deduped']} already present",
        file=sys.stderr if getattr(args, "json", False) else sys.stdout,
    )


def _cmd_avf(args) -> int:
    study = _layout_study(args)
    res = _measure(study, args, args.mode)
    payload = {
        "workload": args.workload,
        "structure": args.structure,
        "mode": res.mode.name,
        "scheme": res.scheme,
        "style": args.style,
        "factor": args.factor,
        "groups": res.n_groups,
        "window_cycles": res.window_cycles,
        "due_avf": res.due_avf,
        "true_due_avf": res.true_due_avf,
        "false_due_avf": res.false_due_avf,
        "sdc_avf": res.sdc_avf,
        "total_avf": res.total_avf,
    }

    def render() -> None:
        print(f"workload:   {args.workload}")
        print(f"structure:  {args.structure}")
        print(f"fault mode: {res.mode.name}  scheme: {res.scheme}  "
              f"style: {args.style} x{args.factor}")
        print(f"groups:     {res.n_groups}   window: {res.window_cycles} cycles")
        print(f"DUE MB-AVF:   {res.due_avf:.6f} "
              f"(true {res.true_due_avf:.6f}, false {res.false_due_avf:.6f})")
        print(f"SDC MB-AVF:   {res.sdc_avf:.6f}")
        print(f"total AVF:    {res.total_avf:.6f}")

    _emit(args, payload, render)
    if args.store:
        from .store import ingest_results, persist

        def write(store) -> dict:
            # The merged L1 result is named after CU 0; file the row under
            # the structure that was asked for.
            row = dataclasses.replace(res, structure=args.structure)
            return ingest_results(
                store, [row], workload=args.workload, style=args.style,
                factor=args.factor, seed=args.seed, source="cli/avf",
            )

        _store_notice(args, persist(args.store, write))
    return 0


def _cmd_ser(args) -> int:
    study = _layout_study(args)
    avf_by_mode = {}
    for mode_name in TABLE_III:
        m = int(mode_name.split("x")[0])
        res = _measure(study, args, FaultMode.linear(m))
        avf_by_mode[mode_name] = (res.due_avf, res.sdc_avf)
    ser = soft_error_rate(TABLE_III, avf_by_mode, args.structure)
    payload = {
        "workload": args.workload,
        "structure": args.structure,
        "scheme": args.scheme,
        "style": args.style,
        "factor": args.factor,
        "modes": {
            name: {
                "rate": TABLE_III[name],
                "due_avf": avf_by_mode[name][0],
                "sdc_avf": avf_by_mode[name][1],
            }
            for name in TABLE_III
        },
        "due_fit": ser.due_fit,
        "sdc_fit": ser.sdc_fit,
        "total_fit": ser.total_fit,
    }

    def render() -> None:
        print(f"{'mode':<6} {'rate':>7} {'DUE AVF':>9} {'SDC AVF':>9}")
        for mode_name, fit in sorted(
            TABLE_III.items(), key=lambda kv: int(kv[0].split("x")[0])
        ):
            d, s_ = avf_by_mode[mode_name]
            print(f"{mode_name:<6} {fit:7.2f} {d:9.5f} {s_:9.5f}")
        print(f"SER ({args.structure}, {args.scheme} {args.style} "
              f"x{args.factor}): "
              f"DUE {ser.due_fit:.4f}  SDC {ser.sdc_fit:.4f}  "
              f"total {ser.total_fit:.4f}")

    _emit(args, payload, render)
    return 0


def _runtime_kwargs(args) -> dict:
    """Campaign-runtime options shared by ``inject`` and ``campaign``."""
    from .runtime import ChaosPolicy, ChaosSpec, RetryPolicy

    retry = None
    if args.retries:
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            backoff=1.0,
            jitter=0.1,
            seed=args.seed,
        )
    chaos = None
    if args.chaos_spec:
        chaos = ChaosPolicy(
            ChaosSpec.from_string(args.chaos_spec), seed=args.chaos_seed
        )
        print(f"CHAOS MODE (dev): {chaos!r}", file=sys.stderr)
    return {
        "jobs": args.jobs,
        "timeout": args.timeout,
        "retry": retry,
        "journal": args.journal,
        "progress": True,
        "chaos": chaos,
    }


def _parse_endpoint(text: str) -> tuple:
    """'host:port' -> (host, port); raises ValueError on malformed input."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad endpoint {text!r} (want HOST:PORT)")
    return host, int(port)


class _FabricContext:
    """Coordinator lifecycle for one CLI campaign: start, announce, stop."""

    def __init__(self, args) -> None:
        self.args = args
        self.coordinator = None

    def __enter__(self):
        if getattr(self.args, "fabric", None) != "coordinator":
            return None
        from .runtime.fabric import FabricCoordinator

        host, port = _parse_endpoint(self.args.listen or "127.0.0.1:0")
        self.coordinator = FabricCoordinator(
            host, port, shard_dir=self.args.shard_dir
        )
        self.coordinator.start()
        print(
            f"fabric coordinator listening on {self.coordinator.endpoint} "
            "(point workers at it with --fabric worker --connect)",
            file=sys.stderr,
        )
        return self.coordinator

    def __exit__(self, *exc_info) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()


def _cmd_fabric_worker(args) -> int:
    """``--fabric worker``: serve leases from a coordinator until it says
    shutdown (or has been unreachable for a minute)."""
    from .runtime.fabric import run_worker

    addr = _parse_endpoint(args.connect)
    node = args.node_id or f"node-{os.getpid()}"
    print(
        f"fabric worker {node} serving {args.connect}"
        + (f" (shards in {args.shard_dir})" if args.shard_dir else ""),
        file=sys.stderr,
    )
    run_worker(
        addr, node,
        shard_dir=args.shard_dir,
        chaos_spec=args.chaos_spec or None,
        chaos_seed=args.chaos_seed,
    )
    return 0


def _resumed_notice() -> None:
    """Tell the user how much of the campaign the journal already covered."""
    counters = obs.get_metrics().snapshot().get("counters", {})
    n = counters.get("runtime.tasks_resumed", 0)
    if n:
        print(f"resumed {n} completed tasks from journal")


def _print_campaign(c) -> None:
    print(f"benchmark: {c.benchmark}")
    if c.model_sdc_avf is not None:
        print(f"  model SDC AVF (1x1, unprotected): {c.model_sdc_avf:.6f}")
    for outcome, count in sorted(c.single_outcomes.items()):
        print(f"  {outcome:<8} {count}")
    print(f"SDC ACE bits: {c.n_sdc_ace_bits}")
    for m, (injected, interfering) in sorted(c.multibit.items()):
        print(f"  {m}x1 groups: {injected}, ACE interference: {interfering}")
    if c.n_failed:
        breakdown = ", ".join(
            f"{k}={v}" for k, v in sorted(c.failures.items())
        )
        print(f"  FAILED   {c.n_failed} ({breakdown})")


def _cmd_inject(args) -> int:
    from .faultinject import run_campaign

    with _FabricContext(args) as fabric:
        c = run_campaign(
            args.workload, n_single=args.singles,
            max_groups_per_mode=args.groups, seed=args.seed, n_cus=args.cus,
            fabric=fabric, store=args.store,
            **_runtime_kwargs(args),
        )
    _resumed_notice()
    _print_campaign(c)
    return 0


def _cmd_compact(args) -> int:
    """``repro campaign compact --resume J``: atomically rewrite a journal
    to one valid record per task (drops superseded and corrupt lines)."""
    from .runtime import Journal

    if not args.journal:
        print("campaign compact requires --resume JOURNAL", file=sys.stderr)
        return 2
    if not os.path.exists(args.journal):
        print(f"journal {args.journal} does not exist", file=sys.stderr)
        return 2
    stats = Journal(args.journal).compact()
    print(
        f"compacted {args.journal}: {stats['records']} records, "
        f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
    )
    return 0


def _cmd_merge(args) -> int:
    """``repro campaign merge --resume J --shard-dir D``: fold node shard
    journals into the canonical journal (recovery after coordinator loss;
    see docs/distributed.md)."""
    from .runtime.fabric import merge_shards

    if not args.journal:
        print("campaign merge requires --resume JOURNAL", file=sys.stderr)
        return 2
    if not args.shard_dir or not os.path.isdir(args.shard_dir):
        print(
            "campaign merge requires --shard-dir pointing at the node "
            "shard directory",
            file=sys.stderr,
        )
        return 2
    stats = merge_shards(args.journal, args.shard_dir)
    print(
        f"merged {stats['merged']} records from {stats['shards']} shards "
        f"into {args.journal} (already present: {stats['present']}, "
        f"cross-shard duplicates: {stats['duplicates']})"
    )
    if args.store:
        from .store import ingest_journal, persist

        _store_notice(args, persist(
            args.store, lambda store: ingest_journal(store, args.journal),
            journal=args.journal,
        ))
    return 0


def _cmd_campaign(args) -> int:
    from .faultinject import ace_interference_study
    from .workloads.suite import OPENCL_SAMPLES

    if args.fabric == "worker":
        return _cmd_fabric_worker(args)
    if args.benchmarks and args.benchmarks[0] == "compact":
        return _cmd_compact(args)
    if args.benchmarks and args.benchmarks[0] == "merge":
        return _cmd_merge(args)
    benchmarks = args.benchmarks or list(OPENCL_SAMPLES)
    with _FabricContext(args) as fabric:
        campaigns = ace_interference_study(
            benchmarks, n_single=args.singles,
            max_groups_per_mode=args.groups, seed=args.seed, n_cus=args.cus,
            fabric=fabric, store=args.store,
            **_runtime_kwargs(args),
        )
    _resumed_notice()
    for c in campaigns:
        _print_campaign(c)
        print()
    total_bits = sum(c.n_sdc_ace_bits for c in campaigns)
    total_groups = sum(
        n for c in campaigns for n, _ in c.multibit.values()
    )
    total_interfering = sum(c.interference_total() for c in campaigns)
    total_failed = sum(c.n_failed for c in campaigns)
    print(f"total SDC ACE bits:    {total_bits}")
    print(f"total multibit groups: {total_groups}")
    print(f"ACE interference:      {total_interfering} "
          f"({total_interfering / total_groups:.2%})"
          if total_groups else "ACE interference:      n/a")
    if total_failed:
        print(f"failed injections:     {total_failed}")
    return 0


def _cmd_mttf(args) -> int:
    rows = list(figure2_sweep())
    payload = {
        "rows": [
            {
                "raw_fit_per_mbit": r.raw_fit_per_mbit,
                "mttf_smbf_01pct": r.mttf_smbf_01pct,
                "mttf_smbf_5pct": r.mttf_smbf_5pct,
                "mttf_tmbf_unbounded": r.mttf_tmbf_unbounded,
                "mttf_tmbf_100yr": r.mttf_tmbf_100yr,
            }
            for r in rows
        ]
    }

    def render() -> None:
        print(f"{'FIT/Mbit':>9} {'sMBF 0.1%':>12} {'sMBF 5%':>12} "
              f"{'tMBF inf':>12} {'tMBF 100yr':>12}")
        for r in rows:
            print(f"{r.raw_fit_per_mbit:9.2f} {r.mttf_smbf_01pct:12.3e} "
                  f"{r.mttf_smbf_5pct:12.3e} {r.mttf_tmbf_unbounded:12.3e} "
                  f"{r.mttf_tmbf_100yr:12.3e}")

    _emit(args, payload, render)
    if args.store:
        from .store import persist

        def write(store) -> dict:
            ingested, deduped = store.put_mttf_rows(rows)
            return {"ingested": ingested, "deduped": deduped}

        _store_notice(args, persist(args.store, write))
    return 0


def _cmd_query(args) -> int:
    """``repro query``: answer AVF questions from the store alone — no
    simulation runs, however many rows come back."""
    from .store import open_store

    filters = {}
    for column in ("workload", "structure", "scheme", "style", "mode",
                   "ser_model", "source", "factor", "seed"):
        values = getattr(args, column)
        if values:
            filters[column] = values[0] if len(values) == 1 else values
    with open_store(args.store) as store:
        result = store.query(limit=args.limit, **filters)
        if args.group_by:
            keys = tuple(k for k in args.group_by.split(",") if k)
            grouped = result.group_by(
                keys, value=args.value, agg=args.agg
            )
            payload = {
                "groups": [
                    {"key": list(k), args.value: v}
                    for k, v in grouped.items()
                ],
                "agg": args.agg,
                "value": args.value,
            }

            def render() -> None:
                width = max(
                    (len(" ".join(str(p) for p in k)) for k in grouped),
                    default=8,
                )
                print(f"{'group':<{width}}  {args.agg}({args.value})")
                for key, value in grouped.items():
                    label = " ".join(str(p) for p in key)
                    print(f"{label:<{width}}  {value:.6f}")

        else:
            payload = {"rows": result.to_dicts(), "count": len(result)}

            def render() -> None:
                print(
                    f"{'workload':<12} {'struct':<6} {'scheme':<8} "
                    f"{'layout':<16} {'mode':<9} {'DUE':>9} {'SDC':>9}"
                )
                for r in result:
                    print(
                        f"{r.workload:<12} {r.structure:<6} {r.scheme:<8} "
                        f"{r.style + ' x' + str(r.factor):<16} "
                        f"{r.mode:<9} {r.due_avf:9.5f} {r.sdc_avf:9.5f}"
                    )
                print(f"{len(result)} rows")

    _emit(args, payload, render)
    return 0


def _cmd_report(args) -> int:
    """``repro report build``: render the store as the paper's figures,
    as byte-stable static HTML."""
    from .report import build_report
    from .store import open_store

    with open_store(args.store) as store:
        index = build_report(store, args.out)
    print(f"report written to {index}")
    return 0


def _cmd_stats(args) -> int:
    """Run a workload plus one AVF measurement with full observability on,
    then print the per-stage timing and metrics report."""
    study = _build_study(args)
    study.avf("l1", FaultMode.linear(2), SCHEMES["parity"])
    print(observability_report())
    return 0


def _cmd_lint(args) -> int:
    """Run the invariant linter (see docs/static-analysis.md)."""
    from .staticcheck.cli import lint_command

    return lint_command(args)


def _add_common(sub) -> None:
    sub.add_argument("workload", choices=names())
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--cus", type=_positive_int, default=4, help="compute units")


def _add_cache_args(sub) -> None:
    sub.add_argument(
        "--scaled", action="store_true", default=True,
        help="use the scaled experiment cache configuration (default)",
    )
    sub.add_argument(
        "--paper-caches", dest="scaled", action="store_false",
        help="use the paper's 16KB/256KB cache sizes instead",
    )


def _add_measure_args(sub) -> None:
    sub.add_argument("--structure", choices=("l1", "l2", "vgpr"), default="l1")
    sub.add_argument("--scheme", choices=sorted(SCHEMES), default="parity")
    sub.add_argument("--style", choices=sorted(_STYLES), default="none")
    sub.add_argument("--factor", type=_positive_int, default=1)


def _add_obs_args(sub) -> None:
    sub.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a span trace here on exit (.jsonl = one span per line; "
             "any other suffix = Chrome trace-event JSON, loadable in "
             "Perfetto / chrome://tracing)",
    )
    sub.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a JSON metrics snapshot (counters, gauges, histograms) "
             "here on exit",
    )


def _add_json_arg(sub) -> None:
    sub.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text report",
    )


def _add_store_arg(sub, help_text: Optional[str] = None) -> None:
    sub.add_argument(
        "--store", metavar="PATH", default=None,
        help=help_text or (
            "persist the results into this sqlite store (created on "
            "first use); keyed writes make re-runs no-ops — query it "
            "back with 'repro query', render it with 'repro report'"
        ),
    )


def _add_runtime_args(sub) -> None:
    sub.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="run injections in N isolated worker processes (0 = in-process)",
    )
    sub.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="kill any single simulation exceeding this wall-clock budget "
             "(needs --jobs >= 1)",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry infrastructure failures (worker death, timeout) "
             "up to N times with exponential backoff",
    )
    sub.add_argument(
        "--resume", "--journal", dest="journal", default=None,
        metavar="JOURNAL",
        help="JSONL checkpoint journal: completed injections are appended "
             "here and skipped on re-run, making the campaign resumable",
    )
    sub.add_argument(
        "--chaos-spec", default=None, metavar="SPEC",
        help="DEV ONLY: fault-inject the campaign runtime itself, e.g. "
             "'worker_crash=0.1,journal_corrupt=0.05' (see "
             "repro.runtime.ChaosSpec); drop this flag when resuming",
    )
    sub.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="DEV ONLY: seed for the deterministic chaos schedule",
    )
    sub.add_argument(
        "--fabric", choices=("coordinator", "worker"), default=None,
        help="distributed mode: 'coordinator' shards this campaign across "
             "worker nodes, 'worker' serves a coordinator's leases "
             "(see docs/distributed.md)",
    )
    sub.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="coordinator bind address (default 127.0.0.1:0 = any port)",
    )
    sub.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="coordinator address a worker node connects to",
    )
    sub.add_argument(
        "--node-id", default=None, metavar="NAME",
        help="stable worker node id (default: node-<pid>); names the "
             "node's shard journal and keys its chaos schedule",
    )
    sub.add_argument(
        "--shard-dir", default=None, metavar="DIR",
        help="replicated-journal shard directory: workers append local "
             "CRC'd shards here, the coordinator merges them into the "
             "canonical --resume journal on commit",
    )


def _stats_wrap(argv: List[str]) -> int:
    """``repro stats [--trace F] [--metrics F] -- CMD ...``:
    run any subcommand with full observability on, then print the
    per-stage timing and metrics report for what it actually did."""
    idx = argv.index("--")
    own, inner = argv[1:idx], argv[idx + 1:]
    parser = argparse.ArgumentParser(
        prog="repro stats --",
        description="profile another repro subcommand",
    )
    _add_obs_args(parser)
    opts = parser.parse_args(own)
    if not inner:
        parser.error("nothing to profile after '--'")
    with obs.observe(trace=opts.trace, metrics=opts.metrics) as (
        registry, tracer,
    ):
        # The inner main() sees obs already enabled and runs its handler
        # directly, so this session owns the export and the report.
        code = main(inner)
    print()
    print(obs.format_report(registry, tracer))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "stats" and "--" in argv:
        return _stats_wrap(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MB-AVF: multi-bit AVF analysis (MICRO 2014 reproduction)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("list", help="list available workloads")

    p_run = subs.add_parser("run", help="run and verify a workload")
    _add_common(p_run)
    _add_cache_args(p_run)
    _add_obs_args(p_run)
    _add_json_arg(p_run)

    p_avf = subs.add_parser("avf", help="measure an MB-AVF")
    _add_common(p_avf)
    _add_cache_args(p_avf)
    _add_measure_args(p_avf)
    p_avf.add_argument("--mode", type=_parse_mode, default=FaultMode.linear(2),
                       help="fault mode, e.g. 1x1, 4x1, 2x2")
    _add_obs_args(p_avf)
    _add_json_arg(p_avf)
    _add_store_arg(p_avf)

    p_ser = subs.add_parser(
        "ser", help="soft error rate over all Table III fault modes"
    )
    _add_common(p_ser)
    _add_cache_args(p_ser)
    _add_measure_args(p_ser)
    _add_obs_args(p_ser)
    _add_json_arg(p_ser)

    p_inj = subs.add_parser("inject", help="fault-injection campaign")
    _add_common(p_inj)
    p_inj.add_argument("--singles", type=_nonnegative_int, default=40)
    p_inj.add_argument("--groups", type=_nonnegative_int, default=10)
    _add_runtime_args(p_inj)
    _add_obs_args(p_inj)
    _add_store_arg(p_inj)

    p_camp = subs.add_parser(
        "campaign",
        help="multi-benchmark injection campaign (the Table II study)",
    )
    p_camp.add_argument(
        "benchmarks", nargs="*", metavar="BENCHMARK",
        help="benchmarks to inject (default: the AMD OpenCL sample suite)",
    )
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--cus", type=_positive_int, default=2, help="compute units")
    p_camp.add_argument("--singles", type=_nonnegative_int, default=40)
    p_camp.add_argument("--groups", type=_nonnegative_int, default=10)
    _add_runtime_args(p_camp)
    _add_obs_args(p_camp)
    _add_store_arg(
        p_camp,
        "persist campaign summaries and journaled injection verdicts "
        "here; 'campaign merge --store' folds a merged journal in the "
        "same way (re-ingest is a no-op)",
    )

    p_mttf = subs.add_parser("mttf", help="Figure 2 tMBF/sMBF MTTF table")
    _add_json_arg(p_mttf)
    _add_store_arg(p_mttf)

    p_query = subs.add_parser(
        "query",
        help="answer AVF questions from a results store — zero simulation",
    )
    p_query.add_argument(
        "--store", metavar="PATH", required=True,
        help="the sqlite results store to read",
    )
    for flag, column in (
        ("--workload", "workload"), ("--structure", "structure"),
        ("--scheme", "scheme"), ("--style", "style"), ("--mode", "mode"),
        ("--ser-model", "ser_model"), ("--source", "source"),
    ):
        p_query.add_argument(
            flag, dest=column, action="append", default=None,
            metavar=column.upper(),
            help=f"filter by {column} (repeat for an IN-list)",
        )
    for flag in ("--factor", "--seed"):
        p_query.add_argument(
            flag, dest=flag[2:], action="append", type=int, default=None,
            metavar="N", help=f"filter by {flag[2:]} (repeatable)",
        )
    p_query.add_argument(
        "--group-by", metavar="COLS", default=None,
        help="comma-separated key columns; aggregates --value with --agg "
             "per group instead of listing rows",
    )
    p_query.add_argument(
        "--value", default="sdc_avf",
        choices=("due_avf", "sdc_avf", "true_due_avf", "false_due_avf",
                 "total_avf", "n_groups", "window_cycles"),
        help="value column for --group-by (default sdc_avf)",
    )
    p_query.add_argument(
        "--agg", default="mean",
        choices=("mean", "min", "max", "sum", "count"),
        help="aggregate for --group-by (default mean)",
    )
    p_query.add_argument(
        "--limit", type=_nonnegative_int, default=None, metavar="N",
        help="return at most N rows",
    )
    _add_obs_args(p_query)
    _add_json_arg(p_query)

    p_report = subs.add_parser(
        "report",
        help="render a results store as the paper's figures "
             "(static HTML)",
    )
    p_report.add_argument(
        "action", choices=("build",),
        help="'build' writes byte-stable HTML to --out",
    )
    p_report.add_argument(
        "--store", metavar="PATH", required=True,
        help="the sqlite results store to render",
    )
    p_report.add_argument(
        "--out", metavar="DIR", default="report",
        help="output directory for 'build' (default: report/)",
    )

    p_stats = subs.add_parser(
        "stats",
        help="profile a workload + AVF measurement and print stage "
             "timings and metrics",
    )
    _add_common(p_stats)
    _add_cache_args(p_stats)
    _add_obs_args(p_stats)

    p_lint = subs.add_parser(
        "lint",
        help="AST invariant linter: determinism, numpy hygiene, "
             "fork/atomic-IO safety, obs discipline",
    )
    from .staticcheck.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    _add_obs_args(p_lint)

    args = parser.parse_args(argv)
    # Validate export paths up front: a campaign must not run for an hour
    # and then lose its trace to a typo'd directory.
    for flag in ("trace", "metrics"):
        path = getattr(args, flag, None)
        if path:
            if os.path.isdir(path):
                parser.error(f"--{flag} {path}: is a directory")
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                parser.error(
                    f"--{flag} {path}: directory {parent} does not exist"
                )
    if args.command in ("avf", "ser"):
        # An impossible layout must fail before the workload simulates.
        styles = REGFILE_STYLES if args.structure == "vgpr" else CACHE_STYLES
        if _STYLES[args.style] not in styles:
            parser.error(
                f"--style {args.style} cannot lay out {args.structure} "
                f"(valid: {', '.join(s.value for s in styles)})"
            )
        problem = _layout_problem(args, lambda: _planned_layout(args))
        if problem:
            parser.error(problem)
    if args.command in ("inject", "campaign"):
        if args.jobs < 0:
            parser.error("--jobs must be >= 0 (0 = in-process)")
        if args.timeout is not None and args.timeout <= 0:
            parser.error("--timeout must be > 0 seconds")
        if args.retries < 0:
            parser.error("--retries must be >= 0")
        if (
            args.timeout is not None and args.jobs < 1
            and args.fabric != "coordinator"
        ):
            parser.error(
                "--timeout requires --jobs >= 1 (process isolation) "
                "or --fabric coordinator (lease expiry)"
            )
        if args.journal and os.path.isdir(args.journal):
            parser.error(f"--resume {args.journal}: is a directory")
        if args.chaos_spec:
            from .runtime import ChaosSpec

            try:
                ChaosSpec.from_string(args.chaos_spec)
            except ValueError as exc:
                parser.error(f"--chaos-spec: {exc}")
        if args.fabric == "worker":
            if args.command != "campaign":
                parser.error("--fabric worker is a 'campaign' mode")
            if not args.connect:
                parser.error("--fabric worker requires --connect HOST:PORT")
        if args.fabric is None and (args.listen or args.connect):
            parser.error("--listen/--connect require --fabric")
        for flag in ("listen", "connect"):
            value = getattr(args, flag, None)
            if value:
                try:
                    _parse_endpoint(value)
                except ValueError as exc:
                    parser.error(f"--{flag}: {exc}")
        benchmarks = getattr(args, "benchmarks", None)
        # "campaign compact" / "campaign merge" are the journal-maintenance
        # subcommands, not benchmark lists.
        if benchmarks and benchmarks[0] not in ("compact", "merge"):
            unknown = [b for b in benchmarks if b not in names()]
            if unknown:
                parser.error(f"unknown benchmarks: {', '.join(unknown)}")
    store_path = getattr(args, "store", None)
    if store_path:
        if os.path.isdir(store_path):
            parser.error(f"--store {store_path}: is a directory")
        if args.command in ("query", "report"):
            # Readers refuse to conjure an empty store: a typo'd path
            # should fail loudly, not return zero rows.
            if not os.path.exists(store_path):
                parser.error(f"--store {store_path}: does not exist")
        else:
            parent = os.path.dirname(os.path.abspath(store_path))
            if not os.path.isdir(parent):
                parser.error(
                    f"--store {store_path}: directory {parent} "
                    "does not exist"
                )
    if args.command == "query" and args.group_by:
        from .store import FILTER_COLUMNS

        bad = [
            k for k in args.group_by.split(",")
            if k and k not in FILTER_COLUMNS
        ]
        if bad:
            parser.error(
                f"--group-by: unknown columns {', '.join(bad)} "
                f"(valid: {', '.join(FILTER_COLUMNS)})"
            )
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "avf": _cmd_avf,
        "ser": _cmd_ser,
        "inject": _cmd_inject,
        "campaign": _cmd_campaign,
        "mttf": _cmd_mttf,
        "query": _cmd_query,
        "report": _cmd_report,
        "stats": _cmd_stats,
        "lint": _cmd_lint,
    }
    handler = handlers[args.command]
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    try:
        # Observability is always on for the commands whose reports read
        # it (resumed-task notice, stats); elsewhere only when an export
        # was asked for, so the plain paths keep their no-op
        # instrumentation.  When obs is already live this run is nested
        # inside a ``stats --`` wrapper, which owns the session.
        if not obs.enabled() and (
            trace or metrics
            or args.command in ("inject", "campaign", "stats", "lint")
        ):
            with obs.observe(trace=trace, metrics=metrics):
                return handler(args)
        return handler(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except CampaignInterrupted as stop:
        # Graceful drain: every completed task is already fsynced in the
        # journal, so tell the operator exactly how to pick the campaign
        # back up.
        print(
            f"\ninterrupted: {stop.completed}/{stop.total} tasks "
            "journaled; journal sealed",
            file=sys.stderr,
        )
        if stop.journal_path is not None:
            resume_argv = _strip_chaos_args(argv)
            print(
                "resume with: python -m repro "
                + " ".join(shlex.quote(a) for a in resume_argv),
                file=sys.stderr,
            )
        return 130


def _strip_chaos_args(argv: List[str]) -> List[str]:
    """Drop --chaos-spec/--chaos-seed (and their values) from an argv.

    The suggested resume command must not carry them: journal faults are
    keyed per task id, so resuming with the same chaos policy would
    replay the same write faults instead of finishing the campaign.
    """
    out: List[str] = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a in ("--chaos-spec", "--chaos-seed"):
            skip = True
            continue
        if a.startswith("--chaos-spec=") or a.startswith("--chaos-seed="):
            continue
        out.append(a)
    return out


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
