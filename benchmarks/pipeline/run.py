"""Pipeline benchmark: cold, layer-attributed MB-AVF sweeps.

Run from the repository root::

    python3 benchmarks/pipeline/run.py --workload pipeline-minife --seed 0 \\
        --seconds 15 --trace 0
    python3 benchmarks/pipeline/run.py --seed 0 1 --out A.json   # every workload
    python3 benchmarks/pipeline/run.py --seed 0 --trace 1 --trace-dir traces
    python3 benchmarks/pipeline/run.py --seed 0 1 --write-expected

One closed-loop client: each cold round is a fresh interpreter running
``child.py``, started only after the previous one has exited.  Rounds
repeat until ``--seconds`` have passed (at least one round).  Bare-import
launches then bring the set-up samples up to nine.  With ``--trace 1`` the
same rounds run, then one more with the ``repro.obs`` tracer on; that
round gives the per-layer metrics.  ``suite-l1`` then runs its tasks
inline (``jobs=0``), because spawn workers do not report their spans.

For each (workload, seed) the last line printed on stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer
metrics).  A human-readable table goes to stderr; ``--out`` writes every
sample for ``compare.py``.  Scratch files stay under ``.work/`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected"
WORK = HERE / ".work"
#: set-up samples per run: cold rounds plus bare-import launches
SETUP_LAUNCHES = 9
#: a round that takes longer than this has hung
CHILD_TIMEOUT_S = 170
#: the one pooled workload's worker count
JOBS = min(2, os.cpu_count() or 1)


class RoundFailed(RuntimeError):
    """A child exited badly or printed no result."""


def now() -> float:
    """System-wide monotonic clock; child.py reads the same one."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(args: Sequence[str], env: Dict[str, str]) -> dict:
    """Run one child to completion; its result plus ``setup_s``."""
    start = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"child {args} ran over {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"child {args} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - start
    return result


def cold_round(
    workload: str, seed: int, env: Dict[str, str], *, jobs: int,
    traced: bool = False, chrome: Optional[Path] = None,
    write_expected: Optional[Path] = None,
) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="round-", dir=WORK))
    args = [
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--jobs", str(jobs),
        "--expected", str(EXPECTED / f"{workload}-seed{seed}.json"),
    ]
    if traced:
        args.append("--traced")
    if chrome is not None:
        args += ["--chrome", str(chrome)]
    if write_expected is not None:
        args += ["--write-expected", str(write_expected)]
    try:
        return launch(args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    env: Dict[str, str], trace_dir: Optional[Path],
) -> dict:
    """One run: cold rounds for ``seconds``, set-up launches, traced round."""
    # Spawn workers keep their spans to themselves, so the traced run of
    # the pooled workload (and its untraced baseline) runs the tasks inline.
    jobs = 0 if trace else JOBS
    rounds: List[dict] = []
    start = now()
    while not rounds or now() - start < seconds:
        rounds.append(cold_round(workload, seed, env, jobs=jobs))
    setup = [r["setup_s"] for r in rounds]
    while not trace and len(setup) < SETUP_LAUNCHES:
        setup.append(launch(["--setup-only"], env)["setup_s"])
    traced = None
    if trace:
        chrome = None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            chrome = trace_dir / f"{workload}-seed{seed}.json"
        traced = cold_round(
            workload, seed, env, jobs=jobs, traced=True, chrome=chrome
        )
    return summarize_run(workload, seed, rounds, setup, traced, jobs)


def summarize_run(
    workload: str, seed: int, rounds: List[dict], setup: List[float],
    traced: Optional[dict], jobs: int,
) -> dict:
    """Metrics and samples of one run, as ``--out`` stores them."""
    samples = {
        "setup_s": setup,
        "cold_s": [r["cold_s"] for r in rounds],
        "warm_s": [w for r in rounds for w in r["warm_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    cells = rounds[0]["cells"]
    cold_s = statistics.median(samples["cold_s"])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "cold_s": cold_s,
        "cells_per_s": cells / cold_s,
        "warm_s": statistics.median(samples["warm_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    measured = rounds + ([traced] if traced else [])
    layers = {
        name: statistics.median(r["times"][name] for r in rounds)
        for name in rounds[0]["times"]
    }
    per_layer = None
    if traced is not None:
        per_layer = dict(traced["layers"])
        per_layer["trace.overhead_frac"] = traced["cold_s"] / cold_s - 1.0
    counts = rounds[0]["counts"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": traced is not None,
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "rounds": len(rounds),
        "attempted": sum(r["cells"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "problems": [p for r in measured for p in r["problems"]][:5],
        "expected": all(r["expected"] for r in measured),
        "digest": rounds[0]["digest"],
        "counts": counts,
        "counts_repeat": all(r["counts"] == counts for r in rounds),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layers": layers,
        "samples": samples,
    }


def result_line(record: dict, spec: dict) -> dict:
    """The result object printed as the last line of one run."""
    if record["trace"]:
        values, metrics = record["per_layer"], spec["per_layer"]
    else:
        values, metrics = record["end_to_end"], spec["end_to_end"]
    return {
        "correct": record["failed"] == 0 and record["counts_repeat"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics
        },
    }


def format_run(record: dict, spec: dict) -> str:
    """Human-readable account of one run."""
    head = (
        f"== {record['workload']} seed {record['seed']}: "
        f"{record['rounds']} cold round(s), jobs={record['jobs']}, "
        f"nproc={record['nproc']}, {record['attempted']} cells, "
        f"{record['failed']} failed, outputs "
        + ("checked against expected/" if record["expected"] else
           f"digest {record['digest']} (no expected file)")
    )
    lines = [head]
    lines += [f"   problem: {p}" for p in record["problems"]]
    if not record["counts_repeat"]:
        lines.append("   problem: counts differ between rounds")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not record["trace"]:
        lines.append(
            f"   {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}"
        )
        for name, value in record["end_to_end"].items():
            xs = record["samples"].get(name)
            q1 = q3 = value
            if xs:
                _, q1, q3 = summarize(xs)
            n = len(xs) if xs else record["rounds"]
            lines.append(
                f"   {name + ' (' + units[name] + ')':<24}"
                f"{value:>12.4g}{q1:>12.4g}{q3:>12.4g}{n:>5}"
            )
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in record["per_layer"].items():
            lines.append(f"   {name:<30}{value:>14.6g} {units.get(name, '')}")
    lines.append("   timed from outside (median over cold rounds):")
    for name, value in sorted(record["layers"].items()):
        lines.append(f"   {name:<30}{value:>14.6g} s")
    for name, value in sorted(record["counts"].items()):
        lines.append(f"   {name:<30}{value:>14} count")
    return "\n".join(lines)


def write_expected(
    workloads: Sequence[str], seeds: Sequence[int], env: Dict[str, str]
) -> None:
    EXPECTED.mkdir(exist_ok=True)
    for seed in seeds:
        for workload in workloads:
            path = EXPECTED / f"{workload}-seed{seed}.json"
            path.unlink(missing_ok=True)
            r = cold_round(workload, seed, env, jobs=JOBS, write_expected=path)
            print(f"wrote {path.relative_to(ROOT)} ({r['cells']} cells, "
                  f"digest {r['digest']}, {r['failed']} failed)",
                  file=sys.stderr)


def parse_args(argv: Optional[Sequence[str]], names: Sequence[str]):
    ap = argparse.ArgumentParser(
        description="Cold, layer-attributed MB-AVF pipeline benchmark."
    )
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, nargs="+", default=[0],
                    help="input seeds; each is one run per workload")
    ap.add_argument("--seconds", type=float, default=None,
                    help="time to keep starting cold rounds "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced round, report per-layer metrics")
    ap.add_argument("--trace-dir", type=Path,
                    help="with --trace 1, write a Chrome trace per run here")
    ap.add_argument("--out", type=Path, help="write every sample here (JSON)")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected/ for the given seeds")
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read {BENCHMARK}: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no package to measure under {SRC}", file=sys.stderr)
        return 2
    workloads = args.workload or names
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORK.mkdir(exist_ok=True)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(WORK))
    try:
        if args.write_expected:
            write_expected(workloads, args.seed, env)
            return 0
        records = []
        for seed in args.seed:
            for workload in workloads:
                record = measure(
                    workload, seed, seconds, bool(args.trace), env,
                    args.trace_dir,
                )
                records.append(record)
                print(format_run(record, spec), file=sys.stderr)
                print(json.dumps(result_line(record, spec)), flush=True)
    except RoundFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seconds": seconds, "runs": records}, indent=1
        ) + "\n")
    return 0 if all(result_line(r, spec)["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
