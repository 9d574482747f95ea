"""Compare two sets of pipeline-benchmark runs (``run.py --out`` files).

    python3 benchmarks/pipeline/compare.py A.json B.json

A is the parent, B the change.  For each workload and each end-to-end
metric it prints both medians with their quartiles over the runs of the
set (one value per run) and a verdict, using the bounds in BENCHMARK.json
and the rules of the choosing-metrics guide:

* improved: B reads better than A in at least nine tenths of the pairs
  (runs paired in order, ties count for neither), and the medians differ
  by more than A's own spread (the distance between its quartiles);
* unresolved: the spread of either set, as a share of its median, is
  wider than the bound, and not every run of B reads better than every
  run of A;
* regressed: B's median is worse than A's by more than the bound;
* within bound: otherwise.

Runs of the same workload and seed must agree exactly on their counts and
on the digest of their outputs.  The exit code is 1 when anything
regressed, is unresolved or disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def summarize(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile) by ``statistics.quantiles``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(
    a: Sequence[float], b: Sequence[float], *, better: str, bound: float
) -> str:
    """improved / within bound / unresolved / regressed (module docstring)."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(old: float, new: float) -> float:
        """How much better ``new`` reads than ``old`` (negative: worse)."""
        return sign * (old - new)

    ma, a1, a3 = summarize(a)
    mb, b1, b3 = summarize(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if gain(x, y) > 0)
    if wins >= 0.9 * len(pairs) and gain(ma, mb) > a3 - a1:
        return "improved"
    spread = max((a3 - a1) / abs(ma), (b3 - b1) / abs(mb))
    if spread > bound:
        if all(gain(x, y) > 0 for x in a for y in b):
            return "improved"
        return "unresolved"
    if -gain(ma, mb) / abs(ma) > bound:
        return "regressed"
    return "within bound"


def load_runs(path: Path) -> List[dict]:
    return json.loads(path.read_text())["runs"]


def by_workload(runs: List[dict], traced: bool) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for r in runs:
        if r["trace"] == traced:
            out.setdefault(r["workload"], []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: r["seed"])
    return out


def exact_counts(run: dict, count_names: Sequence[str]) -> Dict[str, int]:
    """A run's counts, with the per-layer counts of a traced run."""
    counts = dict(run["counts"])
    if run["per_layer"]:
        counts.update((name, run["per_layer"][name]) for name in count_names)
    return counts


def disagreements(
    a_runs: List[dict], b_runs: List[dict], count_names: Sequence[str]
) -> List[str]:
    """Counts or output digests that differ between runs of the same seed."""
    b_index = {(r["workload"], r["seed"], r["trace"]): r for r in b_runs}
    out = []
    for ra in a_runs:
        rb = b_index.get((ra["workload"], ra["seed"], ra["trace"]))
        if rb is None:
            continue
        where = f"{ra['workload']} seed {ra['seed']}"
        if ra["digest"] != rb["digest"]:
            out.append(
                f"{where}: outputs differ ({ra['digest']} vs {rb['digest']})"
            )
        counts_a = exact_counts(ra, count_names)
        counts_b = exact_counts(rb, count_names)
        for name in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(name) != counts_b.get(name):
                out.append(
                    f"{where}: {name} {counts_a.get(name)} vs "
                    f"{counts_b.get(name)}"
                )
    return out


def compare(
    a_runs: List[dict], b_runs: List[dict], spec: dict
) -> Tuple[List[str], bool]:
    """Report lines, and whether every metric and count held."""
    a = by_workload(a_runs, traced=False)
    b = by_workload(b_runs, traced=False)
    lines = [
        f"{'workload':<17}{'metric':<13}{'A median [q1, q3]':>32}"
        f"{'B median [q1, q3]':>32}{'change':>9}  verdict"
    ]
    ok = True
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            lines.append(f"{workload:<17}only in {'A' if workload in a else 'B'}")
            continue
        for m in spec["end_to_end"]:
            xs = [r["end_to_end"][m["name"]] for r in a[workload]]
            ys = [r["end_to_end"][m["name"]] for r in b[workload]]
            v = verdict(xs, ys, better=m["better"], bound=m["bound"])
            ok &= v in ("improved", "within bound")
            (ma, a1, a3), (mb, b1, b3) = summarize(xs), summarize(ys)
            lines.append(
                f"{workload:<17}{m['name']:<13}"
                f"{_cell(ma, a1, a3, len(xs)):>32}"
                f"{_cell(mb, b1, b3, len(ys)):>32}"
                f"{(mb - ma) / ma:>+9.1%}  {v}"
            )
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    bad = disagreements(a_runs, b_runs, count_names)
    lines += [f"disagree: {line}" for line in bad]
    return lines, ok and not bad


def _cell(median: float, q1: float, q3: float, n: int) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] ({n})"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(
        load_runs(Path(argv[0])), load_runs(Path(argv[1])), spec
    )
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
