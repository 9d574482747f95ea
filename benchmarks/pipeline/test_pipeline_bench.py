"""Tests of the pipeline benchmark's own logic (not of its timings).

Outside the tier-1 ``testpaths``; run them explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/pipeline/test_pipeline_bench.py
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import child
from compare import summarize, verdict
from repro.obs import SpanEvent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- compare.py verdicts -----------------------------------------------------

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def scaled(values, factor):
    return [v * factor for v in values]


def test_summarize_matches_statistics_quantiles():
    median, q1, q3 = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert summarize([7.0]) == (7.0, 7.0, 7.0)


def test_same_runs_are_within_bound():
    assert verdict(BASE, list(BASE), better="lower", bound=0.1) == "within bound"


def test_consistent_slowdown_beyond_bound_regresses():
    assert verdict(BASE, scaled(BASE, 1.2), better="lower", bound=0.1) == (
        "regressed"
    )


def test_slowdown_inside_bound_is_within_bound():
    assert verdict(BASE, scaled(BASE, 1.05), better="lower", bound=0.1) == (
        "within bound"
    )


def test_consistent_speedup_beyond_parent_spread_improves():
    assert verdict(BASE, scaled(BASE, 0.9), better="lower", bound=0.1) == (
        "improved"
    )


def test_speedup_inside_parent_spread_is_not_a_gain():
    # Medians 0.5% apart while the parent's quartiles are ~1.5% apart.
    assert verdict(BASE, scaled(BASE, 0.995), better="lower", bound=0.1) == (
        "within bound"
    )


def test_higher_is_better_flips_direction():
    assert verdict(BASE, scaled(BASE, 0.8), better="higher", bound=0.1) == (
        "regressed"
    )
    assert verdict(BASE, scaled(BASE, 1.2), better="higher", bound=0.1) == (
        "improved"
    )


def test_spread_wider_than_bound_is_unresolved():
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 6.5, 13.5, 9.0, 11.0, 10.0]
    assert verdict(noisy, list(reversed(noisy)), better="lower", bound=0.1) == (
        "unresolved"
    )


def test_wide_spread_but_every_run_better_improves():
    # The medians differ by less than A's quartile distance, yet every run
    # of B is faster than every run of A.
    a = [10.0, 20.0, 11.0, 19.0, 15.0]
    b = [9.5, 9.0, 8.5, 9.8, 9.9]
    assert verdict(a, b, better="lower", bound=0.1) == "improved"


# -- trace attribution ---------------------------------------------------------


def span(name, start, duration, depth):
    return SpanEvent(name, start, duration, depth, {})


def test_canon_residual_subtracts_child_coverage_once():
    events = [
        span("enumerate", 1.0, 2.0, 1),
        span("classify", 3.5, 1.0, 1),
        span("integrate", 4.0, 1.0, 1),  # overlaps classify by 0.5
        span("kernel", 1.5, 0.5, 2),  # grandchild: inside enumerate already
        span("batch", 0.0, 6.0, 0),
        span("enumerate", 7.0, 1.0, 0),  # a sibling, not a child
        span("batch", 10.0, 2.0, 0),  # no children
    ]
    # First batch: 6.0 - (2.0 + 1.5 covered by classify/integrate) = 2.5.
    assert child.self_time(events, "batch") == pytest.approx(2.5 + 2.0)
    assert child.span_totals(events)["enumerate"] == pytest.approx(3.0)


def test_layer_metrics_names_match_benchmark_json():
    events = [
        span("simulate", 0.0, 1.0, 0),
        span("liveness", 1.0, 0.5, 0),
        SpanEvent("lifetime", 1.5, 0.5, 0, {"structure": "l1"}),
        span("batch", 2.0, 1.0, 0),
        span("enumerate", 2.2, 0.3, 1),
    ]
    counters = {
        "cold": {"sim.instructions": 100, "avf.groups_enumerated": 10,
                 "avf.unique_signatures": 2},
        "check": {},
        "warm": {"store.deduped": 4},
    }
    layers = child.layer_metrics(events, [], counters, {}, cold_s=3.2)
    layers["trace.overhead_frac"] = 0.0  # added by run.py
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["core.avf.canon_s"] == pytest.approx(0.7)
    assert layers["core.avf.signature_ratio"] == pytest.approx(0.2)
    assert layers["trace.coverage_frac"] == pytest.approx(3.0 / 3.2)


# -- output checks ---------------------------------------------------------


def test_row_invariants():
    good = ["w", "l1", "none", 1, "parity", "2x1", 0.25, 0.125, 0.25, 0.0]
    assert child.row_problem(good) is None
    leaky = ["w", "l1", "none", 1, "secded", "1x1", 0.0, 0.01, 0.0, 0.0]
    assert "SEC-DED" in child.row_problem(leaky)
    split = ["w", "l1", "none", 1, "parity", "2x1", 0.25, 0.0, 0.2, 0.0]
    assert "DUE" in child.row_problem(split)


def test_compare_rows_reports_first_differing_field():
    want = [["w", "l1", "none", 1, "parity", "2x1", 0.25, 0.125, 0.25, 0.0]]
    got = [list(want[0])]
    assert child.compare_rows("cold", got, want) == []
    got[0][7] = 0.126
    (problem,) = child.compare_rows("cold", got, want)
    assert "field 7" in problem and "0.126" in problem
    assert len(child.compare_rows("cold", [], want)) == 1


def test_expected_outputs_committed_for_seeds_0_and_1():
    for w in SPEC["workloads"]:
        for seed in (0, 1):
            doc = json.loads(
                (HERE / "expected" / f"{w['name']}-seed{seed}.json").read_text()
            )
            assert doc["workload"] == w["name"] and doc["seed"] == seed
            assert doc["cold"] and all(
                child.row_problem(row) is None for row in doc["cold"]
            )


# -- spawn safety and an end-to-end smoke run ------------------------------


def test_importing_child_entry_runs_no_workload(monkeypatch):
    import repro.experiments
    import repro.workloads

    def forbidden(*args, **kwargs):
        raise AssertionError("a workload ran at import time")

    monkeypatch.setattr(repro.workloads, "run", forbidden)
    monkeypatch.setattr(repro.experiments, "sweep_benchmarks", forbidden)
    # Spawn workers import the parent's main module under this name.
    namespace = runpy.run_path(str(HERE / "child.py"), run_name="__mp_main__")
    assert callable(namespace["main"])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_round_smoke_run_emits_every_metric(tmp_path, trace, kind):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "query-minife",
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    for metric in SPEC[kind]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    (run,) = json.loads(out.read_text())["runs"]
    assert run["expected"] and run["rounds"] == 1


def test_exits_without_a_result_when_the_package_is_missing(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    subprocess.run(
        ["cp", "-r", str(HERE), str(tmp_path / "benchmarks" / "pipeline")],
        check=True,
    )
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "query-minife", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
