"""Disabled-mode observability overhead guard.

The instrumentation added by :mod:`repro.obs` stays in the simulator, the
AVF engine and the campaign runtime permanently, so its *disabled* cost
must be negligible.  The contract is < 2% on the engine workload:
minife L1 lifetimes through the 2x1 MB-AVF engine, with way-physical
x2 interleaving.

Measuring a sub-2% delta by timing two runs directly is hopeless in a
noisy CI container, so the guard measures it analytically instead:

1. run the workload once with *counting* doubles installed, recording how
   many instrumentation call sites fire (``N``),
2. microbenchmark the disabled-mode cost of one such call — the real
   no-op idioms ``get_metrics().counter(name).inc()`` and
   ``with get_tracer().span(name): ...`` (``c``),
3. time the workload itself with observability disabled (``T``),

and assert ``2 * N * c < 2% * T`` (the factor of two covers untracked
trimmings such as ``span.set`` and ``if registry:`` truthiness checks).
"""

import time

import pytest

from repro import obs
from repro.core import AvfStudy, FaultMode, Interleaving, Parity, compute_mb_avf
from repro.core.layout import build_cache_array
from repro.experiments import scaled_apu_kwargs
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import run


class CountingRegistry(MetricsRegistry):
    """Counts instrument fetches — one per disabled-mode no-op call site."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def counter(self, name):
        self.ops += 1
        return super().counter(name)

    def gauge(self, name):
        self.ops += 1
        return super().gauge(name)

    def histogram(self, name, bounds=None):
        self.ops += 1
        return super().histogram(name, bounds)


class CountingTracer(Tracer):
    """Counts span opens and external events."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def span(self, name, **args):
        self.ops += 1
        return super().span(name, **args)

    def add_event(self, name, duration, **args):
        self.ops += 1
        super().add_event(name, duration, **args)


@pytest.fixture(scope="module")
def prepared():
    """The engine workload: minife L1 lifetimes plus a way-physical x2
    interleaved L1 layout."""
    result = run("minife", apu_kwargs=scaled_apu_kwargs())
    study = AvfStudy(result.apu, result.output_ranges)
    lifetimes = study.l1_lifetimes()[0]
    cfg = result.apu.memsys.l1s[0].config
    layout = build_cache_array(
        cfg.n_sets, cfg.n_ways, cfg.line_bytes,
        style=Interleaving.WAY_PHYSICAL, factor=2,
    )
    return layout, lifetimes


def _null_op_costs():
    """Per-call cost of the two disabled-mode instrumentation idioms."""
    assert not obs.enabled()
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        obs.get_metrics().counter("x").inc()
    c_metric = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.get_tracer().span("x"):
            pass
    c_span = (time.perf_counter() - t0) / n
    return c_metric, c_span


@pytest.mark.benchmark(group="perf")
def test_disabled_obs_overhead_below_2pct(prepared, report):
    layout, lifetimes = prepared

    def workload():
        # Drop the engine caches so that every call, counted or timed, does
        # the same cold work; a cached result would time a dict lookup.
        lifetimes._canon_cache = None
        layout._sig_memo = None
        return compute_mb_avf(
            layout, lifetimes, FaultMode.linear(2), Parity()
        )

    # 1. How many instrumentation call sites does one run hit?
    creg, ctracer = CountingRegistry(), CountingTracer()
    obs.install(creg, ctracer)
    try:
        workload()
    finally:
        obs.disable()
    n_metric, n_span = creg.ops, ctracer.ops
    assert n_metric > 0 and n_span > 0, "engine path lost its instrumentation"

    # 2. What does one disabled-mode call cost?
    c_metric, c_span = _null_op_costs()

    # 3. What does the workload itself cost with observability off?
    t_work = min(
        (lambda t0: (workload(), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )

    budget = 2.0 * (n_metric * c_metric + n_span * c_span)
    ratio = budget / t_work
    report(
        "perf_obs_overhead",
        [
            f"metric call sites/run:  {n_metric}  @ {c_metric * 1e9:.0f}ns",
            f"span call sites/run:    {n_span}  @ {c_span * 1e9:.0f}ns",
            f"workload time:          {t_work * 1e3:.1f}ms",
            f"disabled overhead:      {ratio:.4%} (budget, 2x safety margin)",
        ],
    )
    assert ratio < 0.02, (
        f"disabled-mode observability overhead {ratio:.2%} breaks the "
        f"< 2% contract ({n_metric} metric + {n_span} span ops)"
    )
