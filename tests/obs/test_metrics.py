"""Registry semantics: counters, gauges, histograms, reset, no-op mode."""

import pytest

from repro import obs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.metrics import NULL_REGISTRY


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = MetricsRegistry().counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_create_or_get_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x") is not reg.counter("y")


class TestGauge:
    def test_last_write_wins(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        # 0.5 and 1.0 land in <=1.0; 1.5 in <=2.0; 4.0 in <=4.0; 100 overflows
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(107.0)
        assert h.mean == pytest.approx(107.0 / 5)

    def test_quantile_is_bucket_resolution(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 3.0, 100.0):
            h.observe(v)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.75) == 4.0
        # Overflow bucket reports the last finite bound.
        assert h.quantile(1.0) == 4.0

    def test_quantile_empty_and_domain(self):
        h = Histogram("lat", bounds=(1.0,))
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_default_bounds(self):
        h = MetricsRegistry().histogram("lat")
        assert h.bounds == DEFAULT_LATENCY_BUCKETS


class TestRegistry:
    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7.0)
        reg.histogram("c", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 7.0}
        assert snap["histograms"]["c"]["counts"] == [1, 0]
        assert snap["histograms"]["c"]["count"] == 1

    def test_reset_zeroes_but_preserves_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(3)
        h = reg.histogram("b", bounds=(1.0,))
        h.observe(0.5)
        reg.reset()
        assert c.value == 0
        assert h.counts == [0, 0]
        assert h.sum == 0.0 and h.count == 0
        assert reg.counter("a") is c

    def test_truthiness(self):
        assert MetricsRegistry()
        assert not NullRegistry()


class TestNullRegistry:
    def test_instruments_are_shared_noops(self):
        reg = NullRegistry()
        c = reg.counter("a")
        assert c is reg.counter("b")
        c.inc(100)
        assert c.value == 0
        g = reg.gauge("x")
        g.set(9.0)
        assert g.value == 0.0
        h = reg.histogram("y")
        h.observe(3.0)
        assert h.count == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestModuleState:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_metrics() is NULL_REGISTRY

    def test_enable_disable_roundtrip(self):
        reg, tracer = obs.enable()
        try:
            assert obs.enabled()
            assert obs.get_metrics() is reg
            assert obs.get_tracer() is tracer
        finally:
            obs.disable()
        assert not obs.enabled()

    def test_observe_exports_and_restores(self, tmp_path):
        import json

        mfile = tmp_path / "m.json"
        with obs.observe(metrics=str(mfile)) as (reg, _tracer):
            reg.counter("hits").inc(3)
        assert not obs.enabled()
        snap = json.loads(mfile.read_text())
        assert snap["counters"] == {"hits": 3}

    def test_observe_nests(self):
        with obs.observe() as (outer, _):
            with obs.observe() as (inner, _):
                assert obs.get_metrics() is inner
            assert obs.get_metrics() is outer
        assert not obs.enabled()
