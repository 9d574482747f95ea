"""Lightweight metrics: counters, gauges and fixed-bucket histograms.

The registry is built for a hot simulator loop written in Python: an
instrument is a plain object holding a Python int/float/list, and there
are no label dictionaries on the fast path.  Disabled mode is a
:class:`NullRegistry` whose instruments are shared no-op singletons, so
instrumentation left in the hot layers costs one global lookup plus a
no-op method call — and touches **no lock** (the overhead contract is
asserted by ``benchmarks/test_perf_obs_overhead.py``: < 2% on the
engine workload).

Enabled-mode instruments ARE thread-safe: since the fabric coordinator
runs HTTP handler threads that increment counters while the driver
snapshots or resets the same registry, every mutation and read goes
through a per-instrument lock, and the registry's create-or-get tables
are guarded by a registry lock (lock order: registry before instrument
— instrument methods never take the registry lock, so the order cannot
invert).  Unsynchronized, a
driver ``reset()`` racing a handler ``inc()`` loses updates, and
``snapshot()`` iterating a dict a handler thread is growing raises
``RuntimeError: dictionary changed size during iteration``.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: geometric wall-clock buckets (seconds) for task/stage latency histograms
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0,
)


class Counter:
    """A monotonically increasing tally (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (last write wins, thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty list")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    @property
    def counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket).

        The overflow bucket reports the last finite bound; an empty
        histogram reports 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if not self._count:
                return 0.0
            target = q * self._count
            seen = 0
            for i, n in enumerate(self._counts):
                seen += n
                if seen >= target:
                    return self.bounds[min(i, len(self.bounds) - 1)]
            return self.bounds[-1]

    def to_dict(self) -> Dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(prefix: str, name: str) -> str:
    """``avf.batch_cache_hits`` → ``repro_avf_batch_cache_hits``."""
    return _PROM_BAD_CHARS.sub("_", f"{prefix}_{name}" if prefix else name)


def _prom_value(v: float) -> str:
    """Render numbers the way Prometheus parsers expect (ints bare)."""
    if isinstance(v, int):
        return str(v)
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


class MetricsRegistry:
    """Create-or-get registry of named instruments.

    Truthy, so hot paths can guard optional work with ``if registry:``;
    the disabled :class:`NullRegistry` is falsy.
    """

    def __init__(self) -> None:
        #: guards the create-or-get tables; instrument state has its own
        #: per-instrument lock (order: registry lock before instrument
        #: lock — instrument methods never take the registry lock)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return True

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    name,
                    bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS,
                )
            return h

    def snapshot(self) -> Dict:
        """JSON-safe dump of every instrument's current state."""
        with self._lock:
            return {
                "counters": {
                    n: c.value for n, c in sorted(self._counters.items())
                },
                "gauges": {
                    n: g.value for n, g in sorted(self._gauges.items())
                },
                "histograms": {
                    n: h.to_dict() for n, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero every instrument (identities are preserved)."""
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for g in self._gauges.values():
                g.reset()
            for h in self._histograms.values():
                h.reset()

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render every instrument in the Prometheus text exposition format.

        Instrument names are mapped to metric names by prefixing and
        sanitizing (``avf.batch_cache_hits`` → ``repro_avf_batch_cache_hits``);
        counters get a ``_total`` suffix per the naming conventions, and
        histograms are emitted with cumulative ``_bucket{le=...}`` series
        plus ``_sum``/``_count``, ending in ``le="+Inf"``.
        """
        lines: List[str] = []
        with self._lock:
            for name, c in sorted(self._counters.items()):
                metric = _prom_name(prefix, name) + "_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_prom_value(c.value)}")
            for name, g in sorted(self._gauges.items()):
                metric = _prom_name(prefix, name)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_prom_value(g.value)}")
            for name, h in sorted(self._histograms.items()):
                metric = _prom_name(prefix, name)
                lines.append(f"# TYPE {metric} histogram")
                cum = 0
                for bound, n in zip(h.bounds, h.counts):
                    cum += n
                    lines.append(
                        f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cum}'
                    )
                lines.append(f'{metric}_bucket{{le="+Inf"}} {h.count}')
                lines.append(f"{metric}_sum {_prom_value(h.sum)}")
                lines.append(f"{metric}_count {h.count}")
        return "\n".join(lines) + "\n" if lines else ""


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", (1.0,))


class NullRegistry(MetricsRegistry):
    """Disabled-mode registry: falsy, hands out shared no-op instruments."""

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: the process-wide disabled registry (see :func:`repro.obs.get_metrics`)
NULL_REGISTRY = NullRegistry()
