"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process collects everything the solving
paths emit — probe counters from the solver inner loops, latency
histograms recorded by finished spans, and gauges mirrored from existing
report counters (compiled-circuit cache hits, shard warm-solve tallies).
The registry is the storage half of the observability layer; the ambient
span machinery lives in :mod:`repro.obs.trace` and the typed emission
sites in :mod:`repro.obs.probes`.

Design constraints, in the order they shaped the code:

* **Deterministic export.**  ``snapshot()`` sorts every key, histogram
  buckets are fixed at registry construction (never derived from the
  data), and values are plain JSON scalars/lists — so two runs of the
  same workload produce byte-identical ``to_json()`` documents modulo
  the timings themselves.  The telemetry round-trip tests depend on it.
* **Cheap under the probe fast path.**  Counters are a dict upsert under
  one lock; label sets are flattened into the key string once per call
  (``name{k=v,...}`` with sorted label names) so there is no nested
  structure to merge at export time.
* **Process-local by contract.**  Every solve path runs in-process
  (thread pools at most), so one registry sees every probe.

>>> reg = MetricsRegistry()
>>> reg.counter("service.solves", backend="dinic")
1.0
>>> reg.counter("service.solves", 2, backend="dinic")
3.0
>>> reg.gauge("cache.hits", 5)
>>> reg.observe("span.batch.solve.seconds", 0.004)
>>> snap = reg.snapshot()
>>> snap["counters"]
{'service.solves{backend=dinic}': 3.0}
>>> snap["gauges"]
{'cache.hits': 5.0}
>>> snap["histograms"]["span.batch.solve.seconds"]["count"]
1
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
    "reset_metrics",
]

#: Fixed latency buckets (seconds), chosen once for the whole project so
#: histograms from different runs are comparable.  The range spans the
#: workloads we actually time: sub-millisecond kernel sweeps up to the
#: tens-of-seconds deadline ceilings of the resilience layer.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Flatten ``name`` + labels into one deterministic registry key.

    Label names are sorted so emission order never leaks into the key:
    ``metric_key("x", {"b": 1, "a": 2}) == metric_key("x", {"a": 2, "b": 1})``.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``counts[i]`` tallies observations ``<= bounds[i]``; the final slot
    is the explicit overflow (``+Inf``) bucket, so ``len(counts) ==
    len(bounds) + 1`` and ``sum(counts) == count`` hold for every
    observation stream — observations above the top boundary land in the
    overflow slot instead of being dropped.  Bounds are frozen at
    construction — snapshots are therefore mergeable across runs without
    re-binning.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and fixed-bucket histograms.

    All three families share the flattened-label key scheme of
    :func:`metric_key`.  Counters accumulate, gauges overwrite, and
    histograms bin into :data:`DEFAULT_LATENCY_BUCKETS_S` unless the
    first ``observe`` for a key passes explicit ``buckets``.
    """

    def __init__(
        self, latency_buckets_s: Iterable[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> None:
        self._lock = threading.Lock()
        self._buckets = tuple(float(b) for b in latency_buckets_s)
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- emission ------------------------------------------------------

    def counter(self, name: str, amount: float = 1.0, **labels: object) -> float:
        """Add ``amount`` to a counter; returns the new value."""
        key = metric_key(name, labels)
        with self._lock:
            value = self._counters.get(key, 0.0) + amount
            self._counters[key] = value
        return value

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to ``value`` (last write wins)."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> None:
        """Record ``value`` into the histogram for ``name``/labels."""
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = Histogram(self._buckets if buckets is None else buckets)
                self._histograms[key] = hist
            hist.observe(float(value))

    # -- inspection ----------------------------------------------------

    def get_counter(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0.0)

    def get_gauge(self, name: str, **labels: object) -> Optional[float]:
        with self._lock:
            return self._gauges.get(metric_key(name, labels))

    def snapshot(self) -> Dict[str, object]:
        """Deterministically ordered, JSON-clean dump of every metric."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].snapshot()
                    for k in sorted(self._histograms)
                },
            }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry every probe and span writes into.  Tests
#: and benchmarks call :func:`reset_metrics` between measurements.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-global registry."""
    return _GLOBAL_REGISTRY


def reset_metrics() -> None:
    """Clear the process-global registry (test/bench isolation)."""
    _GLOBAL_REGISTRY.reset()
