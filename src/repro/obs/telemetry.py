"""The unified ``telemetry()`` document shared by every solving service.

``BatchReport`` (sharded requests included), ``ProblemReport`` and
``StreamingSession`` each keep a service-specific ``summary()`` dict;
:func:`build_telemetry` wraps any of them in one fixed JSON schema so a
single document shape describes any solve:

``{"schema", "service", "enabled", "summary", "cache", "metrics",
"trace"}``

* ``summary`` is the service's own flat summary, unchanged — existing
  consumers keep their fields;
* ``cache`` carries ``CompiledCircuitCache.stats()`` where the service
  has one (batch) and ``{}`` elsewhere, and the same numbers
  are mirrored into the registry as ``cache.*`` gauges when obs is on;
* ``metrics`` is the process registry snapshot — probe counters and span
  latency histograms — so the one document also holds the solver-loop
  tallies that used to be private to report objects;
* ``trace`` is the embedded ``repro.trace/v1`` span document, so one
  telemetry dump is enough for ``tools/trace_dump.py`` to render the
  run's span tree.

The schema is pinned by ``tests/test_obs_telemetry.py``: all three
services must produce the same top-level key set and the document must
survive a JSON round trip unchanged.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .metrics import get_registry
from .trace import obs_enabled, trace_document

__all__ = ["TELEMETRY_KEYS", "TELEMETRY_SCHEMA", "build_telemetry"]

#: Version tag of the unified document; bump on breaking shape changes.
TELEMETRY_SCHEMA = "repro.telemetry/v1"

#: The fixed top-level key set every service's ``telemetry()`` shares.
TELEMETRY_KEYS = (
    "schema", "service", "enabled", "summary", "cache", "metrics", "trace"
)


def build_telemetry(
    service: str,
    summary: Mapping[str, object],
    cache: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the unified telemetry document for one service.

    When obs is enabled, cache statistics are also exported as
    ``cache.<stat>{service=...}`` gauges so they appear in *every*
    registry snapshot, not only in this service's document.
    """
    cache_stats = dict(cache) if cache else {}
    if cache_stats and obs_enabled():
        registry = get_registry()
        for stat, value in cache_stats.items():
            if isinstance(value, (int, float)):
                registry.gauge(f"cache.{stat}", value, service=service)
    return {
        "schema": TELEMETRY_SCHEMA,
        "service": service,
        "enabled": obs_enabled(),
        "summary": dict(summary),
        "cache": cache_stats,
        "metrics": get_registry().snapshot(),
        "trace": trace_document(),
    }
