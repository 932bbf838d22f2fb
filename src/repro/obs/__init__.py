"""repro.obs — tracing, metrics, probes, and the telemetry document.

Three small pieces share one enable flag (``REPRO_OBS``, default off):

* :mod:`repro.obs.trace` — ambient hierarchical spans on a contextvar,
  with explicit re-scoping across thread pools (``span_scope``),
  mirroring the resilience layer's deadline propagation exactly;
* :mod:`repro.obs.metrics` — the process-local registry of counters,
  gauges and fixed-bucket histograms with deterministic ``snapshot()``;
* :mod:`repro.obs.probes` — typed one-line emission sites wired into the
  solver inner loops and resilience transitions.

:mod:`repro.obs.telemetry` folds a service summary, cache stats, the
registry snapshot and the span tree into the one JSON document
(``repro.telemetry/v1``) returned by every report's ``telemetry()``
method.

Backend health is not decided here: the per-backend circuit breakers of
:class:`~repro.resilience.failover.FailoverPolicy` are the one verdict
the failover walk and the server's router read; probes only count their
transitions.
"""

from . import probes
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    reset_metrics,
)
from .telemetry import TELEMETRY_KEYS, TELEMETRY_SCHEMA, build_telemetry
from .trace import (
    OBS_ENV_VAR,
    Span,
    annotate_span,
    clear_traces,
    current_span,
    obs_enabled,
    recent_traces,
    set_obs_enabled,
    set_trace_clock,
    span,
    span_scope,
    trace_document,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "Span",
    "TELEMETRY_KEYS",
    "TELEMETRY_SCHEMA",
    "annotate_span",
    "build_telemetry",
    "clear_traces",
    "current_span",
    "get_registry",
    "metric_key",
    "obs_enabled",
    "probes",
    "recent_traces",
    "reset_metrics",
    "set_obs_enabled",
    "set_trace_clock",
    "span",
    "span_scope",
    "trace_document",
]
