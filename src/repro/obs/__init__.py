"""repro.obs — tracing, metrics, probes, exporters, and SLO verdicts.

Three small pieces share one enable flag (``REPRO_OBS``, default off):

* :mod:`repro.obs.trace` — ambient hierarchical spans on a contextvar,
  with explicit re-scoping across thread pools (``span_scope``),
  mirroring the resilience layer's deadline propagation exactly;
* :mod:`repro.obs.metrics` — the process-local registry of counters,
  gauges and fixed-bucket histograms with deterministic ``snapshot()``;
* :mod:`repro.obs.probes` — typed one-line emission sites wired into the
  solver inner loops and resilience transitions.

On top of the registry sit the export and judgment layers:

* :mod:`repro.obs.export` — Prometheus text exposition (round-trippable
  via :func:`~repro.obs.export.parse_prometheus_text`), the
  OTLP-flavoured ``repro.metrics/v1`` JSON document, and a bounded JSONL
  event sink;
* :mod:`repro.obs.windows` — sliding-window deltas over snapshots:
  rates, per-window histogram quantiles;
* :mod:`repro.obs.slo` — per-backend availability/latency objectives
  tracked as multi-window burn rates into :class:`BackendHealth`
  verdicts, which the failover chain consults to route around backends
  whose error budget is exhausted.

:mod:`repro.obs.telemetry` folds a service summary, cache stats, the
registry snapshot, the active SLO report and the span tree into the one
JSON document (``repro.telemetry/v1``) returned by every report's
``telemetry()`` method.
"""

from . import probes
from .export import (
    METRICS_SCHEMA,
    JsonlEventSink,
    metrics_document,
    parse_prometheus_text,
    prometheus_text,
)
from .metrics import (
    BUCKETS_ENV_VAR,
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    parse_metric_key,
    reset_metrics,
)
from .slo import (
    BackendHealth,
    SloObjective,
    SloPolicy,
    get_slo_policy,
    set_slo_policy,
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
from .windows import WindowDelta, WindowedAggregator

__all__ = [
    "BUCKETS_ENV_VAR",
    "BackendHealth",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "JsonlEventSink",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "OBS_ENV_VAR",
    "SloObjective",
    "SloPolicy",
    "Span",
    "TELEMETRY_KEYS",
    "TELEMETRY_SCHEMA",
    "WindowDelta",
    "WindowedAggregator",
    "annotate_span",
    "build_telemetry",
    "clear_traces",
    "current_span",
    "get_registry",
    "get_slo_policy",
    "metric_key",
    "metrics_document",
    "obs_enabled",
    "parse_metric_key",
    "parse_prometheus_text",
    "probes",
    "prometheus_text",
    "recent_traces",
    "reset_metrics",
    "set_obs_enabled",
    "set_slo_policy",
    "set_trace_clock",
    "span",
    "span_scope",
    "trace_document",
]
