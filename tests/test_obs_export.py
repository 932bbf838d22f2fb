"""Exporter gates: Prometheus round-trip, metrics document, JSONL sink.

The Prometheus exposition must be *reversible* — ``parse_prometheus_text``
over ``prometheus_text`` must reproduce the exact ``snapshot()`` dict —
because that equality is the only way to prove nothing (a label, a bucket
count, an overflow observation) is lost on the way out.  The JSONL sink is
pinned for bounded rotation and the probe fan-out contract.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    METRICS_SCHEMA,
    JsonlEventSink,
    MetricsRegistry,
    clear_traces,
    metrics_document,
    parse_prometheus_text,
    probes,
    prometheus_text,
    reset_metrics,
    set_obs_enabled,
)


@pytest.fixture
def obs_on():
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    yield
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(latency_buckets_s=(0.001, 0.1, 1.0))
    reg.counter("service.solves", 5, backend="dinic")
    reg.counter("service.solves", 2, backend="kernel")
    reg.counter("service.solve_errors", 1, backend="dinic", error_type="numerical")
    reg.gauge("cache.hits", 7, service="batch")
    reg.gauge("solver.depth", 3)
    for value in (0.0005, 0.05, 0.5, 50.0):
        reg.observe("service.solve.seconds", value, backend="dinic")
    return reg


class TestPrometheusText:
    def test_counter_rendering_with_sorted_labels(self):
        reg = MetricsRegistry()
        reg.counter("service.solves", 3, tag="x", backend="dinic")
        text = prometheus_text(registry=reg)
        assert "# TYPE repro_service_solves counter" in text
        assert '# HELP repro_service_solves service.solves' in text
        assert 'repro_service_solves{backend="dinic",tag="x"} 3.0' in text

    def test_histogram_ladder_is_cumulative_and_ends_at_inf(self):
        reg = MetricsRegistry(latency_buckets_s=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            reg.observe("lat", value)
        text = prometheus_text(registry=reg)
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1.0"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("ev", 1, detail='say "hi"\nplease')
        text = prometheus_text(registry=reg)
        assert '\\"hi\\"' in text and "\\n" in text
        assert parse_prometheus_text(text) == reg.snapshot()

    def test_round_trip_equality_on_mixed_registry(self):
        snap = populated_registry().snapshot()
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap

    def test_empty_registry_round_trips(self):
        snap = MetricsRegistry().snapshot()
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap


class TestPrometheusRoundTripProperty:
    """Seeded property gate: every expressible registry must round-trip.

    Label values draw from an adversarial pool (trailing backslashes,
    embedded quotes, newlines, spaces — everything the escape table
    handles; structural registry-key characters ``, = { }`` are out of
    the registry's own key grammar, not the exporter's).  This is the
    test that caught the parser's escape-lookbehind bug: a label value
    *ending* in a backslash renders as ``...\\\\\"`` and the old scanner
    treated the escaped backslash as escaping the closing quote.
    """

    #: Every escape-table edge plus benign fillers.
    LABEL_VALUES = (
        "plain",
        "",
        "with space",
        'say "hi"',
        "line\nbreak",
        "tab\tis-literal",
        "back\\slash\\middle",
        "tail\\",
        '\\"',
        "\\n-literal",
        'mix \\ "q" \nend\\',
    )

    def _random_registry(self, rng) -> MetricsRegistry:
        reg = MetricsRegistry(latency_buckets_s=(0.001, 0.1, 1.0))
        for _ in range(rng.randrange(1, 6)):
            name = rng.choice(["service.solves", "a.b.c", "ev", "x.y"])
            labels = {
                key: rng.choice(self.LABEL_VALUES)
                for key in rng.sample(["backend", "tenant", "detail"],
                                      rng.randrange(0, 3))
            }
            reg.counter(name, rng.randrange(1, 50), **labels)
        for _ in range(rng.randrange(0, 4)):
            reg.gauge(rng.choice(["depth", "q.d"]),
                      rng.uniform(-10, 10),
                      detail=rng.choice(self.LABEL_VALUES))
        for _ in range(rng.randrange(0, 4)):
            name = rng.choice(["lat.seconds", "service.solve.seconds"])
            labels = {}
            if rng.random() < 0.7:
                labels["backend"] = rng.choice(self.LABEL_VALUES)
            for _ in range(rng.randrange(0, 6)):
                # Values straddle every bucket including the +Inf overflow.
                reg.observe(name, rng.choice([0.0005, 0.05, 0.5, 50.0]),
                            **labels)
        return reg

    def test_random_registries_round_trip(self, rng):
        for case in range(25):
            snap = self._random_registry(rng).snapshot()
            parsed = parse_prometheus_text(prometheus_text(snapshot=snap))
            assert parsed == snap, f"case {case} diverged"

    def test_label_value_ending_in_backslash_round_trips(self):
        # Regression: the escaped trailing backslash must not swallow the
        # closing quote (old parser ran off the end of the line).
        reg = MetricsRegistry()
        reg.counter("ev", 1, path="C:\\temp\\")
        snap = reg.snapshot()
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap

    def test_unterminated_label_value_is_a_typed_error(self):
        with pytest.raises(ValueError, match="unterminated label value"):
            parse_prometheus_text('repro_ev{detail="oops\\"} 1.0\n')

    def test_empty_histogram_round_trips(self):
        # A histogram family that exists but has zero observations is
        # expressible in snapshots (e.g. hand-built baselines): the text
        # form must preserve its bucket ladder and zero counts.
        snap = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "lat": {"buckets": [0.1, 1.0], "counts": [0, 0, 0],
                        "sum": 0.0, "count": 0},
            },
        }
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap

    def test_plus_inf_only_histogram_round_trips(self):
        # Every observation past the last bound: the +Inf overflow slot
        # carries the whole count.
        reg = MetricsRegistry(latency_buckets_s=(0.1, 1.0))
        for _ in range(3):
            reg.observe("lat", 99.0)
        snap = reg.snapshot()
        key = next(iter(snap["histograms"]))
        assert snap["histograms"][key]["counts"][-1] == 3
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap


class TestMetricsDocument:
    def test_schema_and_family_grouping(self):
        doc = metrics_document(registry=populated_registry())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["resource"]["service.name"] == "repro"
        by_name = {m["name"]: m for m in doc["metrics"]}
        solves = by_name["service.solves"]
        assert solves["type"] == "sum" and solves["is_monotonic"] is True
        assert len(solves["data_points"]) == 2  # one per backend label set
        hist = by_name["service.solve.seconds"]
        point = hist["data_points"][0]
        assert len(point["bucket_counts"]) == len(point["explicit_bounds"]) + 1
        assert sum(point["bucket_counts"]) == point["count"]

    def test_document_is_json_clean_and_deterministic(self):
        reg = populated_registry()
        once = json.dumps(metrics_document(registry=reg))
        again = json.dumps(metrics_document(registry=reg))
        assert once == again

    def test_resource_overrides_merge(self):
        doc = metrics_document(
            registry=MetricsRegistry(), resource={"host": "h1"}
        )
        assert doc["resource"] == {"service.name": "repro", "host": "h1"}


class TestJsonlEventSink:
    def test_writes_are_clock_stamped_jsonl(self, tmp_path):
        ticks = iter([10.0, 11.0])
        sink = JsonlEventSink(tmp_path / "events.jsonl", clock=lambda: next(ticks))
        sink.emit("service.solves", backend="dinic")
        sink.emit("service.solve_errors", 2.0, backend="analog")
        lines = [json.loads(l) for l in
                 (tmp_path / "events.jsonl").read_text().splitlines()]
        assert lines[0] == {"ts": 10.0, "event": "service.solves",
                            "amount": 1.0, "backend": "dinic"}
        assert lines[1]["ts"] == 11.0 and lines[1]["amount"] == 2.0
        assert sink.events_written == 2

    def test_rotation_caps_disk_usage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, max_bytes=200, clock=lambda: 0.0)
        for i in range(50):
            sink.write({"event": "e", "i": i})
        assert sink.rotations > 0
        assert path.stat().st_size <= 200
        assert (tmp_path / "events.jsonl.1").stat().st_size <= 200

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlEventSink(tmp_path / "x.jsonl", max_bytes=0)

    def test_probe_fanout_mirrors_enabled_emissions(self, obs_on, tmp_path):
        sink = JsonlEventSink(tmp_path / "events.jsonl", clock=lambda: 1.0)
        probes.add_event_sink(sink.emit)
        try:
            probes.solve_finished("dinic", cache_hit=False)
        finally:
            probes.remove_event_sink(sink.emit)
        events = [json.loads(l)["event"] for l in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        assert probes.EVENT_SOLVE in events

    def test_probe_fanout_silent_when_disabled(self, tmp_path):
        set_obs_enabled(False)
        sink = JsonlEventSink(tmp_path / "events.jsonl")
        probes.add_event_sink(sink.emit)
        try:
            probes.solve_finished("dinic", cache_hit=False)
        finally:
            probes.remove_event_sink(sink.emit)
        assert not (tmp_path / "events.jsonl").exists()

    def test_sink_errors_never_propagate(self, obs_on):
        def broken(event, amount=1.0, **labels):
            raise OSError("disk full")

        probes.add_event_sink(broken)
        try:
            probes.solve_finished("dinic", cache_hit=False)  # must not raise
        finally:
            probes.remove_event_sink(broken)


class TestTraceDumpAcceptsTelemetry:
    """tools/trace_dump.py unwraps a full telemetry document."""

    @pytest.fixture(scope="class")
    def trace_dump(self):
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "trace_dump.py"
        spec = importlib.util.spec_from_file_location("trace_dump_under_test", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            yield module
        finally:
            sys.modules.pop(spec.name, None)

    def _span(self):
        return {"name": "batch.solve", "duration_s": 0.002,
                "self_time_s": 0.002, "attributes": {}, "children": []}

    def test_telemetry_document_unwraps_to_embedded_trace(self, trace_dump):
        document = {
            "schema": "repro.telemetry/v1",
            "service": "batch",
            "trace": {"schema": "repro.trace/v1", "spans": [self._span()]},
        }
        assert "batch.solve" in trace_dump.render_document(document)

    def test_plain_trace_document_still_renders(self, trace_dump):
        document = {"schema": "repro.trace/v1", "spans": [self._span()]}
        assert "batch.solve" in trace_dump.render_document(document)

    def test_error_names_both_schemas(self, trace_dump):
        with pytest.raises(ValueError) as excinfo:
            trace_dump.load_spans({"unrelated": 1})
        message = str(excinfo.value)
        assert "repro.trace/v1" in message
        assert "repro.telemetry/v1" in message

    def test_unknown_wrapper_schema_rejected(self, trace_dump):
        document = {"schema": "other/v9", "trace": {"spans": []}}
        with pytest.raises(ValueError):
            trace_dump.load_spans(document)
