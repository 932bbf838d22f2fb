"""Span ambience, propagation across executors, and the disabled no-op path.

The trace layer's contract mirrors the resilience deadline scope exactly
(see ``tests/test_resilience_policy.py``): ambient within a thread via a
contextvar and explicitly re-scoped across thread pools
(``span_scope``).  These tests pin both regimes plus the injectable clock
and the guarantee that the disabled path allocates no spans.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    Span,
    annotate_span,
    clear_traces,
    current_span,
    get_registry,
    obs_enabled,
    recent_traces,
    reset_metrics,
    set_obs_enabled,
    set_trace_clock,
    span,
    span_scope,
    trace_document,
)
from repro.obs.trace import _NOOP_CONTEXT, NOOP_SPAN


@pytest.fixture
def obs_on():
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    yield
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


@pytest.fixture
def ticking_clock():
    ticks = iter(float(i) for i in range(10_000))
    restore = set_trace_clock(lambda: next(ticks))
    yield
    set_trace_clock(restore)


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert obs_enabled() is False

    def test_disabled_span_is_the_shared_noop_context(self):
        # No Span (nor even a context manager) is allocated when off:
        # every call returns the same module-level singleton.
        assert span("batch.solve") is _NOOP_CONTEXT
        assert span("other", with_attrs=1) is _NOOP_CONTEXT

    def test_disabled_span_records_nothing(self):
        clear_traces()
        reset_metrics()
        with span("batch.solve") as sp:
            assert sp is NOOP_SPAN
            sp.set(ignored=True)
            annotate_span(also_ignored=True)
        assert recent_traces() == []
        assert get_registry().snapshot()["histograms"] == {}

    def test_disabled_current_span_is_none(self):
        with span("x"):
            assert current_span() is None

    def test_span_scope_passes_noop_through(self):
        with span_scope(NOOP_SPAN) as sp:
            assert sp is NOOP_SPAN
            assert current_span() is None


class TestSpanNesting:
    def test_children_attach_and_parent_restores(self, obs_on):
        with span("root") as root:
            assert current_span() is root
            with span("child") as child:
                assert current_span() is child
            assert current_span() is root
        assert current_span() is None
        assert [c.name for c in root.children] == ["child"]
        assert recent_traces() == [root]

    def test_injectable_clock_gives_deterministic_durations(
        self, obs_on, ticking_clock
    ):
        with span("root") as root:           # start 0
            with span("child") as child:     # start 1
                pass                         # end 2
        assert child.duration_s == 1.0
        assert root.duration_s == 3.0
        assert root.self_time_s == 2.0

    def test_attributes_via_set_and_annotate(self, obs_on):
        with span("root", executor="serial") as root:
            annotate_span(sweeps=7)
            root.set(ok=True)
        assert root.attributes == {"executor": "serial", "sweeps": 7, "ok": True}

    def test_exception_tags_error_type_and_still_records(self, obs_on):
        with pytest.raises(ValueError):
            with span("root"):
                raise ValueError("boom")
        (root,) = recent_traces()
        assert root.attributes["error_type"] == "ValueError"
        assert root.end_s is not None

    def test_finished_spans_feed_latency_histograms(self, obs_on):
        with span("root"):
            pass
        hist = get_registry().snapshot()["histograms"]["span.root.seconds"]
        assert hist["count"] == 1

    def test_to_dict_round_trips_the_tree_shape(self, obs_on, ticking_clock):
        with span("root", executor="serial"):
            with span("child"):
                pass
        doc = trace_document()
        assert doc["schema"] == "repro.trace/v1"
        (root,) = doc["spans"]
        assert root["name"] == "root"
        assert root["children"][0]["name"] == "child"
        assert root["duration_s"] == root["self_time_s"] + root["children"][0][
            "duration_s"
        ]


class TestThreadPropagation:
    def test_context_does_not_leak_into_threads(self, obs_on):
        # The baseline fact that makes span_scope necessary at all.
        seen = []
        with span("root"):
            t = threading.Thread(target=lambda: seen.append(current_span()))
            t.start()
            t.join()
        assert seen == [None]

    def test_span_scope_reattaches_in_worker_threads(self, obs_on):
        # The executors' contract: capture at dispatch, re-enter per task
        # (mirrors test_deadline_object_crosses_threads_by_rescoping).
        with span("root") as root:
            parent = current_span()

            def work(i):
                with span_scope(parent):
                    with span("task") as sp:
                        sp.set(index=i)
                    return current_span() is parent

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(work, range(8)))
        assert len(root.children) == 8
        assert sorted(c.attributes["index"] for c in root.children) == list(range(8))

    def test_span_scope_restores_on_exit(self, obs_on):
        with span("root") as root:
            with span("other") as other:
                with span_scope(root):
                    assert current_span() is root
                assert current_span() is other


class TestEnableToggle:
    def test_set_obs_enabled_returns_previous(self):
        previous = set_obs_enabled(True)
        try:
            assert obs_enabled() is True
            assert set_obs_enabled(previous) is True
        finally:
            set_obs_enabled(previous)

    def test_spans_opened_while_enabled_record_normally(self):
        previous = set_obs_enabled(True)
        try:
            clear_traces()
            with span("x") as sp:
                assert isinstance(sp, Span)
            assert [s.name for s in recent_traces()] == ["x"]
        finally:
            set_obs_enabled(previous)
            clear_traces()
            reset_metrics()
