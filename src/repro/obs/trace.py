"""Ambient hierarchical spans, mirroring the resilience deadline scope.

A span is a named timing interval with attributes and children.  The
*active* span is ambient state carried by a :class:`~contextvars.ContextVar`
— the same mechanism (and the same token set/reset discipline) as
``deadline_scope`` in :mod:`repro.resilience.policy`, so the two layers
nest and propagate identically: ambient within a thread, explicit at
every pool boundary.

The two propagation regimes, matching the deadline plumbing:

* **Same thread** — ``with span("batch.solve"):`` makes the new span the
  ambient parent; nested ``span(...)`` calls attach as children and the
  contextvar token restores the previous parent on exit, even when
  scopes unwind out of order across ``await`` points.
* **Thread pools** — contextvars do not cross ``ThreadPoolExecutor``
  submission, so dispatch sites capture ``parent = current_span()`` and
  the worker closure re-enters it with ``with span_scope(parent):``.
  Child spans append to ``parent.children`` from worker threads; list
  appends are atomic under the GIL, and the parent only *reads* the list
  after joining the pool.

Tracing is **off by default** (``REPRO_OBS=1`` enables it, or
:func:`set_obs_enabled` at runtime).  The disabled path is engineered to
stay out of inner loops' way: ``span(...)`` returns a shared no-op
context manager without allocating a :class:`Span`, and every probe in
:mod:`repro.obs.probes` checks the enabled flag before touching the
registry.  The clock is injectable (:func:`set_trace_clock`) so tests
can pin span durations deterministically.

>>> prev = set_obs_enabled(True)
>>> clear_traces()
>>> ticks = iter(range(100))
>>> restore = set_trace_clock(lambda: float(next(ticks)))
>>> with span("batch.solve", executor="serial") as root:
...     with span("backend.solve", backend="dinic") as child:
...         _ = child.set(ok=True)
>>> _ = set_trace_clock(restore)
>>> _ = set_obs_enabled(prev)
>>> root.children[0].name
'backend.solve'
>>> root.children[0].duration_s
1.0
>>> root.to_dict()["attributes"]["executor"]
'serial'
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Deque, Dict, List, Optional

from ..config import env_flag
from .metrics import get_registry

__all__ = [
    "OBS_ENV_VAR",
    "Span",
    "annotate_span",
    "clear_traces",
    "current_span",
    "obs_enabled",
    "recent_traces",
    "set_obs_enabled",
    "set_trace_clock",
    "span",
    "span_scope",
    "trace_document",
]

#: Environment switch: ``REPRO_OBS=1`` turns tracing + probes on.
OBS_ENV_VAR = "REPRO_OBS"

#: Schema tag stamped on exported trace documents (see tools/trace_dump.py).
TRACE_SCHEMA = "repro.trace/v1"

_ENABLED: bool = env_flag(OBS_ENV_VAR, default=False)
_CLOCK: Callable[[], float] = time.perf_counter

#: The ambient parent span for the current execution context; ``None``
#: when no scope is open (mirrors ``_ACTIVE_DEADLINE`` in resilience).
_ACTIVE_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_active_span", default=None
)

#: Finished *root* spans (no ambient parent at close time), most recent
#: last.  Bounded so long-lived services cannot leak trace trees.
_RECENT_ROOTS: Deque["Span"] = deque(maxlen=64)


def obs_enabled() -> bool:
    """True when tracing and probes are live for this process."""
    return _ENABLED


def set_obs_enabled(enabled: bool) -> bool:
    """Flip the process-wide enable flag; returns the previous value.

    Benchmarks and tests use this instead of the environment variable so
    they can interleave enabled/disabled arms within one process.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def set_trace_clock(clock: Optional[Callable[[], float]] = None):
    """Swap the span clock; ``None`` restores ``time.perf_counter``.

    Returns the previous clock so callers can restore it:
    ``restore = set_trace_clock(fake); ...; set_trace_clock(restore)``.
    """
    global _CLOCK
    previous = _CLOCK
    _CLOCK = time.perf_counter if clock is None else clock
    return previous


class Span:
    """One named timing interval in a trace tree.

    Slotted and deliberately small: name, start/end stamps from the
    injectable clock, a flat attribute dict, and child spans in closing
    order.  ``end_s`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "start_s", "end_s", "attributes", "children")

    def __init__(
        self, name: str, start_s: float, attributes: Optional[Dict[str, object]] = None
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []

    def set(self, **attributes: object) -> "Span":
        """Attach attributes (e.g. solver counters) to this span."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else _CLOCK()
        return end - self.start_s

    @property
    def self_time_s(self) -> float:
        """Cumulative time minus the time attributed to child spans.

        Clamped at zero: children running concurrently (thread-pool
        batches) can sum past the parent's wall clock.
        """
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))

    def to_dict(self) -> Dict[str, object]:
        """JSON-clean tree export consumed by ``tools/trace_dump.py``."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "self_time_s": self.self_time_s,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, duration_s={self.duration_s:.6f}, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """The span handed out when tracing is disabled: absorbs everything."""

    __slots__ = ()

    def set(self, **attributes: object) -> "_NoopSpan":
        return self

    name = "noop"
    attributes: Dict[str, object] = {}
    children: List[Span] = []
    duration_s = 0.0
    self_time_s = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": "noop",
            "duration_s": 0.0,
            "self_time_s": 0.0,
            "attributes": {},
            "children": [],
        }


NOOP_SPAN = _NoopSpan()


class _NoopContext:
    """Shared, allocation-free context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_CONTEXT = _NoopContext()


class _SpanContext:
    """Hand-rolled context manager: one allocation per *enabled* span."""

    __slots__ = ("_name", "_attributes", "_span", "_token", "_parent")

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._parent = _ACTIVE_SPAN.get()
        self._span = Span(self._name, _CLOCK(), self._attributes)
        self._token = _ACTIVE_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        node = self._span
        node.end_s = _CLOCK()
        _ACTIVE_SPAN.reset(self._token)
        if exc_type is not None:
            node.attributes.setdefault("error_type", exc_type.__name__)
        if self._parent is not None:
            self._parent.children.append(node)  # GIL-atomic; parent reads after join
        else:
            _RECENT_ROOTS.append(node)
        get_registry().observe(f"span.{node.name}.seconds", node.duration_s)
        return False


def span(name: str, **attributes: object):
    """Open a named span as the ambient parent for the enclosed block.

    Disabled (the default): returns a shared no-op context manager —
    no :class:`Span` is allocated and nothing is recorded.  Enabled:
    yields a live :class:`Span`; on exit its duration feeds the
    ``span.<name>.seconds`` latency histogram and the tree attaches to
    the ambient parent (or the recent-roots ring when there is none).
    """
    if not _ENABLED:
        return _NOOP_CONTEXT
    return _SpanContext(name, attributes)


def current_span() -> Optional[Span]:
    """The ambient span, or ``None`` — capture this at pool dispatch."""
    return _ACTIVE_SPAN.get()


@contextmanager
def span_scope(parent: Optional[Span]):
    """Re-enter a span captured in another thread as the ambient parent.

    The cross-thread half of the propagation contract: contextvars do
    not follow work into ``ThreadPoolExecutor``, so dispatch sites pass
    ``current_span()`` into the worker closure and the worker opens
    ``with span_scope(parent):`` before solving — exactly how the same
    closures already re-enter ``deadline_scope``.  A ``None`` or no-op
    parent (tracing disabled at capture time) makes this a pass-through.
    """
    if parent is None or isinstance(parent, _NoopSpan) or not _ENABLED:
        yield parent
        return
    token = _ACTIVE_SPAN.set(parent)
    try:
        yield parent
    finally:
        _ACTIVE_SPAN.reset(token)


def annotate_span(**attributes: object) -> None:
    """Attach attributes to the ambient span; no-op when disabled.

    This is how solver-private counters (DC iteration tallies, kernel
    sweep/relabel counts) surface without the solver knowing about trace
    trees: one call at the end of the solve, swallowed when tracing is
    off or no span is open.
    """
    if not _ENABLED:
        return
    node = _ACTIVE_SPAN.get()
    if node is not None:
        node.attributes.update(attributes)


def recent_traces() -> List[Span]:
    """Finished root spans, oldest first (bounded ring)."""
    return list(_RECENT_ROOTS)


def clear_traces() -> None:
    """Drop recorded root spans (test/bench isolation)."""
    _RECENT_ROOTS.clear()


def trace_document(spans: Optional[List[Span]] = None) -> Dict[str, object]:
    """Export root spans as the JSON document ``tools/trace_dump.py`` reads."""
    roots = recent_traces() if spans is None else list(spans)
    return {
        "schema": TRACE_SCHEMA,
        "spans": [s.to_dict() for s in roots],
    }
