"""Layer tracer: wrappers around the public functions of each module.

The traced run installs a wrapper on every function :func:`default_probes`
lists.  A wrapper records a span (name, start, end, parent, attributes) in
memory when the call belongs to a request the benchmark registered, and
passes straight through otherwise, so warm-up and oracle calls are never
counted.

A call is tied to its request in one of two ways:

* by the identity of the network object it received: no two requests in
  flight send the same :class:`~repro.graph.network.FlowNetwork` object
  (a re-sent one is registered anew to its latest request), and the
  server's ``run_in_executor`` hop carries no context variables, so the
  first wrapped call in an executor thread finds its request this way;
* by the span open on the calling thread, for every call nested inside a
  recorded one.

At the end :meth:`Tracer.document` exports one ``request`` root per
request in the ``repro.trace/v1`` layout that ``tools/trace_dump.py``
renders: each span carries its duration and its self time (duration
minus the time its children cover).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: The clock of every span.  ``AsyncSolveServer`` times its queue with
#: ``time.monotonic`` too, so ``ServerResponse.queued_s`` lines up with it.
clock = time.monotonic

SERVE = ("serve-small", "serve-large", "serve-analog")
EXACT = ("serve-small", "serve-large")
ANALOG = ("serve-analog",)
STREAM = ("stream-edit",)


class TraceError(RuntimeError):
    """A wrapped function is missing or was never called where required."""


class Span:
    """One timed call; ``children`` are the wrapped calls made inside it."""

    __slots__ = ("name", "start", "end", "children", "attrs")

    def __init__(self, name: str, start: float, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.children: List["Span"] = []
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach, self.start), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return max(0.0, self.duration - covered)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration_s": self.duration,
            "self_time_s": self.self_time,
            "attributes": dict(self.attrs),
            "children": [
                c.to_dict() for c in sorted(self.children, key=lambda c: c.start)
            ],
        }


# -- per-probe attribute hooks: (span, args, result) -> None ------------


def _kernel_counts(sp: Span, args, out) -> None:
    counter = args[0].counter
    sp.attrs.update(sweeps=out, pushes=counter.pushes, relabels=counter.relabels)


def _dc_counts(sp: Span, args, out) -> None:
    sp.attrs.update(iterations=out.iterations, refactorizations=out.refactorizations)


def _lookup_hit(sp: Span, args, out) -> None:
    sp.attrs["hit"] = bool(out[0])


def _failover_outcome(sp: Span, args, out) -> None:
    sp.attrs.update(ok=out.ok, degraded=bool(out.degraded), ran=out.request.backend)


def _backend_outcome(sp: Span, args, out) -> None:
    sp.attrs.update(backend=args[0].name, ok=out.ok)


def _repair_outcome(sp: Span, args, out) -> None:
    sp.attrs["warm"] = out.algorithm.startswith("incremental")


class Probe:
    """One wrapped public function and the workloads that must call it."""

    def __init__(
        self,
        name: str,
        module: str,
        qualname: str,
        required_on: Iterable[str],
        after: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.module = module
        self.qualname = qualname
        self.required_on = tuple(required_on)
        self.after = after
        self.calls = 0
        self.sites: List[str] = []


def default_probes() -> List[Probe]:
    """The layer boundaries this benchmark times, one probe per function."""
    return [
        Probe("cache.signature", "repro.service.cache", "network_signature", SERVE),
        Probe("service.solve", "repro.service.batch", "BatchSolveService.solve", SERVE),
        Probe("failover.solve", "repro.resilience.failover", "solve_with_failover",
              SERVE, _failover_outcome),
        Probe("failover.certify", "repro.resilience.failover", "certify_flow_result",
              ANALOG),
        Probe("backend.solve", "repro.service.backends", "SolveBackend.solve",
              SERVE, _backend_outcome),
        Probe("engine.kernel", "repro.flows.kernel", "KernelDinic.solve", EXACT),
        Probe("engine.dinic", "repro.flows.dinic", "Dinic.solve", ()),
        Probe("kernel.lower", "repro.flows.kernel", "FlatResidual.from_network", EXACT),
        Probe("kernel.core", "repro.flows.kernel", "FlatResidual.max_flow",
              EXACT, _kernel_counts),
        Probe("cache.lookup", "repro.service.cache", "CompiledCircuitCache.lookup",
              ANALOG, _lookup_hit),
        Probe("analog.compile", "repro.analog.solver", "AnalogMaxFlowSolver.compile",
              ANALOG),
        Probe("analog.mna", "repro.analog.compiler", "CompiledMaxFlowCircuit.mna",
              ANALOG),
        Probe("analog.solve", "repro.analog.solver",
              "AnalogMaxFlowSolver.solve_compiled", ANALOG),
        Probe("analog.settle", "repro.circuit.dc", "DCOperatingPoint.solve",
              ANALOG, _dc_counts),
        Probe("analog.readout", "repro.analog.readout", "FlowReadout.from_dc", ANALOG),
        Probe("stream.apply", "repro.graph.updates", "MutableFlowNetwork.apply", STREAM),
        Probe("stream.repair", "repro.flows.incremental", "IncrementalMaxFlow.apply",
              STREAM, _repair_outcome),
    ]


class Tracer:
    """Installs the probes and keeps every recorded span in memory."""

    def __init__(self) -> None:
        self.probes = default_probes()
        self.roots: List[Span] = []
        self._by_network: Dict[int, Span] = {}
        self._local = threading.local()
        self.recording = True

    # -- request registration -------------------------------------------

    def begin(self, network, **attrs) -> Span:
        """Open a request root, keyed to ``network`` unless it is ``None``.

        The caller keeps ``network`` alive until :meth:`stop`, so its
        ``id`` cannot be reused by another object meanwhile.
        """
        root = Span("request", clock(), attrs)
        if network is not None:
            self._by_network[id(network)] = root
        self.roots.append(root)
        return root

    def stop(self) -> None:
        """Stop recording: later calls (the oracle's) pass straight through."""
        self.recording = False
        self._by_network.clear()

    def enter(self, root: Span) -> None:
        """Make ``root`` the open span of this thread (synchronous callers)."""
        self._stack().append(root)

    def leave(self) -> None:
        self._stack().pop()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, args) -> Optional[Span]:
        stack = self._stack()
        if stack:
            return stack[-1]
        for arg in args:
            root = self._by_network.get(id(arg))
            if root is not None:
                return root
        return None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every probe; raises :class:`TraceError` if one is missing."""
        for probe in self.probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError as exc:
                raise TraceError(f"{probe.name}: cannot import {probe.module}: {exc}")
            owner_name, _, attr = probe.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or not hasattr(owner, attr):
                    raise TraceError(
                        f"{probe.name}: {probe.module}.{probe.qualname} is missing"
                    )
                self._wrap_method(probe, owner, attr)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    raise TraceError(
                        f"{probe.name}: {probe.module}.{attr} is missing"
                    )
                self._wrap_function(probe, original)

    def _wrapper(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._parent(args) if tracer.recording else None
            if parent is None:
                return original(*args, **kwargs)
            sp = Span(probe.name, clock())
            stack = tracer._stack()
            stack.append(sp)
            try:
                out = original(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
                parent.children.append(sp)
                probe.calls += 1
            if probe.after is not None:
                probe.after(sp, args, out)
            return out

        traced.__wrapped__ = original
        return traced

    def _wrap_method(self, probe: Probe, owner, attr: str) -> None:
        raw = None
        for klass in owner.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(probe, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(probe, raw.__func__))
        else:
            wrapped = self._wrapper(probe, raw)
        setattr(owner, attr, wrapped)
        probe.sites.append(f"{owner.__module__}.{owner.__qualname__}.{attr}")

    def _wrap_function(self, probe: Probe, original: Callable) -> None:
        """Patch ``original`` in every ``repro`` module that bound it by name."""
        wrapped = self._wrapper(probe, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    probe.sites.append(f"{name}.{attr}")

    def check_liveness(self, workload: str) -> None:
        """Fail if a probe the table assigns to ``workload`` never fired."""
        silent = [
            f"{p.name} ({p.module}.{p.qualname})"
            for p in self.probes
            if workload in p.required_on and p.calls == 0
        ]
        if silent:
            raise TraceError(
                f"never called on {workload}: " + ", ".join(silent)
            )

    # -- export ---------------------------------------------------------

    def document(self, roots: Iterable[Span], **meta) -> dict:
        """The ``repro.trace/v1`` document of ``roots`` (extra keys ignored)."""
        return {
            "schema": "repro.trace/v1",
            **meta,
            "probes": {p.name: p.sites for p in self.probes},
            "spans": [root.to_dict() for root in roots],
        }


def synthetic(name: str, start: float, end: float, **attrs) -> Span:
    """A span the tracer derives rather than times (queue wait, handoff)."""
    sp = Span(name, start, attrs)
    sp.end = max(start, end)
    return sp
