"""Percentiles and the per-layer ledger computed from recorded spans.

Every ``*_per_req`` figure divides by the requests that reached
``BatchSolveService.solve`` (coalesced followers and shed requests never
do), except ``cache.signature_*``, which divides by every request
submitted, because the server signs each one on arrival.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from tracer import Span, synthetic

#: Tail percentiles tried from the highest down; the first one with at
#: least ``TAIL_BEYOND`` samples beyond it at the run's expected sample
#: count wins, and the lowest one is used when none has that many.  p99 is
#: left out: on a shared 2-vCPU host it followed the host's scheduling
#: stalls of 10-20 ms more than the program, and its run-to-run spread
#: (0.38 on serve-analog, 0.26 on stream-edit) exceeded the bound.
TAIL_LEVELS = (95.0, 90.0)
TAIL_BEYOND = 10

#: Per-layer metric names and units, in report order.
LAYER_UNITS: Dict[str, str] = {
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "server.handoff_p50_ms": "ms",
    "server.coalesced_frac": "frac",
    "server.shed": "count",
    "server.expired": "count",
    "server.solve_overlap": "x",
    "cache.signature_calls_per_req": "count",
    "cache.signature_ms_per_req": "ms",
    "cache.compiled_hit_frac": "frac",
    "service.self_ms_per_req": "ms",
    "backend.self_ms_per_req": "ms",
    "failover.certify_calls_per_req": "count",
    "failover.certify_ms_per_req": "ms",
    "failover.degraded_frac": "frac",
    "kernel.lower_calls_per_req": "count",
    "kernel.lower_ms_per_req": "ms",
    "kernel.core_ms_per_req": "ms",
    "kernel.sweeps_per_req": "count",
    "kernel.pushes_per_req": "count",
    "kernel.relabels_per_req": "count",
    "kernel.materialise_ms_per_req": "ms",
    "engine.kernel_share": "frac",
    "engine.dinic_share": "frac",
    "analog.compile_ms_per_miss": "ms",
    "analog.settle_ms_per_req": "ms",
    "analog.dc_iterations_per_req": "count",
    "analog.refactorizations_per_req": "count",
    "analog.readout_ms_per_req": "ms",
    "stream.apply_ms_p50": "ms",
    "stream.repair_ms_p50": "ms",
    "stream.warm_frac": "frac",
    "trace.unattributed_ms_per_req": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
    "rel_err_p50": "frac",
}


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_level(expected_samples: float) -> float:
    """Highest level in :data:`TAIL_LEVELS` the expected sample count supports.

    The run reports how many samples lie beyond the level it used, so a
    lowest level with fewer than ``TAIL_BEYOND`` beyond it shows as such.
    """
    for level in TAIL_LEVELS:
        if expected_samples * (100.0 - level) / 100.0 >= TAIL_BEYOND:
            return level
    return TAIL_LEVELS[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _named(roots: Iterable[Span], name: str) -> List[Span]:
    return [s for root in roots for s in root.walk() if s.name == name]


def add_server_spans(requests) -> None:
    """Derive queue-wait and handoff spans for each request that led a solve.

    The server signs a request and enqueues it straight after; its
    ``ServerResponse.queued_s`` runs from that enqueue to the worker's pop,
    and the handoff runs from the pop to ``BatchSolveService.solve`` entry
    in the executor thread.
    """
    for request in requests:
        root = request.root
        if root is None or request.coalesced:
            continue
        signs = [c for c in root.children if c.name == "cache.signature"]
        if not signs:
            continue
        popped = signs[0].end + request.queued_s
        root.children.append(synthetic("server.queue_wait", signs[0].end, popped))
        solves = [c for c in root.children if c.name == "service.solve"]
        if solves:
            root.children.append(synthetic("server.handoff", popped, solves[0].start))


def layer_metrics(requests, stats: Dict[str, int], wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced serving run."""
    roots = [r.root for r in requests if r.root is not None]
    solved = [r for r in roots if any(c.name == "service.solve" for c in r.children)]
    n = len(solved)
    leaders = [r for r in requests if not r.coalesced]
    m: Dict[str, float] = {}

    queued = [1e3 * r.queued_s for r in leaders]
    m["server.queue_wait_p50_ms"] = percentile(queued, 50)
    m["server.queue_wait_p99_ms"] = percentile(queued, 99)
    m["server.handoff_p50_ms"] = percentile(
        (1e3 * s.duration for s in _named(roots, "server.handoff")), 50
    )
    m["server.coalesced_frac"] = _ratio(stats.get("coalesced", 0), len(requests))
    m["server.shed"] = float(stats.get("shed", 0))
    m["server.expired"] = float(stats.get("expired", 0))
    services = _named(roots, "service.solve")
    m["server.solve_overlap"] = _ratio(sum(s.duration for s in services), wall)

    signs = _named(roots, "cache.signature")
    m["cache.signature_calls_per_req"] = _ratio(len(signs), len(requests))
    m["cache.signature_ms_per_req"] = _ratio(
        1e3 * sum(s.duration for s in signs), len(requests)
    )
    lookups = _named(roots, "cache.lookup")
    m["cache.compiled_hit_frac"] = _ratio(
        sum(1 for s in lookups if s.attrs.get("hit")), len(lookups)
    )

    def per_req(total_s: float) -> float:
        return _ratio(1e3 * total_s, n)

    m["service.self_ms_per_req"] = per_req(sum(
        s.duration - sum(b.duration for b in _named([s], "backend.solve"))
        for s in services
    ))
    m["backend.self_ms_per_req"] = per_req(
        sum(s.self_time for s in _named(roots, "backend.solve"))
    )
    certs = _named(roots, "failover.certify")
    m["failover.certify_calls_per_req"] = _ratio(len(certs), n)
    m["failover.certify_ms_per_req"] = per_req(sum(s.duration for s in certs))
    walks = _named(roots, "failover.solve")
    m["failover.degraded_frac"] = _ratio(
        sum(1 for s in walks if s.attrs.get("degraded")), len(walks)
    )

    lowers = _named(roots, "kernel.lower")
    cores = _named(roots, "kernel.core")
    kernels = _named(roots, "engine.kernel")
    dinics = _named(roots, "engine.dinic")
    m["kernel.lower_calls_per_req"] = _ratio(len(lowers), n)
    m["kernel.lower_ms_per_req"] = per_req(sum(s.duration for s in lowers))
    m["kernel.core_ms_per_req"] = per_req(sum(s.duration for s in cores))
    for counter in ("sweeps", "pushes", "relabels"):
        m[f"kernel.{counter}_per_req"] = _ratio(
            sum(s.attrs.get(counter, 0) for s in cores), n
        )
    m["kernel.materialise_ms_per_req"] = per_req(sum(s.self_time for s in kernels))
    m["engine.kernel_share"] = _ratio(len(kernels), len(kernels) + len(dinics))
    m["engine.dinic_share"] = _ratio(len(dinics), len(kernels) + len(dinics))

    compiles = _named(roots, "analog.compile")
    settles = _named(roots, "analog.settle")
    m["analog.compile_ms_per_miss"] = _ratio(
        1e3 * sum(s.duration for s in compiles), len(compiles)
    )
    m["analog.settle_ms_per_req"] = per_req(sum(s.duration for s in settles))
    m["analog.dc_iterations_per_req"] = _ratio(
        sum(s.attrs.get("iterations", 0) for s in settles), n
    )
    m["analog.refactorizations_per_req"] = _ratio(
        sum(s.attrs.get("refactorizations", 0) for s in settles), n
    )
    m["analog.readout_ms_per_req"] = per_req(
        sum(s.duration for s in _named(roots, "analog.readout"))
    )
    m["trace.unattributed_ms_per_req"] = per_req(sum(r.self_time for r in solved))
    return m


def stream_metrics(roots: List[Span], warm: int, pushes: int) -> Dict[str, float]:
    """Per-layer figures of one traced streaming run."""
    return {
        "stream.apply_ms_p50": percentile(
            (1e3 * s.duration for s in _named(roots, "stream.apply")), 50
        ),
        "stream.repair_ms_p50": percentile(
            (1e3 * s.duration for s in _named(roots, "stream.repair")), 50
        ),
        "stream.warm_frac": _ratio(warm, pushes),
        "trace.unattributed_ms_per_req": _ratio(
            1e3 * sum(r.self_time for r in roots), len(roots)
        ),
    }


def complete(partial: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; layers a workload skips read 0."""
    return {name: (float(partial.get(name, 0.0)), unit) for name, unit in LAYER_UNITS.items()}
