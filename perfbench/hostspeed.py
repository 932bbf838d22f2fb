"""Host-speed normalisation: a fixed reference task timed beside the program.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.7x, on each core independently, in phases of a second to a
minute, and the change moves process CPU time as much as wall time.  On
the closed-loop workloads every timing the benchmark reports is therefore
scaled to a reference speed.  A :class:`HostMeter` times a fixed task of
the benchmark's own (a pure-Python breadth-first search plus small NumPy
solves; nothing from ``repro``) on each allowed core in turn, at quiescent
points of a run, when no request is in flight: before the window, every
``SLICE_S`` seconds between requests, and after it.  A time measured
between two samples is multiplied by ``reference_s / c``, where ``c`` is
the mean of the ``2 * SMOOTH`` samples around it, so it reads as the time
it would have taken on a host that runs the task in ``reference_s``.  The
samples lie outside every timed interval.

The task is timed on every core the process may use, because the
program's threads run on whichever of them is free: a sample from the
sampling thread's own core alone tracked the server's latencies poorly.
``stream-edit`` runs in one thread, so ``run.py`` pins it to one core and
the meter times that core only.  The mean over neighbouring samples
follows phases of a few seconds and damps the task's own sub-second
flips, which a scale per stretch between two samples carried into the
latencies, widening their tail.

With two clients (``serve-large``) a quiescent point costs throughput:
the first client to stop waits for the other's reply (``Pauses`` in
``workloads.py``).  A sample taken while a solve runs would time the
interpreter lock, not the host.  The open loop (``serve-small``) has no
quiescent points; it is sampled before and after its window for the
record, and its figures stay unscaled (``applied=False``).

The program cannot change the reference task, so a faster program still
reads faster; only the host's drift cancels.  Garbage collection is off
while the task runs, so the size of the program's heap does not reach it.
"""

from __future__ import annotations

import gc
import os
from typing import List, Tuple

import numpy as np

from tracer import clock

#: Seconds between samples inside a window, by workload; a workload not
#: listed is sampled only before and after its window and left unscaled.
SLICE_S = {"serve-large": 1.0, "serve-analog": 0.5, "stream-edit": 1.0}
#: Samples on each side of a stretch that its scale averages.
SMOOTH = 3


class ReferenceTask:
    """Fixed work shaped like the program's: graph search, then NumPy.

    ``order`` sets the working set of the search.  The program's speed on
    a large grid moved with the host's memory traffic far more than a
    cache-sized search did: over six stream-edit runs the unscaled rate
    spread 0.20, 0.13 scaled by the 7,500-vertex search and 0.11 by a
    40,000-vertex one.  ``warm`` runs the task once untimed first (the
    program has just evicted its data); ``reference_s`` is its time at the
    reference speed, typical on a 2-vCPU VM (Python 3.11.7, NumPy 2.4.6).
    """

    _MATRIX = np.random.default_rng(0).random((120, 120)) + 120.0 * np.eye(120)
    _VECTOR = np.arange(20000, dtype=float)

    def __init__(self, order: int, step: tuple, warm: bool, reference_s: float) -> None:
        self.order = order
        self.step = step
        self.warm = warm
        self.reference_s = reference_s
        self._adj: list = []

    def __call__(self) -> int:
        if not self._adj:
            a, b, n = *self.step, self.order
            self._adj = [((a * i + 1) % n, (b * i + 5) % n, (i + 1) % n) for i in range(n)]
        adj = self._adj
        seen = {0}
        queue = [0]
        for vertex in queue:
            for w in adj[vertex]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        for _ in range(5):
            np.linalg.solve(self._MATRIX, self._MATRIX[0])
            (self._VECTOR * 1.5 + 2.0).sum()
        return len(seen)


#: The reference task of each workload, by the size of its inputs.
TASKS = {
    "small": ReferenceTask(7500, (7, 13), warm=True, reference_s=4.5e-3),
    "large": ReferenceTask(40000, (7919, 104729), warm=False, reference_s=32e-3),
}
TASK_OF = {"serve-small": "small", "serve-large": "large", "serve-analog": "small",
           "stream-edit": "large"}


class HostMeter:
    """Reference-task samples of one run, and the scaling they imply."""

    def __init__(self, workload: str) -> None:
        self.task = TASKS[TASK_OF[workload]]
        #: Whether the scale applies the samples or reads 1.
        self.applied = workload in SLICE_S
        #: ``(start, end, seconds)`` of every sample, in time order.
        self.samples: List[Tuple[float, float, float]] = []
        self._cache: Tuple[int, list] = (0, [])

    def sample(self) -> float:
        """Time the reference task now; returns the sample in seconds.

        A ``warm`` task runs once untimed first: the program's work has
        just evicted its data from the caches.
        """
        enabled = gc.isenabled()
        gc.disable()
        cores = os.sched_getaffinity(0)
        times = []
        try:
            start = clock()
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                if self.task.warm:
                    self.task()
                t0 = clock()
                self.task()
                times.append(clock() - t0)
        finally:
            os.sched_setaffinity(0, cores)
            if enabled:
                gc.enable()
        value = sum(times) / len(times)
        self.samples.append((start, clock(), value))
        return value

    def _stretches(self) -> List[Tuple[float, float, float]]:
        """``(start, end, scale)`` of the stretches between samples."""
        s = self.samples
        if len(s) < 2:
            raise RuntimeError("the host meter needs a sample on each side")
        if self._cache[0] == len(s):
            return self._cache[1]
        out = []
        for i in range(len(s) - 1):
            near = s[max(0, i + 1 - SMOOTH):i + 1 + SMOOTH]
            scale = self.task.reference_s * len(near) / sum(c for _, _, c in near)
            out.append((s[i][1], s[i + 1][0], scale if self.applied else 1.0))
        self._cache = (len(s), out)
        return out

    def scale_at(self, t: float) -> float:
        """Scale of the stretch holding ``t`` (the nearest one outside)."""
        stretches = self._stretches()
        for a, b, scale in stretches:
            if t < b:
                return scale
        return stretches[-1][2]

    def normalise(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference speed.

        Time inside a sample is left out; time before the first sample or
        after the last takes the scale of the nearest stretch.
        """
        stretches = self._stretches()
        total = 0.0
        last = len(stretches) - 1
        for i, (a, b, scale) in enumerate(stretches):
            lo = start if i == 0 else max(start, a)
            hi = end if i == last else min(end, b)
            if hi > lo:
                total += (hi - lo) * scale
        return total

    def describe(self) -> str:
        values = sorted(1e3 * s[2] for s in self.samples)
        return (f"{len(values)} reference samples, {values[0]:.2f}-{values[-1]:.2f} ms, "
                f"median {values[len(values) // 2]:.3f} (reference "
                f"{1e3 * self.task.reference_s:.2f} ms)"
                + ("" if self.applied else ", not applied"))
