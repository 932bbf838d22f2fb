"""Dynamic networks: streaming capacity updates with warm re-solves.

Production traffic is rarely a stream of fresh instances — it is a stream of
small edits to a mostly-unchanged network: a road's capacity drops during
rush hour, a link fails, a new connection is provisioned.  This example opens
two :class:`~repro.service.streaming.StreamingSession` objects (one classical
incremental solver, one analog substrate with warm re-solves) on the same
road network, pushes a morning-rush scenario of update batches, and compares
every warm re-solve against a from-scratch solve — both for the answer and
for the time it took.

Run with:  python examples/streaming_updates.py
"""

from __future__ import annotations

import random
import time

from repro import AnalogMaxFlowSolver, FlowNetwork
from repro.flows.registry import solve_max_flow
from repro.graph.updates import CapacityUpdate, EdgeInsert, EdgeRemove
from repro.service import StreamingSession


def build_highway_network(districts: int = 6, seed: int = 12) -> FlowNetwork:
    """A ring of districts with highways toward the business center."""
    rng = random.Random(seed)
    network = FlowNetwork(source="suburbs", sink="center")
    for d in range(districts):
        network.add_edge("suburbs", f"district{d}", 800.0 * rng.uniform(0.8, 1.2))
        network.add_edge(f"district{d}", "center", 600.0 * rng.uniform(0.8, 1.2))
        network.add_edge(
            f"district{d}",
            f"district{(d + 1) % districts}",
            300.0 * rng.uniform(0.8, 1.2),
        )
    return network


def rush_hour_batches(network: FlowNetwork, steps: int, seed: int = 4):
    """Morning-rush update stream: congestion, one closure, one new ramp."""
    rng = random.Random(seed)
    closed = set()  # removed edges may not be re-weighted later
    batches = []
    for step in range(steps):
        events = []
        for edge in network.edges():
            if edge.index not in closed and rng.random() < 0.25:
                factor = rng.choice([0.6, 0.8, 1.2])  # congestion waves
                events.append(CapacityUpdate(edge.index, edge.capacity * factor))
        if step == steps // 2:
            events = [e for e in events if e.edge_index != 2]
            events.append(EdgeRemove(2))  # accident closes a ring road
            closed.add(2)
        if step == steps - 1:
            events.append(EdgeInsert("suburbs", "district0", 400.0))  # new ramp
        batches.append(events)
    return batches


def main(districts: int = 6, steps: int = 4) -> None:
    """Run the streaming scenario; shrink ``districts``/``steps`` for smoke runs."""
    network = build_highway_network(districts)
    print(
        f"highway network: {network.num_vertices} districts, "
        f"{network.num_edges} links"
    )

    classical = StreamingSession(network, backend="dinic", cold_ratio=1.0)
    analog = StreamingSession(
        network,
        backend="analog",
        analog_solver=AnalogMaxFlowSolver(quantize=False),
    )
    print(f"open: peak throughput {classical.flow_value:.0f} veh/h "
          f"(analog reads {analog.flow_value:.0f})")

    for step, events in enumerate(rush_hour_batches(network, steps)):
        start = time.perf_counter()
        delta = classical.push(list(events))
        warm_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        cold = solve_max_flow(classical.snapshot(), algorithm="dinic")
        cold_ms = (time.perf_counter() - start) * 1e3
        analog_delta = analog.push(list(events))
        mode = "warm" if delta.warm else "cold"
        print(
            f"step {step}: {len(events)} updates -> {delta.flow_value:.0f} veh/h "
            f"({delta.flow_delta:+.0f}), {len(delta.changed_edge_flows)} links "
            f"re-routed [{mode} {warm_ms:.2f} ms vs cold {cold_ms:.2f} ms; "
            f"analog {'warm' if analog_delta.warm else 'recompiled'}, "
            f"reads {analog_delta.flow_value:.0f}]"
        )
        assert abs(delta.flow_value - cold.flow_value) <= 1e-9 * max(1.0, cold.flow_value)

    summary = classical.summary()
    print(
        f"session: {summary['pushes']} pushes, {summary['warm_solves']} warm / "
        f"{summary['cold_solves']} cold, revision {summary['revision']}"
    )
    analog_summary = analog.summary()
    print(
        f"analog session: {analog_summary['recompiles']} recompiles "
        f"(the opening compile plus one per structural batch), "
        f"{analog_summary['warm_solves']} warm / {analog_summary['cold_solves']} cold"
    )


if __name__ == "__main__":
    main()
