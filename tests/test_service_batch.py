"""Batched solving service: API, backends, cache, concurrency, reporting."""

from __future__ import annotations

import math

import pytest

from repro import (
    BatchSolveService,
    FlowNetwork,
    SolveRequest,
    grid_graph,
    paper_example_graph,
    push_relabel,
    rmat_graph,
)
from repro.errors import AlgorithmError
from repro.resilience.policy import Deadline, deadline_scope
from repro.service import (
    AnalogBackend,
    ClassicalBackend,
    CompiledCircuitCache,
    available_backends,
    create_backend,
    network_signature,
)


def tiny_network(bottleneck: float = 2.0) -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "a", 4.0)
    g.add_edge("a", "t", bottleneck)
    return g


# ----------------------------------------------------------------------
# Topology signatures and the compile cache
# ----------------------------------------------------------------------


def test_network_signature_distinguishes_topology_and_capacity():
    a, b, c = tiny_network(), tiny_network(), tiny_network(bottleneck=3.0)
    assert network_signature(a) == network_signature(b)
    assert network_signature(a) != network_signature(c)
    d = tiny_network()
    d.add_edge("s", "t", 1.0)
    assert network_signature(a) != network_signature(d)


def test_mutating_an_unfrozen_network_drops_its_cached_view():
    # Direct service callers may edit a network between solves: the edit
    # drops the cached view, so neither the kernel nor the analog cache
    # key can read the old capacities.
    service = BatchSolveService()
    network = tiny_network(bottleneck=2.0)
    assert service.solve(network, backend="kernel").flow_value == pytest.approx(2.0)
    first = service.solve(network, backend="analog")
    assert first.ok and not first.cache_hit
    assert service.solve(network, backend="analog").cache_hit
    network.set_capacity(1, 3.0)
    assert service.solve(network, backend="kernel").flow_value == pytest.approx(3.0)
    edited = service.solve(network, backend="analog")
    assert edited.ok and not edited.cache_hit


def test_cache_lru_eviction_and_stats():
    cache = CompiledCircuitCache(max_entries=2)
    for key in ("a", "b", "c"):
        cache.store(key, key.upper())
    assert len(cache) == 2
    found, _ = cache.lookup("a")  # evicted as LRU
    assert not found
    found, value = cache.lookup("c")
    assert found and value == "C"
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    cache.clear()
    assert len(cache) == 0 and cache.stats()["hits"] == 0


def test_cache_zero_capacity_disables_memoization():
    cache = CompiledCircuitCache(max_entries=0)
    assert cache.get_or_create("k", lambda: 1) == 1
    assert cache.get_or_create("k", lambda: 2) == 2


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


def test_classical_backend_matches_reference():
    network = paper_example_graph()
    exact = push_relabel(network).flow_value
    result = ClassicalBackend("dinic").solve(SolveRequest(network=network))
    assert result.ok
    assert abs(result.flow_value - exact) < 1e-9
    assert network.is_feasible_flow(result.edge_flows, capacity_tol=1e-6, conservation_tol=1e-6)


def test_analog_backend_compile_cache_round_trip():
    backend = AnalogBackend(cache=CompiledCircuitCache())
    network = tiny_network()
    first = backend.solve(SolveRequest(network=network))
    second = backend.solve(SolveRequest(network=network))
    assert first.ok and second.ok
    assert not first.cache_hit and second.cache_hit
    assert abs(first.flow_value - second.flow_value) < 1e-12


def test_analog_backend_handles_disconnected_network():
    g = FlowNetwork()
    g.add_edge("s", "a", 1.0)  # sink unreachable
    result = AnalogBackend(cache=CompiledCircuitCache()).solve(SolveRequest(network=g))
    assert result.ok and result.flow_value == 0.0


def test_backend_errors_are_captured_not_raised():
    class ExplodingBackend(ClassicalBackend):
        def _solve(self, request):
            raise RuntimeError("boom")

    result = ExplodingBackend("dinic").solve(SolveRequest(network=tiny_network()))
    assert not result.ok
    assert "boom" in result.error
    assert math.isnan(result.flow_value)


def test_registry_knows_analog_and_all_classical_algorithms():
    names = available_backends()
    assert "analog" in names
    for expected in ("dinic", "push-relabel", "edmonds-karp", "ford-fulkerson"):
        assert expected in names
    with pytest.raises(AlgorithmError):
        create_backend("quantum-annealer")


# ----------------------------------------------------------------------
# The batch service
# ----------------------------------------------------------------------


def test_sixteen_instance_mixed_batch_one_call():
    """Acceptance: 16 mixed analog/classical instances through one API call."""
    networks = [rmat_graph(10, 25, seed=i) for i in range(8)]
    requests = []
    for i, network in enumerate(networks):
        exact = push_relabel(network).flow_value
        requests.append(
            SolveRequest(network=network, backend="dinic", tag=f"w{i}", reference_value=exact)
        )
        requests.append(
            SolveRequest(network=network, backend="analog", tag=f"w{i}", reference_value=exact)
        )
    service = BatchSolveService(max_workers=4)
    report = service.solve_batch(requests)

    assert report.num_requests == 16
    assert report.num_ok == 16
    assert report.backend_counts() == {"dinic": 8, "analog": 8}
    # Per-instance results come back in request order with timings.
    assert [r.tag for r in report.results] == [f"w{i // 2}" for i in range(16)]
    assert all(r.wall_time_s > 0 for r in report.results)
    # Classical results are exact; analog results are physical approximations.
    for result in report.results:
        if result.backend == "dinic":
            assert result.relative_error < 1e-9
        else:
            assert result.relative_error is not None
    # Aggregate stats are consistent.
    summary = report.summary()
    assert summary["ok"] == 16 and summary["failed"] == 0
    assert summary["wall_time_s"] > 0
    assert summary["solve_time_max_s"] <= summary["solve_time_total_s"] + 1e-12
    # And the report formats through the bench reporting helpers.
    table = report.format(title="acceptance")
    assert "acceptance" in table and "16/16 ok" in table


def test_batch_accepts_bare_networks_and_uses_analog_default():
    # max_workers=1 keeps the two identical requests sequential: the cache
    # deliberately has no single-flight, so concurrent first-misses may both
    # compile and a >=1-hit assertion would be racy on a wider pool.
    report = BatchSolveService(max_workers=1).solve_batch([tiny_network(), tiny_network()])
    assert report.num_ok == 2
    assert all(r.backend == "analog" for r in report.results)
    # Identical topologies share one compiled circuit.
    assert report.cache_stats["hits"] >= 1


def test_batch_rejects_unknown_backend_up_front():
    with pytest.raises(AlgorithmError):
        BatchSolveService().solve_batch([SolveRequest(network=tiny_network(), backend="nope")])
    with pytest.raises(AlgorithmError):
        BatchSolveService().solve_batch(["not a network"])


def test_failover_never_repairs_a_backend_typo():
    """A misspelt backend raises on both entry points, failover or not."""
    service = BatchSolveService(failover=True)
    with pytest.raises(AlgorithmError):
        service.solve(tiny_network(), backend="dinc")
    with pytest.raises(AlgorithmError):
        service.solve_batch([SolveRequest(network=tiny_network(), backend="dinc")])


def test_empty_batch():
    report = BatchSolveService().solve_batch([])
    assert report.num_requests == 0
    assert report.total_wall_time_s == 0.0
    assert "(no rows)" in report.format()


def test_serial_and_thread_executors_agree():
    requests = [
        SolveRequest(network=rmat_graph(8, 14, seed=s), backend="push-relabel") for s in range(4)
    ]
    serial = BatchSolveService(executor="serial").solve_batch(requests)
    threaded = BatchSolveService(executor="thread", max_workers=4).solve_batch(requests)
    assert [r.flow_value for r in serial.results] == [r.flow_value for r in threaded.results]


def expired_deadline() -> Deadline:
    deadline = Deadline(1e-9, label="caller")
    while not deadline.expired():
        pass
    return deadline


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_ambient_deadline_reaches_every_executor(executor):
    """The caller's deadline governs pooled requests as well as inline ones."""
    service = BatchSolveService(executor=executor, max_workers=4)
    requests = [
        SolveRequest(network=grid_graph(4, 6, seed=i), backend="kernel")
        for i in range(4)
    ]
    with deadline_scope(expired_deadline()):
        report = service.solve_batch(requests)
    assert [r.error_type for r in report.results] == ["SolveTimeoutError"] * 4


def test_single_solve_convenience():
    result = BatchSolveService().solve(tiny_network(), backend="dinic", validate=True)
    assert result.ok and abs(result.flow_value - 2.0) < 1e-9


def test_invalid_service_configuration():
    for executor in ("fiber", "process"):
        with pytest.raises(AlgorithmError):
            BatchSolveService(executor=executor)
    with pytest.raises(AlgorithmError):
        BatchSolveService(max_workers=0)
