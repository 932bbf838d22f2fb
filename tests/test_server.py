"""Deterministic concurrency gates for the asyncio serving front door.

Every property the server claims — coalescing collapses identical
concurrent requests into one backend solve, admission control sheds the
lowest-priority tenant first, deadline routing flips analog→classical
when the analog SLO budget exhausts, queued requests past their deadline
answer 504 — is pinned here with an injected virtual clock, gated fake
backends, and event-loop yields for synchronization.  No sleeps, no
real-clock races: the suites are exactly as deterministic as the event
loop's FIFO scheduling.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import FlowNetwork
from repro.errors import AlgorithmError
from repro.obs import (
    SloObjective,
    SloPolicy,
    clear_traces,
    get_registry,
    probes,
    reset_metrics,
    set_obs_enabled,
    set_slo_policy,
)
from repro.service import AsyncSolveServer
from repro.service.api import SolveResult

from test_obs_slo import stepped_clock


@pytest.fixture
def obs_server():
    """Obs on, clean registry/traces, no leaked process-global SLO policy."""
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    saved = set_slo_policy(None)
    yield
    set_slo_policy(saved)
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


def tiny_network(capacity: float = 3.0) -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "t", capacity)
    return g


def distinct_network(i: int) -> FlowNetwork:
    """Networks with pairwise-distinct topology signatures."""
    g = FlowNetwork()
    g.add_edge("s", f"v{i}", 2.0)
    g.add_edge(f"v{i}", "t", 1.0)
    return g


class Recorder:
    """Async fake backend: records calls, optionally blocks on a gate."""

    def __init__(self, gated: bool = False):
        self.calls = []
        self.started = asyncio.Event()
        self.gate = asyncio.Event()
        if not gated:
            self.gate.set()

    async def __call__(self, request) -> SolveResult:
        self.calls.append(request)
        self.started.set()
        await self.gate.wait()
        return SolveResult(
            request=request, flow_value=1.0, edge_flows={0: 1.0}
        )


async def spin_until(predicate, rounds: int = 2000) -> None:
    """Yield the event loop (deterministically) until ``predicate()``."""
    for _ in range(rounds):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("predicate never became true while spinning")


class TestCoalescing:
    async def test_identical_concurrent_requests_share_one_solve(self, obs_server):
        backend = Recorder(gated=True)
        g = tiny_network()
        async with AsyncSolveServer(workers=2, solve_fn=backend) as server:
            waiters = [
                asyncio.ensure_future(server.submit(g, backend="dinic"))
                for _ in range(8)
            ]
            # All 8 must be registered against the shared future, and the
            # single backend solve started, before it may finish.
            await spin_until(
                lambda: server.stats()["waiting"] == 8 and backend.started.is_set()
            )
            assert len(backend.calls) == 1  # exactly one backend solve
            backend.gate.set()
            responses = await asyncio.gather(*waiters)
        assert len(backend.calls) == 1
        assert all(r.status == 200 for r in responses)
        assert all(r.result.flow_value == 1.0 for r in responses)
        assert sum(1 for r in responses if r.coalesced) == 7
        assert server.stats()["coalesced"] == 7
        assert get_registry().get_counter(
            probes.EVENT_COALESCE_HIT, backend="dinic"
        ) == 7.0

    async def test_coalescing_disabled_solves_every_request(self, obs_server):
        backend = Recorder()
        g = tiny_network()
        async with AsyncSolveServer(
            workers=2, solve_fn=backend, coalesce=False
        ) as server:
            responses = await asyncio.gather(
                *[server.submit(g, backend="dinic") for _ in range(5)]
            )
        assert len(backend.calls) == 5
        assert all(r.status == 200 and not r.coalesced for r in responses)

    async def test_different_options_do_not_coalesce(self, obs_server):
        backend = Recorder()
        g = tiny_network()
        async with AsyncSolveServer(workers=2, solve_fn=backend) as server:
            await asyncio.gather(
                server.submit(g, backend="dinic"),
                server.submit(g, backend="dinic", validate=True),
                server.submit(g, backend="push-relabel"),
            )
        assert len(backend.calls) == 3

    async def test_sequential_identical_requests_do_not_coalesce(self, obs_server):
        # Coalescing shares *in-flight* solves only: once resolved, the
        # key must be unregistered and the next request solves afresh.
        backend = Recorder()
        g = tiny_network()
        async with AsyncSolveServer(workers=1, solve_fn=backend) as server:
            first = await server.submit(g, backend="dinic")
            second = await server.submit(g, backend="dinic")
        assert len(backend.calls) == 2
        assert not first.coalesced and not second.coalesced
        assert server.stats()["inflight"] == 0


class TestAdmissionControl:
    async def test_overflow_sheds_lowest_priority_newest_first(self, obs_server):
        backend = Recorder(gated=True)
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False,
            max_pending=3, per_tenant_queue=10,
        ) as server:
            blocker = asyncio.ensure_future(
                server.submit(distinct_network(0), tenant="z", priority=9,
                              backend="dinic")
            )
            await backend.started.wait()  # worker is busy, queue is free
            queued = {
                tenant: asyncio.ensure_future(
                    server.submit(distinct_network(i), tenant=tenant,
                                  priority=priority, backend="dinic")
                )
                for i, (tenant, priority) in enumerate(
                    [("a", 2), ("b", 1), ("c", 3)], start=1
                )
            }
            await spin_until(lambda: server.stats()["queue_depth"] == 3)

            # Higher-priority arrival: the lowest-priority queued request
            # (tenant b, priority 1) is evicted to make room.
            win = asyncio.ensure_future(
                server.submit(distinct_network(4), tenant="d", priority=4,
                              backend="dinic")
            )
            shed = await queued["b"]
            assert shed.status == 503
            assert shed.detail == "queue-full"
            assert shed.result is None
            assert server.stats()["queue_depth"] == 3

            # Equal-or-lower-priority arrival is itself rejected instead.
            reject = await server.submit(
                distinct_network(5), tenant="e", priority=1, backend="dinic"
            )
            assert reject.status == 503
            assert reject.detail == "queue-full"

            backend.gate.set()
            survivors = await asyncio.gather(
                blocker, queued["a"], queued["c"], win
            )
        assert all(r.status == 200 for r in survivors)
        reg = get_registry()
        assert reg.get_counter(
            probes.EVENT_REQUEST_SHED, tenant="b", reason="queue-full"
        ) == 1.0
        assert reg.get_counter(
            probes.EVENT_REQUEST_SHED, tenant="e", reason="queue-full"
        ) == 1.0
        assert server.stats()["shed"] == 2

    async def test_per_tenant_bound_isolates_noisy_tenant(self, obs_server):
        backend = Recorder(gated=True)
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False,
            max_pending=50, per_tenant_queue=2,
        ) as server:
            blocker = asyncio.ensure_future(
                server.submit(distinct_network(0), tenant="quiet",
                              priority=9, backend="dinic")
            )
            await backend.started.wait()
            noisy = [
                asyncio.ensure_future(
                    server.submit(distinct_network(i), tenant="noisy",
                                  priority=i, backend="dinic")
                )
                for i in (1, 2)
            ]
            await spin_until(lambda: server.stats()["queue_depth"] == 2)

            # Third noisy request with low priority: rejected, not queued.
            reject = await server.submit(
                distinct_network(3), tenant="noisy", priority=0,
                backend="dinic",
            )
            assert reject.status == 503
            assert reject.detail == "tenant-queue-full"
            # Another tenant is unaffected by noisy's full queue.
            other = asyncio.ensure_future(
                server.submit(distinct_network(4), tenant="quiet",
                              priority=0, backend="dinic")
            )
            await spin_until(lambda: server.stats()["queue_depth"] == 3)

            # Higher-priority noisy request evicts noisy's own lowest.
            win = asyncio.ensure_future(
                server.submit(distinct_network(5), tenant="noisy",
                              priority=5, backend="dinic")
            )
            shed = await noisy[0]  # priority 1, noisy's lowest
            assert shed.status == 503
            assert shed.detail == "tenant-queue-full"

            backend.gate.set()
            survivors = await asyncio.gather(blocker, noisy[1], other, win)
        assert all(r.status == 200 for r in survivors)
        assert get_registry().get_counter(
            probes.EVENT_REQUEST_SHED, tenant="noisy",
            reason="tenant-queue-full",
        ) == 2.0

    async def test_queue_depth_gauges_track_admissions(self, obs_server):
        backend = Recorder(gated=True)
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False,
        ) as server:
            blocker = asyncio.ensure_future(
                server.submit(distinct_network(0), tenant="t0", backend="dinic")
            )
            await backend.started.wait()
            queued = [
                asyncio.ensure_future(
                    server.submit(distinct_network(i), tenant="t1",
                                  backend="dinic")
                )
                for i in (1, 2)
            ]
            await spin_until(lambda: server.stats()["queue_depth"] == 2)
            reg = get_registry()
            assert reg.get_gauge(probes.METRIC_QUEUE_DEPTH) == 2
            assert reg.get_gauge(probes.METRIC_QUEUE_DEPTH, tenant="t1") == 2
            backend.gate.set()
            await asyncio.gather(blocker, *queued)
        assert get_registry().get_gauge(probes.METRIC_QUEUE_DEPTH) == 0


class TestDeadlineRouting:
    def _exhausted_analog_policy(self, clock, advance) -> SloPolicy:
        policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        policy.observe()
        get_registry().counter(
            "service.solve_errors", 20, backend="analog", error_type="e"
        )
        advance(60.0)
        assert policy.health("analog").should_skip
        return policy

    async def test_tight_deadline_routes_analog_when_budget_healthy(
        self, obs_server
    ):
        backend = Recorder()
        clock, _ = stepped_clock()
        policy = SloPolicy(clock=clock)  # no traffic: analog is healthy
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, slo=policy, clock=clock,
            analog_deadline_s=0.25,
        ) as server:
            tight = await server.submit(tiny_network(), deadline_s=0.1)
            loose = await server.submit(tiny_network(), deadline_s=10.0)
            bare = await server.submit(tiny_network())
        assert tight.backend == "analog"
        assert loose.backend == "kernel"
        assert bare.backend == "kernel"
        assert [r.backend for r in backend.calls] == ["analog", "kernel", "kernel"]

    async def test_exhausted_analog_budget_flips_tight_deadlines_classical(
        self, obs_server
    ):
        backend = Recorder()
        clock, advance = stepped_clock()
        policy = self._exhausted_analog_policy(clock, advance)
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, slo=policy, clock=clock,
        ) as server:
            tight = await server.submit(tiny_network(), deadline_s=0.1)
        assert tight.backend == "kernel"
        assert backend.calls[0].backend == "kernel"

    async def test_router_falls_through_to_process_global_policy(
        self, obs_server
    ):
        backend = Recorder()
        clock, advance = stepped_clock()
        set_slo_policy(self._exhausted_analog_policy(clock, advance))
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, clock=clock,
        ) as server:
            tight = await server.submit(tiny_network(), deadline_s=0.1)
        assert tight.backend == "kernel"

    async def test_explicit_backend_bypasses_router(self, obs_server):
        backend = Recorder()
        clock, advance = stepped_clock()
        policy = self._exhausted_analog_policy(clock, advance)
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, slo=policy, clock=clock,
        ) as server:
            forced = await server.submit(
                tiny_network(), backend="analog", deadline_s=0.1
            )
        assert forced.backend == "analog"

    async def test_deadline_rides_into_solver_options(self, obs_server):
        backend = Recorder()
        clock, _ = stepped_clock()
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, clock=clock
        ) as server:
            await server.submit(tiny_network(), backend="dinic", deadline_s=1.5)
        assert backend.calls[0].options["deadline_s"] == 1.5

    async def test_solver_gets_the_budget_left_at_dispatch(self, obs_server):
        backend = Recorder(gated=True)
        clock, advance = stepped_clock()
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False, clock=clock,
        ) as server:
            blocker = asyncio.ensure_future(
                server.submit(distinct_network(0), backend="dinic")
            )
            await backend.started.wait()
            queued = asyncio.ensure_future(
                server.submit(distinct_network(1), backend="dinic", deadline_s=1.5)
            )
            await spin_until(lambda: server.stats()["queue_depth"] == 1)
            advance(0.5)  # virtual time passes while queued
            backend.gate.set()
            await asyncio.gather(blocker, queued)
        assert backend.calls[1].options["deadline_s"] == 1.0

    async def test_seeded_e2e_routing_scenario_on_injected_clock(
        self, obs_server, rng
    ):
        """End-to-end: mixed seeded traffic, budget exhausts mid-stream."""
        backend = Recorder()
        clock, advance = stepped_clock()
        policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        policy.observe()
        async with AsyncSolveServer(
            workers=2, solve_fn=backend, slo=policy, clock=clock,
        ) as server:
            # Phase 1 — healthy budget: every tight deadline routes analog.
            phase1 = [
                await server.submit(
                    distinct_network(i), tenant=f"t{rng.randrange(3)}",
                    deadline_s=rng.choice([0.05, 0.1]),
                )
                for i in range(10)
            ]
            assert [r.backend for r in phase1] == ["analog"] * 10
            # Mid-stream incident: analog's error budget burns out.
            get_registry().counter(
                "service.solve_errors", 30, backend="analog", error_type="e"
            )
            advance(60.0)
            # Phase 2 — same seeded traffic shape now routes classical.
            phase2 = [
                await server.submit(
                    distinct_network(100 + i), tenant=f"t{rng.randrange(3)}",
                    deadline_s=rng.choice([0.05, 0.1]),
                )
                for i in range(10)
            ]
            assert [r.backend for r in phase2] == ["kernel"] * 10
        assert all(r.status == 200 for r in phase1 + phase2)


class TestDeadlineExpiry:
    async def test_request_expiring_in_queue_answers_504(self, obs_server):
        backend = Recorder(gated=True)
        clock, advance = stepped_clock()
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False, clock=clock,
        ) as server:
            blocker = asyncio.ensure_future(
                server.submit(distinct_network(0), backend="dinic")
            )
            await backend.started.wait()
            doomed = asyncio.ensure_future(
                server.submit(distinct_network(1), backend="dinic",
                              deadline_s=1.0)
            )
            await spin_until(lambda: server.stats()["queue_depth"] == 1)
            advance(2.0)  # virtual time passes while queued
            backend.gate.set()
            blocked, expired = await asyncio.gather(blocker, doomed)
        assert blocked.status == 200
        assert expired.status == 504
        assert expired.result is None
        assert "deadline" in expired.detail and "expired" in expired.detail
        assert len(backend.calls) == 1  # the expired request never ran
        assert server.stats()["expired"] == 1

    async def test_timeout_result_maps_to_504(self, obs_server):
        async def timed_out(request) -> SolveResult:
            return SolveResult(
                request=request, ok=False,
                error="SolveTimeoutError: budget spent",
                error_type="SolveTimeoutError",
            )

        async with AsyncSolveServer(workers=1, solve_fn=timed_out) as server:
            response = await server.submit(tiny_network(), backend="dinic")
        assert response.status == 504

    async def test_backend_typo_maps_to_500_not_a_fallback(self, obs_server):
        # The default service fails over, but a misspelt backend must still
        # fail: no fallback may answer a request naming no real backend.
        async with AsyncSolveServer(workers=1) as server:
            response = await server.submit(tiny_network(), backend="dinc")
        assert response.status == 500
        assert response.result.error_type == "AlgorithmError"

    async def test_typed_failure_maps_to_500(self, obs_server):
        async def broken(request) -> SolveResult:
            return SolveResult(
                request=request, ok=False,
                error="AlgorithmError: boom", error_type="AlgorithmError",
            )

        async with AsyncSolveServer(workers=1, solve_fn=broken) as server:
            response = await server.submit(tiny_network(), backend="dinic")
        assert response.status == 500
        assert response.detail == "AlgorithmError: boom"


class TestLifecycle:
    async def test_submit_after_close_raises(self, obs_server):
        server = AsyncSolveServer(workers=1, solve_fn=Recorder())
        server.start()
        await server.aclose()
        with pytest.raises(AlgorithmError):
            await server.submit(tiny_network(), backend="dinic")

    async def test_request_latency_histogram_is_observed(self, obs_server):
        backend = Recorder()
        async with AsyncSolveServer(workers=1, solve_fn=backend) as server:
            await server.submit(tiny_network(), backend="dinic")
        snapshot = get_registry().snapshot()
        keys = [
            k for k in snapshot["histograms"]
            if k.startswith(probes.METRIC_REQUEST_SECONDS)
        ]
        assert len(keys) == 1
        assert "status=200" in keys[0] and "backend=dinic" in keys[0]
        assert snapshot["histograms"][keys[0]]["count"] == 1

    async def test_default_service_serves_real_solves(self, obs_server):
        g = tiny_network(capacity=5.0)
        async with AsyncSolveServer(workers=1) as server:
            response = await server.submit(g, backend="dinic", deadline_s=30.0)
        assert response.status == 200
        assert response.result.flow_value == pytest.approx(5.0)
