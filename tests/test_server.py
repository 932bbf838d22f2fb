"""Deterministic concurrency gates for the asyncio serving front door.

Every property the server claims — coalescing collapses identical
concurrent requests into one backend solve, admission control sheds the
lowest-priority tenant first, deadline routing flips analog→classical
when the analog circuit breaker opens, queued requests past their deadline
answer 504, classical requests take turns on one lane in groups of
same-shape requests — is pinned here with an injected virtual clock,
gated fake backends, and event-loop yields for synchronization.  No
sleeps, no real-clock races: the suites are exactly as deterministic as
the event loop's FIFO scheduling.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import FlowNetwork
from repro.errors import AlgorithmError, InvalidGraphError
from repro.obs import (
    clear_traces,
    get_registry,
    probes,
    recent_traces,
    reset_metrics,
    set_obs_enabled,
)
from repro.service import AsyncSolveServer, BatchSolveService
from repro.service.api import SolveResult


@pytest.fixture
def obs_server():
    """Obs on, clean registry and traces."""
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    yield
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


def stepped_clock(start: float = 0.0):
    state = {"now": start}
    return (lambda: state["now"]), (lambda dt: state.__setitem__("now", state["now"] + dt))


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
    """Async fake backend: records calls, optionally blocks on a gate.

    ``gated_tags`` limits the gate to requests carrying one of those tags,
    and a request tagged in ``failing_tags`` raises instead of answering.
    """

    def __init__(self, gated: bool = False, gated_tags=None, failing_tags=()):
        self.calls = []
        self.started = asyncio.Event()
        self.gate = asyncio.Event()
        self.gated_tags = gated_tags
        self.failing_tags = set(failing_tags)
        if not gated:
            self.gate.set()

    async def __call__(self, request) -> SolveResult:
        self.calls.append(request)
        self.started.set()
        if self.gated_tags is None or request.tag in self.gated_tags:
            await self.gate.wait()
        if request.tag in self.failing_tags:
            raise AlgorithmError(f"{request.tag} failed")
        return SolveResult(
            request=request, flow_value=1.0, edge_flows={0: 1.0}
        )


def other_shape_network() -> FlowNetwork:
    """Same vertex count as :func:`distinct_network`, one more edge."""
    g = distinct_network(99)
    g.add_edge("s", "t", 1.0)
    return g


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


class TestFrozenSubmissions:
    async def test_a_submitted_network_cannot_change_under_a_shared_solve(
        self, obs_server
    ):
        # An edit to a submitted network would reach every caller coalesced
        # onto its solve: here an independent caller would get 100.0.
        service = BatchSolveService()
        started, gate = asyncio.Event(), asyncio.Event()

        async def gated_solve(request):
            started.set()
            await gate.wait()
            return service.solve(
                request.network, backend=request.backend, **request.options
            )

        async with AsyncSolveServer(workers=1, solve_fn=gated_solve) as server:
            mine = tiny_network(3.0)
            first = asyncio.ensure_future(server.submit(mine, backend="kernel"))
            await started.wait()  # taken by the worker, not yet solved
            try:
                with pytest.raises(InvalidGraphError):
                    mine.set_capacity(0, 100.0)
                second = asyncio.ensure_future(
                    server.submit(tiny_network(3.0), backend="kernel")
                )
                await spin_until(lambda: server.stats()["waiting"] == 2)
            finally:
                gate.set()
            responses = await asyncio.gather(first, second)
        assert [r.status for r in responses] == [200, 200]
        assert [r.coalesced for r in responses] == [False, True]
        assert [r.result.flow_value for r in responses] == [3.0, 3.0]
        assert mine.edge(0).capacity == 3.0


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


def open_analog_breaker(service: BatchSolveService) -> BatchSolveService:
    """Open analog's breaker in ``service``'s failover policy."""
    breaker = service.failover.breaker_for("analog")
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    assert not service.failover.healthy("analog")
    return service


class TestDeadlineRouting:
    @pytest.mark.parametrize(
        "make_service",
        [
            lambda: None,
            lambda: BatchSolveService(failover=None),
            lambda: BatchSolveService(failover=True),
        ],
        ids=["solve-fn-only", "no-failover", "failover"],
    )
    async def test_tight_deadline_routes_analog_while_breaker_closed(
        self, obs_server, make_service
    ):
        backend = Recorder()
        clock, _ = stepped_clock()
        service = make_service()
        async with AsyncSolveServer(
            service, workers=1, solve_fn=backend, clock=clock,
            analog_deadline_s=0.25,
        ) as server:
            tight = await server.submit(tiny_network(), deadline_s=0.1)
            loose = await server.submit(tiny_network(), deadline_s=10.0)
            bare = await server.submit(tiny_network())
        assert tight.backend == "analog"
        assert loose.backend == "kernel"
        assert bare.backend == "kernel"
        assert [r.backend for r in backend.calls] == ["analog", "kernel", "kernel"]

    async def test_open_analog_breaker_flips_tight_deadlines_classical(
        self, obs_server
    ):
        backend = Recorder()
        clock, _ = stepped_clock()
        async with AsyncSolveServer(
            open_analog_breaker(BatchSolveService(failover=True)),
            workers=1, solve_fn=backend,
            clock=clock,
        ) as server:
            tight = await server.submit(tiny_network(), deadline_s=0.1)
        assert tight.backend == "kernel"
        assert backend.calls[0].backend == "kernel"

    async def test_tight_deadlines_return_to_analog_once_the_cooldown_passes(
        self, obs_server
    ):
        backend = Recorder()
        clock, _ = stepped_clock()
        service = open_analog_breaker(BatchSolveService(failover=True))
        async with AsyncSolveServer(
            service, workers=1, solve_fn=backend, clock=clock,
        ) as server:
            before = await server.submit(distinct_network(0), deadline_s=0.1)
            service.failover.breaker_for("analog").cooldown_s = 0.0
            after = await server.submit(distinct_network(1), deadline_s=0.1)
        assert before.backend == "kernel"
        assert after.backend == "analog"  # the half-open probe
        assert [r.backend for r in backend.calls] == ["kernel", "analog"]

    async def test_only_the_analog_breaker_steers_the_router(self, obs_server):
        backend = Recorder()
        clock, _ = stepped_clock()
        service = BatchSolveService(failover=True)
        for name in ("kernel", "dinic"):
            breaker = service.failover.breaker_for(name)
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
        async with AsyncSolveServer(
            service, workers=1, solve_fn=backend, clock=clock,
        ) as server:
            tight = await server.submit(distinct_network(0), deadline_s=0.1)
            loose = await server.submit(distinct_network(1), deadline_s=10.0)
        assert tight.backend == "analog"
        assert loose.backend == "kernel"

    async def test_open_analog_breaker_leaves_other_requests_alone(
        self, obs_server
    ):
        backend = Recorder()
        clock, _ = stepped_clock()
        async with AsyncSolveServer(
            open_analog_breaker(BatchSolveService(failover=True)),
            workers=1, solve_fn=backend, clock=clock,
        ) as server:
            loose = await server.submit(distinct_network(0), deadline_s=10.0)
            bare = await server.submit(distinct_network(1))
            named = await server.submit(distinct_network(2), backend="dinic")
        assert [loose.backend, bare.backend, named.backend] == [
            "kernel", "kernel", "dinic"
        ]
        assert all(r.status == 200 for r in (loose, bare, named))

    async def test_each_server_reads_its_own_services_breaker(self, obs_server):
        clock, _ = stepped_clock()
        tight = {}
        for label, service in (
            ("tripped", open_analog_breaker(BatchSolveService(failover=True))),
            ("healthy", BatchSolveService(failover=True)),
        ):
            async with AsyncSolveServer(
                service, workers=1, solve_fn=Recorder(), clock=clock,
            ) as server:
                tight[label] = await server.submit(tiny_network(), deadline_s=0.1)
        assert tight["tripped"].backend == "kernel"
        assert tight["healthy"].backend == "analog"

    async def test_explicit_backend_bypasses_router(self, obs_server):
        backend = Recorder()
        clock, _ = stepped_clock()
        async with AsyncSolveServer(
            open_analog_breaker(BatchSolveService(failover=True)),
            workers=1, solve_fn=backend,
            clock=clock,
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
        """End-to-end: mixed seeded traffic, analog's breaker opens mid-stream."""
        backend = Recorder()
        clock, _ = stepped_clock()
        service = BatchSolveService(failover=True)
        async with AsyncSolveServer(
            service, workers=2, solve_fn=backend, clock=clock,
        ) as server:
            # Phase 1 — closed breaker: every tight deadline routes analog.
            phase1 = [
                await server.submit(
                    distinct_network(i), tenant=f"t{rng.randrange(3)}",
                    deadline_s=rng.choice([0.05, 0.1]),
                )
                for i in range(10)
            ]
            assert [r.backend for r in phase1] == ["analog"] * 10
            # Mid-stream incident: analog's breaker opens.
            open_analog_breaker(service)
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


class TestExactLane:
    """Classical requests share one lane, taking turns one request at a time."""

    async def test_lane_holds_exact_requests_but_not_analog(self, obs_server):
        backend = Recorder(gated=True)
        clock, _ = stepped_clock()
        async with AsyncSolveServer(
            workers=2, solve_fn=backend, coalesce=False, clock=clock,
        ) as server:
            first = asyncio.ensure_future(
                server.submit(distinct_network(0), backend="kernel")
            )
            await backend.started.wait()  # gated on the lane
            second = asyncio.ensure_future(
                server.submit(distinct_network(1), backend="dinic")
            )
            analog = asyncio.ensure_future(
                server.submit(distinct_network(2), backend="analog")
            )
            # The analog request, queued behind the second exact one,
            # starts on the idle worker; the exact one waits for the lane.
            await spin_until(lambda: len(backend.calls) == 2)
            for _ in range(50):
                await asyncio.sleep(0)
            assert [r.backend for r in backend.calls] == ["kernel", "analog"]
            assert server.stats()["queue_depth"] == 1
            backend.gate.set()
            responses = await asyncio.gather(first, second, analog)
        assert [r.backend for r in backend.calls] == ["kernel", "analog", "dinic"]
        assert all(r.status == 200 for r in responses)

    async def test_lane_takes_one_request_per_turn_in_queue_order(
        self, obs_server
    ):
        backend = Recorder(gated=True)
        clock, advance = stepped_clock()

        async def ticking(request) -> SolveResult:
            advance(1.0)  # every solve takes one virtual second
            return await backend(request)

        async with AsyncSolveServer(
            workers=1, solve_fn=ticking, coalesce=False, clock=clock,
        ) as server:
            head = asyncio.ensure_future(
                server.submit(distinct_network(0), backend="kernel", tag="head")
            )
            await backend.started.wait()
            plan = [
                ("k1", distinct_network(1), "kernel"),
                ("d1", distinct_network(2), "dinic"),
                ("x", other_shape_network(), "kernel"),
                ("k2", distinct_network(3), "kernel"),
            ]
            queued = {
                tag: asyncio.ensure_future(
                    server.submit(network, backend=engine, tag=tag)
                )
                for tag, network, engine in plan
            }
            await spin_until(lambda: server.stats()["queue_depth"] == len(plan))
            backend.gate.set()
            responses = {tag: await task for tag, task in queued.items()}
            await head
        # Engine and shape do not matter: each request takes its own turn.
        assert [r.tag for r in backend.calls] == ["head", "k1", "d1", "x", "k2"]
        # Queued after the head's solve began (t = 1), taken one per second.
        assert [responses[t].queued_s for t in ("k1", "d1", "x", "k2")] == [
            0.0, 1.0, 2.0, 3.0,
        ]
        assert all(r.status == 200 for r in responses.values())

    async def test_request_expiring_behind_a_gated_solve_answers_504(
        self, obs_server
    ):
        backend = Recorder(gated=True, gated_tags={"m1"})
        clock, advance = stepped_clock()
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False, clock=clock,
        ) as server:
            tasks = [
                asyncio.ensure_future(server.submit(
                    distinct_network(i), backend="kernel", tag=f"m{i}",
                    deadline_s=1.0 if i == 2 else None,
                ))
                for i in (1, 2, 3)
            ]
            await backend.started.wait()  # m1 runs, m2 and m3 wait for the lane
            await spin_until(lambda: server.stats()["queue_depth"] == 2)
            advance(2.0)  # m2's budget passes while m1 is gated
            backend.gate.set()
            first, doomed, last = await asyncio.gather(*tasks)
        assert [r.tag for r in backend.calls] == ["m1", "m3"]
        assert (first.status, doomed.status, last.status) == (200, 504, 200)
        assert doomed.result is None
        assert "deadline" in doomed.detail and "expired" in doomed.detail

    async def test_member_that_raises_answers_500_beside_its_mates(
        self, obs_server
    ):
        backend = Recorder(failing_tags={"m2"})
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False,
        ) as server:
            responses = await asyncio.gather(*[
                server.submit(distinct_network(i), backend="kernel", tag=f"m{i}")
                for i in (1, 2, 3)
            ])
        assert [r.tag for r in backend.calls] == ["m1", "m2", "m3"]
        assert [r.status for r in responses] == [200, 500, 200]
        assert responses[1].detail == "AlgorithmError: m2 failed"

    async def test_mates_share_the_head_priority(self, obs_server):
        backend = Recorder(gated=True, gated_tags={"blocker"})
        async with AsyncSolveServer(
            workers=1, solve_fn=backend, coalesce=False,
        ) as server:
            blocker = asyncio.ensure_future(server.submit(
                distinct_network(0), backend="kernel", tag="blocker"
            ))
            await backend.started.wait()
            plan = [
                ("hi", distinct_network(1), 2),
                ("hi-x", other_shape_network(), 2),
                ("lo1", distinct_network(2), 0),
                ("lo2", distinct_network(3), 0),
            ]
            queued = [
                asyncio.ensure_future(server.submit(
                    network, backend="kernel", tag=tag, priority=priority
                ))
                for tag, network, priority in plan
            ]
            await spin_until(lambda: server.stats()["queue_depth"] == len(plan))
            backend.gate.set()
            responses = await asyncio.gather(blocker, *queued)
        # The priority-0 requests of the head's shape do not ride along
        # ahead of the priority-2 request of another shape.
        assert [r.tag for r in backend.calls] == [
            "blocker", "hi", "hi-x", "lo1", "lo2",
        ]
        assert all(r.status == 200 for r in responses)

    async def test_kernel_solves_name_their_core(self, obs_server):
        networks = [tiny_network(capacity) for capacity in (3.0, 0.002, 4000.0)]
        async with AsyncSolveServer(workers=1, coalesce=False) as server:
            responses = await asyncio.gather(*[
                server.submit(network, backend="kernel") for network in networks
            ])
        assert [r.result.flow_value for r in responses] == [3.0, 0.002, 4000.0]

        def walk(span):
            yield span
            for child in span.children:
                yield from walk(child)

        rounds = [
            (span.attributes["kernel_rounds"], span.attributes["kernel_routed"])
            for root in recent_traces() for span in walk(root)
            if "kernel_rounds" in span.attributes
        ]
        # One span per request; integral capacities take one exact round,
        # the real one a round whose leftover is routed.
        assert rounds == [(1, False), (1, True), (1, False)]


class TestSyncSolveFn:
    async def test_sync_solve_fn_runs_off_the_event_loop(self, obs_server):
        threads = []

        def sync_fake(request) -> SolveResult:
            threads.append(threading.current_thread().name)
            return SolveResult(request=request, flow_value=1.0, edge_flows={0: 1.0})

        async with AsyncSolveServer(workers=1, solve_fn=sync_fake) as server:
            response = await server.submit(tiny_network(), backend="kernel")
        assert response.status == 200
        assert threads and threads[0] != threading.current_thread().name

    async def test_sync_solve_fn_through_the_service(self, obs_server):
        service = BatchSolveService(executor="serial")

        def through_service(request) -> SolveResult:
            return service.solve(
                request.network, backend=request.backend, **request.options
            )

        async with AsyncSolveServer(
            workers=1, coalesce=False, solve_fn=through_service,
        ) as server:
            responses = await asyncio.gather(*[
                server.submit(tiny_network(capacity), backend="kernel")
                for capacity in (1.0, 2.0, 3.0)
            ])
        assert [r.result.flow_value for r in responses] == [1.0, 2.0, 3.0]

    async def test_sync_wrapper_of_an_async_fake_is_awaited(self, obs_server):
        backend = Recorder()
        async with AsyncSolveServer(
            workers=1, solve_fn=lambda request: backend(request),
        ) as server:
            response = await server.submit(tiny_network(), backend="kernel")
        assert response.status == 200
        assert len(backend.calls) == 1
