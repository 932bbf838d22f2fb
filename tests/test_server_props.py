"""Seeded randomized soak of the serving front door.

Two system-level properties the unit suite cannot pin:

* **Conformance under traffic.**  A few hundred seeded mixed requests
  pushed through :class:`~repro.service.server.AsyncSolveServer` in
  concurrent waves (tenants, priorities, duplicate-heavy so coalescing
  engages, and every instance also sent at 1e-3 and 1e3 times its
  capacities so kernel requests of one shape fuse across scales) must
  produce *per-request* flow values identical — within the conformance
  gate's per-backend-family tolerances — to direct
  :class:`~repro.service.batch.BatchSolveService` calls on the same
  instances, and flows that certify.  The front door may reorder,
  coalesce, fuse and route; it may never change an answer.

* **Zero dropped futures on cancellation.**  Cancelling individual
  waiters of a coalesced in-flight solve must never cancel the shared
  solve out from under the surviving waiters, and the server's internal
  maps must drain to empty.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest

from conformance import TOLERANCES, build_corpus, relative_gap, scaled_network
from seeding import derive_seed

from repro.resilience.failover import certify_flow_result
from repro.service import AsyncSolveServer, BatchSolveService
from repro.service.api import SolveResult


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def scaled_copy(inst, factor: float):
    """``inst`` with every capacity times ``factor`` (same shape, new name)."""
    return replace(
        inst, name=f"{inst.name}x{factor:g}",
        network=scaled_network(inst.network, factor),
        reference_value=inst.reference_value * factor,
    )


class TestSoakConformance:
    def _family(self, backend: str) -> str:
        return "analog" if backend == "analog" else "classical"

    async def test_soak_matches_direct_service_calls(self, corpus):
        rng = random.Random(derive_seed("server-soak"))
        service = BatchSolveService(executor="serial")
        classical = corpus + [
            scaled_copy(inst, factor) for inst in corpus for factor in (1e-3, 1e3)
        ]
        analog_ok = [
            inst for inst in corpus
            if inst.analog_ok and inst.network.num_edges <= 12
        ]

        # ~300 requests: duplicate-heavy (27 instances in 9 shapes, 3
        # classical backends) so coalescing engages inside every concurrent
        # wave, and same-shape kernel requests at different scales fuse.
        plan = []
        for _ in range(280):
            if analog_ok and rng.random() < 0.25:
                inst = rng.choice(analog_ok)
                backend = "analog"
            else:
                inst = rng.choice(classical)
                backend = rng.choice(["dinic", "push-relabel", "kernel"])
            plan.append((inst, backend, f"tenant-{rng.randrange(4)}",
                         rng.randrange(3)))

        # Direct reference values, one per (instance, backend) pair.
        reference = {}
        for inst, backend, _, _ in plan:
            key = (inst.name, backend)
            if key not in reference:
                result = service.solve(inst.network, backend=backend)
                assert result.ok, (key, result.error)
                reference[key] = result.flow_value

        responses = []
        async with AsyncSolveServer(workers=4) as server:
            wave = 40
            for start in range(0, len(plan), wave):
                batch = plan[start:start + wave]
                responses.extend(await asyncio.gather(*[
                    server.submit(inst.network, backend=backend,
                                  tenant=tenant, priority=priority)
                    for inst, backend, tenant, priority in batch
                ]))

        assert len(responses) == len(plan)
        stats = server.stats()
        assert stats["shed"] == 0  # bounded queues never overflowed
        assert stats["coalesced"] > 0  # duplicate-heavy waves did coalesce
        for (inst, backend, _, _), response in zip(plan, responses):
            assert response.status == 200, (inst.name, backend,
                                            response.detail)
            result = response.result
            certify_flow_result(
                inst.network, result.flow_value, result.edge_flows,
                exact=backend != "analog",
            )
            gap = relative_gap(response.result.flow_value,
                               reference[(inst.name, backend)])
            tolerance = TOLERANCES[self._family(backend)]
            assert gap <= tolerance, (
                f"{inst.name}/{backend}: served {response.result.flow_value!r} "
                f"vs direct {reference[(inst.name, backend)]!r} "
                f"(gap {gap:.2e} > {tolerance:g})"
            )

    async def test_coalesced_answers_equal_leader_answers(self, corpus):
        # Every coalesced follower must see the exact result object the
        # leader's solve produced — same value, no re-solve drift.
        inst = next(i for i in corpus if i.name == "grid-3x5")
        async with AsyncSolveServer(workers=2) as server:
            responses = await asyncio.gather(*[
                server.submit(inst.network, backend="dinic")
                for _ in range(12)
            ])
        values = {r.result.flow_value for r in responses}
        assert len(values) == 1
        assert relative_gap(values.pop(), inst.reference_value) <= 1e-9
        assert sum(1 for r in responses if r.coalesced) >= 1


class TestCancellation:
    async def test_cancelled_waiters_never_drop_the_shared_future(self):
        from test_server import Recorder, spin_until, tiny_network

        backend = Recorder(gated=True)
        g = tiny_network()
        async with AsyncSolveServer(workers=1, solve_fn=backend) as server:
            waiters = [
                asyncio.ensure_future(server.submit(g, backend="dinic"))
                for _ in range(20)
            ]
            await spin_until(
                lambda: server.stats()["waiting"] == 20
                and backend.started.is_set()
            )
            # Cancel half the waiters, the leader's included (index 0) —
            # the shared in-flight solve must survive for the rest.
            doomed, surviving = waiters[:10], waiters[10:]
            for task in doomed:
                task.cancel()
            await asyncio.gather(*doomed, return_exceptions=True)
            assert all(task.cancelled() for task in doomed)
            backend.gate.set()
            responses = await asyncio.gather(*surviving)
        assert len(backend.calls) == 1
        assert all(r.status == 200 for r in responses)
        assert all(r.result.flow_value == 1.0 for r in responses)
        stats = server.stats()
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0
        assert stats["waiting"] == 0

    async def test_cancelling_every_waiter_still_completes_the_solve(self):
        from test_server import Recorder, spin_until, tiny_network

        backend = Recorder(gated=True)
        g = tiny_network()
        async with AsyncSolveServer(workers=1, solve_fn=backend) as server:
            waiters = [
                asyncio.ensure_future(server.submit(g, backend="dinic"))
                for _ in range(5)
            ]
            await spin_until(
                lambda: server.stats()["waiting"] == 5
                and backend.started.is_set()
            )
            for task in waiters:
                task.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            backend.gate.set()
            # The orphaned solve still runs to completion and unregisters.
            await spin_until(lambda: server.stats()["inflight"] == 0)
        assert len(backend.calls) == 1
        assert server.stats()["queue_depth"] == 0

    async def test_fresh_request_after_orphaned_solve_gets_fresh_result(self):
        from test_server import tiny_network

        calls = []

        async def counting(request) -> SolveResult:
            calls.append(request)
            return SolveResult(request=request, flow_value=float(len(calls)),
                               edge_flows={0: 1.0})

        g = tiny_network()
        async with AsyncSolveServer(workers=1, solve_fn=counting) as server:
            task = asyncio.ensure_future(server.submit(g, backend="dinic"))
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            response = await server.submit(g, backend="dinic")
        assert response.status == 200
        assert server.stats()["inflight"] == 0
