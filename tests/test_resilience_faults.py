"""Fault-injection matrix: every service x every fault class.

The contract under test (docs/architecture.md): for each cell of
(batch, streaming, sharded, problems) x (convergence, singular, error,
stall + deadline, corrupt), the service either

* **recovers** — returns a result equal to the fault-free reference (exact
  for classical fallbacks, within the analog tolerance otherwise), marked
  ``degraded`` where a fallback ran — or
* **fails typed** — raises / reports a :class:`~repro.errors.ReproError`
  subclass (never a bare Exception, never a silent wrong answer),

and never hangs: stalls are bounded by tiny deadlines.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import FlowNetwork, errors, grid_graph
from repro.analog import AnalogMaxFlowSolver
from repro.config import SubstrateParameters
from repro.errors import (
    AlgorithmError,
    CertificateError,
    ConfigurationError,
    InfeasibleFlowError,
    ReproError,
    SolveTimeoutError,
)
from repro.flows.dinic import Dinic
from repro.flows.kernel import KernelDinic
from repro.flows.registry import DEFAULT_EXACT_ALGORITHM
from repro.graph.updates import CapacityUpdate
from repro.obs import get_registry, probes, reset_metrics, set_obs_enabled
from repro.resilience import Deadline, deadline_scope
from repro.resilience.failover import (
    FailoverPolicy,
    certify_flow_result,
    degradation_chain,
    solve_with_failover,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    corrupt_value,
    fault_point,
    inject_faults,
)
from repro.service import AsyncSolveServer, BatchSolveService, SolveRequest
from repro.service.backends import create_backend
from repro.service.problems import ProblemSolveService
from repro.service.streaming import StreamingSession

RAISING_KINDS = ["convergence", "singular", "error"]
EXACT = 1e-9
ANALOG_RTOL = 0.1  # warm resolves drift a few percent more than solve()


def certificate_grade_analog():
    """Unquantized adaptive-drive solver: accurate enough that an inflated
    readout violates saturated min-cut capacities (the detection premise)."""
    return AnalogMaxFlowSolver(quantize=False, adaptive_drive=True)


def analog_session(network, **kwargs):
    """Streaming session on the compiled/resolve analog path.

    ``resolve()`` reuses the compiled drive voltage (adaptive drive only
    applies in ``solve()``), so the session's unquantized solver sets a
    drive big enough for the instance — 6 V saturates a unit-capacity grid.
    """
    return StreamingSession(
        network,
        backend="analog",
        analog_solver=AnalogMaxFlowSolver(
            quantize=False, parameters=SubstrateParameters(vflow_v=6.0)
        ),
        **kwargs,
    )


@pytest.fixture()
def network():
    return grid_graph(3, 4, capacity=4.0, seed=11)


@pytest.fixture()
def reference(network):
    return Dinic().solve(network).flow_value


# ---------------------------------------------------------------------------
# Injector unit behaviour
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(kind="meteor")
        with pytest.raises(ConfigurationError):
            FaultPlan(kind="corrupt", relative_error=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(kind="stall", times=-1)

    def test_spec_parsing_and_wildcards(self):
        injector = FaultInjector.from_spec(
            "kind=convergence,backend=analog,times=2;kind=corrupt,relative_error=0.5"
        )
        assert len(injector.plans) == 2
        assert injector.plans[0].matches("batch-solve", "analog")
        assert not injector.plans[0].matches("batch-solve", "dinic")
        assert injector.plans[1].matches("anything", "anything")

    def test_bad_spec_keys_are_typed_errors(self):
        with pytest.raises(ConfigurationError):
            FaultInjector.from_spec("kind=stall,wibble=1")
        with pytest.raises(ConfigurationError):
            FaultInjector.from_spec("backend=analog")  # no kind

    def test_times_and_skip_counters(self):
        plan = FaultPlan(kind="error", times=2, skip=1)
        with inject_faults(plan):
            fault_point("site", "b")  # skipped
            with pytest.raises(ReproError):
                fault_point("site", "b")
            with pytest.raises(ReproError):
                fault_point("site", "b")
            fault_point("site", "b")  # budget of 2 spent
        assert plan.matched == 4 and plan.fired == 2

    def test_corrupt_always_inflates(self):
        with inject_faults("kind=corrupt,relative_error=0.5,times=0"):
            assert corrupt_value("analog-readout", "analog", 2.0) == pytest.approx(3.0)
        assert corrupt_value("analog-readout", "analog", 2.0) == 2.0  # inactive

    def test_env_var_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kind=error,site=env-only,times=1")
        with pytest.raises(ReproError):
            fault_point("env-only", "x")
        fault_point("env-only", "x")  # fired once, now spent
        monkeypatch.setenv("REPRO_FAULT_PLAN", "")
        fault_point("env-only", "x")

    def test_context_manager_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kind=error,times=0")
        with inject_faults("kind=error,site=elsewhere,times=0"):
            fault_point("here", "x")  # override only matches 'elsewhere'
        with pytest.raises(ReproError):
            fault_point("here", "x")  # env plan visible again


# ---------------------------------------------------------------------------
# Batch service
# ---------------------------------------------------------------------------


class TestBatchMatrix:
    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_analog_fault_degrades_to_exact(self, network, reference, kind):
        service = BatchSolveService(failover=True)
        with inject_faults(f"kind={kind},site=batch-solve,backend=analog,times=0"):
            report = service.solve_batch(
                [SolveRequest(network=network, backend="analog")]
            )
        result = report.results[0]
        assert result.ok and result.degraded
        assert result.failover_trail
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert report.num_degraded == 1

    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_without_failover_failures_are_typed_entries(self, network, kind):
        service = BatchSolveService()
        with inject_faults(f"kind={kind},site=batch-solve,times=0"):
            report = service.solve_batch(
                [SolveRequest(network=network, backend="dinic")]
            )
        result = report.results[0]
        assert not result.ok
        assert result.error_type in (
            "ConvergenceError", "SingularCircuitError", "FaultInjectedError"
        )
        assert report.error_counts()[result.error_type] == 1

    def test_transient_fault_is_absorbed_by_failover_retry(self, network, reference):
        service = BatchSolveService(failover=True)
        with inject_faults("kind=convergence,site=batch-solve,backend=dinic,times=1"):
            result = service.solve(network, backend="dinic")
        assert result.ok
        assert result.flow_value == pytest.approx(reference, abs=EXACT)

    def test_stall_bounded_by_deadline(self, network):
        service = BatchSolveService()
        with inject_faults("kind=stall,site=batch-solve,stall_s=5.0,times=0"):
            report = service.solve_batch(
                [SolveRequest(network=network, backend="dinic")], deadline=0.05
            )
        result = report.results[0]
        assert not result.ok
        assert result.error_type == "SolveTimeoutError"

    def test_deadline_bounds_the_whole_failover_walk(self):
        # Each analog attempt stalls 0.25 s and then fails: a budget opened
        # per attempt would let the walk reach kernel after ~0.5 s.
        service = BatchSolveService(failover=True)
        with inject_faults(
            "kind=stall,backend=analog,site=batch-solve,stall_s=0.25,times=0;"
            "kind=convergence,backend=analog,site=batch-solve,times=0"
        ):
            result = service.solve(
                grid_graph(6, 8, capacity=1.0, seed=3),
                backend="analog",
                deadline_s=0.3,
            )
        assert not result.ok
        assert result.error_type == "SolveTimeoutError"
        assert result.backend == "analog"  # kernel never ran

    def test_corrupt_readout_is_rejected_then_degraded(self, network, reference):
        # Two requests on two workers, so the pooled branch runs too.
        for executor in ("serial", "thread"):
            service = BatchSolveService(
                executor=executor,
                max_workers=2,
                failover=True,
                analog_solver=certificate_grade_analog(),
            )
            with inject_faults(
                "kind=corrupt,site=analog-readout,relative_error=0.5,times=0"
            ):
                report = service.solve_batch(
                    [SolveRequest(network=network, backend="analog")] * 2
                )
            # Validation must refuse the corrupted analog answer and hand
            # the request to an exact fallback — never the inflated value.
            assert report.num_degraded == 2, executor
            for result in report.results:
                assert result.ok and result.degraded
                assert result.flow_value == pytest.approx(reference, abs=EXACT)
                assert any("Infeasible" in step for step in result.failover_trail)

    def test_thread_executor_cells_recover_too(self, network, reference):
        service = BatchSolveService(executor="thread", max_workers=2, failover=True)
        with inject_faults("kind=singular,site=batch-solve,backend=analog,times=0"):
            report = service.solve_batch(
                [SolveRequest(network=network, backend="analog") for _ in range(3)]
            )
        assert report.num_failed == 0
        for result in report.results:
            assert result.flow_value == pytest.approx(reference, abs=EXACT)


class TestServerDeadlines:
    """The server's deadline covers queue wait and every failover attempt."""

    async def test_deadline_bounds_the_whole_failover_walk(self):
        # Each analog attempt stalls 0.25 s and then fails: a budget opened
        # per attempt would let the walk reach kernel after ~0.5 s.
        network = grid_graph(6, 8, capacity=1.0, seed=3)
        async with AsyncSolveServer(workers=1) as server:
            with inject_faults(
                "kind=stall,backend=analog,site=batch-solve,stall_s=0.25,times=0;"
                "kind=convergence,backend=analog,site=batch-solve,times=0"
            ):
                response = await server.submit(
                    network, backend="analog", deadline_s=0.3
                )
        assert response.status == 504
        assert response.result.error_type == "SolveTimeoutError"

    async def test_queue_wait_is_spent_from_the_solve_budget(self):
        # The second request waits ~0.2 s behind the first, so it reaches
        # the solver with ~0.1 s left: too little for the 0.2 s stall.
        network = grid_graph(6, 8, capacity=1.0, seed=3)
        async with AsyncSolveServer(workers=1, coalesce=False) as server:
            with inject_faults(
                "kind=stall,backend=kernel,site=batch-solve,stall_s=0.2,times=0"
            ):
                first, second = await asyncio.gather(
                    server.submit(network, backend="kernel"),
                    server.submit(network, backend="kernel", deadline_s=0.3),
                )
        assert first.status == 200
        assert second.status == 504
        assert second.result.error_type == "SolveTimeoutError"


class TestHonestChains:
    """Every chain hop runs a different engine from the one that failed."""

    @pytest.fixture()
    def engine_calls(self, monkeypatch):
        """Make the kernel raise; count kernel and reference Dinic calls."""
        calls = {"kernel": 0, "dinic": 0}
        dinic_solve = Dinic.solve

        def broken_kernel(self, network, validate=False):
            calls["kernel"] += 1
            raise AlgorithmError("kernel unavailable")

        def counting_dinic(self, network, validate=False):
            calls["dinic"] += 1
            return dinic_solve(self, network, validate=validate)

        monkeypatch.setattr(KernelDinic, "solve", broken_kernel)
        monkeypatch.setattr(Dinic, "solve", counting_dinic)
        return calls

    def test_failing_kernel_is_answered_by_reference_dinic(
        self, network, reference, engine_calls
    ):
        service = BatchSolveService(failover=True, executor="serial")
        result = service.solve(network, backend="kernel")
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert engine_calls["dinic"] == 1

    def test_dinic_never_runs_the_kernel(self, network, reference, engine_calls):
        service = BatchSolveService(failover=True, executor="serial")
        result = service.solve(network, backend="dinic")
        assert result.ok and not result.degraded
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert engine_calls["kernel"] == 0

    def test_persistent_analog_fault_ends_on_dinic(
        self, network, reference, engine_calls
    ):
        service = BatchSolveService(failover=True, executor="serial")
        with inject_faults("kind=error,site=batch-solve,backend=analog,times=0"):
            result = service.solve(network, backend="analog")
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert engine_calls["kernel"] >= 1


class TestBreakerVerdict:
    """One health signal: the chain walk and the router read the breaker."""

    @pytest.fixture()
    def obs_on(self):
        previous = set_obs_enabled(True)
        reset_metrics()
        yield
        set_obs_enabled(previous)
        reset_metrics()

    @staticmethod
    def open_breaker(policy: FailoverPolicy, backend: str) -> None:
        breaker = policy.breaker_for(backend)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert not policy.healthy(backend)

    @pytest.mark.parametrize("opened", [("kernel",), ("kernel", "dinic")])
    def test_open_breaker_is_skipped_but_the_last_resort_runs(
        self, network, reference, obs_on, opened
    ):
        policy = FailoverPolicy()
        for name in opened:
            self.open_breaker(policy, name)
        assert degradation_chain("kernel")[-1] == "dinic"
        result = solve_with_failover(
            SolveRequest(network=network, backend="kernel"), policy, create_backend
        )
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert result.failover_trail == ["kernel: circuit breaker open"]
        registry = get_registry()
        assert registry.get_counter(
            probes.EVENT_FAILOVER_HOP, backend="kernel", outcome="breaker-open"
        ) == 1.0
        assert registry.get_counter(probes.EVENT_SOLVE, backend="kernel") == 0.0
        assert registry.get_counter(probes.EVENT_SOLVE, backend="dinic") == 1.0

    def test_expired_deadline_aborts_chain_before_any_attempt(self, network, obs_on):
        deadline = Deadline(5.0)
        # Rewind the absolute expiry: the budget is already spent, with no
        # sleeping and no dependence on how fast this test runs.
        deadline._expires_at = time.monotonic() - 1.0
        assert deadline.expired()
        with deadline_scope(deadline):
            result = solve_with_failover(
                SolveRequest(network=network, backend="kernel"),
                FailoverPolicy(),
                create_backend,
            )
        assert not result.ok
        assert result.error_type == "SolveTimeoutError"
        assert result.failover_trail == [
            "kernel: not attempted, deadline expired"
        ]
        assert get_registry().get_counter(
            probes.EVENT_FAILOVER_HOP, backend="kernel",
            outcome="deadline-expired",
        ) == 1.0

    @pytest.mark.parametrize(
        "backend", ["analog", "kernel", "dinic", "push-relabel", "sharded:dinic"]
    )
    def test_fully_open_chain_runs_only_the_last_resort(
        self, network, reference, obs_on, backend
    ):
        chain = degradation_chain(backend)
        policy = FailoverPolicy()
        for name in chain:
            self.open_breaker(policy, name)
        result = solve_with_failover(
            SolveRequest(network=network, backend=backend), policy, create_backend
        )
        assert result.ok and result.degraded
        assert result.request.backend == chain[-1]
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert result.failover_trail == [
            f"{name}: circuit breaker open" for name in chain[:-1]
        ]
        registry = get_registry()
        for name in chain[:-1]:
            assert registry.get_counter(
                probes.EVENT_FAILOVER_HOP, backend=name, outcome="breaker-open"
            ) == 1.0, name
            assert registry.get_counter(probes.EVENT_SOLVE, backend=name) == 0.0

    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_persistent_fault_opens_the_breaker_for_later_requests(
        self, network, reference, kind
    ):
        plan = FaultPlan(kind=kind, backend="kernel", site="batch-solve", times=0)
        policy = FailoverPolicy()
        request = SolveRequest(network=network, backend="kernel")
        threshold = policy.breaker_for("kernel").failure_threshold
        per_request = policy.retry.max_attempts
        with inject_faults(plan):
            early = [
                solve_with_failover(request, policy, create_backend)
                for _ in range(threshold // per_request)
            ]
            assert not policy.healthy("kernel")
            fired = plan.fired
            late = solve_with_failover(request, policy, create_backend)
        assert fired == threshold
        for result in early + [late]:
            assert result.ok and result.degraded
            assert result.request.backend == "dinic"
            assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert late.failover_trail == ["kernel: circuit breaker open"]
        assert plan.fired == fired  # the open breaker spared the kernel

    def test_failed_certifications_open_the_analog_breaker(self, network, reference):
        service = BatchSolveService(
            executor="serial", failover=True, analog_solver=certificate_grade_analog()
        )
        plan = FaultPlan(
            kind="corrupt", site="analog-readout", relative_error=0.5, times=0
        )
        with inject_faults(plan):
            for _ in range(2):
                result = service.solve(network, backend="analog")
                assert result.ok and result.degraded
                assert any("Infeasible" in step for step in result.failover_trail)
            assert not service.failover.healthy("analog")
            fired = plan.fired
            result = service.solve(network, backend="analog")
        assert result.ok and result.degraded
        assert result.request.backend == "kernel"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert result.failover_trail == ["analog: circuit breaker open"]
        assert plan.fired == fired

    def test_timeouts_open_the_breaker(self, network, reference):
        service = BatchSolveService(executor="serial", failover=True)
        threshold = service.failover.breaker_for("kernel").failure_threshold
        with inject_faults("kind=stall,site=batch-solve,backend=kernel,stall_s=5.0,times=0"):
            for _ in range(threshold):
                result = service.solve(network, backend="kernel", deadline_s=0.05)
                assert result.error_type == "SolveTimeoutError"
        assert not service.failover.healthy("kernel")
        result = service.solve(network, backend="kernel")
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert result.failover_trail == ["kernel: circuit breaker open"]

    def test_a_successful_probe_after_the_cooldown_closes_the_breaker(
        self, network, reference
    ):
        policy = FailoverPolicy()
        self.open_breaker(policy, "kernel")
        breaker = policy.breaker_for("kernel")
        breaker.cooldown_s = 0.0  # the cooldown has passed
        result = solve_with_failover(
            SolveRequest(network=network, backend="kernel"), policy, create_backend
        )
        assert result.ok and not result.degraded
        assert result.request.backend == "kernel"
        assert result.failover_trail == []
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert breaker.state == breaker.CLOSED

    def test_each_service_walks_its_own_breakers(self, network, reference):
        tripped = BatchSolveService(executor="serial", failover=True)
        healthy = BatchSolveService(executor="serial", failover=True)
        self.open_breaker(tripped.failover, "kernel")
        skipped = tripped.solve(network, backend="kernel")
        direct = healthy.solve(network, backend="kernel")
        assert skipped.degraded and skipped.request.backend == "dinic"
        assert not direct.degraded and direct.request.backend == "kernel"
        for result in (skipped, direct):
            assert result.flow_value == pytest.approx(reference, abs=EXACT)

    async def test_open_analog_breaker_routes_tight_requests_exact(
        self, network, reference
    ):
        plan = FaultPlan(kind="error", backend="analog", site="batch-solve", times=0)
        service = BatchSolveService(failover=True)
        async with AsyncSolveServer(
            service, workers=1, analog_deadline_s=10.0
        ) as server:
            with inject_faults(plan):
                responses = [
                    await server.submit(network, deadline_s=5.0) for _ in range(4)
                ]
        # Two requests, two analog attempts each, open the breaker...
        for response in responses[:2]:
            assert response.status == 200 and response.backend == "analog"
            assert response.result.degraded
            assert response.result.request.backend == "kernel"
        assert plan.fired == 2 * service.failover.retry.max_attempts
        assert not service.failover.healthy("analog")
        # ...so the router sends the rest to the exact engine directly.
        for response in responses[2:]:
            assert response.status == 200 and response.backend == "kernel"
            assert not response.result.degraded
            assert response.result.failover_trail == []
            assert response.result.flow_value == pytest.approx(reference, abs=EXACT)


# ---------------------------------------------------------------------------
# Streaming sessions
# ---------------------------------------------------------------------------


class TestStreamingMatrix:
    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_classical_repair_fault_recovers_cold(self, network, kind):
        session = StreamingSession(network, backend="dinic", validate=True)
        with inject_faults(f"kind={kind},site=warm-repair,times=1"):
            delta = session.push([CapacityUpdate(0, 1.0)])
        edited = session.snapshot()
        assert delta.flow_value == pytest.approx(
            Dinic().solve(edited).flow_value, abs=EXACT
        )
        assert session.degraded_pushes == 1

    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_analog_warm_fault_degrades_to_cold_recompile(self, kind):
        session = analog_session(grid_graph(3, 4, capacity=1.0, seed=11))
        with inject_faults(f"kind={kind},site=streaming-warm,times=1"):
            delta = session.push([CapacityUpdate(0, 0.5)])
        reference = Dinic().solve(session.snapshot()).flow_value
        assert not delta.warm
        assert session.degraded_pushes == 1
        assert delta.flow_value == pytest.approx(reference, rel=ANALOG_RTOL)

    def test_stall_bounded_by_deadline_session_stays_usable(self, network):
        session = StreamingSession(network, backend="dinic")
        with inject_faults("kind=stall,site=warm-repair,stall_s=5.0,times=1"):
            with pytest.raises(SolveTimeoutError):
                session.push([CapacityUpdate(0, 1.0)], deadline=0.05)
        # The events were applied; the next push rebuilds cold and agrees
        # with an exact solve of the current revision.
        delta = session.push([CapacityUpdate(1, 2.0)])
        assert delta.flow_value == pytest.approx(
            Dinic().solve(session.snapshot()).flow_value, abs=EXACT
        )

    @pytest.mark.parametrize("backend", ["dinic", "analog"])
    def test_retried_push_after_a_failed_one_solves_the_current_revision(
        self, backend
    ):
        kwargs = {}
        if backend == "analog":
            kwargs["analog_solver"] = AnalogMaxFlowSolver(quantize=False)
        session = StreamingSession(
            grid_graph(4, 5, capacity=1.0, seed=3),
            backend=backend,
            cold_ratio=1.0,
            **kwargs,
        )
        net = session.network
        events = [
            CapacityUpdate(e.index, 0.1) for e in net.edges() if e.tail == net.source
        ]
        with inject_faults("kind=stall,stall_s=5.0,times=0"):
            with pytest.raises(SolveTimeoutError):
                session.push(events, deadline=0.01)
        # The failed push already applied its events, so the retry changes
        # no capacity — yet the pre-edit answer must not come back.
        retry = session.push(events)
        reference = Dinic().solve(session.snapshot()).flow_value
        assert not retry.warm
        assert retry.flow_value == pytest.approx(reference, rel=1e-3)
        assert session.flow_value == retry.flow_value
        # With the session current again, an idempotent push is free.
        assert session.push(events).result is retry.result

    def test_corrupt_readout_validated_and_recovered(self):
        session = analog_session(
            grid_graph(3, 4, capacity=1.0, seed=11), validate=True
        )
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=1"
        ):
            delta = session.push([CapacityUpdate(0, 0.5)])
        reference = Dinic().solve(session.snapshot()).flow_value
        assert delta.flow_value == pytest.approx(reference, rel=ANALOG_RTOL)

    def test_validated_recovery_counts_the_push_once(self):
        session = analog_session(
            grid_graph(3, 4, capacity=1.0, seed=11), validate=True
        )
        assert session.summary()["pushes"] == 1
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=1"
        ):
            delta = session.push([CapacityUpdate(0, 0.5)])
        # The warm answer failed certification; the cold re-solve that
        # replaced it is the one solve this push counts.
        summary = session.summary()
        assert not delta.warm
        assert summary["pushes"] == 2
        assert (summary["warm_solves"], summary["cold_solves"]) == (0, 2)
        assert summary["degraded_pushes"] == 1

    def test_persistent_corruption_raises_typed_never_silent(self):
        session = analog_session(
            grid_graph(3, 4, capacity=1.0, seed=11), validate=True
        )
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=0"
        ):
            with pytest.raises(InfeasibleFlowError):
                session.push([CapacityUpdate(0, 0.5)])
        # Session recovers once the fault clears.
        delta = session.push([CapacityUpdate(1, 0.75)])
        reference = Dinic().solve(session.snapshot()).flow_value
        assert delta.flow_value == pytest.approx(reference, rel=ANALOG_RTOL)


# ---------------------------------------------------------------------------
# Sharded backend
# ---------------------------------------------------------------------------


class TestShardedMatrix:
    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_persistent_shard_fault_falls_back_unsharded(
        self, network, reference, kind
    ):
        service = BatchSolveService(executor="serial", failover=True)
        with inject_faults(f"kind={kind},site=shard-solve,times=0"):
            result = service.solve(network, backend="sharded:dinic", shards=2)
        assert result.ok and result.degraded
        assert result.backend == DEFAULT_EXACT_ALGORITHM
        assert result.failover_trail[0].startswith("sharded:dinic#1:")
        assert result.flow_value == pytest.approx(reference, abs=EXACT)
        assert result.edge_flows  # the fallback is a real, maximum flow
        certify_flow_result(network, result.flow_value, result.edge_flows)

    def test_transient_shard_fault_recovers_via_retry(self, network, reference):
        # No failover: only the per-shard retry inside the backend can recover.
        service = BatchSolveService(executor="serial")
        with inject_faults("kind=convergence,site=shard-solve,times=1"):
            result = service.solve(network, backend="sharded:dinic", shards=2)
        assert result.ok and not result.degraded
        assert result.backend == "sharded:dinic"
        assert result.flow_value == pytest.approx(reference, abs=EXACT)

    def test_stall_bounded_by_deadline_no_fallback(self, network):
        service = BatchSolveService(executor="serial", failover=True)
        with inject_faults("kind=stall,site=shard-solve,stall_s=5.0,times=0"):
            result = service.solve(
                network, backend="sharded:dinic", shards=2, deadline_s=0.05
            )
        assert not result.ok and not result.degraded
        assert result.error_type == "SolveTimeoutError"
        assert result.backend == "sharded:dinic"
        assert result.wall_time_s < 1.0

    def test_corrupt_cannot_touch_exact_sharded_solves(self, network, reference):
        # Corrupt faults only exist at analog readouts; a classical sharded
        # solve has none, so the answer must equal the reference untouched.
        service = BatchSolveService(executor="serial", failover=True)
        with inject_faults("kind=corrupt,relative_error=0.5,times=0"):
            result = service.solve(network, backend="sharded:dinic", shards=2)
        assert not result.degraded
        assert result.flow_value == pytest.approx(reference, abs=EXACT)

    @pytest.mark.parametrize("failover", [False, True])
    def test_analog_shard_readouts_pass_the_corrupt_hook(self, failover):
        network = grid_graph(3, 6, capacity=4.0, seed=5, capacity_jitter=0.2)
        exact = Dinic().solve(network).flow_value
        service = BatchSolveService(executor="serial", failover=failover)
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=0"
        ):
            result = service.solve(network, backend="sharded:analog", shards=2)
        # Inflated shard values lift the dual bound above the stitched cut,
        # so the bound bracket rejects the sharded answer.
        if failover:
            assert result.ok and result.degraded
            assert result.backend == DEFAULT_EXACT_ALGORITHM
            assert result.failover_trail[0].startswith(
                "sharded:analog#1: DecompositionError"
            )
            assert result.flow_value == pytest.approx(exact, abs=EXACT)
        else:
            assert not result.ok and not result.degraded
            assert result.error_type == "DecompositionError"

    def test_without_failover_fails_typed(self, network):
        service = BatchSolveService(executor="serial")
        with inject_faults("kind=singular,site=shard-solve,times=0"):
            result = service.solve(network, backend="sharded:dinic", shards=2)
        assert not result.ok and not result.degraded
        assert result.error_type == "SingularCircuitError"
        assert issubclass(getattr(errors, result.error_type), ReproError)


# ---------------------------------------------------------------------------
# Problems service
# ---------------------------------------------------------------------------


def _matching_problem():
    from repro.problems import BipartiteMatching

    return BipartiteMatching(
        ["a", "b", "c"],
        ["x", "y", "z"],
        [("a", "x"), ("b", "x"), ("b", "y"), ("c", "y"), ("c", "z")],
    )


class TestProblemsMatrix:
    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_backend_fault_walks_degradation_chain(self, kind):
        problem = _matching_problem()
        service = ProblemSolveService()
        baseline = service.solve(problem, backend="dinic")
        with inject_faults(f"kind={kind},site=batch-solve,backend=dinic,times=0"):
            solved = service.solve(problem, backend="dinic")
        assert solved.certified
        assert solved.result.degraded
        assert solved.value == pytest.approx(baseline.value, abs=EXACT)
        assert solved.report.backend != "dinic"

    def test_stall_bounded_by_deadline(self):
        service = ProblemSolveService()
        with inject_faults("kind=stall,site=batch-solve,stall_s=5.0,times=0"):
            with pytest.raises(SolveTimeoutError):
                service.solve(_matching_problem(), backend="dinic", deadline=0.05)

    def test_failed_sharded_solve_decodes_the_fallback_flow(self):
        problem = _matching_problem()
        service = ProblemSolveService()
        baseline = service.solve(problem, backend="dinic")
        with inject_faults("kind=error,site=shard-solve,times=0"):
            solved = service.solve(problem, backend="dinic", shards=2)
        assert solved.certified
        assert solved.result.degraded
        assert solved.report.backend == DEFAULT_EXACT_ALGORITHM
        assert solved.report.shards == 0  # no sharded solve produced it
        assert solved.report.decode_source == "backend"
        assert solved.value == pytest.approx(baseline.value, abs=EXACT)

    def test_corrupt_analog_fails_certificate_in_strict_mode(self):
        problem = _matching_problem()
        strict = ProblemSolveService(strict=True)
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=0"
        ):
            with pytest.raises(CertificateError):
                strict.solve(problem, backend="analog")

    def test_corrupt_analog_is_flagged_in_lenient_mode(self):
        problem = _matching_problem()
        service = ProblemSolveService()
        baseline = service.solve(problem, backend="dinic")
        with inject_faults(
            "kind=corrupt,site=analog-readout,relative_error=0.5,times=0"
        ):
            solved = service.solve(problem, backend="analog")
        # The decoded answer comes from the exact decode pass (correct), and
        # the failed cross-check is recorded — never a silent wrong answer.
        assert solved.value == pytest.approx(baseline.value, abs=EXACT)
        assert not solved.certified
        assert "backend-value-consistent" in solved.report.certificate_status

    def test_failover_disabled_fails_typed(self):
        service = ProblemSolveService(failover=False)
        with inject_faults("kind=convergence,site=batch-solve,backend=dinic,times=0"):
            with pytest.raises(ReproError):
                service.solve(_matching_problem(), backend="dinic")


# ---------------------------------------------------------------------------
# ParallelMap worker-exception context (satellite 3)
# ---------------------------------------------------------------------------


class TestParallelMapContext:
    def test_worker_exception_carries_item_index_and_description(self):
        from repro.service.batch import ParallelMap

        def explode(item):
            raise ValueError(f"boom on {item}")

        pool = ParallelMap(executor="thread", max_workers=2)
        with pytest.raises(ValueError) as info:
            pool.map(explode, ["alpha", "beta"], describe=lambda item: f"item={item}")
        notes = "".join(getattr(info.value, "__notes__", []) or [])
        combined = notes + str(info.value)
        assert "while processing item" in combined
        assert "item=" in combined
