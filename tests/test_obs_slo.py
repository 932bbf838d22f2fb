"""SLO engine gates: burn-rate verdicts and budget-aware failover routing.

The headline test is the acceptance scenario: a seeded fault plan drives
one backend's error budget to exhaustion on an injected clock, after
which ``solve_with_failover`` demonstrably *skips* that backend — the
skip appears in the failover trail, the ``slo.backend_skips`` counter,
and the backend's error counter stops growing.  Everything runs
deterministically: injected clocks, seeded fault plans, no sleeping.
"""

from __future__ import annotations

import pytest

from repro import FlowNetwork
from repro.obs import (
    MetricsRegistry,
    SloObjective,
    SloPolicy,
    clear_traces,
    get_registry,
    get_slo_policy,
    probes,
    reset_metrics,
    set_obs_enabled,
    set_slo_policy,
)
from repro.resilience import FailoverPolicy, inject_faults, solve_with_failover
from repro.resilience.faults import FaultPlan
from repro.service.api import SolveRequest
from repro.service.backends import create_backend


@pytest.fixture
def obs_slo():
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


def stepped_clock(start: float = 0.0):
    state = {"now": start}
    return (lambda: state["now"]), (lambda dt: state.__setitem__("now", state["now"] + dt))


def tiny_network() -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "a", 4.0)
    g.add_edge("a", "t", 2.0)
    return g


class TestSloObjective:
    def test_budgets_derive_from_targets(self):
        objective = SloObjective(availability=0.99, latency_s=0.5,
                                 latency_quantile=0.95)
        assert objective.error_budget == pytest.approx(0.01)
        assert objective.latency_budget == pytest.approx(0.05)

    @pytest.mark.parametrize("kwargs", [
        {"availability": 0.0},
        {"availability": 1.0},
        {"latency_quantile": 1.0},
        {"latency_s": -1.0},
    ])
    def test_invalid_objectives_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SloObjective(**kwargs)


class TestSloPolicyVerdicts:
    def _policy(self, reg, clock, **kwargs):
        kwargs.setdefault("objective", SloObjective(availability=0.95))
        kwargs.setdefault("min_requests", 2)
        return SloPolicy(registry=reg, clock=clock, **kwargs)

    def test_unproven_backend_is_healthy(self, obs_slo):
        reg = MetricsRegistry()
        clock, _ = stepped_clock()
        policy = self._policy(reg, clock)
        health = policy.health("dinic")
        assert health.verdict == "healthy" and not health.should_skip
        assert "unproven" in health.reason

    def test_sustained_total_failure_exhausts_budget(self, obs_slo):
        reg = MetricsRegistry()
        clock, advance = stepped_clock()
        policy = self._policy(reg, clock)
        policy.observe()
        advance(60.0)
        reg.counter("service.solve_errors", 20, backend="dinic",
                    error_type="numerical")
        health = policy.health("dinic")
        assert health.verdict == "exhausted" and health.should_skip
        assert health.error_rate == pytest.approx(1.0)
        assert health.budget_remaining == 0.0
        assert "availability budget exhausted" in health.reason

    def test_small_sample_never_exhausts(self, obs_slo):
        reg = MetricsRegistry()
        clock, advance = stepped_clock()
        policy = self._policy(reg, clock, min_requests=10)
        policy.observe()
        advance(60.0)
        reg.counter("service.solve_errors", 3, backend="dinic", error_type="e")
        assert policy.health("dinic").verdict == "healthy"

    def test_slow_burn_without_fast_burn_is_degraded_not_exhausted(self, obs_slo):
        reg = MetricsRegistry()
        clock, advance = stepped_clock()
        policy = self._policy(reg, clock)
        # Old errors inside the slow window only: burn rides above 1 but
        # the fast window stays clean, so the verdict must stop at
        # "degraded" (the multi-window rule needs both to agree).
        policy.observe()                       # t=0 baseline for both windows
        advance(10.0)
        reg.counter("service.solves", 16, backend="dinic")
        reg.counter("service.solve_errors", 4, backend="dinic", error_type="e")
        policy.observe()                       # t=10: errors recorded
        advance(400.0)                         # past the fast window
        reg.counter("service.solves", 40, backend="dinic")
        policy.observe()
        health = policy.health("dinic")
        assert health.fast_burn < policy.fast_burn_threshold
        assert health.slow_burn >= policy.slow_burn_threshold
        assert health.verdict == "degraded" and not health.should_skip

    def test_latency_objective_burns_budget(self, obs_slo):
        reg = MetricsRegistry(latency_buckets_s=(0.1, 1.0))
        clock, advance = stepped_clock()
        policy = self._policy(
            reg, clock,
            objective=SloObjective(availability=0.999, latency_s=0.1,
                                   latency_quantile=0.95),
        )
        policy.observe()
        advance(30.0)
        for _ in range(10):
            reg.counter("service.solves", backend="analog")
            reg.observe("service.solve.seconds", 0.5, backend="analog")
        health = policy.health("analog")
        assert health.verdict == "exhausted"
        assert "latency budget exhausted" in health.reason

    def test_recovery_closes_the_gate(self, obs_slo):
        reg = MetricsRegistry()
        clock, advance = stepped_clock()
        policy = self._policy(reg, clock, fast_window_s=100.0,
                              slow_window_s=100.0)
        policy.observe()
        advance(10.0)
        reg.counter("service.solve_errors", 20, backend="dinic", error_type="e")
        policy.observe()
        assert policy.should_skip("dinic")
        # The bad minute ages out of both windows; clean traffic arrives.
        advance(200.0)
        policy.observe()
        advance(10.0)
        reg.counter("service.solves", 20, backend="dinic")
        assert not policy.should_skip("dinic")

    def test_report_shape_for_telemetry(self, obs_slo):
        reg = MetricsRegistry()
        clock, advance = stepped_clock()
        policy = self._policy(reg, clock)
        policy.observe()
        advance(10.0)
        reg.counter("service.solves", 5, backend="dinic")
        report = policy.report()
        assert set(report) == {"objective", "windows", "backends"}
        assert report["windows"]["fast_s"] == policy.fast_window_s
        assert report["backends"]["dinic"]["verdict"] == "healthy"

    def test_invalid_policy_parameters_rejected(self):
        with pytest.raises(ValueError):
            SloPolicy(fast_window_s=600.0, slow_window_s=300.0)
        with pytest.raises(ValueError):
            SloPolicy(min_requests=0)


class TestGlobalPolicyHook:
    def test_install_and_restore(self, obs_slo):
        assert get_slo_policy() is None
        policy = SloPolicy(registry=MetricsRegistry())
        assert set_slo_policy(policy) is None
        assert get_slo_policy() is policy
        assert set_slo_policy(None) is policy
        assert get_slo_policy() is None


class TestFailoverIntegration:
    """The acceptance scenario: exhaustion -> the chain routes around."""

    def _exhaust_kernel_dinic(self, slo_policy):
        """Seeded faults drive kernel's budget to zero, deterministically."""
        slo_policy.observe()  # baseline sample at t=0
        request = SolveRequest(network=tiny_network(), backend="kernel")
        plan = FaultPlan(kind="error", backend="kernel",
                         site="batch-solve", times=0)
        with inject_faults(plan):
            backend = create_backend("kernel")
            for _ in range(12):
                result = backend.solve(request)
                assert not result.ok
        assert plan.fired == 12

    def test_exhausted_backend_is_skipped_end_to_end(self, obs_slo):
        clock, advance = stepped_clock()
        slo_policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        self._exhaust_kernel_dinic(slo_policy)
        advance(60.0)
        health = slo_policy.health("kernel")
        assert health.should_skip, health

        errors_before = get_registry().get_counter(
            probes.EVENT_SOLVE_ERROR, backend="kernel",
            error_type="AlgorithmError",
        )
        policy = FailoverPolicy(slo=slo_policy)
        result = solve_with_failover(
            SolveRequest(network=tiny_network(), backend="kernel"),
            policy,
            create_backend,
        )
        # The solve still succeeds -- on the fallback, pre-emptively.
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        assert any("error budget exhausted" in step
                   for step in result.failover_trail)
        # kernel was never attempted: its error counter is frozen
        # and the skip itself was counted.
        errors_after = get_registry().get_counter(
            probes.EVENT_SOLVE_ERROR, backend="kernel",
            error_type="AlgorithmError",
        )
        assert errors_after == errors_before
        assert get_registry().get_counter(
            probes.EVENT_SLO_SKIP, backend="kernel", reason="exhausted"
        ) == 1.0

    def test_fully_exhausted_chain_tries_last_element_and_records_skips(
        self, obs_slo
    ):
        """Every chain member exhausted: skips land in trail + counters,
        and the last resort is still genuinely *attempted*."""
        clock, advance = stepped_clock()
        slo_policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        slo_policy.observe()
        for backend in ("analog", "kernel", "dinic"):
            get_registry().counter("service.solve_errors", 20,
                                   backend=backend, error_type="e")
        advance(60.0)
        for backend in ("analog", "kernel", "dinic"):
            assert slo_policy.should_skip(backend), backend

        solves_before = get_registry().get_counter(
            probes.EVENT_SOLVE, backend="dinic"
        )
        policy = FailoverPolicy(slo=slo_policy)
        result = solve_with_failover(
            SolveRequest(network=tiny_network(), backend="analog"),
            policy,
            create_backend,
        )
        assert result.ok and result.degraded
        assert result.request.backend == "dinic"
        # Both non-last stages were skipped, in chain order, with the
        # exhaustion verdict recorded verbatim in the trail...
        assert len(result.failover_trail) == 2
        for step, name in zip(result.failover_trail,
                              ("analog", "kernel")):
            assert step.startswith(f"{name}: error budget exhausted")
        # ...and in the skip counters — but never for the last resort.
        reg = get_registry()
        for name in ("analog", "kernel"):
            assert reg.get_counter(
                probes.EVENT_SLO_SKIP, backend=name, reason="exhausted"
            ) == 1.0
        assert reg.get_counter(
            probes.EVENT_SLO_SKIP, backend="dinic", reason="exhausted"
        ) == 0.0
        # "still try the last element": dinic's solve counter moved.
        assert reg.get_counter(
            probes.EVENT_SOLVE, backend="dinic"
        ) == solves_before + 1.0

    def test_expired_deadline_aborts_chain_before_any_attempt(self, obs_slo):
        import time

        from repro.resilience import Deadline, deadline_scope

        deadline = Deadline(5.0)
        # Rewind the absolute expiry: the budget is already spent, with no
        # sleeping and no dependence on how fast this test runs.
        deadline._expires_at = time.monotonic() - 1.0
        assert deadline.expired()
        with deadline_scope(deadline):
            result = solve_with_failover(
                SolveRequest(network=tiny_network(), backend="kernel"),
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

    def test_last_resort_is_never_skipped(self, obs_slo):
        clock, advance = stepped_clock()
        slo_policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        slo_policy.observe()
        # Exhaust *every* chain member's budget.
        for backend in ("kernel", "dinic"):
            get_registry().counter("service.solve_errors", 20,
                                   backend=backend, error_type="e")
        advance(60.0)
        assert slo_policy.should_skip("dinic")
        policy = FailoverPolicy(slo=slo_policy)
        result = solve_with_failover(
            SolveRequest(network=tiny_network(), backend="kernel"),
            policy,
            create_backend,
        )
        # dinic is the chain's last element: degraded service beats none.
        assert result.ok
        assert result.request.backend == "dinic"

    def test_process_global_policy_reaches_chain_walks(self, obs_slo):
        clock, advance = stepped_clock()
        slo_policy = SloPolicy(
            objective=SloObjective(availability=0.95),
            clock=clock, min_requests=5,
        )
        slo_policy.observe()
        get_registry().counter("service.solve_errors", 20,
                               backend="kernel", error_type="e")
        advance(60.0)
        set_slo_policy(slo_policy)
        result = solve_with_failover(
            SolveRequest(network=tiny_network(), backend="kernel"),
            FailoverPolicy(),  # no explicit slo: falls through to global
            create_backend,
        )
        assert result.ok and result.request.backend == "dinic"
        assert any("error budget exhausted" in step
                   for step in result.failover_trail)


class TestTelemetrySloSection:
    def test_telemetry_carries_active_policy_report(self, obs_slo):
        from repro.service.batch import BatchSolveService

        clock, _ = stepped_clock()
        slo_policy = SloPolicy(clock=clock)
        set_slo_policy(slo_policy)
        report = BatchSolveService(executor="serial").solve_batch(
            [SolveRequest(network=tiny_network(), backend="dinic")]
        )
        document = report.telemetry()
        assert document["slo"]["backends"]["dinic"]["verdict"] == "healthy"
        assert document["trace"]["schema"] == "repro.trace/v1"

    def test_telemetry_slo_empty_without_policy(self, obs_slo):
        from repro.service.batch import BatchSolveService

        report = BatchSolveService(executor="serial").solve_batch(
            [SolveRequest(network=tiny_network(), backend="dinic")]
        )
        assert report.telemetry()["slo"] == {}
