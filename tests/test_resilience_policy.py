"""Unit tests for the resilience policy primitives.

Covers the :class:`~repro.resilience.policy.Deadline` budget semantics, the
ambient :func:`deadline_scope` / :func:`check_deadline` plumbing (including
nesting and thread hand-off), the deterministic
:class:`~repro.resilience.policy.RetryPolicy` backoff, the
:class:`~repro.resilience.policy.CircuitBreaker` state machine, and the
one health verdict :class:`~repro.resilience.failover.FailoverPolicy`
derives from its breakers, with the degradation chains it walks.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.errors import ConfigurationError, ConvergenceError, ReproError, SolveTimeoutError
from repro.flows.registry import ALGORITHMS, DEFAULT_EXACT_ALGORITHM
from repro.obs import get_registry, probes, reset_metrics, set_obs_enabled
from repro.resilience.failover import (
    DEGRADATION_CHAINS,
    FailoverPolicy,
    degradation_chain,
)
from repro.resilience.policy import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    active_deadline,
    check_deadline,
    deadline_scope,
)


class TestDeadline:
    def test_fresh_deadline_is_not_expired(self):
        d = Deadline(60.0)
        assert not d.expired()
        assert 0.0 < d.remaining() <= 60.0
        d.check("anywhere")  # no raise

    def test_expired_deadline_raises_with_site_and_label(self):
        d = Deadline(1e-9, label="unit")
        with pytest.raises(SolveTimeoutError) as info:
            while True:
                d.check("busy loop")
        assert "busy loop" in str(info.value)
        assert "unit" in str(info.value)

    def test_budget_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                Deadline(bad)

    def test_from_seconds_propagates_none(self):
        assert Deadline.from_seconds(None) is None
        assert isinstance(Deadline.from_seconds(5.0), Deadline)


class TestDeadlineScope:
    def test_no_active_deadline_by_default(self):
        assert active_deadline() is None
        check_deadline("idle")  # cheap no-op

    def test_scope_makes_deadline_ambient_and_restores(self):
        with deadline_scope(30.0, label="outer") as d:
            assert active_deadline() is d
        assert active_deadline() is None

    def test_none_scope_is_a_no_op(self):
        with deadline_scope(None):
            assert active_deadline() is None

    def test_nested_scope_keeps_the_tighter_deadline(self):
        tight = Deadline(0.5)
        with deadline_scope(tight):
            # A looser inner budget must NOT extend the outer one.
            with deadline_scope(3600.0) as inner:
                assert inner is tight
                assert active_deadline() is tight
            # A tighter inner budget takes over, then restores.
            tighter = Deadline(0.1)
            with deadline_scope(tighter) as inner2:
                assert inner2 is tighter
            assert active_deadline() is tight

    def test_check_deadline_raises_inside_expired_scope(self):
        with deadline_scope(1e-9):
            with pytest.raises(SolveTimeoutError):
                while True:
                    check_deadline("spin")

    def test_deadline_object_crosses_threads_by_rescoping(self):
        # contextvars don't propagate into worker threads; the executors
        # capture the Deadline object and re-open the scope — the absolute
        # expiry must mean the same instant there.
        d = Deadline(1e-9)
        seen = {}

        def worker():
            assert active_deadline() is None
            with deadline_scope(d):
                try:
                    while True:
                        check_deadline("worker")
                except SolveTimeoutError:
                    seen["timed_out"] = True

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen == {"timed_out": True}


class TestRetryPolicy:
    def test_success_on_first_attempt_calls_once(self):
        calls = []
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        assert policy.run(lambda: calls.append(1) or "ok") == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConvergenceError("transient")
            return 42

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, sleep=lambda s: None)
        assert policy.run(flaky) == 42
        assert len(attempts) == 3

    def test_exhausted_attempts_reraise_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0, sleep=lambda s: None)

        def always():
            raise ConvergenceError("permanent")

        with pytest.raises(ConvergenceError):
            policy.run(always)

    def test_non_repro_errors_are_not_retried(self):
        calls = []
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)

        def boom():
            calls.append(1)
            raise ValueError("not ours")

        with pytest.raises(ValueError):
            policy.run(boom)
        assert len(calls) == 1

    def test_timeouts_are_never_retried(self):
        calls = []
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)

        def timed_out():
            calls.append(1)
            raise SolveTimeoutError("budget gone")

        with pytest.raises(SolveTimeoutError):
            policy.run(timed_out)
        assert len(calls) == 1

    def test_backoff_is_deterministic_and_monotone_under_clamp(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=10.0,
            jitter=0.1, seed=7, sleep=lambda s: None,
        )
        a = [policy.delay_for(i) for i in range(1, 5)]
        b = [policy.delay_for(i) for i in range(1, 5)]
        assert a == b  # seeded jitter: identical replay
        # Within 10% jitter the exponential growth still dominates.
        assert a[0] < a[1] < a[2] < a[3]
        assert policy.delay_for(1) == pytest.approx(0.1, rel=0.11)

    def test_zero_base_delay_means_no_sleep(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.0, sleep=lambda s: slept.append(s)
        )

        def flaky_once():
            if not slept and not getattr(flaky_once, "done", False):
                flaky_once.done = True
                raise ConvergenceError("once")
            return "ok"

        assert policy.run(flaky_once) == "ok"
        assert slept == []

    def test_sleep_that_would_outlive_deadline_raises_instead(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=5.0, jitter=0.0,
            sleep=lambda s: slept.append(s),
        )

        def always():
            raise ConvergenceError("transient")

        with deadline_scope(0.5):
            with pytest.raises(ConvergenceError):
                policy.run(always)
        assert slept == []  # never slept into the expired budget

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-0.1)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_RETRY_BASE_DELAY_S", "0.25")
        monkeypatch.setenv("REPRO_RETRY_SEED", "99")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.base_delay_s == 0.25
        assert policy.seed == 99
        # Keyword overrides beat the environment.
        assert RetryPolicy.from_env(max_attempts=1).max_attempts == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, failure_threshold=2, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_successes_age_failures_out_of_the_window(self):
        breaker = CircuitBreaker(window=3, failure_threshold=2, cooldown_s=10.0)
        breaker.record_failure()
        for _ in range(3):
            breaker.record_success()
        assert breaker.failure_count == 0
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=2, failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # one probe
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failure_count == 0

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=2, failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.now = 9.9
        assert not breaker.allow()  # cooldown restarted at re-open
        clock.now = 10.0
        assert breaker.allow()

    def test_outcomes_recorded_while_open_keep_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=4, failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 4.0
        # A chain's last resort runs whatever its breaker says.
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 5.0
        assert breaker.allow()  # the cooldown still counts from the trip

    def test_a_read_during_the_trip_never_half_opens_the_breaker(self):
        """The clock reads the state when the trip asks it for the open
        time, as the server's router may on another thread."""
        seen = []
        breaker = None

        def clock():
            if breaker is not None and not seen:
                seen.append(None)  # one read, and no re-entry
                seen[0] = breaker.state
            return 100.0

        breaker = CircuitBreaker(window=2, failure_threshold=1, cooldown_s=30.0, clock=clock)
        breaker.record_failure()
        assert seen == [CircuitBreaker.CLOSED]
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(window=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(window=2, failure_threshold=3)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=-1.0)

    def test_default_semantics_are_window_8_threshold_4_cooldown_30s(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        assert (breaker.window, breaker.failure_threshold, breaker.cooldown_s) == (
            8, 4, 30.0
        )
        # Three failures spread over a full window never open it...
        for ok in (True, False, True, False, True, True, False, True):
            (breaker.record_success if ok else breaker.record_failure)()
        assert breaker.state == CircuitBreaker.CLOSED
        # ...the fourth failure inside the last eight outcomes does.
        breaker.record_failure()
        assert breaker.failure_count == 4
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 29.9
        assert not breaker.allow()
        clock.now = 30.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_failures_aged_out_of_the_window_never_trip(self):
        breaker = CircuitBreaker(window=4, failure_threshold=3)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
            breaker.record_success()
            breaker.record_success()
            breaker.record_success()
        assert breaker.failure_count == 0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_lets_every_call_through_until_an_outcome_lands(self):
        clock = FakeClock()
        breaker = CircuitBreaker(window=2, failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 5.0
        assert all(breaker.allow() for _ in range(3))
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert not breaker.allow()

    def test_every_transition_is_probed(self):
        previous = set_obs_enabled(True)
        reset_metrics()
        try:
            clock = FakeClock()
            breaker = CircuitBreaker(
                window=2, failure_threshold=1, cooldown_s=5.0, clock=clock,
                name="analog",
            )
            breaker.record_failure()
            clock.now = 5.0
            assert breaker.state == CircuitBreaker.HALF_OPEN
            breaker.record_success()
            registry = get_registry()
            for state in ("open", "half-open", "closed"):
                assert registry.get_counter(
                    probes.EVENT_BREAKER_TRANSITION, breaker="analog", state=state
                ) == 1.0, state
        finally:
            set_obs_enabled(previous)
            reset_metrics()


def trip(breaker: CircuitBreaker) -> None:
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()


class TestFailoverPolicy:
    """The one health verdict: :meth:`FailoverPolicy.healthy` reads the breaker."""

    def test_only_retry_and_validate_are_settable(self):
        settable = {f.name for f in dataclasses.fields(FailoverPolicy) if f.init}
        assert settable == {"retry", "validate"}
        policy = FailoverPolicy()
        assert policy.validate is True
        assert policy.retry.max_attempts == 2
        assert policy.retry.base_delay_s == 0.0

    def test_breaker_for_creates_one_closed_breaker_per_backend(self):
        policy = FailoverPolicy()
        kernel = policy.breaker_for("kernel")
        assert policy.breaker_for("kernel") is kernel
        assert policy.breaker_for("dinic") is not kernel
        assert kernel.name == "kernel"
        assert kernel.state == CircuitBreaker.CLOSED
        assert (kernel.window, kernel.failure_threshold, kernel.cooldown_s) == (
            8, 4, 30.0
        )

    def test_threads_racing_to_create_a_breaker_get_the_same_one(self):
        policy = FailoverPolicy()
        workers = 8
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def grab(i):
            barrier.wait()
            seen[i] = policy.breaker_for("analog")

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(breaker is seen[0] for breaker in seen)

    def test_policies_do_not_share_breakers(self):
        first, second = FailoverPolicy(), FailoverPolicy()
        trip(first.breaker_for("analog"))
        assert not first.healthy("analog")
        assert second.healthy("analog")

    def test_healthy_follows_the_breaker_through_a_cooldown(self):
        policy = FailoverPolicy()
        assert policy.healthy("analog")  # a backend never seen is healthy
        breaker = policy.breaker_for("analog")
        trip(breaker)
        assert not policy.healthy("analog")
        assert policy.healthy("kernel")  # one backend's breaker only
        breaker.cooldown_s = 0.0
        assert policy.healthy("analog")  # half-open: the probe may run
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert policy.healthy("analog")


class TestDegradationChains:
    """Every chain starts at its backend and ends on an exact engine."""

    @pytest.mark.parametrize("backend", sorted(DEGRADATION_CHAINS))
    def test_builtin_chain_hops_to_different_exact_engines(self, backend):
        chain = degradation_chain(backend)
        assert chain == DEGRADATION_CHAINS[backend]
        assert chain[0] == backend
        assert len(set(chain)) == len(chain)
        assert all(name in ALGORITHMS for name in chain[1:])

    @pytest.mark.parametrize("backend", ["sharded:kernel", "sharded:dinic", "sharded:analog"])
    def test_sharded_backends_degrade_to_unsharded_exact_solves(self, backend):
        assert degradation_chain(backend) == (
            backend, DEFAULT_EXACT_ALGORITHM, "dinic"
        )

    @pytest.mark.parametrize("backend", ["edmonds-karp", "ford-fulkerson", "lp-reference"])
    def test_other_backends_degrade_to_reference_dinic(self, backend):
        assert degradation_chain(backend) == (backend, "dinic")
