"""Typed fault-tolerance policy objects: retries, deadlines, circuit breakers.

Three small, deterministic primitives that the service layers compose:

* :class:`Deadline` — a wall-clock solve budget.  Deadlines travel down into
  solver inner loops *cooperatively*: opening a :func:`deadline_scope` makes
  the budget ambient, and the hot loops of :class:`~repro.flows.kernel.KernelDinic`
  (one check per discharge sweep), :class:`~repro.flows.dinic.Dinic` (per
  blocking-flow phase), push-relabel (every few hundred discharges) and the
  analog DC diode iteration (per iteration) call :func:`check_deadline`,
  which raises :class:`~repro.errors.SolveTimeoutError` once the budget is
  exhausted instead of letting a pathological instance hang the caller.
  ``check_deadline`` is a cheap no-op when no deadline is active, so the
  fault-free overhead stays negligible (see ``BENCH_resilience.json``).

* :class:`RetryPolicy` — bounded retries with deterministic exponential
  backoff and *seeded* jitter, so a red CI run replays exactly.  Sleeping is
  injectable for tests and skipped when it would outlive the active deadline.

* :class:`CircuitBreaker` — a per-backend rolling failure window with the
  classic closed → open → half-open state machine, so a persistently failing
  backend is skipped (its degradation chain takes over, and the server's
  router stops sending it traffic) instead of paying its failure latency on
  every request.

Deadlines are captured as *absolute* expiries (``time.monotonic``-based), so
a ``Deadline`` object can be handed to worker threads and re-scoped there;
``contextvars`` do not propagate into executor workers, which is why the
parallel layers (:class:`~repro.service.batch.ParallelMap`,
:class:`~repro.shard.executor.ShardExecutor`) capture :func:`active_deadline`
at dispatch and re-open the scope inside each worker callable.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple, Type, Union

from ..config import env_float, env_int
from ..errors import ConfigurationError, ReproError, SolveTimeoutError
from ..obs import probes

__all__ = [
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "active_deadline",
    "check_deadline",
    "deadline_scope",
]


class Deadline:
    """A wall-clock budget for one solve, measured from construction.

    The expiry is absolute (``time.monotonic() + budget_s``), so the same
    object means the same instant in every thread it is handed to.
    """

    __slots__ = ("budget_s", "label", "_expires_at")

    def __init__(self, budget_s: float, label: str = "") -> None:
        budget_s = float(budget_s)
        if not budget_s > 0.0:
            raise ConfigurationError("deadline budget must be positive seconds")
        self.budget_s = budget_s
        self.label = label
        self._expires_at = time.monotonic() + budget_s

    @classmethod
    def from_seconds(cls, budget_s: Optional[float], label: str = "") -> Optional["Deadline"]:
        """``None``-propagating constructor (``None`` → no deadline)."""
        if budget_s is None:
            return None
        return cls(budget_s, label=label)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return time.monotonic() >= self._expires_at

    def check(self, where: str = "") -> None:
        """Raise :class:`SolveTimeoutError` if the budget is exhausted."""
        if time.monotonic() >= self._expires_at:
            site = f" in {where}" if where else ""
            label = f" ({self.label})" if self.label else ""
            raise SolveTimeoutError(
                f"deadline of {self.budget_s:.4g} s exceeded{site}{label}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget_s={self.budget_s!r}, remaining={self.remaining():.4g})"


#: The ambient deadline for the current context, if any.
_ACTIVE_DEADLINE: ContextVar[Optional[Deadline]] = ContextVar(
    "repro_active_deadline", default=None
)


def active_deadline() -> Optional[Deadline]:
    """Return the deadline governing the current context, or ``None``."""
    return _ACTIVE_DEADLINE.get()


def check_deadline(where: str = "") -> None:
    """Cooperative budget check: no-op without an active deadline.

    Solver inner loops call this once per outer iteration (sweep, phase,
    diode iteration); the inactive path is one context-variable read.
    """
    deadline = _ACTIVE_DEADLINE.get()
    if deadline is not None:
        deadline.check(where)


@contextmanager
def deadline_scope(
    deadline: Union[Deadline, float, None], label: str = ""
) -> Iterator[Optional[Deadline]]:
    """Make ``deadline`` ambient for the duration of the ``with`` block.

    Accepts a :class:`Deadline`, a float budget in seconds, or ``None``
    (no-op).  When a *tighter* deadline is already active it stays in
    force — an outer budget can only shrink inside nested scopes, never
    grow.
    """
    if deadline is None:
        yield _ACTIVE_DEADLINE.get()
        return
    if not isinstance(deadline, Deadline):
        deadline = Deadline(float(deadline), label=label)
    current = _ACTIVE_DEADLINE.get()
    if current is not None and current.remaining() <= deadline.remaining():
        yield current
        return
    token = _ACTIVE_DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE_DEADLINE.reset(token)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``delay_for(attempt)`` is a pure function of the policy and the 1-based
    attempt number: ``base_delay_s * multiplier**(attempt-1)`` clamped to
    ``max_delay_s``, scaled by a jitter factor drawn from a generator seeded
    with ``(seed, attempt)`` — reruns back off identically.

    :class:`~repro.errors.SolveTimeoutError` is never retried (the budget
    that produced it is still exhausted), and a scheduled sleep is skipped
    when it would outlive the active deadline.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (ReproError,)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if self.jitter < 0 or self.jitter >= 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    @classmethod
    def from_env(cls, prefix: str = "REPRO_RETRY", **overrides) -> "RetryPolicy":
        """Build a policy from ``{prefix}_MAX_ATTEMPTS`` / ``_BASE_DELAY_S`` /
        ``_SEED`` environment knobs, with keyword overrides winning."""
        values = dict(
            max_attempts=env_int(f"{prefix}_MAX_ATTEMPTS", cls.max_attempts),
            base_delay_s=env_float(f"{prefix}_BASE_DELAY_S", cls.base_delay_s),
            seed=env_int(f"{prefix}_SEED", cls.seed),
        )
        values.update(overrides)
        return cls(**values)

    def delay_for(self, attempt: int) -> float:
        """Backoff before retrying after failed ``attempt`` (1-based)."""
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))
        if delay > 0.0 and self.jitter > 0.0:
            rng = random.Random(f"{self.seed}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def run(self, fn: Callable[[], "object"], *, describe: str = ""):
        """Call ``fn`` up to ``max_attempts`` times, backing off in between.

        Exceptions not matching ``retry_on`` — and every
        :class:`SolveTimeoutError` — propagate immediately.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except SolveTimeoutError:
                raise
            except self.retry_on:
                if attempt >= self.max_attempts:
                    raise
                deadline = _ACTIVE_DEADLINE.get()
                if deadline is not None and deadline.expired():
                    raise
                probes.retry_attempt(describe, attempt)
                delay = self.delay_for(attempt)
                if deadline is not None and deadline.remaining() <= delay:
                    raise
                if delay > 0.0:
                    self.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Per-backend rolling failure window with open/half-open/closed states.

    * **closed** — normal operation; outcomes land in a rolling window of the
      last ``window`` calls, and the breaker opens once it holds at least
      ``failure_threshold`` failures.
    * **open** — :meth:`allow` answers ``False`` until ``cooldown_s`` has
      elapsed, then the breaker moves to *half-open*.  An outcome recorded
      while open (a chain's last resort runs whatever its breaker says)
      lands in the window but neither re-opens the breaker nor restarts its
      cooldown.
    * **half-open** — :meth:`allow` lets every call through until an
      outcome lands: a success closes the breaker (window cleared), a
      failure re-opens it for another cooldown.

    The clock is injectable so tests can step through cooldowns without
    sleeping.  One breaker is shared by threads: a
    :class:`~repro.resilience.failover.FailoverPolicy` is shared by the
    server's workers and the batch service's thread executor, which record
    outcomes, and by the server's router, which reads :meth:`allow` on the
    event-loop thread.  There is no lock: opening stores the open time
    before the state, so no reader sees an open breaker with a stale open
    time, and the worst case of two racing writers is one extra probe or
    one lost outcome.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        window: int = 8,
        failure_threshold: int = 4,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ) -> None:
        if window < 1 or failure_threshold < 1:
            raise ConfigurationError("breaker window/threshold must be >= 1")
        if failure_threshold > window:
            raise ConfigurationError("failure_threshold cannot exceed window")
        if cooldown_s < 0:
            raise ConfigurationError("cooldown must be non-negative")
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._outcomes: list = []
        self._state = self.CLOSED
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, promoting open → half-open after the cooldown."""
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = self.HALF_OPEN
            probes.breaker_transition(self.name, self.HALF_OPEN)
        return self._state

    @property
    def failure_count(self) -> int:
        """Failures currently in the rolling window."""
        return sum(1 for ok in self._outcomes if not ok)

    def allow(self) -> bool:
        """Whether the next call may proceed: the breaker is not open."""
        return self.state != self.OPEN

    def record_success(self) -> None:
        """Count one successful call; a half-open breaker closes."""
        if self._state == self.HALF_OPEN:
            self._reset()
            return
        self._push(True)

    def record_failure(self) -> None:
        """Count one failed call; open at the threshold, or re-open a probe."""
        if self._state == self.HALF_OPEN:
            self._trip()
            return
        self._push(False)
        if self._state == self.CLOSED and self.failure_count >= self.failure_threshold:
            self._trip()

    def _push(self, ok: bool) -> None:
        self._outcomes.append(ok)
        if len(self._outcomes) > self.window:
            del self._outcomes[0]

    def _trip(self) -> None:
        # The open time is stored before the state: a reader that sees OPEN
        # must also see when it opened, or it would take a stale
        # ``_opened_at`` for an elapsed cooldown and half-open the breaker.
        self._opened_at = self._clock()
        self._state = self.OPEN
        probes.breaker_transition(self.name, self.OPEN)

    def _reset(self) -> None:
        self._state = self.CLOSED
        self._outcomes.clear()
        probes.breaker_transition(self.name, self.CLOSED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.failure_count}/{self.failure_threshold})"
        )
