"""Seeded, deterministic fault injection for every solve backend.

The paper's substrate is *supposed* to fail: diode iteration can refuse to
converge, a near-singular MNA system can blow up, device variation can
corrupt a readout.  This module makes those failures reproducible on demand
so the failover machinery in :mod:`repro.resilience.failover` can be tested
cell by cell (service × fault class) instead of waiting for a pathological
instance.

A *fault plan* matches hook sites by ``(site, backend)`` and fires a
configurable number of times:

================  ==========================================================
kind              effect at a matching hook site
================  ==========================================================
``convergence``   raise :class:`~repro.errors.ConvergenceError`
``singular``      raise :class:`~repro.errors.SingularCircuitError`
``error``         raise :class:`~repro.errors.FaultInjectedError`
``stall``         sleep ``stall_s`` in small slices, checking the ambient
                  deadline each slice (so a deadline turns the stall into a
                  :class:`~repro.errors.SolveTimeoutError`)
``corrupt``       inflate an analog readout by ``relative_error`` (the
                  inflation is always *upward* so a saturated min-cut edge
                  violates capacity and validation can catch it)
================  ==========================================================

Plans are activated either programmatically::

    with inject_faults(FaultPlan(kind="convergence", backend="analog", times=2)):
        service.solve_batch(requests)

or from the environment (``REPRO_FAULT_PLAN``), using the shared
:func:`repro.config.env_plan` grammar::

    REPRO_FAULT_PLAN="kind=convergence,backend=analog,times=2;kind=stall,stall_s=0.2"

Matching is deterministic: each plan counts the matching calls it has seen
(``skip`` lets faults through before arming, ``times`` bounds how often a
plan fires, ``times=0`` means every time), so a seeded test run replays
exactly.  The injector is process-global on purpose — hook sites run inside
worker threads/processes where context variables do not propagate; in
subprocess workers the environment variable is the delivery mechanism.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..config import env_plan
from ..obs import probes
from ..errors import (
    ConfigurationError,
    ConvergenceError,
    FaultInjectedError,
    SingularCircuitError,
)
from .policy import check_deadline

__all__ = [
    "FAULT_ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "inject_faults",
    "fault_point",
    "corrupt_value",
    "current_injector",
]

#: Environment variable holding a fault-plan spec (see module docstring).
FAULT_ENV_VAR = "REPRO_FAULT_PLAN"

#: Recognised fault kinds.
FAULT_KINDS = ("convergence", "singular", "error", "stall", "corrupt")

#: Seconds per stall slice; short enough that tiny test deadlines fire fast.
_STALL_SLICE_S = 0.005


@dataclass
class FaultPlan:
    """One deterministic fault: what to inject, where, and how often.

    ``backend`` and ``site`` match exactly or via the ``"*"`` wildcard;
    ``site`` names the hook location (``"batch-solve"``, ``"shard-solve"``,
    ``"warm-repair"``, ``"streaming-warm"``, ``"analog-readout"``, ...).
    """

    kind: str
    backend: str = "*"
    site: str = "*"
    times: int = 1
    skip: int = 0
    relative_error: float = 0.25
    stall_s: float = 0.05
    # Deterministic per-plan counters (mutated as matching calls arrive).
    matched: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 0 or self.skip < 0:
            raise ConfigurationError("times/skip must be non-negative")
        if self.kind == "corrupt" and not self.relative_error > 0.0:
            raise ConfigurationError(
                "corrupt faults must inflate (relative_error > 0) so that "
                "capacity validation can detect them"
            )
        if self.stall_s < 0:
            raise ConfigurationError("stall_s must be non-negative")

    @classmethod
    def from_entry(cls, entry: dict) -> "FaultPlan":
        """Build a plan from one :func:`repro.config.env_plan` entry."""
        known = {
            "kind": str,
            "backend": str,
            "site": str,
            "times": int,
            "skip": int,
            "relative_error": float,
            "stall_s": float,
        }
        kwargs = {}
        for key, value in entry.items():
            if key not in known:
                raise ConfigurationError(
                    f"{FAULT_ENV_VAR}: unknown fault-plan key {key!r}"
                )
            try:
                kwargs[key] = known[key](value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{FAULT_ENV_VAR}: bad value {value!r} for {key!r}"
                ) from exc
        if "kind" not in kwargs:
            raise ConfigurationError(f"{FAULT_ENV_VAR}: every entry needs kind=...")
        return cls(**kwargs)

    def matches(self, site: str, backend: str) -> bool:
        """Whether this plan targets ``site`` on ``backend`` (``*`` matches any)."""
        return self.site in ("*", site) and self.backend in ("*", backend)

    def should_fire(self) -> bool:
        """Count a matching call and decide whether this one triggers."""
        index = self.matched
        self.matched += 1
        if index < self.skip:
            return False
        if self.times and self.fired >= self.times:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """A set of :class:`FaultPlan` objects consulted at hook sites."""

    def __init__(self, plans: Sequence[FaultPlan]) -> None:
        self.plans: List[FaultPlan] = list(plans)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse a ``REPRO_FAULT_PLAN``-grammar spec string."""
        entries = env_plan(FAULT_ENV_VAR, raw=spec)
        return cls([FaultPlan.from_entry(entry) for entry in entries])

    def fault_point(self, site: str, backend: str = "") -> None:
        """Raise/stall per the first matching armed plan (if any)."""
        for plan in self.plans:
            if plan.kind == "corrupt" or not plan.matches(site, backend):
                continue
            if plan.should_fire():
                self._trigger(plan, site, backend)

    def corrupt(self, site: str, backend: str, value: float) -> float:
        """Return ``value`` inflated by the first matching corrupt plan."""
        for plan in self.plans:
            if plan.kind != "corrupt" or not plan.matches(site, backend):
                continue
            if plan.should_fire():
                probes.fault_injected(site, backend, plan.kind)
                return value * (1.0 + plan.relative_error)
        return value

    def _trigger(self, plan: FaultPlan, site: str, backend: str) -> None:
        probes.fault_injected(site, backend, plan.kind)
        where = f"{site}/{backend or '*'}"
        if plan.kind == "stall":
            remaining = plan.stall_s
            while remaining > 0.0:
                check_deadline(f"injected stall at {where}")
                slice_s = min(_STALL_SLICE_S, remaining)
                time.sleep(slice_s)
                remaining -= slice_s
            check_deadline(f"injected stall at {where}")
            return
        message = f"injected {plan.kind} fault at {where}"
        if plan.kind == "convergence":
            raise ConvergenceError(message)
        if plan.kind == "singular":
            raise SingularCircuitError(message)
        raise FaultInjectedError(message)


# ---------------------------------------------------------------------------
# Global activation (context manager beats environment)
# ---------------------------------------------------------------------------

_OVERRIDE: Optional[FaultInjector] = None
_ENV_CACHE: Optional[Tuple[str, FaultInjector]] = None


def current_injector() -> Optional[FaultInjector]:
    """The active injector: context-manager override, else ``REPRO_FAULT_PLAN``."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    raw = os.environ.get(FAULT_ENV_VAR, "")
    if not raw.strip():
        return None
    global _ENV_CACHE
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        # Cache per spec string so plan counters persist across calls.
        _ENV_CACHE = (raw, FaultInjector.from_spec(raw))
    return _ENV_CACHE[1]


@contextmanager
def inject_faults(
    *plans: Union[FaultPlan, str]
) -> Iterator[FaultInjector]:
    """Activate the given plans (or one spec string) for the ``with`` block.

    The injector is process-global (hook sites run in worker threads), so
    nesting restores the previous injector on exit.
    """
    if len(plans) == 1 and isinstance(plans[0], str):
        injector = FaultInjector.from_spec(plans[0])
    else:
        for plan in plans:
            if not isinstance(plan, FaultPlan):
                raise ConfigurationError(
                    "inject_faults takes FaultPlan objects or one spec string"
                )
        injector = FaultInjector(list(plans))
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = injector
    try:
        yield injector
    finally:
        _OVERRIDE = previous


def fault_point(site: str, backend: str = "") -> None:
    """Hook call: no-op unless an injector is active and a plan matches."""
    injector = current_injector()
    if injector is not None:
        injector.fault_point(site, backend)


def corrupt_value(site: str, backend: str, value: float) -> float:
    """Hook call for analog readouts: possibly inflated ``value``."""
    injector = current_injector()
    if injector is None:
        return value
    return injector.corrupt(site, backend, value)
