"""Dynamical-system model of the analog LP circuit of Vichik & Borrelli [42].

In the analog LP circuit each unknown is a node voltage, the objective drives
those voltages along ``-c`` and every constraint is a feedback branch that
injects a restoring current proportional to the violation — the branch is a
diode-gated amplifier, so it only acts when its constraint is (about to be)
violated.  With node capacitances ``C`` and feedback gain ``k`` the circuit
obeys

    ``C dx/dt = -c - k * A_ub' * relu(A_ub x - b_ub)
               - k * A_eq' * (A_eq x - b_eq)
               - k * (bound violations)``

which is an exact-penalty gradient flow; for a sufficiently large gain its
equilibrium coincides with the LP optimum (the same argument as the paper's
Section 2.3 optimality proof, generalised).  :class:`AnalogLPSolver`
integrates that system with :func:`scipy.integrate.solve_ivp`, reports the
equilibrium as the analog solution, and measures the settling time — giving
the same two quantities (solution quality and convergence time) the paper
reports for the specialised max-flow substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import ConvergenceError, SimulationError
from .problem import LinearProgram

__all__ = ["AnalogLPSolver", "AnalogLPResult"]


@dataclass
class AnalogLPResult:
    """Result of integrating the analog LP dynamics to steady state.

    Attributes
    ----------
    x:
        Final (steady-state) variable values.
    objective_value:
        ``c' x`` at the final point.
    constraint_violation:
        Largest remaining constraint violation (non-zero because the penalty
        branches need a small violation to produce a restoring current,
        exactly like the real circuit needs a small diode overdrive).
    settling_time:
        Time (in model seconds) at which every state was within the settling
        tolerance of its final value.
    times, trajectory:
        The sampled trajectory (states per sample time).
    converged:
        Whether the integration reached a steady state before ``t_final``.
    """

    x: np.ndarray
    objective_value: float
    constraint_violation: float
    settling_time: float
    times: np.ndarray = field(repr=False, default=None)
    trajectory: np.ndarray = field(repr=False, default=None)
    converged: bool = True


class AnalogLPSolver:
    """Integrate the analog LP dynamics to steady state.

    Parameters
    ----------
    gain:
        Feedback gain ``k`` of the constraint branches (the op-amp loop gain
        of the physical circuit).  Larger gains reduce the steady-state
        constraint violation but stiffen the dynamics.
    capacitance:
        Node capacitance ``C`` setting the time scale.
    t_final:
        Integration horizon in model seconds.
    settling_tolerance:
        Relative band used for the settling-time measurement.
    rtol, atol:
        Integrator tolerances.
    """

    def __init__(
        self,
        gain: float = 200.0,
        capacitance: float = 1.0,
        t_final: float = 40.0,
        settling_tolerance: float = 1e-3,
        rtol: float = 1e-7,
        atol: float = 1e-9,
        method: str = "BDF",
    ) -> None:
        if gain <= 0 or capacitance <= 0 or t_final <= 0:
            raise SimulationError("gain, capacitance and t_final must be positive")
        self.gain = gain
        self.capacitance = capacitance
        self.t_final = t_final
        self.settling_tolerance = settling_tolerance
        self.rtol = rtol
        self.atol = atol
        self.method = method

    # ------------------------------------------------------------------

    def _rhs(self, problem: LinearProgram) -> Callable[[float, np.ndarray], np.ndarray]:
        c = problem.objective
        a_ub = problem.inequality_matrix
        b_ub = problem.inequality_rhs
        a_eq = problem.equality_matrix
        b_eq = problem.equality_rhs
        lower = problem.lower_bounds
        upper = problem.upper_bounds
        gain = self.gain
        capacitance = self.capacitance

        def rhs(_t: float, x: np.ndarray) -> np.ndarray:
            force = -c.copy()
            if a_ub is not None:
                violation = np.maximum(a_ub @ x - b_ub, 0.0)
                force -= gain * (a_ub.T @ violation)
            if a_eq is not None:
                residual = a_eq @ x - b_eq
                force -= gain * (a_eq.T @ residual)
            below = np.maximum(lower - x, 0.0)
            above = np.maximum(x - upper, 0.0)
            force += gain * np.where(np.isfinite(lower), below, 0.0)
            force -= gain * np.where(np.isfinite(upper), above, 0.0)
            return force / capacitance

        return rhs

    def solve(
        self,
        problem: LinearProgram,
        x0: Optional[np.ndarray] = None,
        num_samples: int = 400,
    ) -> AnalogLPResult:
        """Integrate the dynamics and return the steady-state solution."""
        n = problem.num_variables
        if x0 is None:
            start = np.zeros(n)
            finite_lower = np.isfinite(problem.lower_bounds)
            start[finite_lower] = np.maximum(start[finite_lower], problem.lower_bounds[finite_lower])
            finite_upper = np.isfinite(problem.upper_bounds)
            start[finite_upper] = np.minimum(start[finite_upper], problem.upper_bounds[finite_upper])
        else:
            start = np.asarray(x0, dtype=float).copy()
            if start.shape != (n,):
                raise SimulationError("x0 has the wrong shape")

        times = np.linspace(0.0, self.t_final, num_samples)
        from scipy.integrate import solve_ivp

        outcome = solve_ivp(
            self._rhs(problem),
            (0.0, self.t_final),
            start,
            t_eval=times,
            method=self.method,
            rtol=self.rtol,
            atol=self.atol,
        )
        if not outcome.success:
            raise ConvergenceError(f"analog LP integration failed: {outcome.message}")

        trajectory = outcome.y.T
        final = trajectory[-1]
        settling = self._settling_time(outcome.t, trajectory, final)
        # Steady-state check: the state derivative magnitude at the end.
        derivative = self._rhs(problem)(outcome.t[-1], final)
        scale = max(1.0, float(np.max(np.abs(final))))
        converged = bool(np.max(np.abs(derivative)) * self.t_final * 1e-3 < scale)

        return AnalogLPResult(
            x=final,
            objective_value=problem.objective_value(final),
            constraint_violation=problem.constraint_violation(final),
            settling_time=settling,
            times=outcome.t,
            trajectory=trajectory,
            converged=converged,
        )

    # ------------------------------------------------------------------

    def _settling_time(
        self, times: np.ndarray, trajectory: np.ndarray, final: np.ndarray
    ) -> float:
        """Earliest time from which every state stays within the settling band."""
        scale = np.maximum(np.abs(final), 1e-9)
        deviations = np.abs(trajectory - final) / scale
        outside = np.any(deviations > self.settling_tolerance, axis=1)
        if not np.any(outside):
            return float(times[0])
        last_outside = int(np.max(np.nonzero(outside)))
        if last_outside + 1 >= len(times):
            return float(times[-1])
        return float(times[last_outside + 1])
