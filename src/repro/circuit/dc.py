"""DC operating-point analysis.

The steady state of the max-flow circuit (the paper's "solution") is the DC
operating point of a linear resistive network augmented with piecewise-linear
diodes.  For a fixed diode on/off pattern the network is linear and solved
with a sparse LU factorisation; the pattern itself is found by fixed-point
iteration (solve, re-evaluate each diode's desired state, repeat), with an
anti-cycling fallback that flips only the most-violated diode once a pattern
repeats — the standard approach for ideal-diode (linear complementarity)
circuits.

Hot-path structure (``assembly="compiled"``, the default): matrices and
right-hand sides come from the compiled stamp template
(:class:`~repro.circuit.stamps.CompiledMNA`) — a pure NumPy scatter per
iteration — and consecutive iterations that differ in only a few diode
states are solved against one cached base LU factorisation via
Sherman–Morrison–Woodbury low-rank updates.  The solver refactorises only
when the flip count exceeds the ``smw_crossover`` threshold, and scrubs
any SMW round-off from the accepted pattern (converged or anti-cycling
fallback) before returning, so the reported operating point matches a
direct solve.  ``assembly="legacy"`` restores the original
assemble-and-factorise-per-iteration behaviour (used by the equivalence
tests and the assembly benchmark).

:class:`WarmOperatingPoint` stays with one circuit: it keeps the base
factorisation and the last converged diode pattern between solves, so a
repeat solve of an unchanged circuit is one iteration and one triangular
solve.  Each compiled analog circuit holds one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConvergenceError, SimulationError, SingularCircuitError
from ..obs import probes
from ..obs.trace import annotate_span
from ..resilience.policy import check_deadline
from .linsolve import LinearSystemSolver
from .mna import MNASystem
from .netlist import Circuit
from .nonlinear import desired_conduction_states
from .stamps import CompiledMNA

__all__ = ["DCOperatingPoint", "DCSolution", "WarmOperatingPoint"]


@dataclass
class DCSolution:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    voltages:
        Node voltages keyed by node name (ground included as 0 V).
    branch_currents:
        Currents through voltage sources / VCVS / op-amp outputs, keyed by
        element name, following the SPICE convention (positive current flows
        from the positive terminal through the source).
    diode_states:
        Final conducting state per diode.
    iterations:
        Number of diode-state iterations performed.
    vector:
        Raw MNA solution vector (useful for warm-starting transients).
    refactorizations:
        LU factorisations performed (compiled assembly only).
    smw_solves:
        Iterations solved by a Sherman–Morrison–Woodbury low-rank update
        instead of a fresh factorisation (compiled assembly only).
    """

    voltages: Dict[str, float]
    branch_currents: Dict[str, float]
    diode_states: Dict[str, bool]
    iterations: int
    vector: np.ndarray = field(repr=False, default=None)
    converged: bool = True
    residual_violation_v: float = 0.0
    refactorizations: int = 0
    smw_solves: int = 0

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (ground is 0 V)."""
        return self.voltages[node]

    def current(self, element: str) -> float:
        """Branch current of a source element."""
        return self.branch_currents[element]


class _CompiledLinearEngine:
    """Per-solve linear engine: cached base LU + SMW low-rank diode flips.

    Keeps one base factorisation and the diode pattern it was assembled at.
    A solve whose pattern differs from the base in at most ``crossover``
    diodes is answered by :meth:`CompiledMNA.smw_solve`; larger flips (or a
    singular update) rebase on a fresh factorisation.

    The engine outlives a single :meth:`DCOperatingPoint.solve` call: the
    solver instance caches it per stamp template, so repeated solves of one
    system (``dc_sweep``, source stepping) keep the base factorisation warm
    across operating points — a sweep level whose diode pattern matches the
    previous level's pays no factorisation at all.  :meth:`revalidate` drops
    the base when live element state the factorisation depends on (switch /
    memristor conductances) changed between solves.
    """

    def __init__(
        self, template: CompiledMNA, solver: LinearSystemSolver, crossover: int
    ) -> None:
        self.template = template
        self.solver = solver
        self.crossover = crossover
        self.base_factorization = None
        self.base_states: Optional[np.ndarray] = None
        self._base_variable_conductances: list = []
        self.refactorizations = 0
        self.smw_solves = 0

    def _variable_conductances(self) -> list:
        return [e.conductance for e in self.template._variable_conductors]

    def revalidate(self) -> None:
        """Drop the cached base if live conductor state moved under it."""
        if (
            self.base_factorization is not None
            and self._variable_conductances() != self._base_variable_conductances
        ):
            self.base_factorization = None
            self.base_states = None

    def _rebase(self, state_arr: np.ndarray):
        self.base_factorization = self.solver.factorize(
            self.template.matrix(state_arr)
        )
        self.base_states = state_arr.copy()
        self._base_variable_conductances = self._variable_conductances()
        self.refactorizations += 1
        return self.base_factorization

    def solve(self, state_arr: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Solve at ``state_arr``; returns ``(solution, used_smw)``."""
        rhs = self.template.rhs(t=None, states=state_arr)
        if self.base_factorization is not None:
            flips = int(np.count_nonzero(state_arr != self.base_states))
            if flips == 0:
                return self.base_factorization.solve(rhs), False
            if flips <= self.crossover:
                try:
                    solution = self.template.smw_solve(
                        self.base_factorization, self.base_states, state_arr, rhs
                    )
                    self.smw_solves += 1
                    return solution, True
                except (np.linalg.LinAlgError, SingularCircuitError):
                    pass  # singular update: fall through to a fresh factorisation
        return self._rebase(state_arr).solve(rhs), False

    def solve_exact(self, state_arr: np.ndarray) -> np.ndarray:
        """Direct (non-SMW) solve at ``state_arr``, rebasing on it."""
        rhs = self.template.rhs(t=None, states=state_arr)
        return self._rebase(state_arr).solve(rhs)

    def polish(self, state_arr: np.ndarray, solution: np.ndarray) -> np.ndarray:
        """Scrub SMW round-off from an accepted iterate.

        One step of iterative refinement through the same low-rank solve:
        assembling the matrix is a cheap scatter, so the residual costs one
        sparse mat-vec and the correction ``k + 1`` triangular solves —
        far cheaper than the full refactorisation it replaces.  Falls back
        to a direct factorisation in the (rare) case the refined residual
        is still above working precision.
        """
        matrix = self.template.matrix(state_arr)
        rhs = self.template.rhs(t=None, states=state_arr)
        residual = rhs - matrix.dot(solution)
        try:
            refined = solution + self.template.smw_solve(
                self.base_factorization, self.base_states, state_arr, residual
            )
        except (np.linalg.LinAlgError, SingularCircuitError):
            return self._rebase(state_arr).solve(rhs)
        residual = rhs - matrix.dot(refined)
        denominator = (
            np.abs(matrix).sum(axis=1).max() * np.abs(refined).max()
            + np.abs(rhs).max()
        )
        if np.abs(residual).max() > 1e-11 * max(denominator, 1e-300):
            return self._rebase(state_arr).solve(rhs)
        return refined


class DCOperatingPoint:
    """DC solver with piecewise-linear diode state iteration.

    Parameters
    ----------
    max_iterations:
        Upper bound on diode-state iterations before giving up.
    state_hysteresis_v:
        Voltage hysteresis applied when toggling a diode's state, which
        prevents chattering around the exact threshold.
    linear_solver:
        Dense/sparse solving policy (``mode="auto"`` by default: dense
        LAPACK below the size threshold, sparse LU above it).
    assembly:
        ``"compiled"`` (default) assembles through the compiled stamp
        template and applies SMW low-rank updates between iterations;
        ``"legacy"`` re-runs the element-by-element reference assembler and
        factorises every iteration.
    smw_crossover:
        Maximum number of flipped diodes answered by a low-rank SMW update
        before the solver refactorises and rebases.  ``None`` (default)
        selects ``min(64, max(4, size // 32))``; ``0`` disables SMW entirely (every
        pattern change refactorises) — the knob the assembly benchmark
        sweeps to measure the SMW-vs-refactorise speedup.
    """

    def __init__(
        self,
        max_iterations: int = 200,
        state_hysteresis_v: float = 1e-9,
        strict: bool = False,
        acceptable_violation_v: float = 1e-6,
        linear_solver: Optional[LinearSystemSolver] = None,
        assembly: str = "compiled",
        smw_crossover: Optional[int] = None,
    ) -> None:
        if assembly not in ("compiled", "legacy"):
            raise SimulationError(f"unknown assembly mode {assembly!r}")
        if smw_crossover is not None and smw_crossover < 0:
            raise SimulationError("smw_crossover must be nonnegative")
        self.max_iterations = max_iterations
        self.state_hysteresis_v = state_hysteresis_v
        self.strict = strict
        self.acceptable_violation_v = acceptable_violation_v
        self.linear_solver = linear_solver if linear_solver is not None else LinearSystemSolver()
        self.assembly = assembly
        self.smw_crossover = smw_crossover
        # Linear engines cached per stamp template: repeated solves of one
        # system through one solver instance (dc_sweep, source stepping,
        # streaming re-solves) reuse the base factorisation across operating
        # points.  A small LRU (keyed by template identity) bounds the
        # retained factorisations: a weak mapping would never evict here,
        # because each engine holds a strong reference to its template.
        self._engines: "OrderedDict" = OrderedDict()
        self._max_engines = 4

    # ------------------------------------------------------------------

    def _engine_for(self, system: MNASystem) -> _CompiledLinearEngine:
        """The (possibly cached) linear engine for ``system``.

        Keyed by the compiled stamp template: a template rebuild (in-place
        element mutation detected by :meth:`MNASystem.compiled`) naturally
        invalidates the cached engine and its base factorisation, and
        :meth:`_CompiledLinearEngine.revalidate` handles live switch /
        memristor changes between solves.
        """
        template = system.compiled()
        crossover = self._crossover(system)
        key = id(template)
        engine = self._engines.get(key)
        if engine is None or engine.template is not template or engine.crossover != crossover:
            engine = _CompiledLinearEngine(template, self.linear_solver, crossover)
            self._engines[key] = engine
        else:
            engine.revalidate()
        self._engines.move_to_end(key)
        while len(self._engines) > self._max_engines:
            self._engines.popitem(last=False)
        return engine

    def _crossover(self, system: MNASystem) -> int:
        if self.smw_crossover is not None:
            return self.smw_crossover
        # An SMW update costs ~(k + 1) triangular solves; a refactorisation
        # costs tens of solve-equivalents on the sizes that matter (and more
        # as the system grows).  size//32 tracks that growth; the cap keeps
        # the k×k capacitance solve and the n×k solve block from eclipsing
        # the factorisation it replaces on very large instances.
        return min(64, max(4, system.size // 32))

    def solve(
        self,
        circuit: Circuit,
        initial_states=None,
        mna: Optional[MNASystem] = None,
    ) -> DCSolution:
        """Compute the DC operating point of ``circuit``.

        Parameters
        ----------
        initial_states:
            Optional warm-start diode states (e.g. from a previous solve of a
            nearby operating point, as used by the quasi-static analysis and
            the streaming warm re-solve).  Either a ``{name: bool}`` mapping
            (partial is fine) or a full boolean array in declaration order.
        mna:
            Pre-built :class:`MNASystem` to reuse across repeated solves of
            the same topology.
        """
        system = mna if mna is not None else MNASystem(circuit)
        if initial_states is not None and not isinstance(initial_states, dict):
            state_arr = np.asarray(initial_states, dtype=bool).copy()
            if state_arr.shape != (len(system.diodes),):
                raise SimulationError(
                    f"expected {len(system.diodes)} warm-start diode states, "
                    f"got shape {state_arr.shape}"
                )
        else:
            states = dict(system.default_diode_states())
            if initial_states:
                states.update(initial_states)
            state_arr = system.diode_states_array(states)

        engine: Optional[_CompiledLinearEngine] = None
        if self.assembly == "compiled":
            engine = self._engine_for(system)
        refactorizations_before = engine.refactorizations if engine else 0
        smw_solves_before = engine.smw_solves if engine else 0

        seen_patterns = set()
        single_flip_mode = False
        solution = None
        iterations = 0
        converged = False
        via_smw = False
        best_violation = float("inf")
        best_solution = None
        best_states = state_arr.copy()

        for iterations in range(1, self.max_iterations + 1):
            check_deadline("dc diode iteration")
            probes.dc_iteration()
            if engine is not None:
                solution, via_smw = engine.solve(state_arr)
            else:
                solution = self._solve_linear_legacy(system, state_arr)
            wants_on, deviation = self._desired_states(system, solution, state_arr)
            mismatched = wants_on != state_arr
            total_violation = self._weighted_violation(
                system, deviation, mismatched, state_arr
            )
            if total_violation < best_violation:
                best_violation = total_violation
                best_solution = solution
                best_states = state_arr.copy()
            if not mismatched.any():
                converged = True
                best_violation = 0.0
                best_states = state_arr.copy()
                if via_smw:
                    solution = self._accept_low_rank(engine, state_arr, solution)
                best_solution = solution
                break
            pattern = np.packbits(state_arr).tobytes()
            if pattern in seen_patterns:
                single_flip_mode = True
            seen_patterns.add(pattern)
            if single_flip_mode:
                # Flip only the diode whose state is most strongly violated.
                masked = np.where(mismatched, deviation, -np.inf)
                worst = int(np.argmax(masked))
                state_arr = state_arr.copy()
                state_arr[worst] = not state_arr[worst]
            else:
                state_arr = wants_on

        if not converged:
            # Fall back to the least-violated pattern seen.  Cycling between
            # patterns whose residual violation is tiny (nano-volt overdrive
            # around a clamp threshold) is benign; a genuinely unresolved
            # solve is reported (or raised in strict mode).
            if best_solution is None or (
                self.strict and best_violation > self.acceptable_violation_v
            ):
                raise ConvergenceError(
                    f"DC diode-state iteration did not converge in {self.max_iterations} "
                    f"iterations (best residual violation {best_violation:.3e} V)"
                )
            state_arr = best_states
            if engine is not None:
                # The best iterate may have come from a low-rank update;
                # re-solve its pattern directly so the fallback result is as
                # accurate as the converged path.
                solution = engine.solve_exact(state_arr)
            else:
                solution = best_solution

        final_states = dict(zip(system.diode_names, (bool(s) for s in state_arr)))
        dc_solution = DCSolution(
            voltages=system.voltages(solution),
            branch_currents={
                e.name: system.branch_current(solution, e.name)
                for e in system.branch_elements
            },
            diode_states=final_states,
            iterations=iterations,
            vector=solution,
            converged=converged,
            residual_violation_v=0.0 if converged else best_violation,
            refactorizations=(
                engine.refactorizations - refactorizations_before
                if engine is not None
                else iterations
            ),
            smw_solves=(
                engine.smw_solves - smw_solves_before if engine is not None else 0
            ),
        )
        annotate_span(
            dc_iterations=dc_solution.iterations,
            dc_refactorizations=dc_solution.refactorizations,
            dc_smw_solves=dc_solution.smw_solves,
        )
        return dc_solution

    # ------------------------------------------------------------------

    def _accept_low_rank(
        self,
        engine: _CompiledLinearEngine,
        state_arr: np.ndarray,
        solution: np.ndarray,
    ) -> np.ndarray:
        """The operating point returned for an iterate accepted from an SMW update.

        Refines it so the returned operating point carries no SMW round-off.
        """
        return engine.polish(state_arr, solution)

    @staticmethod
    def _weighted_violation(
        system: MNASystem,
        deviation: np.ndarray,
        mismatched: np.ndarray,
        state_arr: np.ndarray,
    ) -> float:
        """Violation metric used to rank fallback patterns.

        A diode that is ON while it should be OFF conducts a large bogus
        reverse current (violation voltage times the on-conductance), which
        corrupts the solution far more than an OFF diode that merely lets its
        node exceed the clamp by the violation voltage.  The metric weights
        the two cases accordingly so the fallback never prefers the former.
        """
        if not mismatched.any():
            return 0.0
        weights = np.where(state_arr, system.diode_on_conductances, 1.0)
        return float(np.sum(deviation[mismatched] * weights[mismatched]))

    def _solve_linear_legacy(
        self, system: MNASystem, state_arr: np.ndarray
    ) -> np.ndarray:
        states = dict(zip(system.diode_names, (bool(s) for s in state_arr)))
        matrix = system.matrix(diode_states=states, dt=None)
        rhs = system.rhs_reference(t=None, diode_states=states, dt=None, previous=None)
        return self.linear_solver.solve(matrix, rhs)

    def _desired_states(
        self,
        system: MNASystem,
        solution: np.ndarray,
        state_arr: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Desired state per diode and each diode's threshold deviation."""
        if not system.diodes:
            return np.zeros(0, dtype=bool), np.zeros(0)
        drops = system.diode_voltage_drops(solution)
        wants_on = desired_conduction_states(
            drops, system.diode_thresholds, state_arr, self.state_hysteresis_v
        )
        deviation = np.abs(drops - system.diode_thresholds)
        return wants_on, deviation


class WarmOperatingPoint(DCOperatingPoint):
    """A DC solver that stays with one circuit and resumes where it settled.

    The analog layer keeps one per compiled circuit
    (:attr:`~repro.analog.compiler.CompiledMaxFlowCircuit.warm_dc`), the
    simulated counterpart of a substrate that is programmed once and then
    settles.  Its linear engine keeps the base LU factorisation between
    solves, and :attr:`states` holds the diode pattern of the last converged
    solve, the starting guess of the next one that names none.  A solve
    from the pattern of an unchanged circuit is one iteration and one
    triangular solve.  The pattern is only a guess: every solve is accepted
    by the same complementarity check as a cold one.

    Until the circuit has a converged pattern, an iterate accepted from a
    low-rank update is solved directly instead of polished.  That rebases
    the engine on the answer, so later solves from it reproduce the answer
    bit for bit.  After that, accepted iterates are polished as usual, so a
    warm re-solve after a capacity edit still refactorises nothing.

    :attr:`lock` serialises the solves of one circuit (the batch service's
    cache hands one circuit to many threads).  A non-converged solve leaves
    :attr:`states` as it was.  A deep copy is a new, cold state: SuperLU
    handles and locks cannot be copied.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()
        self.states: Optional[np.ndarray] = None

    def __deepcopy__(self, memo) -> "WarmOperatingPoint":
        return type(self)()

    def solve(
        self,
        circuit: Circuit,
        initial_states=None,
        mna: Optional[MNASystem] = None,
    ) -> DCSolution:
        """Solve from ``initial_states``, or from :attr:`states` when ``None``."""
        with self.lock:
            solution = super().solve(
                circuit,
                initial_states=self.states if initial_states is None else initial_states,
                mna=mna,
            )
            if solution.converged:
                self.states = np.fromiter(
                    solution.diode_states.values(),
                    dtype=bool,
                    count=len(solution.diode_states),
                )
            return solution

    def _accept_low_rank(self, engine, state_arr, solution):
        if self.states is None:
            return engine.solve_exact(state_arr)
        return super()._accept_low_rank(engine, state_arr, solution)
