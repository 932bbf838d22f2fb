"""High-level analog max-flow solver.

:class:`AnalogMaxFlowSolver` packages the full pipeline of the paper:
quantize -> compile to the analog circuit -> solve the circuit (DC operating
point for the steady-state answer, or a transient simulation when the
convergence time is of interest) -> read the flow back out and convert to
flow units.  It also supports an *adaptive drive* mode that raises ``Vflow``
until the flow value stops improving, which quantifies the finite-drive
error discussed in Section 6.5 (and exercised by ablation bench A4).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import NonIdealityModel, SubstrateParameters
from ..errors import CircuitError
from ..graph.analysis import is_source_sink_connected
from ..graph.network import FlowNetwork
from ..circuit.dc import DCOperatingPoint
from .compiler import CompiledMaxFlowCircuit, MaxFlowCircuitCompiler
from .readout import FlowReadout
from .verification import SolutionQuality, evaluate_solution

__all__ = ["AnalogMaxFlowSolver", "AnalogMaxFlowResult"]


@dataclass
class AnalogMaxFlowResult:
    """Result of solving a max-flow instance on the analog substrate.

    Attributes
    ----------
    flow_value:
        Flow value decoded from the source-edge voltages (flow units).
    flow_value_from_current:
        Flow value decoded from the ``Vflow`` source current via
        Equation 7a — the readout a physical substrate would use.
    edge_flows:
        Per-edge flows (flow units) for every edge of the input network.
    edge_voltages:
        Raw steady-state voltages of the active edge nodes.
    method:
        ``"dc"`` or ``"transient"``.
    vflow_v:
        Objective drive voltage used for the final solve.
    convergence_time_s:
        Settling time of the flow value (only for transient solves).
    solver_wall_time_s:
        Wall-clock time spent simulating (not a hardware estimate).
    dc_iterations:
        Diode-state iterations of the final DC solve.
    compiled:
        The compiled circuit (kept for inspection, power modelling, ...).
    dc_solution:
        The underlying :class:`~repro.circuit.dc.DCSolution` (DC solves
        only).  Carries the final diode states, which
        :meth:`AnalogMaxFlowSolver.resolve` uses to warm-start the next
        re-solve of a streamed instance.
    """

    flow_value: float
    flow_value_from_current: float
    edge_flows: Dict[int, float]
    edge_voltages: Dict[int, float]
    method: str
    vflow_v: float
    convergence_time_s: Optional[float] = None
    solver_wall_time_s: float = 0.0
    dc_iterations: int = 0
    compiled: CompiledMaxFlowCircuit = field(default=None, repr=False)
    dc_solution: object = field(default=None, repr=False)

    def quality(self, network: FlowNetwork, exact_value: Optional[float] = None) -> SolutionQuality:
        """Evaluate this result against the exact optimum of ``network``.

        Parameters
        ----------
        network:
            The instance this result was solved from.
        exact_value:
            Known exact max-flow value; computed with a classical algorithm
            when omitted.

        Returns
        -------
        SolutionQuality
            Relative error, feasibility violations and related metrics.
        """
        return evaluate_solution(network, self.flow_value, self.edge_flows, exact_value)


class AnalogMaxFlowSolver:
    """Solve max-flow instances on the simulated analog substrate.

    Parameters
    ----------
    parameters:
        Substrate design parameters (Table 1 defaults).
    nonideal:
        Non-ideality model (ideal by default).
    quantize:
        Apply the Section 4.1 voltage-level quantization.
    style:
        Negative-resistor realisation: ``"ideal"``, ``"finite-gain"`` or
        ``"device"``.  Steady-state accuracy studies use the first two;
        convergence-time studies need ``"device"``.
    prune:
        Drop edges/vertices that cannot carry s-t flow before compiling.
    adaptive_drive:
        When set, ``Vflow`` is doubled (up to ``max_drive_doublings`` times)
        until the flow value improves by less than ``drive_tolerance``
        relative; this removes the finite-drive error at the cost of extra
        solves.
    seed:
        Seed for the non-ideality random draws.
    dedicated_clamp_sources:
        Compile with one re-programmable clamp source per edge (see
        :class:`~repro.analog.compiler.MaxFlowCircuitCompiler`); required
        for :meth:`resolve` warm re-solves on streamed capacity updates.

    Examples
    --------
    Solve a two-edge bottleneck network on the (ideal, unquantized)
    substrate; the steady state recovers the exact optimum of 1:

    >>> from repro import FlowNetwork
    >>> from repro.analog import AnalogMaxFlowSolver
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 2.0)
    >>> _ = g.add_edge("a", "t", 1.0)
    >>> result = AnalogMaxFlowSolver(quantize=False, adaptive_drive=True).solve(g)
    >>> abs(result.flow_value - 1.0) < 0.01
    True
    """

    def __init__(
        self,
        parameters: Optional[SubstrateParameters] = None,
        nonideal: Optional[NonIdealityModel] = None,
        quantize: bool = True,
        style: str = "ideal",
        prune: bool = True,
        adaptive_drive: bool = False,
        drive_tolerance: float = 1e-4,
        max_drive_doublings: int = 8,
        quantizer_mode: str = "round",
        seed: Optional[int] = None,
        dedicated_clamp_sources: bool = False,
    ) -> None:
        self.parameters = parameters if parameters is not None else SubstrateParameters()
        self.nonideal = nonideal if nonideal is not None else NonIdealityModel()
        self.quantize = quantize
        self.style = style
        self.prune = prune
        self.adaptive_drive = adaptive_drive
        self.drive_tolerance = drive_tolerance
        self.max_drive_doublings = max_drive_doublings
        self.quantizer_mode = quantizer_mode
        self.seed = seed
        self.dedicated_clamp_sources = dedicated_clamp_sources

    # ------------------------------------------------------------------

    def compiler(self) -> MaxFlowCircuitCompiler:
        """The compiler configured consistently with this solver.

        Returns
        -------
        MaxFlowCircuitCompiler
            A fresh compiler carrying this solver's parameters, non-ideality
            model, quantization and widget-style settings.
        """
        return MaxFlowCircuitCompiler(
            parameters=self.parameters,
            nonideal=self.nonideal,
            quantize=self.quantize,
            style=self.style,
            prune=self.prune,
            quantizer_mode=self.quantizer_mode,
            seed=self.seed,
            dedicated_clamp_sources=self.dedicated_clamp_sources,
        )

    def compile(self, network: FlowNetwork, vflow_v: Optional[float] = None) -> CompiledMaxFlowCircuit:
        """Compile ``network`` without solving it.

        Parameters
        ----------
        network:
            The instance to compile.
        vflow_v:
            Override of the objective drive voltage (Table 1 default
            otherwise).

        Returns
        -------
        CompiledMaxFlowCircuit
            The netlist plus readout bookkeeping; hand it to
            :meth:`solve_compiled` (possibly many times, e.g. via the batch
            service's compiled-circuit cache).
        """
        return self.compiler().compile(network, vflow_v=vflow_v)

    def with_dedicated_clamps(self, prune: Optional[bool] = None) -> "AnalogMaxFlowSolver":
        """A fresh solver with this configuration and per-edge clamp sources.

        The warm :meth:`resolve` loops (streaming sessions, analog shards)
        need re-programmable clamps.  ``prune`` overrides this solver's
        setting (analog shards need a stable, unpruned edge set).
        """
        return AnalogMaxFlowSolver(
            parameters=self.parameters,
            nonideal=self.nonideal,
            quantize=self.quantize,
            style=self.style,
            prune=self.prune if prune is None else prune,
            adaptive_drive=self.adaptive_drive,
            drive_tolerance=self.drive_tolerance,
            max_drive_doublings=self.max_drive_doublings,
            quantizer_mode=self.quantizer_mode,
            seed=self.seed,
            dedicated_clamp_sources=True,
        )

    # ------------------------------------------------------------------

    def solve(
        self,
        network: FlowNetwork,
        method: str = "dc",
        vflow_v: Optional[float] = None,
        measure_convergence: bool = False,
    ) -> AnalogMaxFlowResult:
        """Solve a max-flow instance.

        Parameters
        ----------
        method:
            ``"dc"`` computes the steady state directly (fast, used for
            accuracy studies); ``"transient"`` additionally simulates the
            settling behaviour, which requires the ``"device"`` or at least a
            parasitic-capacitance-enabled configuration to be meaningful.
        vflow_v:
            Override of the objective drive voltage.
        measure_convergence:
            For ``method="transient"``: also report the 0.1 % settling time
            of the flow value.

        Returns
        -------
        AnalogMaxFlowResult
            Decoded flow value, per-edge flows and solve metadata.

        Examples
        --------
        >>> from repro import FlowNetwork
        >>> from repro.analog import AnalogMaxFlowSolver
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "t", 3.0)
        >>> AnalogMaxFlowSolver().solve(g).method
        'dc'
        """
        start = time.perf_counter()
        if not is_source_sink_connected(network):
            return self._zero_result(network, method, start)

        if method == "dc":
            result = self._solve_dc(network, vflow_v)
        elif method == "transient":
            result = self._solve_transient(network, vflow_v, measure_convergence)
        else:
            raise CircuitError(f"unknown solve method {method!r}")
        result.solver_wall_time_s = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------

    def _zero_result(self, network: FlowNetwork, method: str, start: float) -> AnalogMaxFlowResult:
        return AnalogMaxFlowResult(
            flow_value=0.0,
            flow_value_from_current=0.0,
            edge_flows={edge.index: 0.0 for edge in network.edges()},
            edge_voltages={},
            method=method,
            vflow_v=self.parameters.vflow_v,
            solver_wall_time_s=time.perf_counter() - start,
        )

    def _solve_dc(self, network: FlowNetwork, vflow_v: Optional[float]) -> AnalogMaxFlowResult:
        vflow = float(vflow_v) if vflow_v is not None else self.parameters.vflow_v
        compiled, decoded, iterations = self._dc_at_drive(network, vflow)
        if self.adaptive_drive:
            for _ in range(self.max_drive_doublings):
                next_vflow = vflow * 2.0
                next_compiled, next_decoded, next_iterations = self._dc_at_drive(
                    network, next_vflow
                )
                previous_value = decoded["flow_value"]
                improvement = next_decoded["flow_value"] - previous_value
                relative = improvement / previous_value if previous_value > 0 else float("inf")
                compiled, decoded, iterations, vflow = (
                    next_compiled,
                    next_decoded,
                    next_iterations,
                    next_vflow,
                )
                if previous_value > 0 and relative < self.drive_tolerance:
                    break
        return AnalogMaxFlowResult(
            flow_value=decoded["flow_value"],
            flow_value_from_current=decoded["flow_value_from_current"],
            edge_flows=decoded["edge_flows"],
            edge_voltages=decoded["edge_voltages"],
            method="dc",
            vflow_v=vflow,
            dc_iterations=iterations,
            compiled=compiled,
        )

    def solve_compiled(self, compiled: CompiledMaxFlowCircuit) -> AnalogMaxFlowResult:
        """Solve an already-compiled circuit (DC) and decode the flow.

        Callers that see the same network repeatedly (most prominently the
        batch service's compiled-circuit cache) compile once with
        :meth:`compile` and hand the result here for each solve.  The
        circuit keeps its warm DC state
        (:attr:`~repro.analog.compiler.CompiledMaxFlowCircuit.warm_dc`), so
        a repeat solve starts at the circuit's own operating point: one
        iteration and one triangular solve against the kept factorisation,
        with the same answer as the first solve.

        Parameters
        ----------
        compiled:
            A circuit produced by :meth:`compile` (or a compatible
            :class:`~repro.analog.compiler.MaxFlowCircuitCompiler`).

        Returns
        -------
        AnalogMaxFlowResult
            Same shape of result as :meth:`solve` with ``method="dc"``.

        Examples
        --------
        >>> from repro import FlowNetwork
        >>> from repro.analog import AnalogMaxFlowSolver
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "t", 2.0)
        >>> solver = AnalogMaxFlowSolver(quantize=False)
        >>> compiled = solver.compile(g, vflow_v=6.0)
        >>> round(solver.solve_compiled(compiled).vflow_v, 1)
        6.0
        >>> solver.solve_compiled(compiled).dc_iterations
        1
        """
        start = time.perf_counter()
        compiled, solution = self._settle(compiled)
        return self._result(compiled, solution, start)

    # ------------------------------------------------------------------
    # Streaming warm re-solve
    # ------------------------------------------------------------------

    def resolve(
        self,
        compiled: CompiledMaxFlowCircuit,
        network: Optional[FlowNetwork] = None,
        previous: Optional[AnalogMaxFlowResult] = None,
    ) -> AnalogMaxFlowResult:
        """Re-solve a compiled circuit after capacity updates, warm-started.

        The fast path of the streaming subsystem.  Capacities live in the
        circuit as clamp-source voltages, which enter the MNA system only
        through the right-hand side, so when the sparsity pattern is
        unchanged this method skips *recompilation and refactorisation
        entirely*: it re-programs the per-edge clamp sources in place
        (:meth:`~repro.circuit.stamps.CompiledMNA.apply_capacity_updates`),
        warm-starts the diode-state iteration from the previous operating
        point, and lets the handful of induced diode flips flow through the
        factorisation the circuit keeps
        (:attr:`~repro.analog.compiler.CompiledMaxFlowCircuit.warm_dc`) as
        rank-``k`` Sherman–Morrison–Woodbury corrections.  It settles
        through the same warm state as :meth:`solve_compiled`.

        Parameters
        ----------
        compiled:
            A circuit compiled with ``dedicated_clamp_sources=True`` (see
            :meth:`compile`).  It is mutated in place (clamp values,
            quantization, network reference) and must therefore be owned by
            the caller — do not share it through the batch-service cache
            while resolving.
        network:
            The updated network.  Must have the same sparsity pattern as
            ``compiled.network`` (same edges/endpoints; only capacities may
            differ, and finite capacities must stay finite).  ``None`` skips
            the capacity re-sync and just (re-)solves — the cold-start call
            of a streaming session.
        previous:
            The previous :class:`AnalogMaxFlowResult` of this circuit; its
            final diode states seed the iteration.  ``None`` starts from the
            circuit's last converged pattern (the all-off default on a
            fresh circuit).

        Returns
        -------
        AnalogMaxFlowResult
            Same shape as :meth:`solve` with ``method="dc"``; its
            ``dc_solution`` feeds the next :meth:`resolve`.

        Raises
        ------
        CircuitError
            When the circuit lacks dedicated clamp sources or the update is
            structural (changed edge set, finite/infinite transition) —
            callers must recompile for those.
        """
        start = time.perf_counter()
        if network is not None:
            self._sync_clamp_sources(compiled, network)
        warm_states = None
        if previous is not None:
            solution = previous.dc_solution if hasattr(previous, "dc_solution") else previous
            if solution is not None:
                warm_states = solution.diode_states
        compiled, solution = self._settle(compiled, warm_states)
        return self._result(compiled, solution, start)

    def _settle(self, compiled: CompiledMaxFlowCircuit, initial_states=None):
        """DC-solve ``compiled`` through its warm state: ``(compiled, solution)``.

        A solve that does not converge falls back to source stepping on a
        deep copy of the circuit, which is returned in its place: the
        stepping temporarily rewrites the drive source's waveform, and
        ``compiled`` may be shared (the batch service's cache hands one
        instance to many worker threads).
        """
        solution = compiled.warm_dc.solve(
            compiled.circuit, initial_states=initial_states, mna=compiled.mna()
        )
        if not solution.converged:
            compiled = copy.deepcopy(compiled)
            solution = self._source_stepped_dc(compiled, compiled.vflow_v)
        return compiled, solution

    @staticmethod
    def _result(
        compiled: CompiledMaxFlowCircuit, solution, start: float
    ) -> AnalogMaxFlowResult:
        decoded = FlowReadout(compiled).from_dc(solution)
        result = AnalogMaxFlowResult(
            flow_value=decoded["flow_value"],
            flow_value_from_current=decoded["flow_value_from_current"],
            edge_flows=decoded["edge_flows"],
            edge_voltages=decoded["edge_voltages"],
            method="dc",
            vflow_v=compiled.vflow_v,
            dc_iterations=solution.iterations,
            compiled=compiled,
            dc_solution=solution,
        )
        result.solver_wall_time_s = time.perf_counter() - start
        return result

    def _sync_clamp_sources(
        self, compiled: CompiledMaxFlowCircuit, network: FlowNetwork
    ) -> int:
        """Re-program the dedicated clamp sources to ``network``'s capacities.

        Returns the number of sources whose value actually changed.  Note
        that a change of the instance's *maximum* capacity rescales every
        clamp voltage (the quantizer normalises by ``C``), which this method
        handles uniformly — it is still a pure right-hand-side edit.
        """
        from .quantization import VoltageQuantizer

        if not compiled.dedicated_clamps:
            raise CircuitError(
                "resolve() needs a circuit compiled with dedicated_clamp_sources=True"
            )
        # Compare against the compile-time snapshot, not compiled.network:
        # callers may mutate and pass the very object compile() stored, in
        # which case the live attribute would always agree with itself.
        if network.num_edges != compiled.compiled_edge_count:
            raise CircuitError(
                "edge set changed (structural update); recompile instead of resolving"
            )
        quantizer = VoltageQuantizer(
            num_levels=self.parameters.voltage_levels,
            vdd=self.parameters.vdd_v,
            mode=self.quantizer_mode,
        )
        quantization = (
            quantizer.quantize(network) if self.quantize else quantizer.identity(network)
        )
        drop = self.nonideal.diode_forward_voltage_v
        template = compiled.mna().compiled()
        changed: Dict[str, float] = {}
        for edge_index, element_name in compiled.clamp_element_of_edge.items():
            voltage = quantization.voltage_of_edge.get(edge_index)
            if voltage is None:
                raise CircuitError(
                    f"edge {edge_index} became uncapacitated (structural update); "
                    "recompile instead of resolving"
                )
            compensated = voltage - drop
            if compiled.circuit.element(element_name).dc_value != compensated:
                changed[element_name] = compensated
        if changed:
            template.apply_capacity_updates(changed)
        compiled.quantization = quantization
        compiled.network = network
        return len(changed)

    def _dc_solution(self, compiled: CompiledMaxFlowCircuit):
        solution = DCOperatingPoint().solve(compiled.circuit, mna=compiled.mna())
        if not solution.converged:
            # Drive stepping (the SPICE "source stepping" continuation): ramp
            # Vflow from a benign level up to the target, warm-starting the
            # diode states at every step.  High drives activate many clamps
            # at once, which can trap the plain fixed-point iteration in a
            # cycle; following the physical turn-on sequence avoids that.
            solution = self._source_stepped_dc(compiled, compiled.vflow_v)
        return solution

    def _dc_at_drive(self, network: FlowNetwork, vflow: float):
        compiled = self.compile(network, vflow_v=vflow)
        solution = self._dc_solution(compiled)
        readout = FlowReadout(compiled)
        decoded = readout.from_dc(solution)
        return compiled, decoded, solution.iterations

    @staticmethod
    def _source_stepped_dc(compiled, vflow: float, steps: int = 10):
        from ..circuit.analysis import dc_sweep

        start = min(compiled.parameters.vdd_v, vflow)
        levels = [start + (vflow - start) * i / (steps - 1) for i in range(steps)]
        solutions = dc_sweep(
            compiled.circuit,
            compiled.vflow_source,
            levels,
            warm_start=True,
            mna=compiled.mna(),
        )
        return solutions[-1]

    def _solve_transient(
        self,
        network: FlowNetwork,
        vflow_v: Optional[float],
        measure_convergence: bool,
    ) -> AnalogMaxFlowResult:
        from .convergence import measure_convergence_time

        vflow = float(vflow_v) if vflow_v is not None else self.parameters.vflow_v
        compiled = self.compile(network, vflow_v=vflow)
        measurement = measure_convergence_time(
            compiled, tolerance=self.parameters.convergence_tolerance
        )
        readout = FlowReadout(compiled)
        decoded = readout.from_transient(measurement.transient)
        return AnalogMaxFlowResult(
            flow_value=decoded["flow_value"],
            flow_value_from_current=decoded["flow_value_from_current"],
            edge_flows=decoded["edge_flows"],
            edge_voltages=decoded["edge_voltages"],
            method="transient",
            vflow_v=vflow,
            convergence_time_s=(
                measurement.convergence_time_s if measure_convergence else None
            ),
            compiled=compiled,
        )
