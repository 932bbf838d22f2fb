"""Graph-to-circuit compilation (Section 2 and Section 4 of the paper).

:class:`MaxFlowCircuitCompiler` turns a :class:`~repro.graph.network.FlowNetwork`
into the analog max-flow circuit:

1. edge capacities are quantized to shared voltage levels (Section 4.1), or
   merely scaled into ``[0, Vdd]`` when quantization is disabled;
2. every *active* edge receives a circuit node and a capacity clamp
   (Section 2.1);
3. every active internal vertex receives a negation widget per incoming edge
   and a conservation widget (Section 2.2);
4. the ``Vflow`` objective source drives every active source-adjacent edge
   through a unit resistor (Section 2.3).

An edge/vertex is *active* when it can lie on an s-t path; inactive elements
cannot carry flow, so they are omitted from the circuit (mirroring the
crossbar's power-gating of unused cells, Section 5.2 footnote 4) and reported
with zero flow by the readout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from ..config import NonIdealityModel, SubstrateParameters
from ..errors import CircuitError
from ..graph.analysis import reachable_from, reaches
from ..graph.network import FlowNetwork
from ..circuit.dc import WarmOperatingPoint
from ..circuit.netlist import Circuit
from .quantization import QuantizationResult, VoltageQuantizer
from .widgets import WidgetBuilder, WidgetStyle

__all__ = ["CompiledMaxFlowCircuit", "MaxFlowCircuitCompiler"]

Vertex = Hashable


@dataclass
class CompiledMaxFlowCircuit:
    """A flow network compiled into an analog circuit, plus the bookkeeping
    needed to read the solution back out.

    Attributes
    ----------
    circuit:
        The generated netlist.
    network:
        The original flow network (not modified).
    active_edges:
        Indices of the edges that received a circuit node.
    active_vertices:
        Vertices whose conservation widget was built (internal, active).
    edge_node:
        Mapping edge index -> circuit node name (``x{i}``).
    vertex_node:
        Mapping vertex -> conservation node name.
    source_edge_indices:
        Active edges leaving the source (the nodes driven by ``Vflow``).
    vflow_source:
        Element name of the objective voltage source.
    vflow_v:
        Drive voltage applied by that source.
    quantization:
        The quantization result (``mode='identity'`` when disabled).
    negative_resistor_count, opamp_count, resistor_count, diode_count:
        Circuit composition statistics (used by the power model and tests).
    style:
        Negative-resistor realisation style used.
    warm_dc:
        The circuit's one warm DC state
        (:class:`~repro.circuit.dc.WarmOperatingPoint`): its base LU
        factorisation and last converged diode pattern, under a lock.
        Every solve of the compiled circuit settles through it, so a
        repeat solve starts where the last one settled.  Left out of
        equality and repr; a deep copy gets a new, cold one.
    """

    circuit: Circuit
    network: FlowNetwork
    active_edges: List[int]
    active_vertices: List[Vertex]
    edge_node: Dict[int, str]
    vertex_node: Dict[Vertex, str]
    source_edge_indices: List[int]
    vflow_source: str
    vflow_v: float
    quantization: QuantizationResult
    parameters: SubstrateParameters
    nonideal: NonIdealityModel
    style: WidgetStyle
    negative_resistor_count: int = 0
    opamp_count: int = 0
    resistor_count: int = 0
    diode_count: int = 0
    #: Edge index -> clamp voltage-source element name.  Populated only when
    #: the circuit was compiled with ``dedicated_clamp_sources=True``; the
    #: streaming warm re-solve path re-programs these sources in place.
    clamp_element_of_edge: Dict[int, str] = field(default_factory=dict)
    #: True when every clamped edge has its own (re-programmable) source.
    dedicated_clamps: bool = False
    #: ``network.num_edges`` at compile time.  ``resolve()`` checks against
    #: this (not against the possibly-aliased live ``network`` attribute) to
    #: detect structural edits that require a recompile.
    compiled_edge_count: int = 0
    #: Lazily-built MNA system (with its compiled stamp template); use
    #: :meth:`mna` instead of touching this field.
    _mna: Optional["MNASystem"] = field(default=None, repr=False, compare=False)
    warm_dc: WarmOperatingPoint = field(
        default_factory=WarmOperatingPoint, init=False, repr=False, compare=False
    )

    def mna(self) -> "MNASystem":
        """Memoized :class:`~repro.circuit.mna.MNASystem` of this circuit.

        Built (together with its compiled stamp template) on first use and
        cached on the compiled circuit, so repeated solves of one compiled
        instance — most prominently cache hits in the batch service — skip
        both index assignment and stamp-template construction.  The cached
        system is read-only during solves and therefore safe to share
        across worker threads.
        """
        if self._mna is None:
            from ..circuit.mna import MNASystem

            system = MNASystem(self.circuit)
            system.compiled()  # build the stamp template eagerly
            self._mna = system
        return self._mna

    @property
    def num_circuit_nodes(self) -> int:
        """Number of circuit nodes (including ground)."""
        return self.circuit.num_nodes

    @property
    def num_elements(self) -> int:
        """Number of circuit elements."""
        return self.circuit.num_elements

    def node_of_edge(self, edge_index: int) -> str:
        """Circuit node holding the voltage of ``edge_index``."""
        try:
            return self.edge_node[edge_index]
        except KeyError as exc:
            raise CircuitError(f"edge {edge_index} was not compiled (inactive)") from exc


class MaxFlowCircuitCompiler:
    """Compiles flow networks into analog max-flow circuits.

    Parameters
    ----------
    parameters:
        Substrate design parameters (Table 1 defaults).
    nonideal:
        Non-ideality model to apply while building.
    quantize:
        Quantize capacities to shared voltage levels (Section 4.1).  When
        disabled, capacities are scaled into ``[0, Vdd]`` but kept exact.
    style:
        Negative-resistor realisation style (``"ideal"``, ``"finite-gain"``
        or ``"device"``).
    prune:
        Omit edges/vertices that cannot lie on any s-t path.
    quantizer_mode:
        ``"round"`` or ``"floor"`` (see :class:`VoltageQuantizer`).
    seed:
        Seed for the variation random draws (overrides ``nonideal.seed``).
    dedicated_clamp_sources:
        Give every clamped edge its own capacity-clamp voltage source
        instead of sharing one source per quantized level.  Costs one extra
        MNA branch unknown per edge, but makes every edge capacity
        independently re-programmable in place — the prerequisite for
        :meth:`~repro.analog.solver.AnalogMaxFlowSolver.resolve` warm
        re-solves on streamed capacity updates.
    """

    def __init__(
        self,
        parameters: Optional[SubstrateParameters] = None,
        nonideal: Optional[NonIdealityModel] = None,
        quantize: bool = True,
        style: str = "ideal",
        prune: bool = True,
        quantizer_mode: str = "round",
        seed: Optional[int] = None,
        dedicated_clamp_sources: bool = False,
    ) -> None:
        self.parameters = parameters if parameters is not None else SubstrateParameters()
        self.nonideal = nonideal if nonideal is not None else NonIdealityModel()
        self.parameters.validate()
        self.nonideal.validate()
        self.quantize = quantize
        self.style = WidgetStyle.parse(style)
        self.prune = prune
        self.quantizer_mode = quantizer_mode
        self.seed = seed if seed is not None else self.nonideal.seed
        self.dedicated_clamp_sources = dedicated_clamp_sources

    # ------------------------------------------------------------------

    def compile(self, network: FlowNetwork, vflow_v: Optional[float] = None) -> CompiledMaxFlowCircuit:
        """Compile ``network``; ``vflow_v`` overrides the Table 1 drive voltage."""
        vflow = float(vflow_v) if vflow_v is not None else self.parameters.vflow_v
        active_vertices, active_edges = self._active_subgraph(network)
        source_edges = [
            i
            for i in active_edges
            if network.edge(i).tail == network.source
        ]
        if not source_edges:
            raise CircuitError(
                "the source has no usable outgoing edge; the max flow is trivially zero"
            )

        quantizer = VoltageQuantizer(
            num_levels=self.parameters.voltage_levels,
            vdd=self.parameters.vdd_v,
            mode=self.quantizer_mode,
        )
        quantization = (
            quantizer.quantize(network) if self.quantize else quantizer.identity(network)
        )

        circuit = Circuit(title=f"max-flow substrate ({network.num_vertices} vertices)")
        builder = WidgetBuilder(
            circuit=circuit,
            parameters=self.parameters,
            nonideal=self.nonideal,
            style=self.style,
            rng=random.Random(self.seed),
            dedicated_clamp_sources=self.dedicated_clamp_sources,
        )

        # Edge nodes and capacity clamps.
        edge_node: Dict[int, str] = {}
        for index in active_edges:
            edge = network.edge(index)
            node = circuit.node(f"x{index}")
            edge_node[index] = node
            builder.add_parasitic_capacitance(node)
            clamp_voltage = quantization.voltage_of_edge.get(index)
            builder.add_capacity_clamp(index, node, clamp_voltage)

        # Objective widget.
        vflow_source = builder.add_objective_widget(
            [edge_node[i] for i in source_edges], vflow
        )

        # Negation + conservation widgets for the internal active vertices.
        vertex_node: Dict[Vertex, str] = {}
        active_edge_set = set(active_edges)
        internal_vertices: List[Vertex] = []
        for vertex in active_vertices:
            if vertex in (network.source, network.sink):
                continue
            incoming = [e for e in network.in_edges(vertex) if e.index in active_edge_set]
            outgoing = [e for e in network.out_edges(vertex) if e.index in active_edge_set]
            if not incoming and not outgoing:
                continue
            internal_vertices.append(vertex)
            node = circuit.node(f"n_{vertex}")
            vertex_node[vertex] = node
            negated_nodes = [
                builder.add_negation_widget(e.index, edge_node[e.index]) for e in incoming
            ]
            builder.add_conservation_widget(
                node,
                negated_nodes,
                [edge_node[e.index] for e in outgoing],
                name_suffix=str(vertex),
            )

        return CompiledMaxFlowCircuit(
            circuit=circuit,
            network=network,
            active_edges=list(active_edges),
            active_vertices=internal_vertices,
            edge_node=edge_node,
            vertex_node=vertex_node,
            source_edge_indices=source_edges,
            vflow_source=vflow_source,
            vflow_v=vflow,
            quantization=quantization,
            parameters=self.parameters,
            nonideal=self.nonideal,
            style=self.style,
            negative_resistor_count=len(builder.negative_resistor_names),
            opamp_count=len(builder.opamp_names),
            resistor_count=builder.resistor_count,
            diode_count=builder.diode_count,
            clamp_element_of_edge=dict(builder.clamp_element_of_edge),
            dedicated_clamps=self.dedicated_clamp_sources,
            compiled_edge_count=network.num_edges,
        )

    # ------------------------------------------------------------------

    def _active_subgraph(self, network: FlowNetwork):
        """Vertices and edge indices that can participate in s-t flow."""
        if self.prune:
            forward = reachable_from(network, network.source)
            backward = reaches(network, network.sink)
            useful = forward & backward
        else:
            useful = set(network.vertices())
        useful |= {network.source, network.sink}
        active_vertices = [v for v in network.vertices() if v in useful]
        active_edges = []
        for edge in network.edges():
            if edge.tail not in useful or edge.head not in useful:
                continue
            # Edges entering the source or leaving the sink can only carry
            # circulation flow; they never contribute to |f| and are dropped.
            if edge.head == network.source or edge.tail == network.sink:
                continue
            active_edges.append(edge.index)
        return active_vertices, active_edges
