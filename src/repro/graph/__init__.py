"""Flow-network substrate: graph data structure, generators, I/O and analysis.

The central class is :class:`~repro.graph.network.FlowNetwork`, a directed
graph with per-edge capacities and designated source/sink vertices.  Every
other subsystem (classical algorithms, the analog compiler, the crossbar
mapper) consumes this representation.
"""

from .network import Edge, FlowNetwork
from .generators import (
    RMATGenerator,
    rmat_graph,
    dense_random_graph,
    sparse_random_graph,
    grid_graph,
    layered_graph,
    bipartite_graph,
    path_graph,
    parallel_paths_graph,
    paper_example_graph,
    quasistatic_example_graph,
)
from .io import read_dimacs, write_dimacs, to_edge_list, from_edge_list
from .analysis import (
    GraphStatistics,
    graph_statistics,
    reachable_from,
    reaches,
    prune_useless_vertices,
    is_source_sink_connected,
    upper_bound_flow,
)
from .updates import (
    CapacityUpdate,
    EdgeInsert,
    EdgeRemove,
    MutableFlowNetwork,
    UpdateBatch,
)
from .transforms import (
    undirected_to_directed,
    split_antiparallel_edges,
    merge_parallel_edges,
    scale_capacities,
    relabel_vertices,
    split_vertex_capacities,
    split_in_label,
    split_out_label,
    unsplit_label,
    attach_super_terminals,
)

__all__ = [
    "Edge",
    "FlowNetwork",
    "RMATGenerator",
    "rmat_graph",
    "dense_random_graph",
    "sparse_random_graph",
    "grid_graph",
    "layered_graph",
    "bipartite_graph",
    "path_graph",
    "parallel_paths_graph",
    "paper_example_graph",
    "quasistatic_example_graph",
    "read_dimacs",
    "write_dimacs",
    "to_edge_list",
    "from_edge_list",
    "GraphStatistics",
    "graph_statistics",
    "reachable_from",
    "reaches",
    "prune_useless_vertices",
    "is_source_sink_connected",
    "upper_bound_flow",
    "CapacityUpdate",
    "EdgeInsert",
    "EdgeRemove",
    "MutableFlowNetwork",
    "UpdateBatch",
    "undirected_to_directed",
    "split_antiparallel_edges",
    "merge_parallel_edges",
    "scale_capacities",
    "relabel_vertices",
    "split_vertex_capacities",
    "split_in_label",
    "split_out_label",
    "unsplit_label",
    "attach_super_terminals",
]
