"""Graph substrate: graph type, generators, traversal, subgraph encodings,
and reference MST algorithms.

Every :class:`Graph` is stored as its CSR columns (``Graph.csr()``, see
:mod:`repro.graphs.csr`), which the array traversals of
:mod:`repro.graphs.traversal_arrays` walk.
"""

from repro.graphs.graph import Edge, Graph, edge_key
from repro.graphs.generators import (
    binary_tree,
    caterpillar,
    complete_bipartite,
    complete_graph,
    connected_gnp,
    cycle_graph,
    double_clique,
    grid_graph,
    hypercube,
    lollipop,
    path_graph,
    random_regular,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.graphs.mst import boruvka_trace, is_mst, kruskal, prim
from repro.graphs.serialize import (
    graph_from_obj,
    graph_hash,
    graph_to_obj,
)
from repro.graphs.traversal import (
    bfs,
    connected_components,
    diameter,
    is_connected,
    is_spanning_tree_edges,
)
from repro.graphs.traversal_arrays import (
    bfs_arrays,
    bfs_arrays_indexed,
    pointer_depths,
)
from repro.graphs.weighted import distinct_random_weights, weighted_copy

__all__ = [
    "Edge",
    "Graph",
    "edge_key",
    "bfs",
    "bfs_arrays",
    "bfs_arrays_indexed",
    "binary_tree",
    "boruvka_trace",
    "caterpillar",
    "complete_bipartite",
    "complete_graph",
    "connected_components",
    "connected_gnp",
    "cycle_graph",
    "diameter",
    "distinct_random_weights",
    "double_clique",
    "graph_from_obj",
    "graph_hash",
    "graph_to_obj",
    "grid_graph",
    "hypercube",
    "is_connected",
    "is_mst",
    "is_spanning_tree_edges",
    "kruskal",
    "lollipop",
    "path_graph",
    "pointer_depths",
    "prim",
    "random_regular",
    "random_tree",
    "star_graph",
    "torus_graph",
    "weighted_copy",
]
