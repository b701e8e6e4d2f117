"""The immutable undirected graph type.

The library models networks as simple connected undirected graphs, as the
paper assumes: no self-loops, no parallel edges.  Nodes are the integers
``0..n-1`` (identifiers live in a separate assignment, see
:mod:`repro.util.idspace`), edges may carry weights, and each node sees
its incident edges through *ports* ``0..deg-1`` ordered by neighbor
index, matching the port-numbering convention of the LOCAL model.

A graph stores one representation: its CSR columns (see
:mod:`repro.graphs.csr`), where entry ``indptr[u] + p`` is port ``p``
of node ``u``.  Every constructor ends in
:func:`~repro.graphs.csr.csr_from_columns` (or, for a Prüfer tree,
:func:`~repro.graphs.csr.csr_from_tree_columns`), which also does the
edge checks; the sorted edge and adjacency tuples are derived on their
first read, so a pipeline that only reads the CSR never pays for a
million Python tuples.  A weighted graph also keeps its weights exactly
as given, keyed by canonical edge.

The class is immutable after construction: every mutation-flavoured
operation (:meth:`Graph.add_edges`, :meth:`Graph.remove_edges`,
:meth:`Graph.with_weights`) returns a new graph.  Immutability keeps
configurations hashable-by-content and rules out aliasing bugs between
the simulator, the provers and the adversaries.

``networkx`` interop is provided for cross-checking in tests, but the
core never imports it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import (
    CSRGraph,
    _pair_columns,
    csr_from_columns,
    csr_from_tree_columns,
)

__all__ = ["Edge", "Graph", "edge_key"]

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    if u == v:
        raise GraphError(f"self-loop on node {u}")
    return (u, v) if u < v else (v, u)


def _weight_table(
    edges: tuple[Edge, ...], weights: Mapping[Edge, float]
) -> dict[Edge, float]:
    """``weights`` keyed by canonical edge, once per edge of ``edges``."""
    table: dict[Edge, float] = {}
    for (u, v), w in weights.items():
        key = edge_key(u, v)
        if key in table:
            raise GraphError(f"edge {key} given two weights")
        table[key] = w
    present = set(edges)
    missing = present - table.keys()
    if missing:
        raise GraphError(f"edges without weight: {sorted(missing)[:5]}")
    extra = table.keys() - present
    if extra:
        raise GraphError(f"weights for absent edges: {sorted(extra)[:5]}")
    return table


def _with_weights(
    csr: CSRGraph, edges: tuple[Edge, ...], table: Mapping[Edge, float]
) -> CSRGraph:
    """``csr`` with the per-half-edge weights of ``table``; ``edges`` is
    the graph's sorted edge tuple, the order of the ``u < v`` entries."""
    column = np.fromiter((table[e] for e in edges), dtype=np.float64, count=len(edges))
    forward = csr.owners < csr.indices
    half = np.empty(csr.num_entries, dtype=np.float64)
    half[forward] = column
    half[csr.reverse[forward]] = column
    return dataclasses.replace(csr, weights=half)


class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs of ints; order and
        duplicates-with-same-key are rejected to surface generator bugs
        early.
    weights:
        Optional mapping from edge to a numeric weight, each edge keyed
        once in either orientation.  A graph either weights every edge or
        none of them.
    """

    __slots__ = ("_n", "_adj", "_weights", "_edges", "_csr")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge] = (),
        weights: Mapping[Edge, float] | None = None,
    ) -> None:
        self._n = n
        self._csr = csr_from_columns(n, *_pair_columns(n, edges))
        self._weights = None
        if weights is not None:
            self._weights = _weight_table(self._edges, weights)
            self._csr = _with_weights(self._csr, self._edges, self._weights)

    @classmethod
    def from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int]) -> "Graph":
        """The unweighted graph with edges ``(us[i], vs[i])``.

        Equal to ``Graph(n, zip(us, vs))`` and rejects the same inputs
        with the same messages, without a Python pair per edge.
        """
        return cls._from_csr(csr_from_columns(n, us, vs))

    @classmethod
    def _from_tree_columns(
        cls, n: int, children: Sequence[int], parents: Sequence[int]
    ) -> "Graph":
        """:meth:`from_columns` for a tree given as ``children[i] ->
        parents[i]`` edges toward node ``n - 1``, whose CSR keeps that
        orientation (see :func:`~repro.graphs.csr.csr_from_tree_columns`)."""
        return cls._from_csr(csr_from_tree_columns(n, children, parents))

    @classmethod
    def _from_csr(cls, csr: CSRGraph) -> "Graph":
        graph = cls.__new__(cls)
        graph._n = csr.n
        graph._weights = None
        graph._csr = csr
        return graph

    def __getattr__(self, name: str):
        # Only reached for unset slots: ``_edges`` and ``_adj`` are each
        # derived from the CSR on their first read.  Threads racing here
        # store equal values.
        if name == "_edges":
            csr = self._csr
            forward = csr.owners < csr.indices
            self._edges = tuple(
                zip(csr.owners[forward].tolist(), csr.indices[forward].tolist())
            )
            return self._edges
        if name == "_adj":
            flat = self._csr.indices.tolist()
            bounds = self._csr.indptr.tolist()
            self._adj = tuple(
                tuple(flat[bounds[u] : bounds[u + 1]]) for u in range(self._n)
            )
            return self._adj
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def nodes(self) -> range:
        """The node set, always ``range(n)``."""
        return range(self._n)

    @property
    def num_edges(self) -> int:
        return self._csr.num_entries // 2

    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical sorted order."""
        return self._edges

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of ``u`` in increasing index order (port order)."""
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def max_degree(self) -> int:
        return int(self._csr.degrees().max(initial=0))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return u != v and v in self._adj[u]

    def port(self, u: int, v: int) -> int:
        """Port number through which ``u`` sees neighbor ``v``."""
        self._check_node(u)
        try:
            return self._adj[u].index(v)
        except ValueError:
            raise GraphError(f"({u}, {v}) is not an edge") from None

    def neighbor_at(self, u: int, port: int) -> int:
        """Neighbor of ``u`` behind the given port."""
        self._check_node(u)
        if not 0 <= port < len(self._adj[u]):
            raise GraphError(f"node {u} has no port {port}")
        return self._adj[u][port]

    def csr(self) -> CSRGraph:
        """The graph's CSR columns (see :mod:`repro.graphs.csr`), its
        storage since construction."""
        return self._csr

    # -- weights ------------------------------------------------------------

    @property
    def is_weighted(self) -> bool:
        return self._weights is not None

    def weight(self, u: int, v: int) -> float:
        if self._weights is None:
            raise GraphError("graph is unweighted")
        key = edge_key(u, v)
        if key not in self._weights:
            raise GraphError(f"({u}, {v}) is not an edge")
        return self._weights[key]

    def weights(self) -> dict[Edge, float]:
        if self._weights is None:
            raise GraphError("graph is unweighted")
        return dict(self._weights)

    def weight_key(self, u: int, v: int) -> tuple[float, int, int]:
        """Total-order key ``(w, u, v)`` used to break weight ties.

        The MST machinery assumes distinct weights; comparing by this key
        makes any weight assignment behave as if it were distinct, in a
        way every node can compute locally from ground truth.
        """
        key = edge_key(u, v)
        return (self.weight(*key), key[0], key[1])

    def has_distinct_weights(self) -> bool:
        if self._weights is None:
            raise GraphError("graph is unweighted")
        values = list(self._weights.values())
        return len(set(values)) == len(values)

    # -- derived graphs -----------------------------------------------------

    def with_weights(
        self, weights: Mapping[Edge, float] | Callable[[int, int], float]
    ) -> "Graph":
        """Return a weighted copy; accepts a mapping or a function."""
        if callable(weights):
            mapping = {e: weights(*e) for e in self._edges}
        else:
            mapping = dict(weights)
        return Graph(self._n, self._edges, mapping)

    def unweighted(self) -> "Graph":
        return Graph(self._n, self._edges)

    def add_edges(self, new_edges: Iterable[Edge]) -> "Graph":
        """Return a graph with the extra edges (unweighted result)."""
        combined = set(self._edges)
        for u, v in new_edges:
            combined.add(edge_key(u, v))
        return Graph(self._n, sorted(combined))

    def remove_edges(self, gone: Iterable[Edge]) -> "Graph":
        """Return a graph without the given edges (weights preserved)."""
        doomed = {edge_key(u, v) for u, v in gone}
        kept = [e for e in self._edges if e not in doomed]
        weights = None
        if self._weights is not None:
            weights = {e: self._weights[e] for e in kept}
        return Graph(self._n, kept, weights)

    def induced_subgraph(self, nodes: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old-node -> new-node mapping."""
        kept = sorted(set(nodes))
        for u in kept:
            self._check_node(u)
        index = {old: new for new, old in enumerate(kept)}
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        weights = None
        if self._weights is not None:
            weights = {
                (index[u], index[v]): self._weights[(u, v)]
                for u, v in self._edges
                if u in index and v in index
            }
        return Graph(len(kept), edges, weights), index

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s nodes are shifted by ``self.n``."""
        shift = self._n
        edges = list(self._edges) + [(u + shift, v + shift) for u, v in other._edges]
        weights = None
        if (self._weights is None) != (other._weights is None):
            raise GraphError("cannot union weighted with unweighted graph")
        if self._weights is not None and other._weights is not None:
            weights = dict(self._weights)
            weights.update(
                {(u + shift, v + shift): w for (u, v), w in other._weights.items()}
            )
        return Graph(self._n + other._n, edges, weights)

    # -- interop and dunder methods ------------------------------------------

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (test-only convenience)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        for u, v in self._edges:
            if self._weights is not None:
                g.add_edge(u, v, weight=self._weights[(u, v)])
            else:
                g.add_edge(u, v)
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a ``networkx.Graph`` with integer nodes ``0..n-1``."""
        n = g.number_of_nodes()
        if sorted(g.nodes) != list(range(n)):
            raise GraphError("networkx graph must have nodes 0..n-1")
        edges = [(u, v) for u, v in g.edges]
        weights = None
        if all("weight" in d for _, _, d in g.edges(data=True)) and g.number_of_edges():
            weights = {edge_key(u, v): d["weight"] for u, v, d in g.edges(data=True)}
        return cls(n, edges, weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        weight_sig = (
            None
            if self._weights is None
            else tuple(sorted(self._weights.items()))
        )
        return hash((self._n, self._edges, weight_sig))

    def __repr__(self) -> str:
        kind = "weighted " if self._weights is not None else ""
        return f"Graph({kind}n={self._n}, m={self.num_edges})"

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} outside [0, {self._n})")
