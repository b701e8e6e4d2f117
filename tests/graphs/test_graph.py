"""Tests for the core Graph type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph, edge_key


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.num_edges == 0

    def test_basic(self):
        g = Graph(3, [(0, 1), (2, 1)])
        assert g.n == 3
        assert g.edges() == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2)], "edge (0, 2) outside node range [0, 2)"),
            ([(1, 1)], "self-loop on node 1"),
            ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
            ([(True, 1)], "malformed edge entry (True, 1)"),
            ([(0, 1.0)], "malformed edge entry (0, 1.0)"),
            ([(0, "1")], "malformed edge entry (0, '1')"),
            ([(0, 1, 1)], "malformed edge entry (0, 1, 1)"),
            ([0], "malformed edge entry 0"),
        ],
        ids=[
            "range",
            "self-loop",
            "duplicate",
            "bool",
            "float",
            "string",
            "three",
            "scalar",
        ],
    )
    def test_rejects_invalid_edges(self, edges, message):
        with pytest.raises(GraphError) as error:
            Graph(2, edges)
        assert str(error.value) == message

    def test_numpy_endpoints_become_ints(self):
        g = Graph(3, [(np.int64(0), np.int32(2))])
        assert g.edges() == ((0, 2),)
        assert all(type(x) is int for x in g.edges()[0])


class TestQueries:
    def test_degree_and_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(3) == 1
        assert g.max_degree() == 3

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_ports_are_sorted_neighbor_positions(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)
        assert g.port(2, 0) == 0
        assert g.port(2, 3) == 2
        assert g.neighbor_at(2, 1) == 1

    def test_port_of_non_edge_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.port(0, 2)

    @pytest.mark.parametrize("u", [-1, 5])
    def test_port_checks_owner_range(self, u):
        # -1 must not index the adjacency from its end.
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="outside"):
            g.port(u, 1)

    def test_neighbor_at_invalid_port(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.neighbor_at(0, 5)

    def test_node_range_check(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.neighbors(9)


class TestWeights:
    def test_with_weights_mapping(self):
        g = Graph(3, [(0, 1), (1, 2)]).with_weights({(0, 1): 5, (1, 2): 7})
        assert g.is_weighted
        assert g.weight(1, 0) == 5
        assert g.weights() == {(0, 1): 5, (1, 2): 7}

    def test_with_weights_function(self):
        g = Graph(3, [(0, 1), (1, 2)]).with_weights(lambda u, v: u + v)
        assert g.weight(0, 1) == 1
        assert g.weight(1, 2) == 3

    def test_missing_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 2)], {(0, 1): 5})

    def test_conflicting_weights_rejected(self):
        with pytest.raises(GraphError, match="two weights"):
            Graph(2, [(0, 1)], {(0, 1): 1.0, (1, 0): 2.0})

    def test_extra_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], {(0, 1): 5, (0, 2): 6})

    def test_unweighted_weight_access_raises(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.weight(0, 1)

    def test_weight_key_breaks_ties(self):
        g = Graph(3, [(0, 1), (1, 2)]).with_weights({(0, 1): 5, (1, 2): 5})
        assert not g.has_distinct_weights()
        assert g.weight_key(0, 1) < g.weight_key(1, 2)

    def test_distinct_weights_detection(self):
        g = Graph(3, [(0, 1), (1, 2)]).with_weights({(0, 1): 1, (1, 2): 2})
        assert g.has_distinct_weights()

    def test_unweighted_copy(self):
        g = Graph(2, [(0, 1)], {(0, 1): 3}).unweighted()
        assert not g.is_weighted


class TestDerivedGraphs:
    def test_add_edges(self):
        g = Graph(3, [(0, 1)]).add_edges([(1, 2)])
        assert g.has_edge(1, 2)
        assert g.num_edges == 2

    def test_remove_edges_preserves_weights(self):
        g = Graph(3, [(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 2})
        h = g.remove_edges([(0, 1)])
        assert not h.has_edge(0, 1)
        assert h.weight(1, 2) == 2

    def test_induced_subgraph(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, index = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3
        assert sub.num_edges == 2
        assert index == {1: 0, 2: 1, 3: 2}

    def test_induced_subgraph_keeps_weights(self):
        g = Graph(3, [(0, 1), (1, 2)], {(0, 1): 1, (1, 2): 2})
        sub, index = g.induced_subgraph([1, 2])
        assert sub.weight(0, 1) == 2

    def test_disjoint_union(self):
        a = Graph(2, [(0, 1)])
        b = Graph(3, [(0, 2)])
        u = a.disjoint_union(b)
        assert u.n == 5
        assert u.has_edge(0, 1)
        assert u.has_edge(2, 4)

    def test_disjoint_union_weight_mismatch(self):
        a = Graph(2, [(0, 1)], {(0, 1): 1})
        b = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            a.disjoint_union(b)


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], {(0, 1): 1, (1, 2): 2, (2, 3): 3})
        back = Graph.from_networkx(g.to_networkx())
        assert back == g

    def test_eq_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])

    def test_repr_mentions_size(self):
        assert "n=3" in repr(Graph(3, [(0, 1)]))

    def test_edge_key_canonicalises(self):
        assert edge_key(5, 2) == (2, 5)
        with pytest.raises(GraphError):
            edge_key(1, 1)
