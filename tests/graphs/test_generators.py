"""Tests for graph family generators."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import (
    FAMILIES,
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
from repro.graphs.graph import Graph
from repro.graphs.traversal import diameter, is_connected
from repro.util.rng import make_rng


class TestDeterministicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert diameter(g) == 4

    def test_path_singleton(self):
        assert path_graph(1).num_edges == 0

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.nodes)

    def test_cycle_minimum_size(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert all(g.degree(v) == 5 for v in g.nodes)

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7
        assert g.num_edges == 12
        assert g.degree(0) == 4
        assert g.degree(3) == 3

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert is_connected(g)

    def test_torus_is_4_regular(self):
        g = torus_graph(3, 4)
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_hypercube(self):
        g = hypercube(4)
        assert g.n == 16
        assert all(g.degree(v) == 4 for v in g.nodes)
        assert diameter(g) == 4

    def test_hypercube_dim_zero(self):
        assert hypercube(0).n == 1

    def test_binary_tree(self):
        g = binary_tree(10)
        assert g.num_edges == 9
        assert is_connected(g)

    def test_caterpillar(self):
        g = caterpillar(4, legs_per_node=2)
        assert g.n == 12
        assert is_connected(g)

    def test_lollipop(self):
        g = lollipop(4, 3)
        assert g.n == 7
        assert g.num_edges == 6 + 3

    def test_double_clique_has_bridge(self):
        g = double_clique(4)
        assert g.n == 8
        assert g.has_edge(3, 4)
        assert is_connected(g)


class TestRandomFamilies:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_random_tree_is_tree(self, n, seed):
        g = random_tree(n, make_rng(seed))
        assert g.n == n
        assert g.num_edges == n - 1 if n > 0 else 0
        assert is_connected(g)

    # Sizes on both sides of powers of two: randrange(n) rejects about
    # half its words at n = 1025 or 65537 and none at n = 1024.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 1000, 1023, 1024, 1025, 65537])
    @pytest.mark.parametrize("seed", [0, 1, 9, 2024])
    def test_random_tree_is_the_pruefer_decode_of_its_draws(self, n, seed):
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        graph = random_tree(n, rng)
        draws = [oracle_rng.randrange(n) for _ in range(n - 2)]
        if n >= 2:
            expected = Graph.from_networkx(nx.from_prufer_sequence(draws))
        else:
            expected = path_graph(1)
        assert graph == expected
        # Same draws, so the rng is left at the same position.
        assert rng.random() == oracle_rng.random()

    def test_random_tree_from_a_subclass_makes_the_calls(self):
        class Counting(random.Random):
            calls = 0

            def randrange(self, *args):
                Counting.calls += 1
                return super().randrange(*args)

        rng, plain = Counting(7), make_rng(7)
        assert random_tree(300, rng) == random_tree(300, plain)
        assert Counting.calls == 298
        assert rng.getstate() == plain.getstate()

    def test_random_tree_deterministic(self):
        assert random_tree(20, make_rng(9)) == random_tree(20, make_rng(9))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_connected_gnp_always_connected(self, n, p, seed):
        g = connected_gnp(n, p, make_rng(seed))
        assert g.n == n
        assert is_connected(g)

    def test_connected_gnp_p1_is_complete(self):
        g = connected_gnp(8, 1.0, make_rng(0))
        assert g.num_edges == 28

    def test_random_regular_degrees(self):
        g = random_regular(12, 3, make_rng(4))
        assert all(g.degree(v) == 3 for v in g.nodes)
        assert is_connected(g)

    def test_random_regular_parity_check(self):
        with pytest.raises(GraphError):
            random_regular(7, 3, make_rng(0))

    def test_random_regular_needs_room(self):
        with pytest.raises(GraphError):
            random_regular(3, 3, make_rng(0))


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families_produce_connected_graphs(self, name):
        factory = FAMILIES[name]
        g = factory(16, make_rng(3))
        assert g.n >= 4
        assert is_connected(g)
