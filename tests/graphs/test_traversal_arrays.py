"""The tree path of ``bfs_arrays`` and the doubling ``pointer_depths``.

A ``random_tree`` CSR keeps its Prüfer orientation, and ``bfs_arrays``
then re-roots it and doubles pointers instead of sweeping frontiers.
The frontier sweep, ``bfs_arrays_indexed``, stays the oracle: both
must give the same ``dist``, ``parent`` and ``entry`` columns from every
root.  ``pointer_depths`` must give ``PointerStructure.depth`` on any
functional graph, cycles included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import csr_from_tree_columns
from repro.graphs.generators import random_tree
from repro.graphs.graph import Graph
from repro.graphs.subgraphs import PointerStructure
from repro.graphs.traversal_arrays import (
    bfs_arrays,
    bfs_arrays_indexed,
    pointer_depths,
)
from repro.obs import metrics as obs
from repro.util.rng import make_rng


def _assert_tree_path_is_frontier(csr, root):
    with obs.collect("t") as metrics:
        tree = bfs_arrays(csr, root)
    frontier = bfs_arrays_indexed(csr.n, csr.indptr, csr.indices, root)
    for name, got, expected in zip(("dist", "parent", "entry"), tree, frontier):
        assert got.dtype == np.int64, name
        assert np.array_equal(got, expected), (name, root)
    assert metrics.counter("traversal.sweeps") == 1
    assert metrics.counter("traversal.levels") == 0
    assert metrics.counter("traversal.rounds") <= csr.n.bit_length()


class TestTreePath:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_root_equals_the_frontier_sweep(self, n, seed):
        csr = random_tree(n, make_rng(seed)).csr()
        assert csr.orientation is not None
        for root in range(n):
            _assert_tree_path_is_frontier(csr, root)

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_drawn_roots_equal_the_frontier_sweep(self, n, seed):
        csr = random_tree(n, make_rng(seed)).csr()
        rng = make_rng(seed + 100)
        for root in [0, n - 1] + [rng.randrange(n) for _ in range(6)]:
            _assert_tree_path_is_frontier(csr, root)

    def test_only_oriented_trees_take_it(self):
        graph = random_tree(50, make_rng(3))
        assert Graph(50, graph.edges()).csr().orientation is None
        us, vs = zip(*graph.edges())
        assert Graph.from_columns(50, us, vs).csr().orientation is None
        with obs.collect("t") as metrics:
            bfs_arrays(Graph(50, graph.edges()).csr(), 7)
        assert metrics.counter("traversal.levels") > 0
        assert metrics.counter("traversal.rounds") == 0


class TestOrientationColumn:
    def test_points_each_node_at_its_parent_toward_the_last(self):
        # Edges 0 -> 2, 1 -> 2, 2 -> 3 in decoder order.
        csr = csr_from_tree_columns(4, [0, 1, 2], [2, 2, 3])
        up = csr.orientation
        assert csr.owners[up].tolist() == [0, 1, 2]
        assert csr.indices[up].tolist() == [2, 2, 3]

    def test_random_tree_orientation_is_its_pruefer_parents(self):
        graph = random_tree(300, make_rng(4))
        csr = graph.csr()
        dist, parent, _ = bfs_arrays_indexed(300, csr.indptr, csr.indices, 299)
        assert np.array_equal(csr.indices[csr.orientation], parent[:-1])
        assert int(dist.min()) == 0

    @pytest.mark.parametrize(
        "n, children, parents, message",
        [
            (4, [0, 1], [3, 3], "exactly once"),  # node 2 is no child
            (4, [0, 0, 1], [3, 2, 3], "exactly once"),  # 0 twice, 2 never
            (4, [0, 1, 3], [1, 2, 2], "exactly once"),  # the root is a child
            # Each node a child once, but 0 -> 1 -> 2 -> 0 is a cycle.
            (4, [0, 1, 2], [1, 2, 0], "precedes"),
            # A tree, listed parent-first.
            (4, [2, 0, 1], [3, 2, 2], "precedes"),
            (3, [0, 1], [1, 1], "self-loop"),  # edge checks come first
        ],
    )
    def test_rejects_columns_that_are_no_oriented_tree(
        self, n, children, parents, message
    ):
        with pytest.raises(GraphError, match=message):
            csr_from_tree_columns(n, children, parents)


def _depth_oracle(parent):
    pointers = {v: (None if t < 0 else t) for v, t in enumerate(parent)}
    depth = PointerStructure(pointers).depth
    return [depth.get(v, -1) for v in range(len(parent))]


def _assert_depths(parent):
    column = np.array(parent, dtype=np.int64)
    with obs.collect("t") as metrics:
        depth = pointer_depths(column)
    assert depth.dtype == np.int64
    assert depth.tolist() == _depth_oracle(parent)
    assert metrics.counter("traversal.sweeps") == 1
    assert metrics.counter("traversal.rounds") <= max(len(parent) - 1, 0).bit_length()


class TestPointerDepths:
    @pytest.mark.parametrize(
        "parent",
        [
            [],
            [-1],
            [0],  # a self-pointer
            [1, 0],  # a 2-cycle
            [1, 0, 0, 2, -1, 4],  # a chain feeding the 2-cycle, and a root
            [-1, 0, 1, 2, 3, 4, 5, 6, 7],  # a path, deeper than 2**3
            [-1, -1, 0, 1, 2, 3, 3],  # two roots
            [2, 2, 2, 0, 3, -1, 5],  # a self-pointer fed by a chain
        ],
    )
    def test_named_shapes(self, parent):
        _assert_depths(parent)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda n: st.lists(
                st.integers(min_value=-1, max_value=n - 1), min_size=n, max_size=n
            )
        )
    )
    def test_random_functional_graphs(self, parent):
        _assert_depths(parent)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_forests_with_a_few_cycles(self, seed):
        # Mostly long chains toward several roots, which take many
        # doubling rounds, plus pointers rewired into cycles.
        rng = make_rng(seed)
        n = 500
        parent = [-1 if v < 3 else v - rng.randrange(1, 4) for v in range(n)]
        for _ in range(seed):
            parent[rng.randrange(n)] = rng.randrange(n)
        _assert_depths(parent)
