"""CSR adjacency must mirror the graph's input edges exactly."""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.csr import csr_from_columns, csr_from_tree_columns
from repro.graphs.generators import (
    _pruefer_draws,
    _pruefer_leaves,
    connected_gnp,
    grid_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.util.rng import make_rng


def _reference(n, pairs):
    """Sorted adjacency lists of ``pairs``: row ``u`` in port order."""
    adjacency = [[] for _ in range(n)]
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return [sorted(row) for row in adjacency]


def _assert_mirrors(graph, pairs, weights=None):
    """The CSR columns and the derived tuples of ``graph`` agree with
    the reference adjacency of the ``pairs`` it was built from."""
    pairs = list(pairs)
    adjacency = _reference(graph.n, pairs)
    indptr = [0]
    for row in adjacency:
        indptr.append(indptr[-1] + len(row))
    entry = {
        (u, v): indptr[u] + p
        for u, row in enumerate(adjacency)
        for p, v in enumerate(row)
    }
    by_entry = sorted(entry, key=entry.get)
    csr = graph.csr()
    assert csr.n == graph.n
    assert csr.indptr.tolist() == indptr
    assert csr.owners.tolist() == [u for u, _ in by_entry]
    assert csr.indices.tolist() == [v for _, v in by_entry]
    assert csr.reverse.tolist() == [entry[v, u] for u, v in by_entry]
    for j, (u, v) in enumerate(by_entry):
        assert int(csr.port_at(j)) == j - indptr[u]
        assert int(csr.back_port_at(j)) == entry[v, u] - indptr[v]
    if weights is None:
        assert csr.weights is None
    else:
        table = {(min(u, v), max(u, v)): w for (u, v), w in weights.items()}
        assert csr.weights.tolist() == [table[min(e), max(e)] for e in by_entry]
    # The tuples derived from the CSR.
    assert graph.edges() == tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
    assert graph.num_edges == len(pairs)
    for u, row in enumerate(adjacency):
        assert graph.neighbors(u) == tuple(row)
        assert graph.degree(u) == len(row)
        for p, v in enumerate(row):
            assert graph.neighbor_at(u, p) == v
            assert graph.port(u, v) == p


def _grid_pairs(rows, cols):
    right = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    down = [(v, v + cols) for v in range((rows - 1) * cols)]
    return right + down


def _random_pairs(n, p, seed):
    """Each pair of ``0..n-1`` with probability ``p``, in random order
    and orientation."""
    rng = make_rng(seed)
    pairs = [
        (v, u) if rng.random() < 0.5 else (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize(
    "n, pairs",
    [
        (1, []),
        (2, [(1, 0)]),
        (9, [(i, i + 1) for i in range(8)]),
        (3, [(0, 1), (2, 1), (0, 2)]),
        (8, [(i, (i + 1) % 8) for i in range(8)]),
        (6, [(i, 0) for i in range(1, 6)]),
        (12, _grid_pairs(3, 4)),
        (5, [(0, 1), (3, 4)]),
        (4, []),
        (0, []),
        (15, _random_pairs(15, 0.3, seed=1)),
    ],
    ids=[
        "single-node",
        "edge",
        "path",
        "triangle",
        "cycle",
        "star",
        "grid",
        "isolated-middle",
        "edgeless",
        "empty",
        "random",
    ],
)
def test_round_trip(n, pairs):
    _assert_mirrors(Graph(n, pairs), pairs)
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    _assert_mirrors(Graph.from_columns(n, us, vs), pairs)


def test_round_trip_weighted():
    pairs = _random_pairs(12, 0.4, seed=5)
    rng = make_rng(5)
    ints = {pair: rng.randint(1, 10) for pair in pairs}
    _assert_mirrors(Graph(12, pairs, ints), pairs, ints)
    floats = {pair: rng.random() for pair in pairs}
    _assert_mirrors(Graph(12, pairs, floats), pairs, floats)


def test_random_graphs_round_trip():
    for seed in range(5):
        pairs = _random_pairs(10, 0.35, seed)
        _assert_mirrors(Graph(10, pairs), pairs)


def test_columns_random_tree_round_trip():
    n = 40
    draws = _pruefer_draws(n, make_rng(4))
    children, parents = _pruefer_leaves(n, draws), np.append(draws, n - 1)
    pairs = list(zip(children.tolist(), parents.tolist()))
    _assert_mirrors(random_tree(n, make_rng(4)), pairs)


def test_cached_on_graph():
    graph = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert graph.csr() is graph.csr()


def test_isolated_nodes_have_empty_rows():
    graph = Graph(5, [(0, 1), (3, 4)])
    csr = graph.csr()
    assert csr.neighbors(2).size == 0
    assert csr.degrees().tolist() == [1, 1, 0, 1, 1]


CSR_COLUMNS = ("indptr", "indices", "owners", "reverse")


def _shuffled_columns(graph, seed):
    """``graph``'s edges as two columns, in random order and orientation."""
    rng = make_rng(seed)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    return [u for u, _ in edges], [v for _, v in edges]


@pytest.mark.parametrize(
    "graph",
    [
        Graph(0),
        Graph(4),
        Graph(5, [(0, 1), (3, 4)]),
        star_graph(7),
        grid_graph(4, 5),
        connected_gnp(30, 0.2, make_rng(2)),
        random_tree(200, make_rng(8)),
    ],
    ids=["empty", "edgeless", "isolated-middle", "star", "grid", "gnp", "tree"],
)
def test_from_columns_equals_tuple_built(graph):
    us, vs = _shuffled_columns(graph, seed=graph.n)
    expected = Graph(graph.n, zip(us, vs))
    built = Graph.from_columns(graph.n, us, vs)
    # The CSR first, while the tuples are still underived.
    for name in CSR_COLUMNS:
        column = getattr(built.csr(), name)
        assert column.dtype == getattr(expected.csr(), name).dtype
        assert column.tolist() == getattr(expected.csr(), name).tolist(), name
    _assert_mirrors(built, zip(us, vs))
    assert built == expected and hash(built) == hash(expected)
    assert built.edges() == expected.edges()
    assert built.num_edges == expected.num_edges
    assert built.max_degree() == expected.max_degree()
    for u in graph.nodes:
        assert built.neighbors(u) == expected.neighbors(u)
    for u, v in expected.edges():
        assert built.port(u, v) == expected.port(u, v)
        assert built.port(v, u) == expected.port(v, u)


@pytest.mark.parametrize("n", [3, 4, 5, 10, 257, 3000])
@pytest.mark.parametrize("seed", [0, 5])
def test_tree_columns_equal_the_general_builder(n, seed):
    # The tree builder sorts keys and never permutes; the general one
    # argsorts.  Same edges in decoder order must give the same columns.
    draws = _pruefer_draws(n, make_rng(seed))
    children, parents = _pruefer_leaves(n, draws), np.append(draws, n - 1)
    tree = csr_from_tree_columns(n, children, parents)
    general = csr_from_columns(n, children, parents)
    for name in CSR_COLUMNS:
        column = getattr(tree, name)
        assert column.dtype == getattr(general, name).dtype == np.int64, name
        assert np.array_equal(column, getattr(general, name)), name
    assert general.orientation is None
    up = tree.orientation
    assert up.dtype == np.int32
    assert np.array_equal(tree.owners[up], np.arange(n - 1))
    parent = np.empty(n - 1, dtype=np.int64)
    parent[children] = parents
    assert np.array_equal(tree.indices[up], parent)
    drawn = random_tree(n, make_rng(seed)).csr()
    for name in (*CSR_COLUMNS, "orientation"):
        assert np.array_equal(getattr(drawn, name), getattr(tree, name)), name


def test_columns_built_graph_copies_and_pickles():
    graph = Graph.from_columns(4, [0, 2, 1], [1, 1, 3])
    for clone in (copy.copy(graph), copy.deepcopy(graph)):
        assert clone == graph
    assert pickle.loads(pickle.dumps(graph)) == graph


def test_racing_first_reads_see_one_graph():
    expected = random_tree(3000, make_rng(6))
    us, vs = _shuffled_columns(expected, seed=6)
    graph = Graph.from_columns(expected.n, us, vs)
    seen = []

    def read():
        seen.append((graph.edges(), [graph.neighbors(u) for u in graph.nodes]))

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    adjacency = [expected.neighbors(u) for u in expected.nodes]
    assert seen == [(expected.edges(), adjacency)] * len(threads)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 1), (1, 3)], "edge (1, 3) outside node range [0, 3)"),
        (3, [(0, 1), (-1, 2)], "edge (-1, 2) outside node range [0, 3)"),
        (3, [(0, 1), (2, 2)], "self-loop on node 2"),
        (3, [(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
        (3, [(0, 1), (1, 2), (1, 0)], "duplicate edge (0, 1)"),
        # The first repeat is reported.
        (4, [(2, 3), (1, 0), (3, 2), (0, 1)], "duplicate edge (2, 3)"),
        # A repeat before a range error.
        (4, [(0, 1), (1, 0), (2, 9)], "duplicate edge (0, 1)"),
        # A self-loop before a repeat.
        (4, [(0, 1), (3, 3), (1, 0)], "self-loop on node 3"),
        (-1, [], "negative node count -1"),
    ],
    ids=[
        "out-of-range",
        "negative-node",
        "self-loop",
        "duplicate",
        "reversed-duplicate",
        "two-duplicates",
        "duplicate-then-range",
        "self-loop-then-duplicate",
        "negative-n",
    ],
)
def test_from_columns_error_messages_match(n, edges, message):
    with pytest.raises(GraphError) as expected:
        Graph(n, edges)
    with pytest.raises(GraphError) as got:
        Graph.from_columns(n, [u for u, _ in edges], [v for _, v in edges])
    assert str(got.value) == str(expected.value) == message
