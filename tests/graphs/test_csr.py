"""CSR adjacency must mirror the Graph's port structure exactly."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

# The gate above must run before repro.graphs.csr (which imports numpy
# unconditionally), hence the post-gate imports.
import copy  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

from repro.errors import GraphError  # noqa: E402
from repro.graphs.csr import (  # noqa: E402
    build_csr,
    csr_from_columns,
    csr_from_tree_columns,
)
from repro.graphs.generators import (  # noqa: E402
    _pruefer_draws,
    _pruefer_leaves,
    connected_gnp,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph  # noqa: E402
from repro.graphs.weighted import weighted_copy  # noqa: E402
from repro.util.rng import make_rng  # noqa: E402


def _assert_mirrors(graph):
    """Every CSR column agrees with the Graph's own port arithmetic."""
    csr = graph.csr()
    assert csr.n == graph.n
    assert csr.num_entries == 2 * graph.num_edges
    assert int(csr.indptr[0]) == 0
    for u in graph.nodes:
        row = csr.neighbors(u)
        assert row.tolist() == list(graph.neighbors(u))
        assert int(csr.indptr[u + 1] - csr.indptr[u]) == graph.degree(u)
    for j in range(csr.num_entries):
        u = int(csr.owners[j])
        v = int(csr.indices[j])
        port = int(csr.port_at(j))
        assert graph.neighbor_at(u, port) == v
        assert graph.port(u, v) == port
        # The reverse entry is the opposite half-edge, and back_port_at
        # is the port through which v sees u.
        r = int(csr.reverse[j])
        assert int(csr.owners[r]) == v
        assert int(csr.indices[r]) == u
        assert int(csr.reverse[r]) == j
        assert graph.port(v, u) == int(csr.back_port_at(j))
    if graph.is_weighted:
        for j in range(csr.num_entries):
            u, v = int(csr.owners[j]), int(csr.indices[j])
            assert csr.weights[j] == graph.weight(u, v)
    else:
        assert csr.weights is None


@pytest.mark.parametrize(
    "graph",
    [
        path_graph(1),
        path_graph(2),
        path_graph(9),
        cycle_graph(3),
        cycle_graph(8),
        star_graph(6),
        grid_graph(3, 4),
        Graph(5, [(0, 1), (3, 4)]),  # node 2 isolated
        Graph(4),  # no edges at all
        Graph(0),  # empty graph
        random_tree(40, make_rng(4)),  # columns-built
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
        "columns-random-tree",
    ],
)
def test_round_trip(graph):
    _assert_mirrors(graph)


def test_round_trip_weighted():
    rng = make_rng(5)
    _assert_mirrors(weighted_copy(connected_gnp(12, 0.4, rng), rng))


def test_random_graphs_round_trip():
    rng = make_rng(11)
    for _ in range(5):
        _assert_mirrors(connected_gnp(10, 0.35, rng))


def test_cached_on_graph():
    graph = cycle_graph(5)
    assert graph.csr() is graph.csr()
    # build_csr constructs a fresh equivalent structure.
    fresh = build_csr(graph)
    assert fresh is not graph.csr()
    assert fresh.indices.tolist() == graph.csr().indices.tolist()


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
    fresh = build_csr(expected)
    for name in CSR_COLUMNS:
        column = getattr(built.csr(), name)
        assert column.dtype == getattr(fresh, name).dtype
        assert column.tolist() == getattr(fresh, name).tolist(), name
    assert built.csr().weights is None
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
    "n, edges",
    [
        (3, [(0, 1), (1, 3)]),
        (3, [(0, 1), (-1, 2)]),
        (3, [(0, 1), (2, 2)]),
        (3, [(0, 1), (1, 2), (0, 1)]),
        (3, [(0, 1), (1, 2), (1, 0)]),
        (4, [(1, 0), (2, 3), (0, 1), (3, 2)]),  # the first repeat is reported
        (4, [(0, 1), (1, 0), (2, 9)]),  # a repeat before a range error
        (4, [(0, 1), (3, 3), (1, 0)]),  # a self-loop before a repeat
        (-1, []),
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
def test_from_columns_error_messages_match(n, edges):
    with pytest.raises(GraphError) as expected:
        Graph(n, edges)
    with pytest.raises(GraphError) as got:
        Graph.from_columns(n, [u for u, _ in edges], [v for _, v in edges])
    assert str(got.value) == str(expected.value)
