"""Graph family generators used by the experiments.

Every generator returns a connected :class:`~repro.graphs.graph.Graph`
(the paper assumes connectivity).  Randomised generators take an explicit
``random.Random``; deterministic families ignore randomness entirely.

The families mirror the workloads used throughout the proof-labeling
literature: paths and cycles (lower bounds), trees (spanning-tree
schemes), random and regular graphs (MST and universal-scheme sweeps),
grids/tori/hypercubes (structured topologies), plus a couple of "glued"
families (lollipop, double clique) useful for adversarial experiments.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from typing import Callable

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph, edge_key
from repro.util.rng import make_rng

__all__ = [
    "binary_tree",
    "caterpillar",
    "complete_bipartite",
    "complete_graph",
    "connected_gnp",
    "cycle_graph",
    "double_clique",
    "grid_graph",
    "hypercube",
    "lollipop",
    "path_graph",
    "random_regular",
    "random_tree",
    "star_graph",
    "torus_graph",
    "FAMILIES",
]


def path_graph(n: int) -> Graph:
    """The path ``0 - 1 - ... - n-1``."""
    _require(n >= 1, "path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle on ``n >= 3`` nodes."""
    _require(n >= 3, "cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """A star: node 0 is the hub, nodes ``1..n-1`` are leaves."""
    _require(n >= 1, "star needs n >= 1")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    """The clique on ``n`` nodes."""
    _require(n >= 1, "clique needs n >= 1")
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    """``K_{a,b}``: sides ``0..a-1`` and ``a..a+b-1``."""
    _require(a >= 1 and b >= 1, "both sides must be non-empty")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid; node ``(r, c)`` is ``r * cols + c``."""
    _require(rows >= 1 and cols >= 1, "grid needs positive dimensions")
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def torus_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus (grid with wrap-around edges)."""
    _require(rows >= 3 and cols >= 3, "torus needs dimensions >= 3")
    edges: set[Edge] = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add(edge_key(v, right))
            edges.add(edge_key(v, down))
    return Graph(rows * cols, sorted(edges))


def hypercube(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube on ``2^dim`` nodes."""
    _require(dim >= 0, "dimension must be non-negative")
    n = 1 << dim
    edges = [
        (v, v ^ (1 << bit))
        for v in range(n)
        for bit in range(dim)
        if v < v ^ (1 << bit)
    ]
    return Graph(n, edges)


def binary_tree(n: int) -> Graph:
    """The first ``n`` nodes of the complete binary heap-shaped tree."""
    _require(n >= 1, "tree needs n >= 1")
    return Graph(n, [((i - 1) // 2, i) for i in range(1, n)])


def random_tree(n: int, rng: random.Random | None = None) -> Graph:
    """A uniform random labeled tree via a random Prüfer sequence.

    The sequence is ``n - 2`` calls of ``rng.randrange(n)``; the tree
    and the rng position afterwards are exactly those calls' outcome,
    whichever way :func:`_pruefer_draws` reads them.  Bulk draws (an
    int64 column) decode with :func:`_pruefer_leaves`, call-by-call
    draws (a list) with the loop of :func:`_pruefer_leaves_loop`; both
    give the same leaves.  The decoder's child → parent edges toward
    node ``n - 1`` are kept as the CSR's orientation (see
    :func:`~repro.graphs.csr.csr_from_tree_columns`).
    """
    _require(n >= 1, "tree needs n >= 1")
    rng = rng or make_rng()
    if n <= 2:
        return Graph._from_tree_columns(n, range(n - 1), [n - 1] * (n - 1))
    draws = _pruefer_draws(n, rng)
    if isinstance(draws, list):  # drawn call by call
        leaves, heads = _pruefer_leaves_loop(n, draws), array("q", draws)
        heads.append(n - 1)
    else:
        leaves, heads = _pruefer_leaves(n, draws), np.append(draws, n - 1)
    # Each leaf's head is its parent toward n-1, removed later or never.
    return Graph._from_tree_columns(n, leaves, heads)


def _pruefer_leaves_loop(n: int, sequence: list[int]) -> array:
    """The leaf removed at each step of decoding Prüfer ``sequence``,
    then the last node left besides ``n - 1``: the tree's edges are
    ``leaves[i] -> (sequence + [n - 1])[i]``, each toward its parent.
    """
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    # Linear-time Prüfer decoding: ``leaf`` is always the smallest
    # current leaf, either the node just reduced to degree 1 (if below
    # the scan pointer) or the next degree-1 node past the pointer.
    next_leaf = degree.index
    pointer = leaf = next_leaf(1)
    leaves = array("q")
    for v in sequence:
        leaves.append(leaf)
        degree[v] -= 1
        if degree[v] == 1 and v < pointer:
            leaf = v
        else:
            pointer = leaf = next_leaf(1, pointer + 1)
    # The last two leaves are ``leaf`` and node n-1, never removed earlier.
    leaves.append(leaf)
    return leaves


def _pruefer_leaves(n: int, draws):
    """:func:`_pruefer_leaves_loop` of an int64 column, without a loop.

    Node ``v`` becomes a leaf at step ``release[v]``: one past its last
    position in ``draws``, or 0 if it is absent.  Each step removes the
    smallest released leaf, so (unit jobs scheduled by id) every node
    below ``n - 1`` takes, in id order, the earliest step at or after
    its release that no smaller node took.  Distinct nodes have
    distinct nonzero releases, so a released node ``u`` is removed at
    its release exactly when fewer than ``release[u]`` smaller nodes
    are released before it: ``u`` is *chained*.  Every other node
    takes the steps the chained ones leave, in step order and id order.

    "Smaller and released earlier" is a dominance count.  A histogram
    over (release-order block, id bucket), both of about √k for the k
    released nodes, bounds it from below and above; the few nodes the
    bounds do not decide count exactly within their own block and
    bucket.  Uniform draws leave about one node in a thousand open; a
    sorted sequence leaves nearly all of them, which costs O(k√k).
    """
    steps = n - 1
    release = np.zeros(n, dtype=np.int64)
    np.maximum.at(release, draws, np.arange(1, steps, dtype=np.int64))
    release = release[:steps]  # node n - 1 is never removed
    # The released nodes, by id; below, "position" is an index here.
    released = np.flatnonzero(release)
    k = released.size
    at = release[released]
    by_step = np.full(steps, -1, dtype=np.int64)
    by_step[at] = np.arange(k)
    in_order = by_step[by_step >= 0]  # positions in release order
    del by_step
    rank = np.empty(k, dtype=np.int64)
    rank[in_order] = np.arange(k)
    # Chained iff fewer than ``need`` smaller nodes have an earlier
    # nonzero release; the smaller nodes released at step 0 are counted.
    need = at - np.cumsum(release == 0)[released]
    side = math.isqrt(k - 1) + 1 if k else 1
    cells = -(-k // side)
    block = rank // side
    bucket = np.arange(k) // side
    # below[b, c]: released nodes in blocks < b and buckets < c.
    below = np.zeros((cells + 1, cells + 1), dtype=np.int64)
    grid = np.bincount(block * cells + bucket, minlength=cells * cells)
    np.cumsum(
        grid.reshape(cells, cells).cumsum(axis=0), axis=1, out=below[1:, 1:]
    )
    below = below.ravel()
    lower = below[block * (cells + 1) + bucket]
    upper = below[(block + 1) * (cells + 1) + bucket + 1] - 1  # less u itself
    chained = upper < need
    open_ = np.flatnonzero((lower < need) & (need <= upper))
    # Each open node scans at most 2 * side entries; a pass is bounded.
    per_pass = max(1, (1 << 20) // side)
    for lo in range(0, open_.size, per_pass):
        part = open_[lo : lo + per_pass]
        exact = lower[part]
        # Same bucket, earlier block: scan the bucket up to u's id.
        first = bucket[part] * side
        exact += _count_in_runs(first, part - first, block, block[part])
        # Same block, any bucket: scan the block up to u's release.
        first = block[part] * side
        exact += _count_in_runs(first, rank[part] - first, in_order, part)
        chained[part] = exact < need[part]
    leaves = np.empty(steps, dtype=np.int64)
    chain = released[chained]
    taken = release[chain]
    leaves[taken] = chain
    free = np.ones(steps, dtype=bool)
    free[taken] = False
    rest = np.ones(steps, dtype=bool)
    rest[chain] = False
    leaves[free] = np.flatnonzero(rest)
    return leaves


def _count_in_runs(starts, lengths, column, bounds):
    """Per run ``i``, how many of ``column[starts[i]:starts[i] +
    lengths[i]]`` are below ``bounds[i]``."""
    total = int(lengths.sum())
    run = np.repeat(np.arange(starts.size), lengths)
    offsets = np.cumsum(lengths) - lengths - starts
    positions = np.arange(total) - offsets[run]
    hits = column[positions] < bounds[run]
    return np.bincount(run[hits], minlength=starts.size)


def _pruefer_draws(n: int, rng: random.Random):
    """``[rng.randrange(n) for _ in range(n - 2)]``, read in bulk when it can.

    For a plain ``random.Random`` and ``n < 2**32``, CPython's
    ``randrange(n)`` is ``_randbelow_with_getrandbits``: it takes one
    32-bit Mersenne Twister word per try, keeps its top
    ``n.bit_length()`` bits and rejects values ``>= n``.  Here the
    words come from ``getrandbits`` in bulk and are filtered as columns,
    and the draws come back as an int64 column; the rng is then rewound
    and advanced by exactly the words the accepted draws used, so it
    ends where the calls would leave it.  A subclass (which may override
    any of this) or a larger ``n`` makes the calls, into a list.
    """
    count = n - 2
    if type(rng) is random.Random and n < 1 << 32:
        return _randbelow_column(rng, n, count)
    return [rng.randrange(n) for _ in range(count)]


def _randbelow_column(rng: random.Random, n: int, count: int):
    """``count`` draws of ``randrange(n)`` as an int64 column (see above)."""
    shift = 32 - n.bit_length()
    state = rng.getstate()
    # Words per accepted draw average 2**bit_length / n, below 2; a
    # chunk that falls short is topped up by the next, smaller one.
    per_draw = (1 << n.bit_length()) / n
    chunks, used, taken = [], 0, 0
    while taken < count:
        want = count - taken
        words = int(want * per_draw) + 64
        column = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        ).astype(np.int64)
        column >>= shift
        accepted = np.flatnonzero(column < n)[:want]
        chunks.append(column[accepted])
        taken += accepted.size
        used += int(accepted[-1]) + 1 if taken == count else words
    rng.setstate(state)
    rng.getrandbits(32 * used)
    return np.concatenate(chunks)


def caterpillar(spine: int, legs_per_node: int = 1) -> Graph:
    """A caterpillar: a path spine with ``legs_per_node`` leaves each."""
    _require(spine >= 1 and legs_per_node >= 0, "invalid caterpillar shape")
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_node = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, next_node))
            next_node += 1
    return Graph(next_node, edges)


def lollipop(clique_size: int, tail: int) -> Graph:
    """A clique with a path tail attached (classic hard instance shape)."""
    _require(clique_size >= 1 and tail >= 0, "invalid lollipop shape")
    edges = list(itertools.combinations(range(clique_size), 2))
    prev = clique_size - 1
    for i in range(tail):
        edges.append((prev, clique_size + i))
        prev = clique_size + i
    return Graph(clique_size + tail, edges)


def double_clique(size: int) -> Graph:
    """Two ``size``-cliques joined by a single bridge edge."""
    _require(size >= 1, "clique size must be positive")
    left = list(itertools.combinations(range(size), 2))
    right = [(u + size, v + size) for u, v in left]
    bridge = [(size - 1, size)]
    return Graph(2 * size, left + right + bridge)


def connected_gnp(n: int, p: float, rng: random.Random | None = None) -> Graph:
    """An Erdős–Rényi graph conditioned on connectivity.

    A uniform spanning tree backbone is added first, then every remaining
    pair independently with probability ``p``; this guarantees
    connectivity for any ``p`` while matching G(n, p) closely for
    ``p`` above the connectivity threshold.
    """
    _require(n >= 1, "graph needs n >= 1")
    _require(0.0 <= p <= 1.0, "p must be a probability")
    rng = rng or make_rng()
    backbone = set(random_tree(n, rng).edges())
    edges = set(backbone)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_regular(n: int, degree: int, rng: random.Random | None = None) -> Graph:
    """A random ``degree``-regular connected simple graph (pairing model).

    Retries the pairing until it produces a simple connected graph; for
    the small degrees used in the experiments this terminates quickly.
    """
    _require(degree >= 2, "degree must be at least 2 for connectivity")
    _require(n > degree, "need n > degree")
    _require(n * degree % 2 == 0, "n * degree must be even")
    rng = rng or make_rng()
    for _attempt in range(10_000):
        graph = _try_pairing(n, degree, rng)
        if graph is not None and _is_connected(graph):
            return graph
    raise GraphError(f"failed to sample a {degree}-regular graph on {n} nodes")


def _try_pairing(n: int, degree: int, rng: random.Random) -> Graph | None:
    stubs = [v for v in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    edges: set[Edge] = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            return None
        key = edge_key(u, v)
        if key in edges:
            return None
        edges.add(key)
    return Graph(n, sorted(edges))


def _is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.n


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


#: Named graph families for parameter sweeps: ``name -> factory(n, rng)``.
FAMILIES: dict[str, Callable[[int, random.Random], Graph]] = {
    "path": lambda n, rng: path_graph(n),
    "cycle": lambda n, rng: cycle_graph(max(3, n)),
    "star": lambda n, rng: star_graph(n),
    "binary_tree": lambda n, rng: binary_tree(n),
    "random_tree": random_tree,
    "gnp_sparse": lambda n, rng: connected_gnp(n, min(1.0, 2.0 / max(1, n)), rng),
    "gnp_dense": lambda n, rng: connected_gnp(n, 0.3, rng),
    "regular3": lambda n, rng: random_regular(n + (n % 2), 3, rng),
    "grid": lambda n, rng: grid_graph(max(1, int(n ** 0.5)), max(1, int(n ** 0.5))),
}
