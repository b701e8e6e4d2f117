"""Vectorized marker and prover kernels for the generation pipeline.

This is the generation half of the array core, the mirror image of
:mod:`repro.core.batch_deciders`.  Marker kernels recompute a language's
``canonical_labeling`` as an :class:`~repro.core.arrays.ArrayLabeling`
built from CSR traversals (:mod:`repro.graphs.traversal_arrays`); prover
kernels recompute a scheme's ``prove`` certificates off the same
columns.  The dict path stays the semantic oracle, and the contract is
exact equivalence, clause for clause:

* A marker kernel must consume the ``rng`` stream exactly as the dict
  canonical does (same calls, same order), return value-identical
  states, and raise the *same* exceptions on graphs the dict path
  cannot label — the dispatcher skips the ``is_member`` re-check, so
  kernels must be member-by-construction wherever the dict path is.
  :class:`~repro.core.batch.BatchFallback` is legal only *before* the
  first rng draw; after that the kernel owns the outcome.
* A prover kernel takes no rng and must return exactly
  ``scheme.prove(config)``'s certificates — including the best-effort
  ones on off-language and junk states — or raise
  :class:`~repro.core.batch.BatchFallback` to rerun the dict prover.

Pointer markers emit nullable-int columns (ports, ``None`` at roots),
and the tree provers return
:class:`~repro.core.arrays.CertificateColumns`; both are read back
through the shared decoders of :mod:`repro.core.batch`.  Registration
is by ``(module, qualname)`` string, so this module imports no scheme
packages and a subclass that overrides ``canonical_labeling``/``prove``
never inherits a kernel, while one that keeps them (the FF17 repair)
lists its own path.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.approx.counters import counter_value, mantissa_bits_for, round_up_counter
from repro.core.arrays import ArrayLabeling, CertificateColumns
from repro.core.batch import (
    BatchFallback,
    batch_marker,
    batch_prover,
    bool_states,
    pointer_states,
    state_list,
)
from repro.core.verifier import Visibility
from repro.errors import LanguageError
from repro.graphs.mst import kruskal, mst_weight
from repro.graphs.traversal_arrays import (
    bfs_arrays,
    bfs_arrays_indexed,
    hand_off_dist,
    pointer_depths,
    take_dist,
)

__all__ = []  # kernels are reached through the registry, not imports


def _tree_columns(uids, root, dist, parent=None):
    """Certificates ``(uids[root], [parent uid,] dist)`` as columns.

    ``dist`` and ``parent`` are kernel arrays holding ``-1`` at
    unreached nodes and roots, which certify distance 0 and name
    themselves as parent.
    """
    n = dist.shape[0]
    fields = {"root_uid": np.repeat(uids[root : root + 1], n)}
    if parent is not None:
        fields["parent_uid"] = uids[np.where(parent < 0, np.arange(n), parent)]
    fields["dist"] = np.maximum(dist, 0)
    return CertificateColumns(ArrayLabeling(n, fields))


def _steps_down(dist, parent, root):
    """Whether every node but ``root`` points one closer under ``dist``."""
    step = dist[parent] - dist  # the root reads dist[-1]: overwritten
    step[root] = -1
    return bool((step == -1).all())


def _pointer_column(ports, root):
    """Pointer states: ``ports`` everywhere but ``None`` at ``root``."""
    nulls = np.zeros(ports.shape[0], dtype=bool)
    nulls[root] = True
    ports[root] = 0
    return ArrayLabeling.from_column(ports, nulls=nulls)


def _greedy_marked_column(csr, order):
    """Greedy closed-neighborhood packing in ``order`` — the shared
    canonical of independent-set, dominating-set and gap-dominating-set
    (a greedy MIS is independent, maximal and dominating at once)."""
    n = csr.n
    chosen = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    indptr, indices = csr.indptr, csr.indices
    for v in order:
        if not blocked[v]:
            chosen[v] = True
            blocked[v] = True
            blocked[indices[indptr[v] : indptr[v + 1]]] = True
    return chosen


# ---------------------------------------------------------------------------
# Marker kernels: vectorized canonical labelings.
# ---------------------------------------------------------------------------


@batch_marker(
    ("repro.schemes.spanning_tree", "SpanningTreePointerLanguage"),
    ("repro.schemes.bfs_tree", "BfsTreeLanguage"),
)
def _spanning_tree_ptr_marker(language, graph, ids, rng):
    # Both canonicals are "BFS tree from a random root, as parent ports";
    # a BFS tree is a spanning tree whose depths are graph distances, so
    # one kernel is member-by-construction for both languages.  Both
    # provers certify those distances, so the marker hands them off.
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")  # pre-rng: dict path decides
    csr = graph.csr()
    root = rng.randrange(n) if rng is not None else 0
    dist, _, entry = bfs_arrays(csr, root)
    unreached = np.flatnonzero(dist < 0)
    if unreached.size:
        # The dict path reads bfs()'s parent dict node by node and hits
        # the first unreached node as a missing key.
        raise KeyError(int(unreached[0]))
    hand_off_dist(csr, root, dist)
    if not csr.num_entries:
        return _pointer_column(np.zeros(n, dtype=np.int64), root)
    return _pointer_column(csr.back_port_at(np.maximum(entry, 0)), root)


@batch_marker(("repro.schemes.spanning_tree", "SpanningTreeListLanguage"))
def _spanning_tree_list_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = graph.csr()
    root = rng.randrange(n) if rng is not None else 0
    dist, _, entry = bfs_arrays(csr, root)
    if int((dist < 0).sum()):
        # The dict canonical happily lists one component's BFS tree; the
        # skipped is_member re-check is what rejects it there.
        raise LanguageError(
            f"{language.name}: canonical labeling is not a member (bug)"
        )
    # One discovering half-edge per non-root node; each tree edge is
    # listed from both ends as a port.
    tree = entry[dist > 0]
    ends = np.concatenate([csr.indices[tree], csr.owners[tree]])
    ports = np.concatenate([csr.back_port_at(tree), csr.port_at(tree)])
    order = np.argsort(ends, kind="stable")
    ports = ports[order].tolist()
    starts = np.concatenate(
        ([0], np.cumsum(np.bincount(ends, minlength=n)))
    ).tolist()
    column = np.empty(n, dtype=object)
    for v in range(n):
        column[v] = frozenset(ports[starts[v] : starts[v + 1]])
    return ArrayLabeling.from_column(column)


@batch_marker(("repro.schemes.leader", "LeaderLanguage"))
def _leader_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    leader = rng.randrange(n) if rng is not None else 0
    return ArrayLabeling.from_column(np.arange(n) == leader)


@batch_marker(("repro.schemes.agreement", "AgreementLanguage"))
def _agreement_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    value = rng.randrange(language.domain) if rng is not None else 0
    if value.bit_length() < 63:
        column = np.full(n, value, dtype=np.int64)
    else:
        column = np.empty(n, dtype=object)
        column[:] = value
    return ArrayLabeling.from_column(column)


@batch_marker(("repro.schemes.acyclic", "AcyclicLanguage"))
def _acyclic_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    rng = rng or random.Random(0)
    csr = graph.csr()
    # Neighbors sit in ascending index order, so a node's lower-index
    # neighbors are exactly its first ports — choosing index i among
    # them draws the same randbelow(count) as the dict's rng.choice and
    # *is* the chosen port.
    lower_counts = np.bincount(
        csr.owners[csr.indices < csr.owners], minlength=n
    ).tolist()
    ports = np.zeros(n, dtype=np.int64)
    nulls = np.ones(n, dtype=bool)
    for v, count in enumerate(lower_counts):
        if count and rng.random() < 0.8:
            ports[v] = rng.choice(range(count))
            nulls[v] = False
    return ArrayLabeling.from_column(ports, nulls=nulls)


@batch_marker(
    ("repro.schemes.independent_set", "IndependentSetLanguage"),
    ("repro.schemes.dominating_set", "DominatingSetLanguage"),
)
def _greedy_mis_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    return ArrayLabeling.from_column(_greedy_marked_column(graph.csr(), order))


@batch_marker(("repro.schemes.vertex_cover", "VertexCoverLanguage"))
def _vertex_cover_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    order = list(graph.edges())
    if rng is not None:
        rng.shuffle(order)
    covered = np.zeros(n, dtype=bool)
    for u, v in order:
        if not covered[u] and not covered[v]:
            covered[u] = True
            covered[v] = True
    return ArrayLabeling.from_column(covered)


@batch_marker(("repro.schemes.eccentricity", "BoundedEccentricityLanguage"))
def _eccentricity_marker(language, graph, ids, rng):
    # Consumes no rng, so falling back is free at any point.
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = graph.csr()
    for v in range(n):
        dist, _, _ = bfs_arrays(csr, v)
        if int(dist.min()) < 0:
            raise BatchFallback("disconnected graph")  # dict raises GraphError
        if int(dist.max()) <= language.k:
            return ArrayLabeling.from_column(np.empty(n, dtype=object))
    raise LanguageError(f"graph has radius above {language.k}")


@batch_marker(("repro.approx.dominating_set", "GapDominatingSetLanguage"))
def _gap_dominating_set_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = graph.csr()
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    chosen = _greedy_marked_column(csr, order)
    if int(chosen.sum()) > language.budget:
        # A shuffled greedy can overshoot a budget fitted to the
        # deterministic order; fall back to that order (rng is already
        # consumed, so this replays the dict path's own retry).
        chosen = _greedy_marked_column(csr, range(n))
    count = int(chosen.sum())
    if count > language.budget:
        raise LanguageError(
            f"greedy dominating set ({count}) exceeds budget "
            f"{language.budget} on this graph"
        )
    return ArrayLabeling.from_column(chosen)


@batch_marker(("repro.approx.mst_weight", "GapTreeWeightLanguage"))
def _gap_tree_weight_marker(language, graph, ids, rng):
    n = graph.n
    if n == 0 or not graph.is_weighted:
        raise BatchFallback("empty or unweighted graph")
    csr = graph.csr()
    if int((bfs_arrays(csr, 0)[0] < 0).sum()):
        raise BatchFallback("disconnected graph")  # kruskal raises there
    tree = kruskal(graph)
    if mst_weight(graph, tree) > language.budget:
        raise BatchFallback("MST over budget")  # still pre-rng
    root = rng.randrange(n) if rng is not None else 0
    # Orient the MST toward the root: BFS over the tree's half-edges
    # only.  Row slices of a masked CSR keep ascending neighbor order,
    # which is the adjacency order of the dict path's rebuilt tree graph.
    tu = np.fromiter((e[0] for e in tree), dtype=np.int64, count=len(tree))
    tv = np.fromiter((e[1] for e in tree), dtype=np.int64, count=len(tree))
    tree_keys = np.sort(np.concatenate([tu * n + tv, tv * n + tu]))
    half_keys = csr.owners * n + csr.indices
    pos = np.searchsorted(tree_keys, half_keys)
    pos_safe = np.minimum(pos, max(tree_keys.size - 1, 0))
    on_tree = (pos < tree_keys.size) & (tree_keys[pos_safe] == half_keys)
    tj = np.flatnonzero(on_tree)
    sub_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(csr.owners[tj], minlength=n)))
    )
    _, _, entry = bfs_arrays_indexed(n, sub_indptr, csr.indices[tj], root)
    if not tj.size:
        return _pointer_column(np.zeros(n, dtype=np.int64), root)
    return _pointer_column(csr.back_port_at(tj[np.maximum(entry, 0)]), root)


# ---------------------------------------------------------------------------
# Prover kernels: vectorized honest certificates.
# ---------------------------------------------------------------------------


@batch_prover(("repro.schemes.spanning_tree", "SpanningTreePointerScheme"))
def _spanning_tree_ptr_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    _, _, parent = pointer_states(config)
    roots = np.flatnonzero(parent < 0)
    root = int(roots[0]) if roots.size else 0
    # The marker's BFS distances are the pointer depths when ``root`` is
    # the one node without a pointer and every other pointer leads one
    # closer; anything else traverses the pointers.
    dist = take_dist(config.graph.csr(), root)
    if dist is None or roots.size != 1 or not _steps_down(dist, parent, root):
        dist = pointer_depths(parent)
    return _tree_columns(config.id_column, root, dist)


@batch_prover(("repro.schemes.bfs_tree", "BfsTreeScheme"))
def _bfs_tree_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    _, _, parent = pointer_states(config)
    roots = np.flatnonzero(parent < 0)
    root = int(roots[0]) if roots.size else 0
    csr = config.graph.csr()
    dist = take_dist(csr, root)
    if dist is None:
        dist, _, _ = bfs_arrays(csr, root)
    return _tree_columns(config.id_column, root, dist)


@batch_prover(("repro.schemes.leader", "LeaderScheme"))
def _leader_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    is_bool, marked = bool_states(config)
    leaders = np.flatnonzero(is_bool & marked)  # the states that are True
    root = int(leaders[0]) if leaders.size else 0
    dist, parent, _ = bfs_arrays(config.graph.csr(), root)
    return _tree_columns(config.id_column, root, dist, parent)


@batch_prover(("repro.schemes.acyclic", "AcyclicScheme"))
def _acyclic_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    _, _, parent = pointer_states(config)
    depth = pointer_depths(parent)
    d0 = np.where(depth < 0, 0, depth).tolist()
    return dict(enumerate(d0))


@batch_prover(("repro.schemes.agreement", "AgreementScheme"))
def _agreement_prover(scheme, config):
    return dict(enumerate(state_list(config)))


@batch_prover(
    ("repro.schemes.independent_set", "IndependentSetScheme"),
    ("repro.schemes.dominating_set", "DominatingSetScheme"),
    ("repro.schemes.vertex_cover", "VertexCoverScheme"),
)
def _marked_echo_prover(scheme, config):
    return {v: bool(s) for v, s in enumerate(state_list(config))}


@batch_prover(
    ("repro.schemes.spanning_tree", "SpanningTreeListScheme"),
    ("repro.errorsensitive.repair", "ErrorSensitiveSpanningTreeScheme"),
)
def _spanning_tree_list_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = config.graph.csr()
    states = state_list(config)
    degrees = csr.degrees().tolist()
    indptr = csr.indptr.tolist()
    # A node's listing counts only when *every* element is a valid port
    # (`_listed_edges`); the echo filters element by element (`_echo`).
    listed = np.zeros(csr.num_entries, dtype=bool)
    for v, state in enumerate(states):
        if isinstance(state, frozenset) and all(
            isinstance(p, int) and 0 <= p < degrees[v] for p in state
        ):
            base = indptr[v]
            for p in state:
                listed[base + p] = True
    mutual = listed & listed[csr.reverse]
    tj = np.flatnonzero(mutual)
    sub_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(csr.owners[tj], minlength=n)))
    )
    dist, parent, _ = bfs_arrays_indexed(n, sub_indptr, csr.indices[tj], 0)
    ids = config.id_column.tolist()
    kkp = scheme.visibility is Visibility.KKP
    echoes = [() if kkp else None] * n
    if kkp:
        indices = csr.indices
        for v, state in enumerate(states):
            if isinstance(state, frozenset):
                base = indptr[v]
                degree = degrees[v]
                echoes[v] = tuple(
                    sorted(
                        ids[int(indices[base + p])]
                        for p in state
                        if isinstance(p, int) and 0 <= p < degree
                    )
                )
    parents = [ids[v] if p < 0 else ids[p] for v, p in enumerate(parent.tolist())]
    d0 = np.maximum(dist, 0).tolist()
    return dict(enumerate(zip([ids[0]] * n, parents, d0, echoes)))


@batch_prover(("repro.schemes.eccentricity", "BoundedEccentricityScheme"))
def _eccentricity_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = config.graph.csr()
    ecc = []
    for v in range(n):
        dist, _, _ = bfs_arrays(csr, v)
        if int(dist.min()) < 0:
            raise BatchFallback("disconnected graph")  # dict raises GraphError
        ecc.append(int(dist.max()))
    ids = config.id_column.tolist()
    center = min(range(n), key=lambda v: (ecc[v], ids[v]))
    dist, _, _ = bfs_arrays(csr, center)
    center_uid = ids[center]
    return {v: (center_uid, d) for v, d in enumerate(dist.tolist())}


@batch_prover(("repro.approx.dominating_set", "ApproxDominatingSetScheme"))
def _approx_dominating_set_prover(scheme, config):
    n = config.graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    ids = config.id_column.tolist()
    root = min(range(n), key=lambda v: ids[v])
    dist, parent, _ = bfs_arrays(config.graph.csr(), root)
    depth = int(dist.max())
    mantissa = mantissa_bits_for(depth, scheme.alpha)
    states = state_list(config)
    bits = [1 if s else 0 for s in states]
    d0 = np.where(dist < 0, 0, dist)
    plist = parent.tolist()
    # Deepest first, ties in node order — the dict prover's stable sort.
    totals = [0] * n
    counters: list = [None] * n
    for v in np.argsort(-d0, kind="stable").tolist():
        counter = round_up_counter(bits[v] + totals[v], mantissa)
        counters[v] = counter
        p = plist[v]
        if p >= 0:
            totals[p] += counter_value(counter)
    root_uid = ids[root]
    parents = [None if p < 0 else ids[p] for p in plist]
    return {
        v: ("apx-ds", bool(s), root_uid, d, p, c)
        for v, (s, d, p, c) in enumerate(zip(states, d0.tolist(), parents, counters))
    }


@batch_prover(("repro.approx.mst_weight", "ApproxTreeWeightScheme"))
def _approx_tree_weight_prover(scheme, config):
    graph = config.graph
    n = graph.n
    if n == 0:
        raise BatchFallback("empty graph")
    csr = graph.csr()
    _, port, parent = pointer_states(config)
    depth = pointer_depths(parent)
    roots = np.flatnonzero(parent < 0)
    ids = config.id_column.tolist()
    root_uid = ids[int(roots[0])] if roots.size else ids[0]
    d0 = np.where(depth < 0, 0, depth)
    mantissa = mantissa_bits_for(int(d0.max()), scheme.alpha)
    plist = parent.tolist()
    portl = port.tolist()
    rooted = (depth >= 0).tolist()
    indptr = csr.indptr.tolist()
    weighted = graph.is_weighted
    totals = [0] * n
    counters: list = [None] * n
    for v in np.argsort(-d0, kind="stable").tolist():
        counter = round_up_counter(totals[v], mantissa)
        counters[v] = counter
        p = plist[v]
        # Cycle nodes have no certified depth; like the dict prover they
        # never contribute to their target's subtree bound.
        if p >= 0 and rooted[v]:
            add = counter_value(counter)
            if weighted:
                add += math.ceil(csr.weights[indptr[v] + portl[v]])
            totals[p] += add
    parents = [None if p < 0 else ids[p] for p in plist]
    return {
        v: ("apx-tw", root_uid, d, p, c)
        for v, (d, p, c) in enumerate(zip(d0.tolist(), parents, counters))
    }
