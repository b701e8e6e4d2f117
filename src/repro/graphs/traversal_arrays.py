"""Array-native graph traversal over the CSR mirror.

The dict traversal (:mod:`repro.graphs.traversal`) is the semantic
reference: FIFO BFS discovering each node's neighbors in port order.
These kernels recompute the *same* functions over
:class:`~repro.graphs.csr.CSRGraph` columns — whole-array passes instead
of one dict operation per half-edge — which is what lets the batched
marker/prover kernels (:mod:`repro.core.batch_markers`) generate
labeled instances at n = 10⁶.

Equivalence contract (pinned by ``tests/core/test_batch_generation.py``
and ``tests/graphs/test_traversal_arrays.py``):

* :func:`bfs_arrays` returns the exact ``dist``/``parent`` maps of
  :func:`repro.graphs.traversal.bfs` — including which neighbor becomes
  the parent when several frontier nodes reach an undiscovered node in
  the same layer (the first one in frontier order, which is dict-BFS
  discovery order).
* :func:`pointer_depths` returns the exact ``depth`` map of
  :class:`repro.graphs.subgraphs.PointerStructure` — nodes on or feeding
  a pointer cycle have no depth and come back as ``-1``.

Sentinels are ``-1`` throughout (no parent / unreached / no depth), so
every output column is a plain ``int64`` array.

General graphs take a frontier sweep, one array pass per BFS layer
(:func:`bfs_arrays_indexed`).  A CSR that carries a tree orientation
(:func:`~repro.graphs.csr.csr_from_tree_columns`, which ``random_tree``
uses) needs none: a tree's BFS parent is unique, so flipping the
orientation along the root → ``n - 1`` path gives every parent, and
:func:`pointer_depths` gives the distances by pointer doubling in about
log₂(depth) gathers, however deep the tree.

Each call bumps the ``repro.obs`` counter ``traversal.sweeps`` once,
``traversal.levels`` by the frontier layers after the first, and
``traversal.rounds`` by the pointer-doubling rounds — deterministic
units for the per-layer and per-round numpy overhead.

A marker that has run the BFS a prover will need leaves its ``dist``
column on the CSR with :func:`hand_off_dist`; the prover takes it with
:func:`take_dist`.  The slot holds one read-only column keyed by root
and a take empties it.  An entry is a pure function of (graph, root),
so a stale or raced entry is never wrong: at worst a prover misses it
and traverses again.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as _metrics

__all__ = [
    "bfs_arrays",
    "bfs_arrays_indexed",
    "hand_off_dist",
    "pointer_depths",
    "take_dist",
]


def _count_sweep(levels: int = 0, rounds: int = 0) -> None:
    _metrics.inc("traversal.sweeps")
    _metrics.inc("traversal.levels", levels)
    _metrics.inc("traversal.rounds", rounds)


def hand_off_dist(csr, root: int, dist: np.ndarray) -> None:
    """Leave ``dist`` — BFS distances from ``root`` on ``csr`` — for one
    :func:`take_dist`, replacing any earlier entry."""
    dist.flags.writeable = False
    slot = csr.dist_handoff
    slot.clear()
    slot[root] = dist


def take_dist(csr, root: int) -> np.ndarray | None:
    """The handed-off BFS distances from ``root``, or ``None``; the slot
    is empty afterwards either way."""
    slot = csr.dist_handoff
    dist = slot.pop(root, None)
    slot.clear()
    return dist


def bfs_arrays_indexed(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    root: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frontier BFS over an arbitrary CSR adjacency.

    Returns ``(dist, parent, entry)`` int64 arrays over nodes:

    * ``dist[v]``   — BFS distance from ``root`` (``-1`` unreached);
    * ``parent[v]`` — the discovering neighbor (``-1`` for the root and
      unreached nodes), identical to the dict BFS parent;
    * ``entry[v]``  — the index into ``indices`` of the half-edge
      ``parent[v] → v`` that discovered ``v`` (``-1`` where parent is).

    ``entry`` is what lets callers recover ports: on the graph's own CSR,
    ``csr.back_port_at(entry)[v]`` is ``v``'s port toward its parent and
    ``csr.port_at(entry)[v]`` the parent's port toward ``v``.  Callers
    running over a *sub*-CSR (a masked half-edge subset) pass their own
    ``indptr``/``indices`` and map ``entry`` back through their mask.
    """
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    entry = np.full(n, -1, dtype=np.int64)
    if n == 0:
        _count_sweep()
        return dist, parent, entry
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Concatenate every frontier node's half-edge range, in frontier
        # order — the order the dict BFS dequeues and scans them.
        before = np.cumsum(counts) - counts
        j = np.repeat(starts - before, counts) + np.arange(total)
        owner = np.repeat(frontier, counts)
        cand = indices[j]
        fresh = dist[cand] < 0
        j, owner, cand = j[fresh], owner[fresh], cand[fresh]
        if cand.size == 0:
            break
        # First occurrence per candidate = the discovering half-edge;
        # sorting those first-occurrence positions restores discovery
        # order, which is the next layer's frontier order.
        _, first = np.unique(cand, return_index=True)
        sel = np.sort(first)
        d += 1
        newly = cand[sel]
        dist[newly] = d
        parent[newly] = owner[sel]
        entry[newly] = j[sel]
        frontier = newly
    _count_sweep(d)
    return dist, parent, entry


def bfs_arrays(csr, root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bfs_arrays_indexed` on a graph's own CSR mirror.

    On a CSR with a tree ``orientation`` the three columns come from a
    re-root and :func:`pointer_depths` instead of a frontier sweep.
    """
    if csr.orientation is not None:
        return _tree_bfs(csr, root)
    return bfs_arrays_indexed(csr.n, csr.indptr, csr.indices, root)


def _tree_bfs(csr, root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bfs_arrays` on a spanning tree oriented toward ``n - 1``.

    Only the nodes on the path from ``root`` to ``n - 1`` change parent
    when the tree is re-rooted at ``root``: each now points back at the
    previous one, through the half-edge that node used to point up by.
    """
    up = csr.orientation
    last = csr.n - 1
    parent = np.empty(csr.n, dtype=np.int64)
    parent[:last] = csr.indices[up]
    parent[last] = -1
    path = [root]
    while path[-1] != last:
        path.append(int(parent[path[-1]]))
    path = np.array(path, dtype=np.int64)
    parent[path[1:]] = path[:-1]
    parent[root] = -1
    dist = pointer_depths(parent)
    entry = np.empty(csr.n, dtype=np.int64)
    entry[:last] = csr.reverse[up]
    entry[path[1:]] = up[path[:-1]]
    entry[root] = -1
    return dist, parent, entry


def pointer_depths(parent: np.ndarray) -> np.ndarray:
    """Depths of the forest part of a parent-pointer functional graph.

    ``parent[v]`` is ``v``'s pointer target, ``-1`` for roots.  Returns
    ``depth`` with ``depth[root] = 0`` and ``depth[v] = depth[parent[v]]
    + 1`` for every node whose pointer chain reaches a root; nodes on a
    pointer cycle — or whose chain feeds into one — have no depth and
    return ``-1``, exactly the nodes absent from
    ``PointerStructure.depth``.

    Pointer doubling: after round ``k``, ``jump[v]`` is ``2**k``
    pointers above ``v`` or the root its chain reached first, and
    ``hops[v]`` counts the pointers followed.  No depth exceeds
    ``n - 1``, so ``(n - 1).bit_length()`` rounds reach every root that
    can be reached, and the rounds stop early once no jump moves —
    which happens only when every chain that reaches a root has.
    """
    n = parent.shape[0]
    has_parent = parent >= 0
    jump = parent.copy()
    roots = np.flatnonzero(~has_parent)
    jump[roots] = roots
    hops = has_parent.astype(np.int64)
    ahead, gathered = np.empty_like(jump), np.empty_like(hops)
    rounds = 0
    while rounds < max(n - 1, 0).bit_length():
        # Every index is a node, so "clip" only skips the bounds check.
        np.take(jump, jump, out=ahead, mode="clip")
        if np.array_equal(ahead, jump):
            break
        np.take(hops, jump, out=gathered, mode="clip")
        hops += gathered
        jump, ahead = ahead, jump
        rounds += 1
    del ahead, gathered
    # Chains that never reached a root end on or feeding a cycle.
    hops[has_parent[jump]] = -1
    _count_sweep(rounds=rounds)
    return hops
