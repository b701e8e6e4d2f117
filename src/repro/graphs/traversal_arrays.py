"""Array-native graph traversal over the CSR mirror.

The dict traversal (:mod:`repro.graphs.traversal`) is the semantic
reference: FIFO BFS discovering each node's neighbors in port order.
These kernels recompute the *same* functions as numpy frontier sweeps
over :class:`~repro.graphs.csr.CSRGraph` columns — one array pass per
BFS layer instead of one dict operation per half-edge — which is what
lets the batched marker/prover kernels (:mod:`repro.core.batch_markers`)
generate labeled instances at n = 10⁶.

Equivalence contract (pinned by ``tests/core/test_batch_generation.py``):

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

Each sweep bumps the ``repro.obs`` counters ``traversal.sweeps`` (one
per call) and ``traversal.levels`` (frontier layers after the first),
a deterministic unit for the per-level numpy overhead that dominates
deep graphs.

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


def _count_sweep(levels: int) -> None:
    _metrics.inc("traversal.sweeps")
    _metrics.inc("traversal.levels", levels)


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
    ``csr.back_ports[entry[v]]`` is ``v``'s port toward its parent and
    ``csr.ports[entry[v]]`` the parent's port toward ``v``.  Callers
    running over a *sub*-CSR (a masked half-edge subset) pass their own
    ``indptr``/``indices`` and map ``entry`` back through their mask.
    """
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    entry = np.full(n, -1, dtype=np.int64)
    if n == 0:
        _count_sweep(0)
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
    """:func:`bfs_arrays_indexed` on a graph's own CSR mirror."""
    return bfs_arrays_indexed(csr.n, csr.indptr, csr.indices, root)


def pointer_depths(parent: np.ndarray) -> np.ndarray:
    """Depths of the forest part of a parent-pointer functional graph.

    ``parent[v]`` is ``v``'s pointer target, ``-1`` for roots.  Returns
    ``depth`` with ``depth[root] = 0`` and ``depth[v] = depth[parent[v]]
    + 1`` for every node whose pointer chain reaches a root; nodes on a
    pointer cycle — or whose chain feeds into one — have no depth and
    return ``-1``, exactly the nodes absent from
    ``PointerStructure.depth``.
    """
    n = parent.shape[0]
    depth = np.full(n, -1, dtype=np.int64)
    if n == 0:
        _count_sweep(0)
        return depth
    # Group children by parent: a stable argsort puts the -1 (root)
    # entries first, then each parent's children contiguously.
    order = np.argsort(parent, kind="stable")
    rooted = parent >= 0
    children = order[int(n - rooted.sum()):]
    counts = np.bincount(parent[rooted], minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts)))
    frontier = np.flatnonzero(~rooted)
    depth[frontier] = 0
    d = 0
    while frontier.size:
        cs = starts[frontier]
        cf = starts[frontier + 1] - cs
        total = int(cf.sum())
        if total == 0:
            break
        before = np.cumsum(cf) - cf
        idx = np.repeat(cs - before, cf) + np.arange(total)
        d += 1
        frontier = children[idx]
        depth[frontier] = d
    _count_sweep(d)
    return depth
