"""Compressed sparse row adjacency: the storage of every graph.

:class:`CSRGraph` is how a :class:`~repro.graphs.graph.Graph` is
stored: one ``indptr`` array of length ``n + 1`` and, for each of
the ``2m`` directed half-edges (node ``u`` looking at neighbor ``v``),
parallel arrays sorted by owner and then by neighbor index — exactly the
port order of the LOCAL model, so entry ``indptr[u] + p`` *is* port
``p`` of node ``u``.

Beyond the standard ``indices`` column the structure carries the
columns the batched deciders need:

``owners``
    ``owners[j]`` is the node whose half-edge ``j`` is (the row index,
    materialised for ``bincount``-style per-node reductions).
``reverse``
    ``reverse[j]`` is the index of the opposite half-edge (``v`` looking
    back at ``u``).
``weights``
    Per-half-edge ``float64`` weights, or ``None`` on unweighted graphs.
``orientation``
    On a spanning tree built by :func:`csr_from_tree_columns`,
    ``orientation[v]`` (``v < n - 1``) is the half-edge from ``v`` to
    its parent toward node ``n - 1``; ``None`` on every other graph.

Ports are arithmetic on those columns, computed only for the entries
asked about: :meth:`CSRGraph.port_at` gives ``j - indptr[owners[j]]``,
the port of entry ``j``, and :meth:`CSRGraph.back_port_at` gives
``reverse[j] - indptr[indices[j]]``, the port through which the
neighbor behind entry ``j`` sees the owner (the ``back_port`` of a
:class:`~repro.core.verifier.Glimpse`).  The markers ask for one port
per node, so no ``2m`` port column lives as long as the graph.

:func:`csr_from_columns` makes the structure from two edge columns
with one argsort of the ``owner * n + neighbor`` keys of the ``2m``
half-edges; ``reverse`` is that sort's inverse permutation read at each
half-edge's partner.  It also does the edge checks of
:class:`~repro.graphs.graph.Graph`, which stores its result as the
graph's only storage: ``Graph(n, edges)`` turns its pairs into the two
columns with :func:`_pair_columns`, as the wire codec does.
:func:`csr_from_tree_columns` builds the same columns for a tree given
as child → parent edges, and keeps that orientation, which lets
:func:`~repro.graphs.traversal_arrays.bfs_arrays` skip the frontier
loop.  It needs no permutation: it sorts the keys themselves, splits
them into ``owners`` and ``indices``, finds each child's up-entry as
the one pointing at its parent, and pairs every other entry with the
up-entry of the child it points at for ``reverse``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph", "csr_from_columns", "csr_from_tree_columns"]


@dataclass(frozen=True)
class CSRGraph:
    """Contiguous adjacency: ``n`` nodes, ``2m`` half-edges in port order."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    owners: np.ndarray
    reverse: np.ndarray
    weights: np.ndarray | None
    #: Half-edge toward the parent, per node but ``n - 1``, on an
    #: oriented spanning tree (see :func:`csr_from_tree_columns`);
    #: int32 unless ``2m`` needs more.
    orientation: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: At most one ``root -> dist`` BFS column a marker left for the
    #: next prover (see :func:`~repro.graphs.traversal_arrays.hand_off_dist`).
    dist_handoff: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_entries(self) -> int:
        return int(self.indices.shape[0])

    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbors of ``u`` in port order (a zero-copy slice)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def port_at(self, entries: np.ndarray) -> np.ndarray:
        """Each entry's port at its owner."""
        return entries - self.indptr[self.owners[entries]]

    def back_port_at(self, entries: np.ndarray) -> np.ndarray:
        """The port through which each entry's neighbor sees its owner."""
        return self.reverse[entries] - self.indptr[self.indices[entries]]


def csr_from_columns(n: int, us, vs) -> CSRGraph:
    """The unweighted CSR of the graph on ``0..n-1`` with edges
    ``(us[i], vs[i])``.

    An invalid column raises the :class:`GraphError` that
    :class:`~repro.graphs.graph.Graph` raises for the first bad edge in
    the same order (out of range, self-loop, duplicate in either
    orientation, or a negative ``n``).
    """
    us, vs = _edge_columns(n, us, vs)
    m = us.shape[0]
    # Half-edge h < m is (us[h] -> vs[h]); h >= m is its opposite.
    owners = np.concatenate((us, vs))
    indices = np.concatenate((vs, us))
    key = owners * n + indices
    # Keys of a valid edge set are distinct, so any sort gives the one
    # (owner, neighbor) order; a tie is a duplicate and raises below.
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        _raise_first_invalid(n, us, vs, m)
    del key
    owners = owners[order]
    indices = indices[order]
    # The opposite of the half-edge sorted to position p is half-edge
    # order[p] ± m; the inverse permutation says where that one landed.
    total = 2 * m
    inverse = np.empty(total, dtype=np.int64)
    inverse[order] = np.arange(total, dtype=np.int64)
    order += m
    order[order >= total] -= total
    reverse = inverse[order]
    del inverse, order
    return CSRGraph(
        n=n,
        indptr=_indptr(n, owners),
        indices=indices,
        owners=owners,
        reverse=reverse,
        weights=None,
    )


def csr_from_tree_columns(n: int, children, parents) -> CSRGraph:
    """The CSR of the tree with edges ``children[i] -> parents[i]``,
    keeping that orientation toward node ``n - 1`` as ``orientation``.

    Every node but ``n - 1`` must be a child exactly once, and every
    parent ``n - 1`` or a *later* child — the order in which a Prüfer
    decoder emits them.  Parents then lie strictly further along the
    columns, so no pointer chain can cycle and the edges are a spanning
    tree; the checks are O(n).  They raise :class:`GraphError` after
    the range and self-loop checks of :func:`csr_from_columns`, and
    they rule out a repeated edge, so this builder makes no duplicate
    check.  Its columns equal :func:`csr_from_columns`'s.
    """
    us, vs = _edge_columns(n, children, parents)
    _check_tree_order(n, us, vs)
    m = us.shape[0]
    # The sorted (owner, neighbor) keys are the CSR; no permutation.
    key = np.concatenate((us * n + vs, vs * n + us))
    key.sort()
    owners = key // n
    indices = np.remainder(key, n, out=key)
    parent = np.full(n, -1, dtype=np.int64)
    parent[us] = vs
    up = indices == parent[owners]
    del parent
    # One up-entry per child, in owner order: node v's is the v-th.
    # Kept as long as the graph, so int32 wherever that fits.
    small = 2 * m <= np.iinfo(np.int32).max
    orientation = np.flatnonzero(up).astype(np.int32 if small else np.int64)
    # Entry j from a parent down to child c is the opposite of c's
    # up-entry, and that up-entry's opposite is j.
    down = np.flatnonzero(~up)
    del up
    child_up = orientation[indices[down]]
    reverse = np.empty(2 * m, dtype=np.int64)
    reverse[down] = child_up
    reverse[child_up] = down
    del down, child_up
    return CSRGraph(
        n=n,
        indptr=_indptr(n, owners),
        indices=indices,
        owners=owners,
        reverse=reverse,
        weights=None,
        orientation=orientation,
    )


def _pair_columns(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The ``us``/``vs`` int64 columns of ``(u, v)`` pairs.

    A pair is a list or tuple of two ints; numpy integers count as ints,
    bools do not, and any other entry raises :class:`GraphError` naming
    it.  An int outside int64 is out of range of every node count: it
    raises that error of :func:`csr_from_columns`, after the error of
    any bad edge before it.
    """
    if not isinstance(pairs, list):
        pairs = list(pairs)
    if not (
        set(map(type, pairs)) <= {tuple, list}
        and set(map(len, pairs)) <= {2}
        and set(map(type, chain.from_iterable(pairs))) <= {int}
    ):
        pairs = [_int_pair(pair) for pair in pairs]
    try:
        flat = np.fromiter(
            chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
        )
    except OverflowError:
        wide = next(
            i
            for i, pair in enumerate(pairs)
            if not all(-(1 << 63) <= x < 1 << 63 for x in pair)
        )
        csr_from_columns(n, *_pair_columns(n, pairs[:wide]))
        u, v = pairs[wide]
        raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})") from None
    return flat[0::2], flat[1::2]


def _int_pair(pair) -> tuple[int, int]:
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        u, v = pair
        if _is_int(u) and _is_int(v):
            return int(u), int(v)
    raise GraphError(f"malformed edge entry {pair!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _edge_columns(n: int, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """``us``/``vs`` as int64 columns, after the range and self-loop
    checks (and the column-shape and ``n`` checks)."""
    if n < 0:
        raise GraphError(f"negative node count {n}")
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise GraphError("edge columns must be two 1-d columns of equal length")
    bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n) | (us == vs)
    if bad.any():
        _raise_first_invalid(n, us, vs, int(bad.argmax()))
    return us, vs


def _indptr(n: int, owners: np.ndarray) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr


def _check_tree_order(n: int, children: np.ndarray, parents: np.ndarray) -> None:
    """Raise unless the in-range columns are a tree in the order of
    :func:`csr_from_tree_columns`."""
    m = children.shape[0]
    if m != n - 1 or np.bincount(children, minlength=n)[:m].min(initial=1) != 1:
        raise GraphError(f"not every node but {n - 1} is a child exactly once")
    # Where each node is a child; node n - 1 sits after every child.
    steps = np.arange(m)
    at = np.empty(n, dtype=np.int64)
    at[children] = steps
    at[n - 1] = m
    if not (at[parents] > steps).all():
        raise GraphError(f"a parent precedes its child, so no tree toward {n - 1}")


def _raise_first_invalid(n: int, us: np.ndarray, vs: np.ndarray, stop: int):
    """Raise for the first bad edge; each edge before ``stop`` is in
    range and no self-loop.

    A repeat among them comes first, else the edge at ``stop`` is out of
    range or a self-loop.  Only error paths get here.
    """
    lo = np.minimum(us[:stop], vs[:stop])
    hi = np.maximum(us[:stop], vs[:stop])
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1]) + 1
    if repeats.size:
        i = int(order[repeats].min())
        raise GraphError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
    u, v = int(us[stop]), int(vs[stop])
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})")
    raise GraphError(f"self-loop on node {u}")
