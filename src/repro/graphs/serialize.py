"""Canonical graph serialization: deterministic, version-tagged codecs.

A :class:`~repro.graphs.graph.Graph` is immutable and stores its edges
in canonical sorted order, so it already *has* one obvious byte form —
this module pins it down and version-tags it so serialized graphs are
durable objects: two equal graphs (same node count, edge set, and
weights) produce identical bytes in any process, which is what lets a
content hash key the certification service's result cache.

The object form is JSON-able and stdlib-only::

    {"format": "pls-graph/v1", "n": 7,
     "edges": [[0, 1], [1, 2], ...],
     "weights": [0.25, 1.5, ...] | None}

``weights`` aligns index-for-index with ``edges`` (a graph weights every
edge or none).  :func:`graph_hash` is the domain-separated content hash
(``PLS_GRAPH/v1``) used throughout :mod:`repro.service`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CanonicalError
from repro.graphs.csr import _pair_columns
from repro.graphs.graph import Graph
from repro.util.canonical import canonical_bytes, domain_hash

__all__ = [
    "GRAPH_FORMAT",
    "GRAPH_HASH_DOMAIN",
    "graph_canonical_bytes",
    "graph_from_obj",
    "graph_hash",
    "graph_to_obj",
    "parse_graph_obj",
]

#: Version tag carried inside every serialized graph.
GRAPH_FORMAT = "pls-graph/v1"

#: Domain tag under which graph content hashes are computed.
GRAPH_HASH_DOMAIN = "PLS_GRAPH/v1"


def graph_to_obj(graph: Graph) -> dict[str, Any]:
    """``graph`` as a deterministic, version-tagged JSON-able object."""
    edges = graph.edges()
    weights: list[float] | None = None
    if graph.is_weighted:
        table = graph.weights()
        weights = [table[edge] for edge in edges]
    return {
        "format": GRAPH_FORMAT,
        "n": graph.n,
        "edges": [[u, v] for u, v in edges],
        "weights": weights,
    }


def graph_from_obj(obj: Any) -> Graph:
    """Rebuild a :class:`Graph` from :func:`graph_to_obj` output.

    Validation is strict — a malformed object raises
    :class:`~repro.errors.CanonicalError` rather than producing a graph
    that hashes differently from the one serialized.
    """
    return parse_graph_obj(obj)[0]


def parse_graph_obj(obj: Any) -> tuple[Graph, bool]:
    """:func:`graph_from_obj`, and whether ``obj`` is the graph's
    canonical form (its :func:`graph_to_obj` output, so its canonical
    bytes are the graph's).

    The edges become int64 columns, which also decide canonicity; a
    weighted object is never called canonical.
    """
    if not isinstance(obj, dict):
        raise CanonicalError(f"graph object must be a dict, got {type(obj).__name__}")
    if obj.get("format") != GRAPH_FORMAT:
        raise CanonicalError(
            f"unsupported graph format {obj.get('format')!r} "
            f"(expected {GRAPH_FORMAT!r})"
        )
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CanonicalError(f"graph node count {n!r} is not a non-negative int")
    raw_edges = obj.get("edges")
    if not isinstance(raw_edges, list):
        raise CanonicalError("graph edges must be a list of [u, v] pairs")
    raw_weights = obj.get("weights")
    if raw_weights is not None:
        if not isinstance(raw_weights, list) or len(raw_weights) != len(raw_edges):
            raise CanonicalError(
                "graph weights must align index-for-index with edges"
            )
        for w in raw_weights:
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise CanonicalError(f"non-numeric edge weight {w!r}")
    try:
        us, vs = _pair_columns(n, raw_edges)
        if raw_weights is None:
            graph = Graph.from_columns(n, us, vs)
        else:
            edges = list(zip(us.tolist(), vs.tolist()))
            graph = Graph(n, edges, dict(zip(edges, raw_weights)))
    except Exception as error:
        raise CanonicalError(
            f"graph object does not describe a graph: {error}"
        ) from None
    canonical = (
        raw_weights is None
        and obj.keys() == _GRAPH_KEYS
        and _ascending_edges(n, us, vs)
    )
    return graph, canonical


#: The keys of a canonical graph object.
_GRAPH_KEYS = {"format", "n", "edges", "weights"}


def _ascending_edges(n: int, us: Any, vs: Any) -> bool:
    """Whether the valid edge columns list each edge as ``u < v`` in
    strictly increasing order — the order of :meth:`Graph.edges`."""
    key = us * n + vs
    return bool((us < vs).all() and (key[1:] > key[:-1]).all())


def graph_canonical_bytes(graph: Graph) -> bytes:
    """The graph's canonical byte form (see :func:`graph_to_obj`)."""
    return canonical_bytes(graph_to_obj(graph))


def graph_hash(graph: Graph) -> str:
    """Domain-separated content hash of ``graph`` (hex SHA-256)."""
    return domain_hash(GRAPH_HASH_DOMAIN, graph_canonical_bytes(graph))
