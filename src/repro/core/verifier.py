"""The one-round verification engine.

This module materialises what a node *sees* during the verification round
and executes a scheme's verifier at every node.

Visibility models
-----------------
The paper's verifier at node ``v`` sees: ``v``'s identity, input state
and certificate, and the **certificates** of its neighbors (exchanged in
the single communication round), plus ground truth that the network
itself provides — neighbor identities and incident edge weights.  It does
*not* see neighbor input states; a scheme that needs them must echo them
in certificates (and pay for it in proof size).  That is
:attr:`Visibility.KKP`.  The relaxed :attr:`Visibility.FULL` model also
reveals neighbor states; some schemes are cheaper there, and the
framework supports both so the experiments can compare.

Verification radius
-------------------
Radius 1 is the paper's model.  The engine also supports radius ``t > 1``
(the natural extension studied in follow-up work): the view then carries
the whole distance-``t`` ball — induced edges, identities, certificates,
and states when visibility is FULL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.labeling import Configuration
from repro.errors import SchemeError
from repro.graphs.graph import Graph
from repro.obs import metrics as _metrics

__all__ = [
    "BallView",
    "LocalView",
    "NeighborGlimpse",
    "Verdict",
    "ViewSet",
    "Visibility",
    "affected_nodes",
    "build_view",
    "build_views",
    "decide",
    "record_view_build",
    "refresh_views",
    "view_build_count",
]


class Visibility(enum.Enum):
    """What the verification round reveals about neighbors."""

    #: Neighbor certificates only (the paper's model).
    KKP = "kkp"
    #: Neighbor certificates and input states.
    FULL = "full"


@dataclass(frozen=True)
class NeighborGlimpse:
    """What a node learns about one neighbor during verification.

    ``state`` is ``None`` under :attr:`Visibility.KKP` (and
    indistinguishable from a true ``None`` state — schemes needing states
    under KKP must echo them in certificates instead).  ``weight`` is the
    ground-truth weight of the connecting edge, or ``None`` on unweighted
    graphs.  ``back_port`` is the port through which the *neighbor* sees
    this edge: the neighbor reports it during the round, and the report
    is network ground truth (not prover-supplied), so verifiers may rely
    on it — it is what lets a node interpret port-valued neighbor states
    under FULL visibility.
    """

    port: int
    uid: int
    certificate: Any
    state: Any = None
    weight: float | None = None
    back_port: int = 0


@dataclass(frozen=True)
class BallView:
    """Distance-``t`` ball for radius > 1 verification.

    ``members`` maps uid to ``(distance, certificate, state_or_None)``;
    ``edges`` lists uid pairs of induced edges with their weight (or
    ``None``); ``ports`` maps each member's uid to the uids of *all* its
    neighbors in port order — the ground truth needed to interpret
    port-valued states of ball members (e.g. to follow pointer chains).
    """

    radius: int
    members: dict[int, tuple[int, Any, Any]]
    edges: tuple[tuple[int, int, float | None], ...]
    ports: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class LocalView:
    """Everything a node's verifier may base its output on."""

    uid: int
    degree: int
    state: Any
    certificate: Any
    neighbors: tuple[NeighborGlimpse, ...]
    ball: BallView | None = None

    def neighbor_at(self, port: int) -> NeighborGlimpse:
        if not 0 <= port < len(self.neighbors):
            raise SchemeError(f"no port {port} in view of uid {self.uid}")
        return self.neighbors[port]

    def neighbor_by_uid(self, uid: int) -> NeighborGlimpse | None:
        # Hot path for pointer-chasing verifiers: a lazily built
        # uid -> glimpse map replaces the linear scan.  First-wins on
        # duplicate uids, matching the original scan order.
        index = self.__dict__.get("_uid_index")
        if index is None:
            index = {}
            for glimpse in self.neighbors:
                index.setdefault(glimpse.uid, glimpse)
            object.__setattr__(self, "_uid_index", index)
        return index.get(uid)

    def neighbor_uids(self) -> frozenset[int]:
        return frozenset(g.uid for g in self.neighbors)


@dataclass(frozen=True)
class Verdict:
    """Outcome of running the verifier at every node.

    ``backend`` reports which path decided: ``"array"`` (a batched
    decider) or ``"views"`` (the per-node oracle).  It takes no part in
    equality — both paths must agree node for node.

    An array verdict (:meth:`from_mask`) keeps the decider's accept
    mask and its rejection count; ``accepts``/``rejects`` are built on
    first read.
    """

    accepts: frozenset[int]
    rejects: frozenset[int]
    backend: str = field(default="views", compare=False)

    @classmethod
    def from_mask(cls, mask: Any) -> "Verdict":
        """The array verdict of a bool mask (``mask[v]`` iff ``v`` accepts)."""
        verdict = cls.__new__(cls)
        object.__setattr__(verdict, "backend", "array")
        object.__setattr__(verdict, "_mask", mask)
        object.__setattr__(
            verdict, "_rejections", mask.size - int(np.count_nonzero(mask))
        )
        return verdict

    def __getattr__(self, name: str) -> Any:
        # Only reached for unset attributes: an array verdict sets
        # ``accepts``/``rejects`` on first read.
        mask = self.__dict__.get("_mask")
        if name not in ("accepts", "rejects") or mask is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        object.__setattr__(self, "accepts", frozenset(mask.nonzero()[0].tolist()))
        object.__setattr__(self, "rejects", frozenset((~mask).nonzero()[0].tolist()))
        return self.__dict__[name]

    @property
    def all_accept(self) -> bool:
        return self.reject_count == 0

    @property
    def reject_count(self) -> int:
        if "_rejections" in self.__dict__:
            return self.__dict__["_rejections"]
        return len(self.rejects)

    def __repr__(self) -> str:
        return f"Verdict(accept={len(self.accepts)}, reject={len(self.rejects)})"


# LocalView constructions are the unit the incremental engine is judged
# by.  They are charged to :mod:`repro.obs` — the always-on root
# collector keeps the process-lifetime total (read it via
# :func:`view_build_count` before and after an operation to count the
# views it built), and any open ``obs.collect()`` scope sees the same
# increments as its own delta.  The benchmark suite uses the deltas to
# certify that incremental sweeps rebuild O(ball(k)) views, not O(n).


def view_build_count() -> int:
    """Monotone counter of :class:`LocalView` constructions.

    Bit-identical wrapper over the :mod:`repro.obs` root collector's
    ``views.built`` counter (the pre-observability process global).
    """
    return _metrics.view_build_total()


def record_view_build(count: int = 1) -> None:
    """Charge ``count`` view constructions to the cost ledger.

    The message-passing simulator assembles :class:`LocalView` objects
    itself (from real inboxes rather than through the scaffold), so it
    reports its constructions here — keeping ``view_build_count`` the
    single audited cost unit across the direct engine and the
    distributed one.
    """
    _metrics.record_view_builds(count)


class ViewSet(dict):
    """Views keyed by node, tagged with the parameters they were built under.

    A plain ``dict`` of views carries no record of the ``visibility`` and
    ``radius`` it was built with, so handing it back to
    :func:`decide`/:func:`refresh_views` under different parameters would
    silently produce wrong verdicts.  ``ViewSet`` (what
    :func:`build_views` and :func:`refresh_views` actually return) tags
    the dict; the consumers raise :class:`~repro.errors.SchemeError` on a
    mismatch.  Untagged mappings are still accepted unchecked, for
    callers that assemble views by hand.
    """

    __slots__ = ("visibility", "radius")

    def __init__(
        self,
        views: Mapping[int, "LocalView"],
        visibility: Visibility,
        radius: int,
    ) -> None:
        super().__init__(views)
        self.visibility = visibility
        self.radius = radius


def _check_view_tags(
    views: Mapping[int, "LocalView"], visibility: Visibility, radius: int
) -> None:
    """Reject reuse of views built under different parameters."""
    if isinstance(views, ViewSet) and (
        views.visibility is not visibility or views.radius != radius
    ):
        raise SchemeError(
            f"views built under visibility={views.visibility.value} "
            f"radius={views.radius} reused under "
            f"visibility={visibility.value} radius={radius}"
        )


def _ball_nodes(graph: Graph, center: int, radius: int) -> dict[int, int]:
    """Nodes within ``radius`` of ``center`` with their distances."""
    frontier = {center}
    dist = {center: 0}
    for d in range(1, radius + 1):
        nxt: set[int] = set()
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = d
                    nxt.add(v)
        frontier = nxt
    return dist


class _Scaffold:
    """Per-(graph, ids) data shared by every node's view construction.

    Hoists everything a view needs that does not depend on the focal
    node — uid table, port lists in uid space, the weighted flag — so
    building all ``n`` views touches each edge a constant number of
    times instead of re-enumerating ``graph.edges()`` per node
    (previously O(n·m) for ``radius > 1``).

    The scaffold is deliberately *labeling-independent*: it captures only
    the graph and the identifier assignment, and takes the configuration
    (for states) as an argument to :meth:`view`.  That is what lets
    :meth:`Configuration.with_labeling` propagate a cached scaffold to
    derived configurations, keeping incremental re-verification loops
    (the soundness adversaries, ``selfstab`` detection sessions) free of
    per-round O(n) setup.
    """

    __slots__ = ("graph", "weighted", "uid", "uid_ports")

    def __init__(self, config: Configuration) -> None:
        self.graph = config.graph
        self.weighted = self.graph.is_weighted
        self.uid = config.id_column.tolist()
        self.uid_ports: dict[int, tuple[int, ...]] | None = None

    def ports_by_uid(self) -> dict[int, tuple[int, ...]]:
        """uid -> uids of all neighbors in port order (built once)."""
        if self.uid_ports is None:
            uid = self.uid
            self.uid_ports = {
                uid[v]: tuple(uid[nb] for nb in self.graph.neighbors(v))
                for v in self.graph.nodes
            }
        return self.uid_ports

    def view(
        self,
        config: Configuration,
        certificates: Mapping[int, Any],
        node: int,
        visibility: Visibility,
        radius: int,
    ) -> LocalView:
        _metrics.record_view_builds(1)
        graph, uid = self.graph, self.uid
        full = visibility is Visibility.FULL
        weighted = self.weighted
        glimpses = []
        for port, nb in enumerate(graph.neighbors(node)):
            glimpses.append(
                NeighborGlimpse(
                    port=port,
                    uid=uid[nb],
                    certificate=certificates.get(nb),
                    state=config.state(nb) if full else None,
                    weight=graph.weight(node, nb) if weighted else None,
                    back_port=graph.port(nb, node),
                )
            )
        ball = None
        if radius > 1:
            dist = _ball_nodes(graph, node, radius)
            members = {
                uid[v]: (
                    d,
                    certificates.get(v),
                    config.state(v) if full else None,
                )
                for v, d in dist.items()
            }
            # Induced edges via adjacency of ball members: O(ball volume)
            # instead of a scan over all m graph edges.
            edges = tuple(
                (uid[u], uid[v], graph.weight(u, v) if weighted else None)
                for u in dist
                for v in graph.neighbors(u)
                if u < v and v in dist
            )
            all_ports = self.ports_by_uid()
            ports = {uid[v]: all_ports[uid[v]] for v in dist}
            ball = BallView(radius=radius, members=members, edges=edges, ports=ports)
        return LocalView(
            uid=uid[node],
            degree=graph.degree(node),
            state=config.state(node),
            certificate=certificates.get(node),
            neighbors=tuple(glimpses),
            ball=ball,
        )


def _scaffold_for(config: Configuration) -> _Scaffold:
    """The configuration's view scaffold, built once and cached.

    Configurations are immutable, so the scaffold (uid table, port
    lists) is a pure function of the graph and ids; caching it on the
    instance keeps the adversaries' refresh-one-view loop free of
    repeated O(n) setup, and ``with_labeling`` shares it across derived
    configurations.
    """
    scaffold = config.__dict__.get("_view_scaffold")
    if scaffold is None:
        scaffold = _Scaffold(config)
        object.__setattr__(config, "_view_scaffold", scaffold)
    return scaffold


def build_view(
    config: Configuration,
    certificates: Mapping[int, Any],
    node: int,
    visibility: Visibility = Visibility.KKP,
    radius: int = 1,
) -> LocalView:
    """Construct the verification-round view of a single node."""
    return _scaffold_for(config).view(config, certificates, node, visibility, radius)


def build_views(
    config: Configuration,
    certificates: Mapping[int, Any],
    visibility: Visibility = Visibility.KKP,
    radius: int = 1,
) -> ViewSet:
    """Views for every node (keys are node indices), tagged with the
    visibility/radius they were built under."""
    scaffold = _scaffold_for(config)
    return ViewSet(
        {
            v: scaffold.view(config, certificates, v, visibility, radius)
            for v in config.graph.nodes
        },
        visibility,
        radius,
    )


def affected_nodes(graph: Graph, changed: Iterable[int], radius: int = 1) -> set[int]:
    """Nodes whose radius-``radius`` view can see any changed node.

    These are exactly the nodes within distance ``radius`` of a change —
    the set of views that must be rebuilt when only the certificates of
    ``changed`` differ.
    """
    affected: set[int] = set()
    for node in changed:
        affected.update(_ball_nodes(graph, node, radius))
    return affected


def refresh_views(
    config: Configuration,
    certificates: Mapping[int, Any],
    views: Mapping[int, LocalView],
    changed: Iterable[int],
    visibility: Visibility = Visibility.KKP,
    radius: int = 1,
) -> ViewSet:
    """Views under new certificates/states, rebuilding only what changed.

    ``views`` must be views of a configuration with the same graph and
    ids whose certificates *and states* differ from
    ``(config, certificates)`` only at ``changed`` nodes.  (Passing a
    sibling configuration — e.g. from
    :meth:`~repro.core.labeling.Configuration.with_labeling` — is how the
    ``selfstab`` detection sessions track register changes.)  Returns a
    fresh tagged :class:`ViewSet` (the input mapping is not mutated);
    untouched views are shared, which is what makes re-verification after
    a handful of edits cost O(ball(changed)) instead of O(n).

    Raises :class:`~repro.errors.SchemeError` if ``views`` is a tagged
    :class:`ViewSet` built under a different visibility or radius.
    """
    _check_view_tags(views, visibility, radius)
    updated = ViewSet(views, visibility, radius)
    scaffold = _scaffold_for(config)
    for node in affected_nodes(config.graph, changed, radius):
        updated[node] = scaffold.view(config, certificates, node, visibility, radius)
    return updated


def decide(
    verify,
    config: Configuration,
    certificates: Mapping[int, Any],
    visibility: Visibility = Visibility.KKP,
    radius: int = 1,
    views: Mapping[int, LocalView] | None = None,
) -> Verdict:
    """Run ``verify(view) -> bool`` at every node and fold the verdict.

    This is the per-node oracle every batched decider is pinned against;
    :meth:`~repro.core.scheme.ProofLabelingScheme.run` is the entry point
    that chooses between it and the array path.

    A verifier that raises is treated as rejecting at that node — a
    malformed certificate must never crash verification into acceptance.

    ``views`` is a fast path for callers that re-verify many closely
    related assignments (the soundness adversaries, the ``selfstab``
    detection sessions): prebuilt views — for instance from
    :func:`build_views` plus :func:`refresh_views` — are used as-is
    instead of being rebuilt from the certificates.  A tagged
    :class:`ViewSet` built under a different visibility or radius raises
    :class:`~repro.errors.SchemeError` instead of silently producing a
    wrong verdict; untagged mappings are trusted.
    """
    if views is None:
        views = build_views(config, certificates, visibility, radius)
    else:
        _check_view_tags(views, visibility, radius)
    accepts: set[int] = set()
    rejects: set[int] = set()
    for node, view in views.items():
        try:
            ok = bool(verify(view))
        except Exception:
            ok = False
        (accepts if ok else rejects).add(node)
    _metrics.inc("decide.calls")
    if rejects:
        _metrics.inc("decide.rejections", len(rejects))
    return Verdict(accepts=frozenset(accepts), rejects=frozenset(rejects))
