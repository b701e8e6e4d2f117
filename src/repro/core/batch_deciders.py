"""Vectorized batched deciders for the highest-traffic catalog schemes.

Each decider re-expresses one scheme's ``verify(view) -> bool`` as
array arithmetic over the CSR mirror: an encode pass turns the
registers into ``int64`` code columns, then numpy computes every node's
verdict at once.  Columns (marker states, certificate columns, id
columns) encode through the shared decoders of :mod:`repro.core.batch`
with no per-node work; dicts and object values take an O(n + m) Python
pass through :class:`~repro.core.batch.ObjectCodes`.  The per-node dict
path is the semantic oracle — a decider must agree verdict-for-verdict
on *arbitrary* certificates, including malformed ones — so each kernel
mirrors its ``verify`` clause by clause:

* Arbitrary-object equality (``g_cert[0] != root_uid``) becomes equality
  of codes; identity checks (``cert is True``, ``parent_uid is None``)
  become explicit flags computed with ``is``.
* "Raises means reject" holds by construction: parse failures mark the
  node unparsed, which rejects it and every neighbor that reads it —
  exactly what the per-node exception produces.
* Values the encoding cannot represent faithfully (NaN, unhashables,
  ints past 62 bits, counters decoding past 2^52) raise
  :class:`~repro.core.batch.BatchFallback` and the caller reruns the
  oracle.
* Per-node reductions go through ``bincount`` over owners
  (:meth:`BatchContext.any_per_entry`) — never ``reduceat``, whose
  empty segments would mangle isolated nodes.  Neighbor tests that
  gather int64 codes through both ends of every entry go through
  :meth:`BatchContext.any_entry` instead, a run of entries at a time.

Registration is by ``(module, qualname)`` string so this module imports
no scheme packages (keeping it loadable mid-registry-population); a
subclass that overrides ``verify`` therefore never inherits a kernel by
accident, while subclasses that keep it (the FF17 repair) opt in by
listing their own path.
"""

from __future__ import annotations

import numpy as np

from repro.approx.counters import is_counter
from repro.core.batch import (
    BatchContext,
    BatchFallback,
    batch_decider,
    bool_states,
    pointer_states,
)
from repro.core.verifier import Visibility

__all__ = []  # deciders are reached through the registry, not imports

#: Rounded counters must decode within float64's exact-integer range:
#: the counter sums (and the α·budget comparison) are bit-identical to
#: the per-node arbitrary-precision math only below 2^52.
_COUNTER_BITS = 52


def _tag_matches(value, tag: str) -> bool:
    try:
        return bool(value == tag)
    except Exception:
        # The per-node parse would raise here, which rejects the node
        # and every neighbor reading it — same as a failed parse.
        return False


# ---------------------------------------------------------------------------
# Spanning tree (pointer encoding).
# ---------------------------------------------------------------------------


def _pointer_tree(ctx: BatchContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pointer spanning-tree predicate, plus its parsed distances.

    Returns ``(accept, dist_ok, dist)``: the accept mask of
    ``SpanningTreePointerScheme.verify``; whether each certificate
    carries a non-negative int distance; and that distance (0 elsewhere).
    """
    t = ctx.tree_certificates(2, dist_at=1)
    shape, dist_ok, dist = t.shape, t.dist_ok, t.dist
    (root_code,) = t.fields
    state_none, port, parent = pointer_states(ctx.config)

    bad_nb = ctx.any_entry(
        lambda own, nbr: ~shape[nbr] | (root_code[nbr] != root_code[own])
    )
    ok = shape & dist_ok & ~bad_nb

    root_accept = (dist == 0) & (t.uid == root_code)
    # ``parent`` is -1 without a valid port: any gather there is masked.
    parent_ok = shape[parent] & (t.dist_code[parent] == t.dm1_code)
    nonroot_accept = (port >= 0) & (dist > 0) & parent_ok
    accept = ok & np.where(state_none, root_accept, nonroot_accept)
    return accept, dist_ok, dist


@batch_decider(
    ("repro.schemes.spanning_tree", "SpanningTreePointerScheme"),
)
def _spanning_tree_ptr(scheme, ctx: BatchContext) -> np.ndarray:
    return _pointer_tree(ctx)[0]


# ---------------------------------------------------------------------------
# BFS tree: the pointer scheme plus the 1-Lipschitz edge condition.
# ---------------------------------------------------------------------------


@batch_decider(("repro.schemes.bfs_tree", "BfsTreeScheme"))
def _bfs_tree(scheme, ctx: BatchContext) -> np.ndarray:
    accept, dist_ok, dist = _pointer_tree(ctx)
    far_nb = ctx.any_entry(
        lambda own, nbr: ~dist_ok[nbr] | (np.abs(dist[nbr] - dist[own]) > 1)
    )
    return accept & ~far_nb


# ---------------------------------------------------------------------------
# Leader election: tree toward the unique marked node.
# ---------------------------------------------------------------------------


@batch_decider(("repro.schemes.leader", "LeaderScheme"))
def _leader(scheme, ctx: BatchContext) -> np.ndarray:
    t = ctx.tree_certificates(3, dist_at=2)
    shape, uid_code = t.shape, t.uid
    leader_code, parent_code = t.fields
    is_bool, marked = bool_states(ctx.config)

    bad_nb = ctx.any_entry(
        lambda own, nbr: ~shape[nbr] | (leader_code[nbr] != leader_code[own])
    )
    ok = shape & t.dist_ok & is_bool & ~bad_nb

    root_accept = (
        marked & (uid_code == leader_code) & (parent_code == uid_code)
    )
    # Distinct uids: at most one neighbor can match parent_uid, so
    # "the named parent exists and sits one closer" is one entry test.
    has_parent = ctx.any_entry(
        lambda own, nbr: shape[nbr]
        & (uid_code[nbr] == parent_code[own])
        & (t.dist_code[nbr] == t.dm1_code[own])
    )
    nonroot_accept = ~marked & has_parent
    return ok & np.where(t.dist == 0, root_accept, nonroot_accept)


# ---------------------------------------------------------------------------
# Acyclic pointer forests: exact depth counters.
# ---------------------------------------------------------------------------


@batch_decider(("repro.schemes.acyclic", "AcyclicScheme"))
def _acyclic(scheme, ctx: BatchContext) -> np.ndarray:
    n, code = ctx.n, ctx.code
    counter_ok = np.zeros(n, dtype=bool)
    cert_code = np.full(n, -1, dtype=np.int64)
    cm1_code = np.full(n, -1, dtype=np.int64)
    for v, cert in enumerate(ctx.certs):
        cert_code[v] = code(cert)
        if isinstance(cert, int) and cert >= 0:
            counter_ok[v] = True
            cm1_code[v] = code(cert - 1)
    state_none, port, parent = pointer_states(ctx.config)
    parent_ok = cert_code[parent] == cm1_code
    return counter_ok & (state_none | ((port >= 0) & parent_ok))


# ---------------------------------------------------------------------------
# Marked-set predicates: independent set, dominating set, vertex cover.
# ---------------------------------------------------------------------------


def _marked_base(ctx: BatchContext):
    """``(base, marked, nb_cert_true)``: the shared marked-set checks.

    ``base`` is "state is a bool and certificate == state";
    ``nb_cert_true[j]`` is "the neighbor behind entry j certifies with
    the ``True`` object" — identity, as the verifiers test ``is True``.
    """
    is_bool, marked = bool_states(ctx.config)
    state_code = np.where(marked, ctx.code(True), ctx.code(False))
    cert_code = ctx.codes_of(ctx.certs)
    cert_is_true = np.fromiter((c is True for c in ctx.certs), bool, count=ctx.n)
    base = is_bool & (cert_code == state_code)
    nb_cert_true = cert_is_true[ctx.csr.indices]
    return base, marked, nb_cert_true


@batch_decider(("repro.schemes.independent_set", "IndependentSetScheme"))
def _independent_set(scheme, ctx: BatchContext) -> np.ndarray:
    base, marked, nb_true = _marked_base(ctx)
    any_nb_true = ctx.any_per_entry(nb_true)
    if scheme.language.maximal:
        unmarked_accept = any_nb_true
    else:
        unmarked_accept = np.ones(ctx.n, dtype=bool)
    return base & np.where(marked, ~any_nb_true, unmarked_accept)


@batch_decider(("repro.schemes.dominating_set", "DominatingSetScheme"))
def _dominating_set(scheme, ctx: BatchContext) -> np.ndarray:
    base, marked, nb_true = _marked_base(ctx)
    return base & (marked | ctx.any_per_entry(nb_true))


@batch_decider(("repro.schemes.vertex_cover", "VertexCoverScheme"))
def _vertex_cover(scheme, ctx: BatchContext) -> np.ndarray:
    base, marked, nb_true = _marked_base(ctx)
    return base & (marked | ctx.all_per_entry(nb_true))


# ---------------------------------------------------------------------------
# Agreement: one common value.
# ---------------------------------------------------------------------------


@batch_decider(("repro.schemes.agreement", "AgreementScheme"))
def _agreement(scheme, ctx: BatchContext) -> np.ndarray:
    cert_code = ctx.codes_of(ctx.certs)
    state_code = ctx.codes_of(ctx.states)
    disagree = ctx.any_entry(lambda own, nbr: cert_code[nbr] != cert_code[own])
    return (cert_code == state_code) & ~disagree


# ---------------------------------------------------------------------------
# Spanning tree (list encoding), both visibilities, incl. the FF17 repair.
# ---------------------------------------------------------------------------


@batch_decider(
    ("repro.schemes.spanning_tree", "SpanningTreeListScheme"),
    ("repro.errorsensitive.repair", "ErrorSensitiveSpanningTreeScheme"),
)
def _spanning_tree_list(scheme, ctx: BatchContext) -> np.ndarray:
    full = scheme.visibility is Visibility.FULL
    n, code, csr = ctx.n, ctx.code, ctx.csr
    indptr, own, nbr = csr.indptr, csr.owners, csr.indices
    degrees = csr.degrees()
    entries = csr.num_entries

    t = ctx.tree_certificates(4, dist_at=2, successors=True)
    shape, dist_ok, dist, c2_code = t.shape, t.dist_ok, t.dist, t.dist_code
    dm1_code, dp1_code, uid_code = t.dm1_code, t.dp1_code, t.uid
    root_code, parent_code = t.fields

    # States: `listed` marks the ports a *validly* listing node names;
    # `contains` (FULL only) marks raw membership — a neighbor's
    # back_port can sit in an otherwise invalid frozenset, and the
    # per-node `back_port in state` test does not care about validity.
    state_fs = np.zeros(n, dtype=bool)
    state_valid = np.zeros(n, dtype=bool)
    listed = np.zeros(entries, dtype=bool)
    contains = np.zeros(entries, dtype=bool) if full else None
    for v, state in enumerate(ctx.states):
        if not isinstance(state, frozenset):
            continue
        state_fs[v] = True
        degree = int(degrees[v])
        base = int(indptr[v])
        valid = True
        for element in state:
            if isinstance(element, int):
                if 0 <= element < degree:
                    if full:
                        contains[base + int(element)] = True
                else:
                    valid = False
            else:
                valid = False
                if full:
                    if isinstance(element, float):
                        if element.is_integer() and 0 <= element < degree:
                            contains[base + int(element)] = True
                    elif isinstance(
                        element,
                        (str, bytes, tuple, frozenset, type(None)),
                    ):
                        pass  # can never == an int back_port
                    else:
                        raise BatchFallback(
                            f"opaque port listing element {element!r}"
                        )
        if valid:
            state_valid[v] = True
            for element in state:
                listed[base + int(element)] = True

    # Echo truthfulness (KKP): frozenset(echo) == the listed uids.
    echo_ok = np.ones(n, dtype=bool)
    if not full:
        echo_ok = np.zeros(n, dtype=bool)
        for v in np.flatnonzero(shape & state_valid):
            echo = ctx.certs[v][3]
            if echo is None:
                continue
            try:
                echo_set = frozenset(echo)
            except TypeError:
                continue  # per-node frozenset(echo) raises -> reject
            echo_codes = {code(e) for e in echo_set}
            base, end = int(indptr[v]), int(indptr[v + 1])
            listed_codes = {
                int(uid_code[nbr[j]])
                for j in range(base, end)
                if listed[j]
            }
            echo_ok[v] = echo_codes == listed_codes

    # Mutual listing per listed entry.
    lists_me = np.zeros(entries, dtype=bool)
    if full:
        if entries:
            lists_me = state_fs[nbr] & contains[csr.reverse]
    else:
        echo_sets: list[set[int] | None] = [None] * n
        for v in np.flatnonzero(shape):
            echo = ctx.certs[v][3]
            if isinstance(echo, tuple):
                echo_sets[v] = {code(e) for e in echo}
        for j in np.flatnonzero(listed):
            neighbor_echo = echo_sets[nbr[j]]
            lists_me[j] = (
                neighbor_echo is not None
                and int(uid_code[own[j]]) in neighbor_echo
            )

    bad_nb = ~shape[nbr] | (root_code[nbr] != root_code[own])
    ok = (
        shape
        & dist_ok
        & state_valid
        & echo_ok
        & ~ctx.any_per_entry(bad_nb)
        & ~ctx.any_per_entry(listed & ~lists_me)
    )

    # Tree shape: the root anchors, everyone else names a listed parent
    # one closer; every listed edge is a parent/child tree edge.
    root_accept = (uid_code == root_code) & (parent_code == uid_code)
    pmatch = (
        listed
        & (uid_code[nbr] == parent_code[own])
        & (c2_code[nbr] == dm1_code[own])
    )
    nonroot_accept = ctx.any_per_entry(pmatch)
    is_parent = (dist[own] > 0) & (uid_code[nbr] == parent_code[own])
    is_child = (parent_code[nbr] == uid_code[own]) & (
        c2_code[nbr] == dp1_code[own]
    )
    ok &= ~ctx.any_per_entry(listed & ~(is_parent | is_child))
    return ok & np.where(dist == 0, root_accept, nonroot_accept)


# ---------------------------------------------------------------------------
# Rounded-counter approx schemes.
# ---------------------------------------------------------------------------


def _counter_value_checked(counter) -> int:
    mantissa, exponent = counter
    if mantissa.bit_length() + exponent > _COUNTER_BITS:
        raise BatchFallback(f"counter decodes past 2^{_COUNTER_BITS}")
    return mantissa << exponent


@batch_decider(("repro.approx.dominating_set", "ApproxDominatingSetScheme"))
def _approx_dominating_set(scheme, ctx: BatchContext) -> np.ndarray:
    lang = scheme.gap_language
    threshold = lang.alpha * lang.budget
    n, code = ctx.n, ctx.code
    parsed = np.zeros(n, dtype=bool)
    bit = np.zeros(n, dtype=bool)
    root_code = np.full(n, -1, dtype=np.int64)
    parent_code = np.full(n, -1, dtype=np.int64)
    parent_none = np.zeros(n, dtype=bool)
    dist = np.zeros(n, dtype=np.int64)
    cval = np.zeros(n, dtype=np.int64)
    total_decoded = 0
    for v, cert in enumerate(ctx.certs):
        if not (
            isinstance(cert, tuple)
            and len(cert) == 6
            and _tag_matches(cert[0], "apx-ds")
            and isinstance(cert[1], bool)
            and isinstance(cert[3], int)
            and cert[3] >= 0
            and is_counter(cert[5])
        ):
            continue
        parsed[v] = True
        bit[v] = cert[1]
        root_code[v] = code(cert[2])
        dist[v] = ctx.int_value(int(cert[3]))
        parent_code[v] = code(cert[4])
        parent_none[v] = cert[4] is None
        value = _counter_value_checked(cert[5])
        cval[v] = value
        total_decoded += value
    if total_decoded + n >= 1 << 62:
        raise BatchFallback("counter totals would overflow int64")
    is_bool, state_bit = bool_states(ctx.config)

    own, nbr = ctx.csr.owners, ctx.csr.indices
    bad_nb = ~parsed[nbr] | (root_code[nbr] != root_code[own])
    ok = (
        parsed
        & is_bool
        & (bit == state_bit)
        & ~ctx.any_per_entry(bad_nb)
    )
    # Domination from truthful echoes.
    ok &= bit | ctx.any_per_entry(bit[nbr])
    # Spanning-tree layer.
    uid_code = ctx.uid_codes
    root_accept = (uid_code == root_code) & parent_none
    pmatch = (uid_code[nbr] == parent_code[own]) & (dist[nbr] == dist[own] - 1)
    ok &= np.where(dist == 0, root_accept, ctx.any_per_entry(pmatch))
    # Counter layer: children = neighbors whose parent pointer names me.
    totals = np.zeros(n, dtype=np.int64)
    child = np.flatnonzero(parent_code[nbr] == uid_code[own])
    np.add.at(totals, own[child], cval[nbr[child]])
    need = totals + np.where(bit, 1, 0)
    ok &= cval >= need
    # The root compares against the α-relaxed budget.
    ok &= ~((dist == 0) & (cval.astype(np.float64) > threshold))
    return ok


@batch_decider(("repro.approx.mst_weight", "ApproxTreeWeightScheme"))
def _approx_tree_weight(scheme, ctx: BatchContext) -> np.ndarray:
    lang = scheme.gap_language
    threshold = lang.alpha * lang.budget
    n, code = ctx.n, ctx.code
    parsed = np.zeros(n, dtype=bool)
    root_code = np.full(n, -1, dtype=np.int64)
    echo_code = np.full(n, -1, dtype=np.int64)
    echo_none = np.zeros(n, dtype=bool)
    dist = np.zeros(n, dtype=np.int64)
    cval = np.zeros(n, dtype=np.int64)
    for v, cert in enumerate(ctx.certs):
        if not (
            isinstance(cert, tuple)
            and len(cert) == 5
            and _tag_matches(cert[0], "apx-tw")
            and isinstance(cert[2], int)
            and cert[2] >= 0
            and is_counter(cert[4])
        ):
            continue
        parsed[v] = True
        root_code[v] = code(cert[1])
        dist[v] = ctx.int_value(int(cert[2]))
        echo_code[v] = code(cert[3])
        echo_none[v] = cert[3] is None
        cval[v] = _counter_value_checked(cert[4])
    state_none, port, parent = pointer_states(ctx.config)

    own, nbr = ctx.csr.owners, ctx.csr.indices
    bad_nb = ~parsed[nbr] | (root_code[nbr] != root_code[own])
    if ctx.csr.weights is None and ctx.csr.num_entries:
        # A weight bound needs a weighted network: every neighbor check
        # fails, so only isolated nodes can still accept.
        bad_nb |= True
    ok = parsed & ~ctx.any_per_entry(bad_nb)

    uid_code = ctx.uid_codes
    root_accept = echo_none & (dist == 0) & (uid_code == root_code)
    pointer_ok = (echo_code == uid_code[parent]) & (dist[parent] == dist - 1)
    nonroot_accept = (port >= 0) & (dist != 0) & pointer_ok

    # Counter layer: float accumulation in port order, exactly like the
    # per-node loop (np.add.at applies updates in index order).
    cval_f = cval.astype(np.float64)
    totals = np.zeros(n, dtype=np.float64)
    if ctx.csr.weights is not None and ctx.csr.num_entries:
        child = np.flatnonzero(echo_code[nbr] == uid_code[own])
        np.add.at(totals, own[child], cval_f[nbr[child]] + ctx.csr.weights[child])
    ok &= cval_f >= totals
    ok &= ~((dist == 0) & (cval_f > threshold))
    return ok & np.where(state_none, root_accept, nonroot_accept)


# ---------------------------------------------------------------------------
# Bipartiteness: one-bit side certificates.
# ---------------------------------------------------------------------------


@batch_decider(("repro.schemes.bipartite", "BipartiteScheme"))
def _bipartite(scheme, ctx: BatchContext) -> np.ndarray:
    state_none = np.fromiter((s is None for s in ctx.states), bool, count=ctx.n)
    # ``certificate not in (0, 1)`` and ``== 1 - certificate`` are both
    # ``==`` comparisons, so 0/0.0/False (and 1/1.0/True) must unify —
    # exactly what the interned codes give.
    c0, c1 = ctx.code(0), ctx.code(1)
    cert_code = ctx.codes_of(ctx.certs)
    side0 = cert_code == c0
    side1 = cert_code == c1
    own, nbr = ctx.csr.owners, ctx.csr.indices
    bad_nb = np.where(side0[own], cert_code[nbr] != c1, cert_code[nbr] != c0)
    return state_none & (side0 | side1) & ~ctx.any_per_entry(bad_nb)


# ---------------------------------------------------------------------------
# Proper coloring: the KKP echo scheme and the FULL-visibility scheme.
# ---------------------------------------------------------------------------


def _valid_colors(ctx: BatchContext, colors: int) -> np.ndarray:
    """Nodes whose state passes ``isinstance(int) and 0 <= s < colors``.

    ``isinstance`` admits bools (``True`` is a valid color below
    ``colors``), mirroring the per-node clause exactly.
    """
    valid = np.zeros(ctx.n, dtype=bool)
    for v, state in enumerate(ctx.states):
        if isinstance(state, int) and 0 <= state < colors:
            valid[v] = True
    return valid


@batch_decider(("repro.schemes.coloring", "ColoringEchoScheme"))
def _coloring_echo(scheme, ctx: BatchContext) -> np.ndarray:
    n, code = ctx.n, ctx.code
    valid = _valid_colors(ctx, scheme.language.colors)
    # Valid states are ints, so they always intern; -1 (below every
    # code) marks invalid states, whose nodes are already rejected.
    state_code = np.full(n, -1, dtype=np.int64)
    for v in np.flatnonzero(valid):
        state_code[v] = code(ctx.states[v])
    cert_code = ctx.codes_of(ctx.certs)
    echo = valid & (cert_code == state_code)
    own, nbr = ctx.csr.owners, ctx.csr.indices
    bad_nb = cert_code[nbr] == cert_code[own]
    return echo & ~ctx.any_per_entry(bad_nb)


@batch_decider(("repro.schemes.coloring", "ColoringFullScheme"))
def _coloring_full(scheme, ctx: BatchContext) -> np.ndarray:
    valid = _valid_colors(ctx, scheme.language.colors)
    # ``g.state != view.state`` compares arbitrary neighbor states
    # against mine with ``==``, so *every* state must intern faithfully
    # (a neighbor state of 2.0 clashes with my color 2); unrepresentable
    # states fall back to the oracle via the raised BatchFallback.
    state_code = ctx.codes_of(ctx.states)
    own, nbr = ctx.csr.owners, ctx.csr.indices
    bad_nb = state_code[nbr] == state_code[own]
    return valid & ~ctx.any_per_entry(bad_nb)
