"""Batched verification: evaluate every node's verifier at once.

This is the array half of the verification spine.  The per-node path
(:func:`repro.core.verifier.decide`) builds a Python ``LocalView`` per
node and calls ``verify`` n times; this module evaluates the same
predicate as vectorized numpy work over the graph's CSR mirror
(:meth:`~repro.graphs.graph.Graph.csr`) — one encode pass over the
registers, then O(n + m) array arithmetic, no views at all.

The dict path stays the *semantic oracle*: a batched decider must
return, for every certificate assignment however malformed, exactly the
accept set the per-node verifier produces (the registry-wide
equivalence property test pins this).  Three mechanisms make that
tractable:

* Columns are read as they are.  A marker-built configuration keeps its
  state and id columns, honest tree provers return
  :class:`~repro.core.arrays.CertificateColumns`, and the shared
  decoders (:func:`pointer_states`, :func:`bool_states`,
  :meth:`BatchContext.tree_certificates`) use their ``int64`` values
  directly as codes, with explicit validity masks.
* :class:`ObjectCodes` serves only dicts and object values.  It interns
  register values into dense ``int64`` codes through a dict, so "same
  code" means exactly what ``==`` means for dict keys (``1 == True ==
  1.0`` intern together, as the per-node verifier's ``==`` sees them).
* :class:`BatchFallback` aborts the whole batched attempt and the
  caller reruns the per-node oracle, so exotic inputs — unhashable or
  non-reflexive values, ints wider than 62 bits — cost speed, never
  correctness.

This module does not choose between the two paths:
:meth:`~repro.core.scheme.ProofLabelingScheme.run` is the one decision
entry point.  It asks :func:`_accept_mask` for the batched mask, runs
the per-node oracle when there is none, and records which path answered
in :attr:`~repro.core.verifier.Verdict.backend`.

Kernels register per concrete class by exact ``(module, qualname)``
match — deciders in :mod:`repro.core.batch_deciders`, marker
(``canonical_labeling``) and prover (``prove``) kernels in
:mod:`repro.core.batch_markers` — and those modules are imported on
first dispatch, keeping ``repro.core`` import-cycle-free.  A
marker kernel must reproduce the canonical labeling, the rng stream
position and any exception bit for bit, and may raise
:class:`BatchFallback` only *before* consuming ``rng``; a prover kernel
must return exactly ``scheme.prove``'s certificates (pinned by
``tests/core/test_batch_generation.py``) and may fall back freely.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.errors import SchemeError
from repro.obs import metrics as _metrics

if TYPE_CHECKING:  # typing only; runtime import happens lazily below
    import random

    from repro.core.labeling import Configuration
    from repro.core.language import DistributedLanguage
    from repro.core.scheme import ProofLabelingScheme
    from repro.graphs.graph import Graph

__all__ = [
    "BatchContext",
    "BatchFallback",
    "ObjectCodes",
    "TreeCertificates",
    "batch_decider",
    "batch_marker",
    "batch_prove",
    "batch_prover",
    "bool_states",
    "pointer_states",
    "state_list",
    "supports_batch",
    "supports_batch_marker",
    "supports_batch_prove",
    "try_batch_member_configuration",
    "try_batch_prove",
]

#: Plain ints wider than this many bits cannot ride in an int64 column.
_INT_BITS = 62

#: Entries per run of :meth:`BatchContext.any_entry`: its gathers stay
#: about a megabyte however large the graph.
_ENTRY_RUN = 1 << 16


class BatchFallback(Exception):
    """A register value the array encoding cannot represent faithfully.

    Raising this anywhere inside a batched decider aborts the attempt;
    the caller re-verifies per node, so the verdict is always the
    oracle's.
    """


class ObjectCodes:
    """Dense ``==``-faithful integer codes for arbitrary register values.

    Backed by a dict, so two values receive the same code exactly when a
    dict unifies them as keys — which is exactly when Python ``==``
    calls them equal (the numeric-hash invariant covers ``1 == True ==
    1.0`` and friends).  Values a dict cannot faithfully key —
    unhashable objects, values that are not equal to themselves (
    ``nan``), values whose comparison itself raises — raise
    :class:`BatchFallback` instead of receiving a wrong code.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._table)

    def code(self, obj: Any) -> int:
        try:
            if obj != obj:
                raise BatchFallback(f"non-reflexive value {obj!r}")
            return self._table.setdefault(obj, len(self._table))
        except BatchFallback:
            raise
        except Exception as error:
            raise BatchFallback(
                f"value {type(obj).__name__} cannot be interned: {error}"
            ) from None


class TreeCertificates(NamedTuple):
    """Tuple certificates ``(uid, ..., uid, dist, ...)`` as code columns.

    ``shape[v]``: node ``v``'s certificate is a tuple of the expected
    width.  Where it is, ``fields[i][v]`` codes the ``i``-th uid entry
    and ``dist_code[v]`` the dist entry; where ``dist_ok`` also holds
    (that entry is an int >= 0), ``dist[v]`` is the int (0 elsewhere)
    and ``dm1_code[v]``/``dp1_code[v]`` code ``dist - 1``/``dist + 1``
    (``dp1_code`` is ``None`` unless the caller asked for successors).
    ``uid`` codes every node's own uid in the same space.  Codes are
    equal exactly when the values are ``==``; cells outside their mask
    are arbitrary, so every comparison must be masked.
    """

    shape: "np.ndarray"
    fields: "list[np.ndarray]"
    dist_ok: "np.ndarray"
    dist: "np.ndarray"
    dist_code: "np.ndarray"
    dm1_code: "np.ndarray"
    dp1_code: "np.ndarray | None"
    uid: "np.ndarray"


class BatchContext:
    """Shared per-call working set handed to every batched decider."""

    __slots__ = ("config", "graph", "csr", "n", "certificates", "codes",
                 "_states", "_certs", "_uid_codes")

    def __init__(self, config: "Configuration", certificates: Mapping[int, Any]):
        self.config = config
        self.graph = config.graph
        self.csr = config.graph.csr()
        self.n = config.graph.n
        self.certificates = certificates
        self.codes = ObjectCodes()
        self._states = self._certs = self._uid_codes = None

    # -- per-value inputs (built on first use) -------------------------------

    @property
    def states(self) -> list[Any]:
        """Every node's state, in node order."""
        if self._states is None:
            self._states = state_list(self.config)
        return self._states

    @property
    def certs(self) -> list[Any]:
        """Every node's certificate; ``None`` where ``certificates`` has
        no entry, mirroring the view scaffold."""
        if self._certs is None:
            get = self.certificates.get
            self._certs = [get(v) for v in range(self.n)]
        return self._certs

    # -- encode helpers ------------------------------------------------------

    def code(self, obj: Any) -> int:
        return self.codes.code(obj)

    def codes_of(self, values: Iterable[Any]) -> "np.ndarray":
        """``int64`` column of the interned per-node ``values``."""
        code = self.codes.code
        return np.fromiter((code(x) for x in values), np.int64, count=self.n)

    @property
    def uid_codes(self) -> "np.ndarray":
        """``int64`` column of interned node uids."""
        if self._uid_codes is None:
            self._uid_codes = self.codes_of(self.config.id_column.tolist())
        return self._uid_codes

    def tree_certificates(
        self, width: int, dist_at: int, successors: bool = False
    ) -> TreeCertificates:
        """The certificates decoded as ``width``-tuples whose entry
        ``dist_at`` is a distance and whose earlier entries are uids.
        Only a decider that reads ``dp1_code`` asks for ``successors``.

        :class:`~repro.core.arrays.CertificateColumns` with ``int64``
        fields (distances below ``2**62``, so ``dist + 1`` cannot wrap)
        under an ``int64`` id column decode with no per-node work: the
        raw values are the codes.  Any other input interns value by
        value, as the per-node parse reads it.
        """
        from repro.core.arrays import CertificateColumns

        n, certs, uid = self.n, self.certificates, self.config.id_column
        if isinstance(certs, CertificateColumns):
            names = certs.arrays.fields
            columns = [certs.arrays.column(name) for name in names]
            if (
                len(columns) == width
                and all(c.dtype == np.int64 for c in (uid, *columns))
                and all(certs.arrays.nulls(name) is None for name in names)
                and columns[dist_at].max(initial=0) < 1 << _INT_BITS
            ):
                raw = columns[dist_at]
                ok = raw >= 0
                shape, dist = np.ones(n, dtype=bool), np.where(ok, raw, 0)
                fields = columns[:dist_at]
                dp1 = raw + 1 if successors else None
                return TreeCertificates(
                    shape, fields, ok, dist, raw, raw - 1, dp1, uid
                )
        code = self.code
        shape, ok = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        dist, dist_code, dm1 = (np.zeros(n, dtype=np.int64) for _ in range(3))
        dp1 = np.zeros(n, dtype=np.int64) if successors else None
        fields = [np.zeros(n, dtype=np.int64) for _ in range(dist_at)]
        for v, cert in enumerate(self.certs):
            if isinstance(cert, tuple) and len(cert) == width:
                shape[v] = True
                for field, value in zip(fields, cert):
                    field[v] = code(value)
                d = cert[dist_at]
                dist_code[v] = code(d)
                if isinstance(d, int) and d >= 0:
                    ok[v] = True
                    dist[v] = self.int_value(int(d))
                    dm1[v] = code(d - 1)
                    if successors:
                        dp1[v] = code(d + 1)
        return TreeCertificates(
            shape, fields, ok, dist, dist_code, dm1, dp1, self.uid_codes
        )

    def int_value(self, value: int) -> int:
        """``value`` as a plain int for an int64 column, or fall back."""
        if value.bit_length() > _INT_BITS:
            raise BatchFallback(f"{value.bit_length()}-bit int")
        return int(value)

    # -- segment reductions --------------------------------------------------

    def any_per_entry(self, entry_mask: "np.ndarray") -> "np.ndarray":
        """Per-node OR over each node's half-edge entries (empty = False).

        ``bincount`` over owners, not ``reduceat`` — isolated nodes
        (empty segments) come out False/True correctly by construction.
        """
        return np.bincount(self.csr.owners[entry_mask], minlength=self.n) > 0

    def all_per_entry(self, entry_mask: "np.ndarray") -> "np.ndarray":
        """Per-node AND over each node's entries (empty = True)."""
        return ~self.any_per_entry(~entry_mask)

    def any_entry(
        self, test: "Callable[[np.ndarray, np.ndarray], np.ndarray]"
    ) -> "np.ndarray":
        """:meth:`any_per_entry` of ``test(owners, indices)``, computed on
        runs of at most :data:`_ENTRY_RUN` entries.

        ``test`` gets each run's owner and neighbor columns and returns
        its entry mask, so the gathers it makes through them are
        run-sized scratch, never ``2m``-long.
        """
        hit = np.zeros(self.n, dtype=bool)
        own, nbr = self.csr.owners, self.csr.indices
        for lo in range(0, self.csr.num_entries, _ENTRY_RUN):
            owners = own[lo : lo + _ENTRY_RUN]
            hit[owners[test(owners, nbr[lo : lo + _ENTRY_RUN])]] = True
        return hit


# ---------------------------------------------------------------------------
# State decoders shared by the deciders and the prover kernels.
# ---------------------------------------------------------------------------


def state_list(config: "Configuration") -> list[Any]:
    """Every node's state, in node order."""
    arrays = config.labeling.arrays
    if arrays is not None:
        return arrays.values("state")
    return [config.state(v) for v in range(config.graph.n)]


def _state_column(config: "Configuration"):
    """``(column, nulls)`` of a column-built labeling, else ``(None, None)``."""
    arrays = config.labeling.arrays
    if arrays is None:
        return None, None
    return arrays.column("state"), arrays.nulls("state")


def pointer_states(config: "Configuration"):
    """``(state_none, port, parent)`` of pointer-style states.

    ``port[v]`` is the port node ``v``'s state names and ``parent[v]``
    the neighbor behind it, both ``-1`` where the state is not a valid
    port (``isinstance(state, int)`` admits bools, as the per-node
    decoders do) — the decoding of ``pointers_from_ports``.
    """
    n, csr = config.graph.n, config.graph.csr()
    degrees = csr.degrees()
    column, nulls = _state_column(config)
    if column is not None and column.dtype in (np.int64, bool):
        state_none = np.zeros(n, dtype=bool) if nulls is None else nulls.copy()
        values = column.astype(np.int64, copy=False)
        valid = ~state_none & (values >= 0) & (values < degrees)
        port = np.where(valid, values, -1)
        del values, valid
    else:
        state_none = np.zeros(n, dtype=bool)
        port = np.full(n, -1, dtype=np.int64)
        for v, state in enumerate(state_list(config)):
            if state is None:
                state_none[v] = True
            elif isinstance(state, int) and 0 <= state < int(degrees[v]):
                port[v] = int(state)
    del degrees
    parent = np.full(n, -1, dtype=np.int64)
    if csr.num_entries:
        # A -1 port reads some entry in range; it is masked right after.
        np.take(csr.indices, csr.indptr[:-1] + port, out=parent, mode="clip")
        parent[port < 0] = -1
    return state_none, port, parent


def bool_states(config: "Configuration") -> tuple["np.ndarray", "np.ndarray"]:
    """``(is_bool, marked)``: which states are bools, and which are ``True``."""
    n = config.graph.n
    column, _ = _state_column(config)
    if column is not None and column.dtype == bool:
        return np.ones(n, dtype=bool), column.copy()
    if column is not None and column.dtype == np.int64:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    is_bool = np.zeros(n, dtype=bool)
    marked = np.zeros(n, dtype=bool)
    for v, state in enumerate(state_list(config)):
        if isinstance(state, bool):
            is_bool[v] = True
            marked[v] = state
    return is_bool, marked


# ---------------------------------------------------------------------------
# The kernel registries: deciders, markers and provers.
# ---------------------------------------------------------------------------

#: ``(module, qualname)`` of a scheme class -> decider
#: ``(scheme, ctx) -> bool ndarray``.
_DECIDERS: dict[tuple[str, str], Callable[..., Any]] = {}
#: ``(module, qualname)`` of a *language* class -> marker kernel
#: ``(language, graph, ids, rng) -> ArrayLabeling``.
_MARKERS: dict[tuple[str, str], Callable[..., Any]] = {}
#: ``(module, qualname)`` of a scheme class -> prover kernel
#: ``(scheme, config) -> Mapping[int, Any]``.
_PROVERS: dict[tuple[str, str], Callable[..., Any]] = {}
#: Kernel modules imported so far (each registers on import).
_loaded: set[str] = set()


def _register(table: dict, class_paths: tuple[tuple[str, str], ...]):
    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        for path in class_paths:
            table[path] = fn
        return fn

    return decorate


def _kernel(table: dict, module: str, obj: Any) -> Callable[..., Any] | None:
    """``obj``'s exact class's kernel in ``table``, importing ``module``
    (whose import fills the table) on first use."""
    if module not in _loaded:
        _loaded.add(module)
        try:
            importlib.import_module(module)
        except BaseException:
            _loaded.discard(module)
            raise
    cls = type(obj)
    return table.get((cls.__module__, cls.__qualname__))


def batch_decider(*class_paths: tuple[str, str]):
    """Register a decider for the named concrete scheme classes.

    Keys are ``(module, qualname)`` pairs rather than the classes
    themselves so :mod:`repro.core.batch_deciders` never imports the
    scheme packages (whose import populates the catalog — which may
    itself probe ``supports_batch`` mid-registration).  Dispatch is by
    exact class identity: a subclass that changes ``verify`` must not
    silently inherit a kernel for the wrong predicate, while subclasses
    that keep it (e.g. the FF17 repair re-registering the list scheme)
    opt in by listing their own path.
    """
    return _register(_DECIDERS, class_paths)


def batch_marker(*class_paths: tuple[str, str]):
    """Register a marker kernel for the named concrete language classes.

    A marker kernel computes the language's ``canonical_labeling`` as an
    :class:`~repro.core.arrays.ArrayLabeling` — same values, same rng
    consumption, same exceptions as the dict path, node for node.  It
    may raise :class:`BatchFallback` only *before* consuming ``rng``
    (the dispatcher reruns the dict path on the same generator), and on
    success its labeling must be a member by construction: the batched
    path skips ``is_member``, which is where the large-n win lives.
    Dispatch is by exact class identity, as with deciders.
    """
    return _register(_MARKERS, class_paths)


def batch_prover(*class_paths: tuple[str, str]):
    """Register a prover kernel for the named concrete scheme classes.

    A prover kernel returns exactly ``scheme.prove(config)``'s
    certificates (total, best-effort off-language, same values on junk
    states), as a dict or as
    :class:`~repro.core.arrays.CertificateColumns`.  It takes no rng, so
    it may raise :class:`BatchFallback` at any point; the dispatcher
    reruns the dict prover.
    """
    return _register(_PROVERS, class_paths)


def decider_for(scheme: "ProofLabelingScheme") -> Callable[..., Any] | None:
    return _kernel(_DECIDERS, "repro.core.batch_deciders", scheme)


def marker_for(language: "DistributedLanguage") -> Callable[..., Any] | None:
    return _kernel(_MARKERS, "repro.core.batch_markers", language)


def prover_for(scheme: "ProofLabelingScheme") -> Callable[..., Any] | None:
    return _kernel(_PROVERS, "repro.core.batch_markers", scheme)


def supports_batch(scheme: "ProofLabelingScheme") -> bool:
    """True when ``scheme`` has a registered vectorized decider."""
    return decider_for(scheme) is not None


def supports_batch_marker(language: "DistributedLanguage") -> bool:
    """True when ``language`` has a registered vectorized marker."""
    return marker_for(language) is not None


def supports_batch_prove(scheme: "ProofLabelingScheme") -> bool:
    """True when ``scheme`` has a registered vectorized prover."""
    return prover_for(scheme) is not None


def try_batch_member_configuration(
    language: "DistributedLanguage",
    graph: "Graph",
    ids: dict[int, int] | None = None,
    rng: "random.Random | None" = None,
) -> "Configuration | None":
    """A batch-generated member configuration, or ``None`` to fall back.

    ``None`` means "run the dict marker": no kernel for this language
    type, or the kernel declined before touching ``rng``
    (:class:`BatchFallback`).  On success the configuration equals the
    dict path's — same labeling, same ids, same rng stream position —
    while keeping the marker's column; the ``is_member`` re-check is
    skipped: kernels are member-by-construction, pinned against the
    oracle by the generation equivalence tests.  Charges
    ``generate.batch``/``.nodes``; a decline charges
    ``generate.batch.fallbacks``.
    """
    fn = marker_for(language)
    if fn is None:
        return None
    try:
        arrays = fn(language, graph, ids, rng)
    except BatchFallback:
        _metrics.inc("generate.batch.fallbacks")
        return None
    from repro.core.labeling import Configuration, Labeling

    config = Configuration(graph, Labeling.from_arrays(arrays.freeze()), ids)
    _metrics.inc("generate.batch")
    _metrics.inc("generate.batch.nodes", graph.n)
    return config


def try_batch_prove(
    scheme: "ProofLabelingScheme", config: "Configuration"
) -> "Mapping[int, Any] | None":
    """Batched honest certificates, or ``None`` to use the dict prover.

    On success the mapping (a dict, or
    :class:`~repro.core.arrays.CertificateColumns`) equals
    ``scheme.prove(config)`` value for value.
    Charges ``prove.batch``/``.nodes``; declines charge
    ``prove.batch.fallbacks``.
    """
    fn = prover_for(scheme)
    if fn is None:
        return None
    try:
        certificates = fn(scheme, config)
    except BatchFallback:
        _metrics.inc("prove.batch.fallbacks")
        return None
    _metrics.inc("prove.batch")
    _metrics.inc("prove.batch.nodes", config.graph.n)
    return certificates


def batch_prove(
    scheme: "ProofLabelingScheme", config: "Configuration"
) -> "Mapping[int, Any]":
    """Honest certificates with automatic dict fallback (always answers),
    exactly as the prover returned them.

    The dict prover must cover every node (:class:`~repro.errors.SchemeError`
    otherwise); a kernel's columns cover ``range(n)`` by construction.
    """
    certificates = try_batch_prove(scheme, config)
    if certificates is not None:
        return certificates
    certificates = scheme.prove(config)
    missing = [v for v in range(config.graph.n) if v not in certificates]
    if missing:
        raise SchemeError(f"{scheme.name}: prover skipped nodes {missing[:5]}")
    return certificates


# ---------------------------------------------------------------------------
# The decision helper behind ``ProofLabelingScheme.run``.
# ---------------------------------------------------------------------------


def _accept_mask(
    scheme: "ProofLabelingScheme",
    config: "Configuration",
    certificates: Mapping[int, Any],
) -> "np.ndarray | None":
    """The batched accept mask (``mask[v]`` iff node ``v`` accepts), or
    ``None`` when the per-node oracle must answer instead.

    ``None`` means no decider is registered for the scheme type, or the
    registers hold values the encoding cannot represent
    (:class:`BatchFallback`, charged to ``decide.batch.fallbacks``).  A
    mask charges the same ``decide.calls``/``decide.rejections``
    counters as the per-node path plus ``decide.batch``,
    ``decide.batch.nodes`` and ``decide.batch.interned`` (the values the
    decision interned; 0 when it read only columns).
    """
    fn = decider_for(scheme)
    if fn is None:
        return None
    ctx = BatchContext(config, certificates)
    try:
        mask = fn(scheme, ctx)
    except BatchFallback:
        _metrics.inc("decide.batch.fallbacks")
        return None
    rejections = len(mask) - int(np.count_nonzero(mask))
    _metrics.inc("decide.batch")
    _metrics.inc("decide.batch.interned", len(ctx.codes))
    _metrics.inc("decide.batch.nodes", len(mask))
    _metrics.inc("decide.calls")
    if rejections:
        _metrics.inc("decide.rejections", rejections)
    return mask
