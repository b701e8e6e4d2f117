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
equivalence property test pins this).  Two mechanisms make that
tractable:

* :class:`ObjectCodes` interns arbitrary register values into dense
  ``int64`` codes through a dict, so "same code" means exactly what
  ``==`` means for dict keys (``1 == True == 1.0`` intern together,
  just as the per-node verifier's ``==`` sees them).  Values a dict
  cannot faithfully intern — unhashable objects, non-reflexive values
  like ``nan`` — raise :class:`BatchFallback`.
* :class:`BatchFallback` aborts the whole batched attempt; the caller
  reruns the per-node oracle, so exotic inputs cost speed, never
  correctness.  Plain ints wider than 62 bits fall back the same way
  (they would overflow the ``int64`` columns).

This module does not choose between the two paths:
:meth:`~repro.core.scheme.ProofLabelingScheme.run` is the one decision
entry point.  It asks :func:`_accept_mask` for the batched mask, runs
the per-node oracle when there is none, and records which path answered
in :attr:`~repro.core.verifier.Verdict.backend`.

Deciders register per concrete scheme *type* (exact match — a subclass
with an overridden ``verify`` must register itself) in
:mod:`repro.core.batch_deciders`, which is imported lazily on first
dispatch to keep ``repro.core`` import-cycle-free.  numpy itself is
optional at import time: without it every scheme simply reports
``supports_batch() == False`` and verification stays on the dict path.

The *generation* side mirrors the same design.  Marker kernels
(vectorized ``canonical_labeling`` per concrete language type) and
prover kernels (vectorized ``prove`` per concrete scheme type) register
in :mod:`repro.core.batch_markers` under the same ``(module, qualname)``
exact-class dispatch, and the dict path stays the oracle: a marker
kernel must reproduce the canonical labeling — and the rng stream
position, and any exception — bit for bit, and a prover kernel must
return exactly ``scheme.prove``'s certificates (pinned by
``tests/core/test_batch_generation.py``).  One extra contract keeps the
fallback sound: a marker kernel may raise :class:`BatchFallback` only
*before* consuming ``rng`` (the fallback reruns the dict path on the
same generator); prover kernels take no rng and may fall back freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None  # type: ignore[assignment]

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
    "batch_decider",
    "batch_marker",
    "batch_prove",
    "batch_prover",
    "resolve_backend",
    "supports_batch",
    "supports_batch_marker",
    "supports_batch_prove",
    "try_batch_member_configuration",
    "try_batch_prove",
]

#: Plain ints wider than this many bits cannot ride in an int64 column.
_INT_BITS = 62


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


class BatchContext:
    """Shared per-call working set handed to every batched decider."""

    __slots__ = ("config", "graph", "csr", "n", "states", "certs", "codes",
                 "_uid_codes")

    def __init__(
        self, config: "Configuration", certificates: Mapping[int, Any]
    ) -> None:
        self.config = config
        self.graph = config.graph
        self.csr = config.graph.csr()
        self.n = config.graph.n
        # Mirrors the view scaffold exactly: a node without an entry in
        # ``certificates`` verifies against ``None``.
        self.states = [config.state(v) for v in range(self.n)]
        self.certs = [certificates.get(v) for v in range(self.n)]
        self.codes = ObjectCodes()
        self._uid_codes = None

    # -- encode helpers ------------------------------------------------------

    def code(self, obj: Any) -> int:
        return self.codes.code(obj)

    @property
    def uid_codes(self) -> "np.ndarray":
        """``int64`` column of interned node uids."""
        if self._uid_codes is None:
            config, code = self.config, self.codes.code
            self._uid_codes = np.fromiter(
                (code(config.uid(v)) for v in range(self.n)),
                dtype=np.int64,
                count=self.n,
            )
        return self._uid_codes

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
        return (
            np.bincount(self.csr.owners[entry_mask], minlength=self.n) > 0
        )

    def all_per_entry(self, entry_mask: "np.ndarray") -> "np.ndarray":
        """Per-node AND over each node's entries (empty = True)."""
        return ~self.any_per_entry(~entry_mask)


# ---------------------------------------------------------------------------
# The decider registry.
# ---------------------------------------------------------------------------

#: ``(module, qualname)`` of a scheme class -> decider
#: ``(scheme, ctx) -> bool ndarray``.
_DECIDERS: dict[tuple[str, str], Callable[..., Any]] = {}
_loaded = False


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

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        for path in class_paths:
            _DECIDERS[path] = fn
        return fn

    return decorate


def _ensure_deciders() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True
    try:
        import repro.core.batch_deciders  # noqa: F401
    except BaseException:
        _loaded = False
        raise


def decider_for(scheme: "ProofLabelingScheme") -> Callable[..., Any] | None:
    if np is None:
        return None
    _ensure_deciders()
    cls = type(scheme)
    return _DECIDERS.get((cls.__module__, cls.__qualname__))


def supports_batch(scheme: "ProofLabelingScheme") -> bool:
    """True when ``scheme`` has a registered vectorized decider."""
    return decider_for(scheme) is not None


def resolve_backend(backend: str, scheme: "ProofLabelingScheme") -> str | None:
    """A ``backend=`` argument as ``"array"`` or ``"views"``; ``None``
    when the name is unknown.

    ``"auto"`` picks ``"array"`` exactly when ``scheme`` has a batched
    decider (which needs numpy).
    """
    if backend == "auto":
        return "array" if supports_batch(scheme) else "views"
    return backend if backend in ("views", "array") else None


# ---------------------------------------------------------------------------
# The generation registries: batched markers and provers.
# ---------------------------------------------------------------------------

#: ``(module, qualname)`` of a *language* class -> marker kernel
#: ``(language, graph, ids, rng) -> ArrayLabeling``.
_MARKERS: dict[tuple[str, str], Callable[..., Any]] = {}
#: ``(module, qualname)`` of a *scheme* class -> prover kernel
#: ``(scheme, config) -> dict[int, Any]``.
_PROVERS: dict[tuple[str, str], Callable[..., Any]] = {}
_generators_loaded = False


def batch_marker(*class_paths: tuple[str, str]):
    """Register a marker kernel for the named concrete language classes.

    A marker kernel computes the language's ``canonical_labeling`` as an
    :class:`~repro.core.arrays.ArrayLabeling` — same values, same rng
    consumption, same exceptions as the dict path, node for node.  It
    may raise :class:`BatchFallback` only *before* consuming ``rng``
    (the dispatcher reruns the dict path on the same generator), and on
    success its labeling must be a member by construction: the batched
    path skips ``is_member``, which is where the large-n win lives.
    Dispatch is by exact class identity, as with deciders: a subclass
    that changes ``canonical_labeling`` must not inherit a kernel for
    the wrong distribution.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        for path in class_paths:
            _MARKERS[path] = fn
        return fn

    return decorate


def batch_prover(*class_paths: tuple[str, str]):
    """Register a prover kernel for the named concrete scheme classes.

    A prover kernel returns exactly ``scheme.prove(config)``'s
    certificate dict (total, best-effort off-language, same values on
    junk states).  It takes no rng, so it may raise
    :class:`BatchFallback` at any point; the dispatcher reruns the dict
    prover.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        for path in class_paths:
            _PROVERS[path] = fn
        return fn

    return decorate


def _ensure_generators() -> None:
    global _generators_loaded
    if _generators_loaded:
        return
    _generators_loaded = True
    try:
        import repro.core.batch_markers  # noqa: F401
    except BaseException:
        _generators_loaded = False
        raise


def marker_for(language: "DistributedLanguage") -> Callable[..., Any] | None:
    if np is None:
        return None
    _ensure_generators()
    cls = type(language)
    return _MARKERS.get((cls.__module__, cls.__qualname__))


def prover_for(scheme: "ProofLabelingScheme") -> Callable[..., Any] | None:
    if np is None:
        return None
    _ensure_generators()
    cls = type(scheme)
    return _PROVERS.get((cls.__module__, cls.__qualname__))


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
    (:class:`BatchFallback`).  On success the configuration is identical
    to the dict path's — same labeling, same ids, same rng stream
    position — but the ``is_member`` re-check is skipped: kernels are
    member-by-construction, pinned against the oracle by the generation
    equivalence tests.  Charges ``generate.batch``/``.nodes``; a decline
    charges ``generate.batch.fallbacks``.
    """
    fn = marker_for(language)
    if fn is None:
        return None
    try:
        arrays = fn(language, graph, ids, rng)
    except BatchFallback:
        _metrics.inc("generate.batch.fallbacks")
        return None
    from repro.core.labeling import Configuration

    config = Configuration.build(graph, arrays.to_labeling(), ids=ids)
    _metrics.inc("generate.batch")
    _metrics.inc("generate.batch.nodes", graph.n)
    return config


def try_batch_prove(
    scheme: "ProofLabelingScheme", config: "Configuration"
) -> "dict[int, Any] | None":
    """Batched honest certificates, or ``None`` to use the dict prover.

    On success the dict is value-identical to ``scheme.prove(config)``.
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
) -> "dict[int, Any]":
    """Honest certificates with automatic dict fallback (always answers)."""
    certificates = try_batch_prove(scheme, config)
    if certificates is not None:
        return certificates
    return scheme.prove(config)


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
    counters as the per-node path plus ``decide.batch`` and
    ``decide.batch.nodes``, so cost ledgers stay comparable across both
    paths.
    """
    fn = decider_for(scheme)
    if fn is None:
        return None
    try:
        mask = fn(scheme, BatchContext(config, certificates))
    except BatchFallback:
        _metrics.inc("decide.batch.fallbacks")
        return None
    rejections = len(mask) - int(np.count_nonzero(mask))
    _metrics.inc("decide.batch")
    _metrics.inc("decide.batch.nodes", len(mask))
    _metrics.inc("decide.calls")
    if rejections:
        _metrics.inc("decide.rejections", rejections)
    return mask
