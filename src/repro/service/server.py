"""The certification service: validate, dispatch, decide, cache.

:class:`CertificationService` is the long-running half of the PLS
split.  One :meth:`~CertificationService.submit` call takes a
:class:`~repro.service.envelope.ProofEnvelope` (or its wire form) and
returns a structured :class:`CertificationResult`:

1. **Validate** — the envelope's scheme name must be registered and its
   parameters must satisfy the per-scheme schema derived from the
   catalog's declared :class:`~repro.core.catalog.ParamSpec` list
   (unknown names, out-of-bound values, and non-numbers are rejected
   before any graph work).
2. **Anti-replay** — the envelope's nullifier is spent in the
   :class:`~repro.service.envelope.NullifierRegistry`; a replayed
   envelope raises :class:`~repro.errors.ReplayError` and charges the
   ``service.nullifier.rejected`` counter.
3. **Cache** — results live in a bounded LRU keyed by the envelope's
   ``body_hash`` (scheme + params + graph hash + labeling hash +
   certificates hash), so a hot configuration resubmitted under a fresh
   nonce is served with zero decider work (``service.cache.hit`` vs
   ``service.cache.miss``): O(1) for an in-process
   :meth:`~repro.service.envelope.ProofEnvelope.with_nonce` copy.  Wire
   bytes in canonical form that differ from a body already loaded only
   in the nonce cost one SHA-256 over the body and no JSON load (the
   wire-key index, :func:`~repro.service.envelope.wire_key`); other
   wire bodies are loaded and hashed from the loaded JSON, not decoded
   (see :class:`~repro.service.envelope.WireBody`).
4. **Decide** — cold misses build the scheme through
   :func:`repro.core.catalog.build` (rng seeded deterministically from
   the body hash, so served verdicts are reproducible bit-for-bit),
   prove honestly when the envelope carries no certificates, and decide
   through :meth:`~repro.core.scheme.ProofLabelingScheme.run`, the one
   decision entry point (batched array path with per-node fallback);
   the result's ``backend`` is the verdict's.  Per-stage wall-clock
   timings are recorded through :mod:`repro.obs` spans and returned in
   the result.

Threading contract: :meth:`~CertificationService.submit` may be called
from many threads at once — the threaded HTTP front end does exactly
that.  Two locks are involved, with a strict ordering (see
docs/ARCHITECTURE.md, "Threading model"):

* ``self._lock`` guards the stats dict, the verdict LRU and the
  wire-key index;
* the :class:`~repro.service.envelope.NullifierRegistry` has its own
  internal lock, making each ``spend`` atomic — concurrent submissions
  of one replayed nullifier admit exactly one winner.

``self._lock`` is never held while the nullifier lock is taken (or
while any decider work runs), so the pair cannot deadlock and a
cache-hit response never waits on a cold decide.  Two threads cold-
missing the same ``body_hash`` simultaneously may both decide it —
duplicate work, identical deterministic results, last store wins —
which trades a little CPU for never blocking a request on another
request's miss.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from threading import Lock
from typing import Any, Mapping

from repro.core import catalog
from repro.core.labeling import Configuration
from repro.errors import (
    CanonicalError,
    CatalogError,
    EnvelopeError,
    LabelingError,
    LanguageError,
    ServiceError,
)
from repro.graphs.graph import Graph
from repro.obs import metrics as _metrics
from repro.service.envelope import (
    NullifierRegistry,
    ProofEnvelope,
    WireBody,
    _nullifier,
    wire_key,
)
from repro.util.rng import make_rng

__all__ = [
    "CertificationResult",
    "CertificationService",
    "build_envelope",
]

#: At most this many rejecting nodes are reported back (the count is
#: always exact; the sample keeps results O(1)-sized on huge graphs).
REJECT_SAMPLE = 16


@dataclass(frozen=True)
class CertificationResult:
    """Structured verdict for one submitted envelope."""

    scheme: str
    params: dict[str, Any]
    n: int
    accepted: bool
    #: Exact number of rejecting nodes.
    rejections: int
    #: First :data:`REJECT_SAMPLE` rejecting nodes, ascending.
    rejecting: tuple[int, ...]
    #: ``"array"`` (batched decider) or ``"views"`` (per-node oracle).
    backend: str
    cache_hit: bool
    body_hash: str
    nullifier: str
    #: Per-stage wall-clock seconds (validate/build/prove/decide, plus
    #: ``total``); empty on cache hits — no stages ran.
    timings: dict[str, float]

    def to_obj(self) -> dict[str, Any]:
        """JSON-ready form (the HTTP response body)."""
        return {
            "scheme": self.scheme,
            "params": dict(self.params),
            "n": self.n,
            "accepted": self.accepted,
            "rejections": self.rejections,
            "rejecting": list(self.rejecting),
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "body_hash": self.body_hash,
            "nullifier": self.nullifier,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "CertificationResult":
        return cls(
            scheme=obj["scheme"],
            params=dict(obj["params"]),
            n=obj["n"],
            accepted=obj["accepted"],
            rejections=obj["rejections"],
            rejecting=tuple(obj["rejecting"]),
            backend=obj["backend"],
            cache_hit=obj["cache_hit"],
            body_hash=obj["body_hash"],
            nullifier=obj["nullifier"],
            timings=dict(obj["timings"]),
        )


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time one submit stage: an obs span plus a result-local reading."""
    with _metrics.span(f"service.{name}"):
        start = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - start


def _rng_seed(body_hash: str) -> int:
    """Deterministic build seed from the envelope's content identity."""
    return int(body_hash[:12], 16)


def _execute(envelope: ProofEnvelope, timings: dict[str, float]) -> dict[str, Any]:
    """Validate + build + (prove) + decide one envelope, no caching.

    Returns the verdict fields of a :class:`CertificationResult`.
    Raises :class:`ServiceError` subclasses on invalid submissions.
    """
    with _stage(timings, "validate"):
        try:
            spec = catalog.get(envelope.scheme)
            params = spec.resolve_params(envelope.params)
        except CatalogError as error:
            raise ServiceError(str(error)) from None
        try:
            config = Configuration.build(envelope.graph, envelope.labeling)
        except LabelingError as error:
            raise EnvelopeError(
                f"labeling does not fit the graph: {error}"
            ) from None
    with _stage(timings, "build"):
        try:
            scheme = spec.build(
                graph=envelope.graph,
                rng=make_rng(_rng_seed(envelope.body_hash)),
                **params,
            )
        except (CatalogError, LanguageError) as error:
            raise ServiceError(
                f"cannot build {envelope.scheme} on this graph: {error}"
            ) from None
    certificates = envelope.certificates
    if certificates is None:
        with _stage(timings, "prove"):
            from repro.core.batch import batch_prove

            certificates = batch_prove(scheme, config)
    with _stage(timings, "decide"):
        verdict = scheme.run(config, certificates)
    rejecting = sorted(verdict.rejects)
    return {
        "scheme": envelope.scheme,
        "params": params,
        "n": envelope.graph.n,
        "accepted": not rejecting,
        "rejections": len(rejecting),
        "rejecting": tuple(rejecting[:REJECT_SAMPLE]),
        "backend": verdict.backend,
    }


# ---------------------------------------------------------------------------
# The service.
# ---------------------------------------------------------------------------


@dataclass
class _Admitted:
    """One submission, hashed: decoded unless its wire key or wire body
    hash named a cached verdict when it arrived."""

    body_hash: str
    nullifier: str
    envelope: ProofEnvelope | None = None
    wire: WireBody | None = None
    #: The wire bytes, when the wire-key index answered without a load.
    payload: bytes | None = None
    #: The wire key to index ``body_hash`` under once its verdict is
    #: cached: set only for a loaded body in canonical form.
    wire_key: bytes | None = None

    def decoded(self) -> ProofEnvelope:
        if self.envelope is None:
            wire = self.wire or WireBody.load(self.payload)
            self.envelope = wire.decode()
            # The bytes and the loaded object are not needed any more.
            self.wire = self.payload = None
        return self.envelope


class CertificationService:
    """Long-running verification front end over the scheme catalog.

    Parameters
    ----------
    cache_size:
        Bounded LRU capacity (results, keyed by envelope body hash).
    nullifier_capacity:
        Size of the anti-replay window (see
        :class:`~repro.service.envelope.NullifierRegistry`).
    """

    def __init__(
        self,
        cache_size: int = 256,
        nullifier_capacity: int = 100_000,
    ) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.cache_size = cache_size
        self.nullifiers = NullifierRegistry(nullifier_capacity)
        self._cache: "OrderedDict[str, CertificationResult]" = OrderedDict()
        #: The wire-key index: wire key -> body hash of a cached verdict,
        #: and back; at most one key per verdict, dropped on eviction.
        self._wire_keys: dict[bytes, str] = {}
        self._wire_key_of: dict[str, bytes] = {}
        self._lock = Lock()
        #: Service-lifetime tallies (also charged to the obs ledger).
        #: Each ``submitted`` call lands in exactly one of ``refused`` (an
        #: envelope refused before the cache lookup), ``replays_rejected``,
        #: ``cache_hits`` and ``cache_misses``; a submission refused at
        #: validate or build has already counted as a miss.
        self.stats: dict[str, int] = {
            "submitted": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "replays_rejected": 0,
            "refused": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release; kept so callers can scope a service."""

    def __enter__(self) -> "CertificationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def describe_catalog(self) -> list[dict[str, Any]]:
        """The machine-readable catalog (``list-schemes --json`` shape)."""
        return [spec.describe() for spec in catalog.specs()]

    def metrics(self) -> dict[str, Any]:
        """A JSON-ready service health snapshot."""
        with self._lock:
            stats = dict(self.stats)
            cached = len(self._cache)
        return {
            "stats": stats,
            "cache_entries": cached,
            "cache_size": self.cache_size,
            "nullifiers_spent": len(self.nullifiers),
        }

    def cached(self, body_hash: str) -> bool:
        with self._lock:
            return body_hash in self._cache

    # -- submission ----------------------------------------------------------

    def _admit(self, envelope: Any) -> _Admitted:
        """Hash a submission without loading wire bytes whose wire key is
        indexed; decode a wire body only if its raw body hash does not
        name a cached verdict (see
        :class:`~repro.service.envelope.WireBody`)."""
        if isinstance(envelope, ProofEnvelope):
            return _Admitted(envelope.body_hash, envelope.nullifier, envelope)
        probe = wire_key(envelope) if isinstance(envelope, bytes) else None
        if probe is not None:
            key, nonce_at, nonce = probe
            with self._lock:
                body_hash = self._wire_keys.get(key)
            if body_hash is not None:
                return _Admitted(
                    body_hash, _nullifier(body_hash, nonce), payload=envelope
                )
        if isinstance(envelope, (bytes, str)):
            wire = WireBody.load(envelope)
        else:
            wire = WireBody(envelope)
        body_hash = wire.body_hash
        # Only bytes that render this hashed object canonically, with
        # the nonce where the key cut it, are ever indexed.
        if (
            probe is None
            or body_hash is None
            or wire.canonical_nonce_at(envelope) != nonce_at
        ):
            key = None
        if body_hash is not None and self.cached(body_hash):
            return _Admitted(body_hash, wire.nullifier, wire=wire, wire_key=key)
        parsed = wire.decode()
        return _Admitted(parsed.body_hash, parsed.nullifier, parsed, wire_key=key)

    def submit(self, envelope: Any) -> CertificationResult:
        """Certify one envelope (wire bytes, wire object, or instance).

        Wire bytes whose wire key is indexed are not loaded at all;
        other wire input is loaded once, and a body whose raw hash names
        a cached verdict is answered, after its nullifier is spent,
        without being decoded.  Raises
        :class:`~repro.errors.ReplayError` on a spent nullifier and
        :class:`~repro.errors.ServiceError` (or its
        :class:`~repro.errors.EnvelopeError` subclass) on invalid
        submissions; every other path returns a
        :class:`CertificationResult`.
        """
        timings: dict[str, float] = {}
        start = time.perf_counter()
        _metrics.inc("service.submit")
        with self._lock:
            self.stats["submitted"] += 1
        with _stage(timings, "parse"):
            try:
                admitted = self._admit(envelope)
            except EnvelopeError:
                _metrics.inc("service.refused")
                with self._lock:
                    self.stats["refused"] += 1
                raise
            body_hash = admitted.body_hash
            nullifier = admitted.nullifier
        try:
            self.nullifiers.spend(nullifier)
        except Exception:
            _metrics.inc("service.nullifier.rejected")
            with self._lock:
                self.stats["replays_rejected"] += 1
            raise
        with self._lock:
            hit = self._cache.get(body_hash)
            if hit is not None:
                self._cache.move_to_end(body_hash)
                self.stats["cache_hits"] += 1
                if admitted.wire_key is not None:
                    self._index(admitted.wire_key, body_hash)
        if hit is not None:
            _metrics.inc("service.cache.hit")
            return replace(
                hit, cache_hit=True, nullifier=nullifier, timings={}
            )
        _metrics.inc("service.cache.miss")
        with self._lock:
            self.stats["cache_misses"] += 1
        verdict = _execute(admitted.decoded(), timings)
        timings["total"] = time.perf_counter() - start
        result = CertificationResult(
            **verdict,
            cache_hit=False,
            body_hash=body_hash,
            nullifier=nullifier,
            timings=timings,
        )
        self._store(body_hash, result, admitted.wire_key)
        return result

    def _store(
        self, body_hash: str, result: CertificationResult, wire_key: bytes | None
    ) -> None:
        with self._lock:
            self._cache[body_hash] = result
            self._cache.move_to_end(body_hash)
            if wire_key is not None:
                self._index(wire_key, body_hash)
            while len(self._cache) > self.cache_size:
                evicted, _ = self._cache.popitem(last=False)
                key = self._wire_key_of.pop(evicted, None)
                if key is not None:
                    del self._wire_keys[key]

    def _index(self, wire_key: bytes, body_hash: str) -> None:
        """Index a cached verdict under a wire key (``self._lock`` held)."""
        old = self._wire_key_of.get(body_hash)
        if old is not None:
            del self._wire_keys[old]
        self._wire_key_of[body_hash] = wire_key
        self._wire_keys[wire_key] = body_hash


# ---------------------------------------------------------------------------
# Envelope construction helper (CLI, tests, benchmarks).
# ---------------------------------------------------------------------------


def build_envelope(
    scheme_name: str,
    *,
    n: int = 32,
    seed: int = 0,
    params: Mapping[str, Any] | None = None,
    corrupt: int = 0,
    honest_certificates: bool = True,
    nonce: str | None = None,
    graph: Graph | None = None,
) -> ProofEnvelope:
    """A ready-to-submit envelope for any catalog scheme.

    Builds the scheme's own sample instance, the canonical member
    labeling, and (by default) the honest certificates.  ``corrupt > 0``
    corrupts that many node states *after* proving — the stale-prover
    configuration the self-stabilization campaigns study, which a sound
    scheme must reject.  The nonce defaults to a deterministic
    derivation from the seed, so rebuilt envelopes replay-collide on
    purpose; pass a fresh ``nonce`` to resubmit content legitimately.
    """
    spec = catalog.get(scheme_name)
    rng = make_rng(seed)
    values = spec.resolve_params(dict(params or {}))
    if graph is None:
        graph = spec.sample_graph(n, rng)
    scheme = spec.build(graph=graph, rng=rng, **values)
    try:
        member = scheme.language.member_configuration(graph, rng=rng)
    except LanguageError as error:
        raise ServiceError(
            f"no member configuration on this graph: {error}"
        ) from None
    from repro.core.batch import batch_prove

    certificates = batch_prove(scheme, member) if honest_certificates else None
    labeling = member.labeling
    if corrupt:
        labeling = labeling.corrupted(
            rng, corrupt, scheme.language.random_corruption
        )
    if nonce is None:
        nonce = f"{rng.getrandbits(128):032x}"
    try:
        return ProofEnvelope(
            scheme=scheme_name,
            params=values,
            graph=graph,
            labeling=labeling,
            certificates=certificates,
            nonce=nonce,
        )
    except CanonicalError as error:  # pragma: no cover - defensive
        raise ServiceError(f"instance is not serializable: {error}") from None
