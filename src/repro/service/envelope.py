"""Canonical proof envelopes and the anti-replay nullifier registry.

A :class:`ProofEnvelope` is the durable form of one certification
request: *scheme name + coerced params + graph + labeling [+
certificates] + client nonce*, all under the deterministic tagged
encoding of :mod:`repro.util.canonical`.  Its canonical byte form
round-trips exactly (``from_bytes(env.to_bytes()) == env``), which gives
three derived identities, each in its own hash domain:

``body_hash`` (domain ``PLS_ENVELOPE/v1``)
    Content identity *excluding the nonce*: two envelopes asking for the
    same verification of the same configuration share a body hash, which
    is the service's cache key and the seed for deterministic scheme
    builds.  Computed over the *part hashes* (graph, labeling,
    certificates) rather than the payloads, so a resubmission under a
    fresh nonce re-hashes O(1) data, not O(n).

``nullifier`` (domain ``PLS_NULLIFIER/v1``)
    Anti-replay identity *including the nonce*: the
    :class:`NullifierRegistry` spends each nullifier once, so replaying
    a captured envelope verbatim is rejected while honest resubmission
    under a fresh nonce is served (from cache, after the first time).

``graph_hash`` (domain ``PLS_GRAPH/v1``)
    The graph payload travels with its own content hash binding; a
    mismatch (payload tampered after hashing) fails envelope parsing.

Certificates are optional: an envelope without them asks the service to
run the scheme's own marker (honest prover) before deciding; an envelope
with them asks for verification of exactly that assignment — the
corrupted-labeling and adversarial workflows.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.graph import Graph
from repro.graphs.serialize import graph_from_obj, graph_hash, graph_to_obj
from repro.util.canonical import (
    canonical_bytes,
    decode_value,
    domain_hash,
    encode_value,
)

__all__ = [
    "ENVELOPE_FORMAT",
    "ENVELOPE_HASH_DOMAIN",
    "NULLIFIER_DOMAIN",
    "NullifierRegistry",
    "ProofEnvelope",
]

#: Version tag carried inside every serialized envelope.
ENVELOPE_FORMAT = "pls-envelope/v1"

#: Domain tag for envelope body (content) hashes — the cache key domain.
ENVELOPE_HASH_DOMAIN = "PLS_ENVELOPE/v1"

#: Domain tag for labeling part hashes inside the body hash.
LABELING_HASH_DOMAIN = "PLS_LABELING/v1"

#: Domain tag for certificate-assignment part hashes inside the body hash.
CERTS_HASH_DOMAIN = "PLS_CERTS/v1"

#: Domain tag for anti-replay nullifiers (body hash + nonce).
NULLIFIER_DOMAIN = "PLS_NULLIFIER/v1"


def _encode_assignment(certificates: Mapping[int, Any]) -> list:
    """Node-sorted ``[[node, encoded_cert], ...]`` (the labeling shape)."""
    return [
        [node, encode_value(cert)]
        for node, cert in sorted(certificates.items())
    ]


def _decode_assignment(obj: Any) -> dict[int, Any]:
    if not isinstance(obj, list):
        raise EnvelopeError(
            f"certificates must be a list of [node, value] pairs, "
            f"got {type(obj).__name__}"
        )
    certificates: dict[int, Any] = {}
    for pair in obj:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not isinstance(pair[0], int)
            or isinstance(pair[0], bool)
        ):
            raise EnvelopeError(f"malformed certificate entry {pair!r}")
        if pair[0] in certificates:
            raise EnvelopeError(f"duplicate certificate for node {pair[0]}")
        certificates[pair[0]] = decode_value(pair[1])
    return certificates


def _declared_node_count(obj: Any) -> int | None:
    """The ``n`` a graph object declares, if it is an int at all (the
    graph parse reports anything else)."""
    n = obj.get("n") if isinstance(obj, dict) else None
    return n if isinstance(n, int) and not isinstance(n, bool) else None


@dataclass(frozen=True)
class ProofEnvelope:
    """One certification request in canonical, durable form.

    ``params`` must already be coerced (plain numbers, as
    :meth:`repro.core.catalog.SchemeSpec.resolve_params` returns them);
    the service re-validates against the spec on submission regardless.
    ``certificates`` of ``None`` means "run the honest marker".
    """

    scheme: str
    params: dict[str, Any]
    graph: Graph
    labeling: Labeling
    certificates: dict[int, Any] | None = None
    nonce: str = ""
    version: str = ENVELOPE_FORMAT
    #: Memoised part hashes (graph/labeling/certs/body), shared across
    #: :meth:`with_nonce` copies so a fresh-nonce resubmission re-hashes
    #: O(1) data.  Not part of equality.
    _hashes: dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    # -- part hashes ---------------------------------------------------------

    def _part(self, key: str, domain: str, payload_fn) -> str:
        cached = self._hashes.get(key)
        if cached is None:
            cached = domain_hash(domain, payload_fn())
            self._hashes[key] = cached
        return cached

    @property
    def graph_hash(self) -> str:
        """Domain-separated content hash of the graph payload."""
        return self._graph_hash()

    def _graph_hash(self) -> str:
        cached = self._hashes.get("graph")
        if cached is None:
            cached = graph_hash(self.graph)
            self._hashes["graph"] = cached
        return cached

    @property
    def labeling_hash(self) -> str:
        """Domain-separated content hash of the labeling payload."""
        return self._part(
            "labeling",
            LABELING_HASH_DOMAIN,
            lambda: canonical_bytes(self.labeling.to_obj()),
        )

    @property
    def certificates_hash(self) -> str:
        """Content hash of the certificate assignment (``-`` when absent)."""
        if self.certificates is None:
            return "-"
        return self._part(
            "certs",
            CERTS_HASH_DOMAIN,
            lambda: canonical_bytes(_encode_assignment(self.certificates)),
        )

    @property
    def body_hash(self) -> str:
        """Content identity excluding the nonce — the service cache key.

        Covers (version, scheme, params, graph hash, labeling hash,
        certificates hash); O(1) to recompute once the part hashes are
        memoised.
        """
        cached = self._hashes.get("body")
        if cached is None:
            body = {
                "format": self.version,
                "scheme": self.scheme,
                "params": encode_value(dict(self.params)),
                "graph_hash": self._graph_hash(),
                "labeling_hash": self.labeling_hash,
                "certificates_hash": self.certificates_hash,
            }
            cached = domain_hash(ENVELOPE_HASH_DOMAIN, canonical_bytes(body))
            self._hashes["body"] = cached
        return cached

    @property
    def nullifier(self) -> str:
        """Anti-replay identity: body hash bound to this nonce."""
        payload = f"{self.body_hash}:{self.nonce}".encode("utf-8")
        return domain_hash(NULLIFIER_DOMAIN, payload)

    # -- derived envelopes ---------------------------------------------------

    def with_nonce(self, nonce: str) -> "ProofEnvelope":
        """Copy under a fresh nonce, sharing the memoised part hashes."""
        return replace(self, nonce=nonce, _hashes=self._hashes)

    # -- wire form -----------------------------------------------------------

    def to_obj(self) -> dict[str, Any]:
        """The full JSON-able wire object (payloads plus hash bindings)."""
        return {
            "format": self.version,
            "scheme": self.scheme,
            "params": encode_value(dict(self.params)),
            "graph": graph_to_obj(self.graph),
            "graph_hash": self._graph_hash(),
            "labeling": self.labeling.to_obj(),
            "certificates": (
                None
                if self.certificates is None
                else _encode_assignment(self.certificates)
            ),
            "nonce": self.nonce,
        }

    def to_bytes(self) -> bytes:
        """Canonical byte form (round-trips through :meth:`from_bytes`)."""
        return canonical_bytes(self.to_obj())

    @classmethod
    def from_obj(
        cls,
        obj: Any,
        graph_cache: Mapping[str, Graph] | None = None,
    ) -> "ProofEnvelope":
        """Parse and validate a wire object.

        Strict: unknown format tags, malformed sections, non-string
        nonces, a labeling whose size is not the graph's declared ``n``
        (checked before the graph is built), and a graph payload that
        does not hash to its declared binding all raise
        :class:`~repro.errors.EnvelopeError`.

        ``graph_cache`` maps graph hashes to already-parsed graphs; when
        the wire object's declared ``graph_hash`` is present there, the
        cached :class:`~repro.graphs.graph.Graph` (with whatever CSR
        mirror it has accumulated) is reused and the O(m) payload parse
        and re-hash are skipped — the warm path of the service's
        graph-affine workers.
        """
        if not isinstance(obj, dict):
            raise EnvelopeError(
                f"envelope must be an object, got {type(obj).__name__}"
            )
        if obj.get("format") != ENVELOPE_FORMAT:
            raise EnvelopeError(
                f"unsupported envelope format {obj.get('format')!r} "
                f"(expected {ENVELOPE_FORMAT!r})"
            )
        scheme = obj.get("scheme")
        if not isinstance(scheme, str) or not scheme:
            raise EnvelopeError(f"scheme name {scheme!r} is not a string")
        nonce = obj.get("nonce", "")
        if not isinstance(nonce, str):
            raise EnvelopeError(f"nonce {nonce!r} is not a string")
        declared = obj.get("graph_hash")
        cached_graph = None
        if graph_cache is not None and isinstance(declared, str):
            cached_graph = graph_cache.get(declared)
        try:
            params = decode_value(obj.get("params"))
            # The labeling first: a graph is only built once the
            # labeling fits its declared size, so a short body cannot
            # make the parse allocate a large graph.
            labeling = Labeling.from_obj(obj.get("labeling"))
            declared_n = (
                cached_graph.n
                if cached_graph is not None
                else _declared_node_count(obj.get("graph"))
            )
            if declared_n is not None and declared_n != len(labeling):
                raise EnvelopeError(
                    "labeling does not fit the graph: "
                    "labeling does not cover the graph's nodes"
                )
            graph = (
                cached_graph
                if cached_graph is not None
                else graph_from_obj(obj.get("graph"))
            )
        except CanonicalError as error:
            raise EnvelopeError(str(error)) from None
        if not isinstance(params, dict) or not all(
            isinstance(k, str) for k in params
        ):
            raise EnvelopeError("params must decode to a string-keyed dict")
        certificates = None
        if obj.get("certificates") is not None:
            try:
                certificates = _decode_assignment(obj["certificates"])
            except CanonicalError as error:
                raise EnvelopeError(str(error)) from None
        envelope = cls(
            scheme=scheme,
            params=params,
            graph=graph,
            labeling=labeling,
            certificates=certificates,
            nonce=nonce,
        )
        if cached_graph is not None:
            # The cache key *is* the verified hash of this graph.
            envelope._hashes["graph"] = declared
        elif declared is not None and declared != envelope._graph_hash():
            raise EnvelopeError(
                "graph payload does not match its content-hash binding"
            )
        return envelope

    @classmethod
    def from_bytes(
        cls,
        payload: bytes | str,
        graph_cache: Mapping[str, Graph] | None = None,
    ) -> "ProofEnvelope":
        """Parse an envelope from its canonical JSON byte form."""
        try:
            obj = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise EnvelopeError(f"envelope is not valid JSON: {error}") from None
        except RecursionError:
            raise EnvelopeError("envelope JSON is nested too deeply") from None
        return cls.from_obj(obj, graph_cache=graph_cache)

    def __repr__(self) -> str:
        certs = "honest" if self.certificates is None else "supplied"
        return (
            f"ProofEnvelope({self.scheme}, n={self.graph.n}, "
            f"certificates={certs}, nonce={self.nonce[:8]!r})"
        )


class NullifierRegistry:
    """Spent-nullifier set with bounded memory and FIFO eviction.

    Thread-safe; :meth:`spend` registers a nullifier exactly once and
    raises :class:`~repro.errors.ReplayError` on resubmission.  Bounding
    the registry keeps the service's memory flat under sustained
    traffic — the oldest nullifiers age out first, which bounds the
    replay-protection *window* rather than the protection itself (the
    cache in front absorbs honest resubmissions long before then).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spent: dict[str, None] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._spent)

    def seen(self, nullifier: str) -> bool:
        with self._lock:
            return nullifier in self._spent

    def spend(self, nullifier: str) -> None:
        """Register ``nullifier``; raise :class:`ReplayError` if spent."""
        with self._lock:
            if nullifier in self._spent:
                raise ReplayError(
                    f"nullifier {nullifier[:16]}... already spent "
                    f"(replayed envelope)"
                )
            self._spent[nullifier] = None
            while len(self._spent) > self.capacity:
                self._spent.pop(next(iter(self._spent)))
