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
    certificates) rather than the payloads, so an envelope resubmitted
    in-process under a fresh nonce (:meth:`ProofEnvelope.with_nonce`)
    re-hashes O(1) data, not O(n).

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

Wire bodies are loaded once into a :class:`WireBody`, which hashes each
raw part as loaded — a C-level JSON dump plus SHA-256, no decode and no
per-node Python — into the body hash it would decode to.  A resubmitted
body is therefore looked up in the verdict cache without being decoded.
Only a body that has to be decided is decoded, from the already loaded
object, and a raw part hash doubles as the decoded one wherever the
part is provably in canonical form.

A body in canonical form (byte for byte ``to_bytes()``) resubmitted
under a fresh nonce costs less still: :func:`wire_key` hashes its bytes
with the nonce value cut out — one SHA-256 over the body, no JSON load —
and the service maps that key to the body hash once it has loaded and
hashed the same bytes under another nonce.  O(1) over the wire needs
parts sent by reference.
"""

from __future__ import annotations

import hashlib
import json
import operator
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import Any, Mapping

from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.graph import Graph
from repro.graphs.serialize import (
    GRAPH_HASH_DOMAIN,
    graph_canonical_bytes,
    graph_to_obj,
    parse_graph_obj,
)
from repro.obs import metrics as _metrics
from repro.util.canonical import (
    canonical_bytes,
    decode_pairs,
    decode_value,
    domain_hash,
    encode_pairs,
    encode_value,
)

__all__ = [
    "ENVELOPE_FORMAT",
    "ENVELOPE_HASH_DOMAIN",
    "NULLIFIER_DOMAIN",
    "NullifierRegistry",
    "ProofEnvelope",
    "WireBody",
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

#: The end of :data:`_ENVELOPE_TEMPLATE`, after the nonce value.
_ENVELOPE_TAIL = b',"params":%s,"scheme":%s}'

#: ``canonical_bytes(envelope.to_obj())`` with each value left out: the
#: keys in sorted order, as ``canonical_bytes`` writes them.
_ENVELOPE_TEMPLATE = (
    b'{"certificates":%s,"format":%s,"graph":%s,"graph_hash":%s,'
    b'"labeling":%s,"nonce":%s' + _ENVELOPE_TAIL
)

#: The keys of a wire envelope object.
_ENVELOPE_KEYS = frozenset(
    "certificates format graph graph_hash labeling nonce params scheme".split()
)

#: What :func:`wire_key` looks for: the opening of a string nonce field.
_NONCE_FIELD = b'"nonce":"'

#: Bytes a nonce value may hold for :func:`wire_key`: the characters
#: ``canonical_bytes`` writes as themselves (printable ASCII other than
#: ``"`` and ``\``), so the bytes are the nonce.
_PLAIN_NONCE_BYTES = bytes(sorted(set(range(0x20, 0x7F)) - set(b'"\\')))


def wire_key(payload: bytes) -> tuple[bytes, int, str] | None:
    """The nonce-free key of wire bytes, without loading them.

    Finds the first ``"nonce":"`` in ``payload`` and takes the value up
    to the next ``"``; returns ``(key, value offset, nonce)``, where the
    key is a SHA-256 over the bytes around that value, or ``None`` when
    there is no such field or the value is not plain printable ASCII.
    Two bodies share a key iff they differ at most in that value, so a
    key recorded for a body the service loaded and found canonical
    names its body hash for every other plain nonce.
    """
    start = payload.find(_NONCE_FIELD)
    if start < 0:
        return None
    start += len(_NONCE_FIELD)
    end = payload.find(b'"', start)
    if end < 0:
        return None
    nonce = payload[start:end]
    if nonce.translate(None, _PLAIN_NONCE_BYTES):
        return None
    view = memoryview(payload)
    digest = hashlib.sha256(b"PLS_WIRE_KEY/v1\x00%d\x00" % start)
    digest.update(view[:start])
    digest.update(view[end:])
    return digest.digest(), start, nonce.decode("ascii")


def _ascending_nodes(pairs: list) -> bool:
    """Whether well-formed ``[node, value]`` pairs list strictly
    ascending nodes (the order ``to_obj`` writes them in)."""
    nodes = [pair[0] for pair in pairs]
    return all(map(operator.lt, nodes, islice(nodes, 1, None)))


def _body_hash(
    version: str,
    scheme: str,
    params: Any,
    graph_hash: str,
    labeling_hash: str,
    certificates_hash: str,
) -> str:
    """The envelope body hash over encoded ``params`` and part hashes."""
    body = {
        "format": version,
        "scheme": scheme,
        "params": params,
        "graph_hash": graph_hash,
        "labeling_hash": labeling_hash,
        "certificates_hash": certificates_hash,
    }
    return domain_hash(ENVELOPE_HASH_DOMAIN, canonical_bytes(body))


def _nullifier(body_hash: str, nonce: str) -> str:
    return domain_hash(NULLIFIER_DOMAIN, f"{body_hash}:{nonce}".encode("utf-8"))


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
    ``certificates`` of ``None`` means "run the honest marker"; any
    other node-keyed mapping (a decoded dict, or a prover's
    :class:`~repro.core.arrays.CertificateColumns`) is encoded as given.
    """

    scheme: str
    params: dict[str, Any]
    graph: Graph
    labeling: Labeling
    certificates: Mapping[int, Any] | None = None
    nonce: str = ""
    version: str = ENVELOPE_FORMAT
    #: Memoised part hashes (graph/labeling/certs/body), shared across
    #: :meth:`with_nonce` copies so an in-process fresh-nonce
    #: resubmission re-hashes O(1) data.  Not part of equality.
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
        return self._part(
            "graph", GRAPH_HASH_DOMAIN, lambda: graph_canonical_bytes(self.graph)
        )

    def _labeling_bytes(self) -> bytes:
        return canonical_bytes(self.labeling.to_obj())

    def _certificates_bytes(self) -> bytes:
        return canonical_bytes(encode_pairs(self.certificates))

    @property
    def labeling_hash(self) -> str:
        """Domain-separated content hash of the labeling payload."""
        return self._part("labeling", LABELING_HASH_DOMAIN, self._labeling_bytes)

    @property
    def certificates_hash(self) -> str:
        """Content hash of the certificate assignment (``-`` when absent)."""
        if self.certificates is None:
            return "-"
        return self._part("certs", CERTS_HASH_DOMAIN, self._certificates_bytes)

    @property
    def body_hash(self) -> str:
        """Content identity excluding the nonce — the service cache key.

        Covers (version, scheme, params, graph hash, labeling hash,
        certificates hash); O(1) to recompute once the part hashes are
        memoised.
        """
        cached = self._hashes.get("body")
        if cached is None:
            cached = _body_hash(
                self.version,
                self.scheme,
                encode_value(dict(self.params)),
                self._graph_hash(),
                self.labeling_hash,
                self.certificates_hash,
            )
            self._hashes["body"] = cached
        return cached

    @property
    def nullifier(self) -> str:
        """Anti-replay identity: body hash bound to this nonce."""
        return _nullifier(self.body_hash, self.nonce)

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
                else encode_pairs(self.certificates)
            ),
            "nonce": self.nonce,
        }

    def to_bytes(self) -> bytes:
        """Canonical byte form (round-trips through :meth:`from_bytes`).

        Equal to ``canonical_bytes(self.to_obj())``, but joined from the
        parts' canonical bytes, which also give the part hashes: each
        part is encoded once.
        """
        parts = [
            ("graph", GRAPH_HASH_DOMAIN, graph_canonical_bytes(self.graph)),
            ("labeling", LABELING_HASH_DOMAIN, self._labeling_bytes()),
        ]
        certificates = b"null"
        if self.certificates is not None:
            certificates = self._certificates_bytes()
            parts.append(("certs", CERTS_HASH_DOMAIN, certificates))
        for key, domain, payload in parts:
            if key not in self._hashes:
                self._hashes[key] = domain_hash(domain, payload)
        return _ENVELOPE_TEMPLATE % (
            certificates,
            canonical_bytes(self.version),
            parts[0][2],
            canonical_bytes(self._hashes["graph"]),
            parts[1][2],
            canonical_bytes(self.nonce),
            canonical_bytes(encode_value(dict(self.params))),
            canonical_bytes(self.scheme),
        )

    @classmethod
    def from_obj(cls, obj: Any) -> "ProofEnvelope":
        """Parse and validate a wire object.

        Strict: unknown format tags, malformed sections, non-string
        nonces, a labeling whose size is not the graph's declared ``n``
        (checked before the graph is built), and a graph payload that
        does not hash to its declared binding all raise
        :class:`~repro.errors.EnvelopeError`.
        """
        return WireBody(obj).decode()

    @classmethod
    def from_bytes(cls, payload: bytes | str) -> "ProofEnvelope":
        """Parse an envelope from its canonical JSON byte form."""
        return WireBody.load(payload).decode()

    def __repr__(self) -> str:
        certs = "honest" if self.certificates is None else "supplied"
        return (
            f"ProofEnvelope({self.scheme}, n={self.graph.n}, "
            f"certificates={certs}, nonce={self.nonce[:8]!r})"
        )


class WireBody:
    """A loaded wire object and the content hashes of its raw parts.

    Each part hash is the part's domain hash over ``canonical_bytes`` of
    the part *as loaded*, so computing :attr:`body_hash` decodes
    nothing.  Cache keys are only ever decoded envelopes' body hashes,
    so a raw body hash equal to one means every raw part has the
    canonical bytes of a part the service already validated: the body
    decodes to that envelope.  A non-canonical body (unsorted pairs,
    reversed edges, extra graph keys, reordered set elements) hashes
    differently, misses the cache, and is decoded and hashed as before.
    """

    #: (wire key, hash domain) of each part.
    _PARTS = {
        "graph": ("graph", GRAPH_HASH_DOMAIN),
        "labeling": ("labeling", LABELING_HASH_DOMAIN),
        "certs": ("certificates", CERTS_HASH_DOMAIN),
    }

    def __init__(self, obj: Any) -> None:
        self.obj = obj
        #: part -> (raw part hash or ``None`` when the part has no
        #: canonical bytes, whether those bytes hold no JSON object).
        self._parts: dict[str, tuple[str | None, bool]] = {}
        #: part -> its canonical bytes, as hashed.
        self._dumps: dict[str, bytes] = {}

    @classmethod
    def load(cls, payload: bytes | str) -> "WireBody":
        """Load JSON wire bytes (refused as an :class:`EnvelopeError`)."""
        _metrics.inc("service.envelope.loaded")
        try:
            return cls(json.loads(payload))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise EnvelopeError(f"envelope is not valid JSON: {error}") from None
        except RecursionError:
            raise EnvelopeError("envelope JSON is nested too deeply") from None

    def _part(self, part: str) -> tuple[str | None, bool]:
        cached = self._parts.get(part)
        if cached is None:
            key, domain = self._PARTS[part]
            raw = self.obj.get(key)
            if part == "certs" and raw is None:
                cached = ("-", False)
            else:
                try:
                    payload = canonical_bytes(raw)
                except (CanonicalError, RecursionError):
                    cached = (None, False)
                else:
                    cached = (domain_hash(domain, payload), b"{" not in payload)
                    self._dumps[part] = payload
            self._parts[part] = cached
        return cached

    def canonical_nonce_at(self, payload: bytes) -> int | None:
        """Where the nonce value starts in ``payload``, if ``payload`` is
        byte for byte the canonical rendering of this loaded object.

        ``None`` unless the object has exactly the envelope keys and
        ``payload`` equals :data:`_ENVELOPE_TEMPLATE` filled from the
        part dumps :attr:`body_hash` made, so the check costs a byte
        comparison, not a second dump.
        """
        obj = self.obj
        if (
            not isinstance(obj, dict)
            or obj.keys() != _ENVELOPE_KEYS
            or not isinstance(obj["nonce"], str)
        ):
            return None
        dumps = self._dumps
        certificates = b"null" if obj["certificates"] is None else dumps.get("certs")
        if certificates is None or not {"graph", "labeling"} <= dumps.keys():
            return None
        try:
            version, graph_hash, nonce, params, scheme = (
                canonical_bytes(obj[key])
                for key in ("format", "graph_hash", "nonce", "params", "scheme")
            )
        except (CanonicalError, RecursionError):
            return None
        tail = _ENVELOPE_TAIL % (params, scheme)
        rendered = _ENVELOPE_TEMPLATE % (
            certificates,
            version,
            dumps["graph"],
            graph_hash,
            dumps["labeling"],
            nonce,
            params,
            scheme,
        )
        if payload != rendered:
            return None
        return len(payload) - len(tail) - len(nonce) + 1

    def part_hash(self, part: str) -> str | None:
        """The raw ``graph``/``labeling``/``certs`` part's hash."""
        return self._part(part)[0]

    @cached_property
    def body_hash(self) -> str | None:
        """The body hash computed from the raw parts, or ``None`` for an
        object whose envelope fields the full parse would refuse."""
        obj = self.obj
        if not isinstance(obj, dict) or obj.get("format") != ENVELOPE_FORMAT:
            return None
        scheme = obj.get("scheme")
        if not isinstance(scheme, str) or not scheme:
            return None
        if not isinstance(obj.get("nonce", ""), str):
            return None
        hashes = [self.part_hash(part) for part in self._PARTS]
        if None in hashes or obj.get("graph_hash") != hashes[0]:
            return None
        try:
            return _body_hash(ENVELOPE_FORMAT, scheme, obj.get("params"), *hashes)
        except (CanonicalError, RecursionError):
            return None

    @property
    def nullifier(self) -> str | None:
        body_hash = self.body_hash
        if body_hash is None:
            return None
        return _nullifier(body_hash, self.obj.get("nonce", ""))

    def decode(self) -> ProofEnvelope:
        """The validated :class:`ProofEnvelope` (see
        :meth:`ProofEnvelope.from_obj`)."""
        _metrics.inc("service.envelope.decoded")
        obj = self.obj
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
        try:
            params = decode_value(obj.get("params"))
            # The labeling first: a graph is only built once the
            # labeling fits its declared size, so a short body cannot
            # make the parse allocate a large graph.
            labeling = Labeling.from_obj(obj.get("labeling"))
            declared_n = _declared_node_count(obj.get("graph"))
            if declared_n is not None and declared_n != len(labeling):
                raise EnvelopeError(
                    "labeling does not fit the graph: "
                    "labeling does not cover the graph's nodes"
                )
            graph, canonical_graph = parse_graph_obj(obj.get("graph"))
        except CanonicalError as error:
            raise EnvelopeError(str(error)) from None
        if not isinstance(params, dict) or not all(
            isinstance(k, str) for k in params
        ):
            raise EnvelopeError("params must decode to a string-keyed dict")
        certificates = None
        if obj.get("certificates") is not None:
            try:
                certificates = decode_pairs(obj["certificates"])
            except CanonicalError as error:
                raise EnvelopeError(str(error)) from None
        envelope = ProofEnvelope(
            scheme=scheme,
            params=params,
            graph=graph,
            labeling=labeling,
            certificates=certificates,
            nonce=nonce,
        )
        hashes = envelope._hashes
        if canonical_graph:
            hashes["graph"] = self.part_hash("graph")
        if declared is not None and declared != envelope._graph_hash():
            raise EnvelopeError(
                "graph payload does not match its content-hash binding"
            )
        # A part with strictly ascending nodes and no JSON object holds
        # no tagged wrapper, so decoding and re-encoding it gives back
        # the same value: its raw hash is its decoded hash.
        for part, raw in (
            ("labeling", obj["labeling"]),
            ("certs", obj.get("certificates")),
        ):
            if raw is not None and _ascending_nodes(raw):
                raw_hash, plain = self._part(part)
                if plain and raw_hash is not None:
                    hashes[part] = raw_hash
        return envelope


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
