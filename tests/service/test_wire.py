"""Wire bodies: part hashes from the loaded JSON, decodes only on a miss.

:class:`~repro.service.envelope.WireBody` hashes a body's raw parts
without decoding them.  These tests pin what makes that sound: the raw
body hash of every canonical body equals the decoded one, a
non-canonical body is served exactly like its canonical twin, a
resubmitted body is served from the cache with no decode at all, and
the replay and graph-hash checks hold on both paths.  The wire-key
index serves canonical bytes under a fresh nonce with no JSON load at
all; its tests compare every outcome with a service that cached the
same verdict from an in-process envelope, which never fills the index.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import catalog
from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.graph import Graph
from repro.graphs.serialize import graph_from_obj, graph_to_obj, parse_graph_obj
from repro.obs import metrics as obs
from repro.service import CertificationService, ProofEnvelope, build_envelope
from repro.service import envelope as envelope_module
from repro.service.envelope import WireBody, wire_key
from repro.util.canonical import canonical_bytes


def _undecoded(envelope: ProofEnvelope) -> ProofEnvelope:
    """The same content with no memoised hashes."""
    graph = envelope.graph
    weights = graph.weights() if graph.is_weighted else None
    return ProofEnvelope(
        scheme=envelope.scheme,
        params=envelope.params,
        graph=Graph(graph.n, graph.edges(), weights),
        labeling=Labeling(dict(envelope.labeling)),
        certificates=envelope.certificates,
        nonce=envelope.nonce,
    )


@pytest.mark.parametrize("corrupt", [0, 3], ids=["honest", "corrupted"])
@pytest.mark.parametrize("name", catalog.names())
class TestRawHashesEqualDecoded:
    def test_wire_body_hash_is_the_decoded_one(self, name, corrupt):
        envelope = build_envelope(name, n=12, seed=5, corrupt=corrupt)
        payload = envelope.to_bytes()
        decoded = ProofEnvelope.from_bytes(payload)
        expected = _undecoded(envelope)
        assert WireBody.load(payload).body_hash == expected.body_hash
        assert decoded.body_hash == expected.body_hash
        assert decoded.nullifier == expected.nullifier
        assert WireBody.load(payload).nullifier == expected.nullifier

    def test_to_bytes_is_the_canonical_object(self, name, corrupt):
        envelope = build_envelope(name, n=12, seed=5, corrupt=corrupt)
        assert envelope.to_bytes() == canonical_bytes(envelope.to_obj())
        marker = build_envelope(name, n=12, seed=5, honest_certificates=False)
        assert marker.to_bytes() == canonical_bytes(marker.to_obj())
        # Part hashes memoised by to_bytes are the ones computed alone.
        assert envelope.body_hash == _undecoded(envelope).body_hash


# ---------------------------------------------------------------------------
# Non-canonical bodies decode and hash the old way.
# ---------------------------------------------------------------------------


def _reverse_fset(obj):
    """Reverse the first multi-element set wrapper's element order."""
    for _, state in obj["labeling"]:
        if isinstance(state, dict) and len(state["v"]) > 1:
            state["v"].reverse()
            return
    raise AssertionError("no set wrapper to reorder")


MUTANTS = {
    "unsorted-labeling": lambda o: o["labeling"].reverse(),
    "unsorted-certificates": lambda o: o["certificates"].reverse(),
    "reversed-edges": lambda o: [pair.reverse() for pair in o["graph"]["edges"]],
    "unsorted-edges": lambda o: o["graph"]["edges"].reverse(),
    "extra-graph-key": lambda o: o["graph"].update(comment="extra"),
    "reordered-set": _reverse_fset,
}


def _canonical_twin(mutant: str) -> ProofEnvelope:
    name = "spanning-tree-list" if mutant == "reordered-set" else "spanning-tree-ptr"
    return build_envelope(name, n=16, seed=4, corrupt=2)


class TestNonCanonicalBodies:
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_served_like_the_canonical_twin(self, mutant):
        envelope = _canonical_twin(mutant)
        obj = envelope.to_obj()
        MUTANTS[mutant](obj)
        obj["nonce"] = "mutant"
        payload = json.dumps(obj).encode()
        assert payload != envelope.with_nonce("mutant").to_bytes()
        assert WireBody.load(payload).body_hash != envelope.body_hash

        with CertificationService() as service:
            served = service.submit(payload)
        with CertificationService() as service:
            expected = service.submit(envelope)
            # And the twin's verdict is a hit for the mutant.
            again = service.submit(payload)
        assert (served.accepted, served.rejections, served.rejecting) == (
            expected.accepted,
            expected.rejections,
            expected.rejecting,
        )
        assert served.body_hash == expected.body_hash == envelope.body_hash
        assert again.cache_hit and again.body_hash == envelope.body_hash

    def test_whitespace_padded_body_hits_without_a_decode(self):
        envelope = build_envelope("leader", n=16, seed=4)
        padded = json.dumps(envelope.with_nonce("padded").to_obj(), indent=2)
        assert WireBody.load(padded).body_hash == envelope.body_hash
        with CertificationService() as service:
            cold = service.submit(padded.encode())
            assert cold.body_hash == envelope.body_hash
            assert not cold.cache_hit
            with obs.collect("t") as metrics:
                hot = service.submit(envelope.with_nonce("fresh").to_bytes())
        assert hot.cache_hit and hot.accepted == cold.accepted
        # The padded cold body was not indexed: the resubmit took the
        # load-and-hash path, which indexes it from now on.
        assert metrics.counter("service.envelope.loaded") == 1
        assert metrics.counter("service.envelope.decoded") == 0

    def test_dict_body_hits_without_a_decode(self):
        envelope = build_envelope("bipartite", n=12, seed=4)
        with CertificationService() as service:
            cold = service.submit(envelope.to_bytes())
            with obs.collect("t") as metrics:
                hot = service.submit(envelope.with_nonce("dict").to_obj())
        assert hot.cache_hit and hot.body_hash == cold.body_hash
        assert hot.nullifier == envelope.with_nonce("dict").nullifier
        assert metrics.counter("service.envelope.loaded") == 0
        assert metrics.counter("service.envelope.decoded") == 0


# ---------------------------------------------------------------------------
# Resubmission, replay and the graph-hash binding.
# ---------------------------------------------------------------------------


def _raise(*args, **kwargs):
    raise AssertionError("a cached body was decoded")


class TestResubmission:
    def test_fresh_nonce_resubmit_decodes_nothing(self, monkeypatch):
        envelope = build_envelope("bfs-tree", n=32, seed=2)
        service = CertificationService()
        with obs.collect("t") as metrics:
            cold = service.submit(envelope.to_bytes())
        assert metrics.counter("service.envelope.decoded") == 1
        monkeypatch.setattr(envelope_module, "parse_graph_obj", _raise)
        monkeypatch.setattr(envelope_module, "decode_value", _raise)
        monkeypatch.setattr(envelope_module, "decode_pairs", _raise)
        monkeypatch.setattr("repro.graphs.serialize.graph_from_obj", _raise)
        monkeypatch.setattr(Labeling, "from_obj", _raise)
        monkeypatch.setattr(WireBody, "decode", _raise)
        with obs.collect("t") as metrics:
            hot = service.submit(envelope.with_nonce("fresh").to_bytes())
        assert hot.cache_hit
        assert hot.body_hash == cold.body_hash
        assert (hot.accepted, hot.rejections) == (cold.accepted, cold.rejections)
        assert metrics.counter("service.cache.hit") == 1
        assert metrics.counter("service.envelope.decoded") == 0

    def test_replayed_cached_body_is_refused(self):
        payload = build_envelope("leader", n=16, seed=3).to_bytes()
        service = CertificationService()
        service.submit(payload)
        with obs.collect("t") as metrics:
            with pytest.raises(ReplayError):
                service.submit(payload)
        assert service.stats["replays_rejected"] == 1
        assert metrics.counter("service.nullifier.rejected") == 1
        assert metrics.counter("service.envelope.decoded") == 0

    @pytest.mark.parametrize("tamper", ["graph_hash", "graph"])
    def test_cached_body_with_broken_binding_is_refused(self, tamper):
        envelope = build_envelope("spanning-tree-ptr", n=16, seed=3)
        service = CertificationService()
        service.submit(envelope.to_bytes())
        obj = envelope.with_nonce("tampered").to_obj()
        if tamper == "graph_hash":
            obj["graph_hash"] = "0" * 64
        else:
            obj["graph"]["edges"] = obj["graph"]["edges"][:-1]
        with pytest.raises(EnvelopeError, match="content-hash binding"):
            service.submit(canonical_bytes(obj))
        with pytest.raises(EnvelopeError, match="content-hash binding"):
            service.submit(obj)


# ---------------------------------------------------------------------------
# The columnar graph parse.
# ---------------------------------------------------------------------------


def _graph_obj(n, edges):
    return {"format": "pls-graph/v1", "n": n, "edges": edges, "weights": None}


class TestColumnarGraphParse:
    @pytest.mark.parametrize(
        "edges",
        [
            [[0, True]],
            [[0, 1.0]],
            [[0, 1, 2]],
            [(0, 1), "01"],
            [0],
            [[0, "1"]],
        ],
        ids=["bool", "float", "three", "non-list", "scalar", "string"],
    )
    def test_malformed_entries_rejected(self, edges):
        with pytest.raises(CanonicalError, match="malformed edge entry"):
            graph_from_obj(_graph_obj(3, [[1, 2], *edges]))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [-1, 2]], "edge (-1, 2) outside node range [0, 3)"),
            ([[0, 1], [1, 3]], "edge (1, 3) outside node range [0, 3)"),
            ([[0, 1], [2, 2]], "self-loop on node 2"),
            ([[0, 1], [1, 2], [1, 0]], "duplicate edge (0, 1)"),
            ([[0, 2**63]], f"edge (0, {2**63}) outside node range [0, 3)"),
            ([[-(2**63) - 1, 1]], f"edge ({-(2**63) - 1}, 1) outside node range"),
        ],
        ids=["negative", "range", "self-loop", "duplicate", "int64-max", "int64-min"],
    )
    def test_invalid_edges_rejected_as_before(self, edges, message):
        with pytest.raises(CanonicalError) as columnar:
            graph_from_obj(_graph_obj(3, edges))
        assert str(columnar.value).startswith(
            "graph object does not describe a graph: "
        )
        assert message in str(columnar.value)
        with pytest.raises(Exception) as tuples:
            Graph(3, [tuple(pair) for pair in edges])
        assert str(columnar.value).endswith(str(tuples.value))

    def test_canonicity(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 4), (3, 4)])
        obj = graph_to_obj(graph)
        back, canonical = parse_graph_obj(obj)
        assert canonical and back == graph
        for mutate in (
            lambda o: o["edges"].reverse(),
            lambda o: o["edges"][0].reverse(),
            lambda o: o.update(extra=1),
        ):
            other = json.loads(json.dumps(obj))
            mutate(other)
            back, canonical = parse_graph_obj(other)
            assert not canonical and back == graph
        weighted = graph_to_obj(graph.with_weights({e: 1.0 for e in graph.edges()}))
        assert parse_graph_obj(weighted)[1] is False


# ---------------------------------------------------------------------------
# The wire-key index: canonical bytes under a fresh nonce, never loaded.
# ---------------------------------------------------------------------------

#: The body every index test resubmits (corrupted, so a verdict that
#: rejects some nodes is what has to come back).
INDEXED = build_envelope("spanning-tree-ptr", n=12, seed=9, corrupt=2)


def _oracle() -> CertificationService:
    """A service holding the verdict, cached from an in-process envelope
    (which fills no wire key)."""
    service = CertificationService()
    service.submit(INDEXED)
    return service


def _indexed(envelope: ProofEnvelope = INDEXED) -> CertificationService:
    """A service holding the verdict, cached from canonical bytes (which
    fill the wire key)."""
    service = CertificationService()
    service.submit(envelope.to_bytes())
    return service


def _outcome(service: CertificationService, payload):
    try:
        result = service.submit(payload)
    except Exception as error:
        return type(error)
    return (result.accepted, result.rejections, result.body_hash, result.nullifier)


def _counted(service: CertificationService, payload):
    """``(outcome, JSON loads, decodes)`` of one submission."""
    with obs.collect("t") as metrics:
        outcome = _outcome(service, payload)
    return (
        outcome,
        metrics.counter("service.envelope.loaded"),
        metrics.counter("service.envelope.decoded"),
    )


def _renamed_nonce(payload: bytes, field: bytes) -> bytes:
    """``payload`` with its one ``"nonce":"real"`` field replaced."""
    assert payload.count(b'"nonce":"real"') == 1
    return payload.replace(b'"nonce":"real"', field)


class TestWireKey:
    def test_plain_nonces_share_a_key(self):
        a = wire_key(INDEXED.with_nonce("a").to_bytes())
        b = wire_key(INDEXED.with_nonce("some other nonce").to_bytes())
        assert a[0] == b[0] and a[1] == b[1]
        assert (a[2], b[2]) == ("a", "some other nonce")

    @pytest.mark.parametrize(
        "payload",
        [b"{}", b'{"nonce":1}', b'{"nonce":"open', b'{"nonce":"a\\u00e9"}'],
        ids=["no-field", "not-a-string", "unterminated", "escape"],
    )
    def test_no_key(self, payload):
        assert wire_key(payload) is None


class TestWireKeyIndex:
    def test_canonical_resubmit_loads_nothing(self):
        oracle, service = _oracle(), _indexed()
        payload = INDEXED.with_nonce("fresh").to_bytes()
        outcome, loaded, decoded = _counted(service, payload)
        assert (loaded, decoded) == (0, 0)
        assert outcome == _outcome(oracle, payload)
        assert outcome[2:] == (INDEXED.body_hash, INDEXED.with_nonce("fresh").nullifier)
        assert service.stats["cache_hits"] == 1
        # The same bytes again are a replay, still without a load.
        assert _counted(service, payload) == (ReplayError, 0, 0)
        assert _outcome(oracle, payload) is ReplayError

    def test_decoy_nonce_is_never_indexed(self):
        canonical = INDEXED.with_nonce("real").to_bytes()
        escaped = _renamed_nonce(canonical, b'"nonc\\u0065":"real"')

        def decoy(value: bytes) -> bytes:
            return b'{"aaa":{"nonce":"%s"},%s' % (value, escaped[1:])

        assert wire_key(decoy(b"x"))[2] == "x"
        oracle, service = _oracle(), _indexed()
        for payload in (decoy(b"x"), decoy(b"y")):
            outcome, loaded, _ = _counted(service, payload)
            assert loaded == 1
            assert outcome == _outcome(oracle, payload)
        # Both decoys carry the nonce "real": the second is a replay.
        assert outcome is ReplayError
        assert service.stats["replays_rejected"] == 1

    def test_decoy_inside_a_canonical_part_is_not_the_key(self):
        """A tagged wrapper may carry extra keys, so a body can be in
        canonical form with an earlier ``"nonce":"`` than its own."""

        def decoy(value: str) -> bytes:
            obj = INDEXED.with_nonce("real").to_obj()
            obj["certificates"][0][1] = {"__pls__": "set", "nonce": value, "v": []}
            return canonical_bytes(obj)

        assert wire_key(decoy("x"))[2] == "x"
        oracle, service = _oracle(), _indexed()
        first = _outcome(service, decoy("x"))
        assert first == _outcome(oracle, decoy("x"))
        assert first[:2] != (True, 0)  # a set is no certificate here
        # The same certificates and nonce under another decoy value.
        assert _counted(service, decoy("y")) == (ReplayError, 1, 1)
        assert _outcome(oracle, decoy("y")) is ReplayError

    @pytest.mark.parametrize(
        "render",
        [
            lambda e: e.with_nonce("a\\b").to_bytes(),
            lambda e: e.with_nonce("caf\u00e9").to_bytes(),
            lambda e: _renamed_nonce(
                e.with_nonce("real").to_bytes(), '"nonce":"caf\u00e9"'.encode()
            ),
            lambda e: json.dumps(e.with_nonce("real").to_obj(), indent=1).encode(),
            lambda e: e.with_nonce("real").to_bytes() + b"\n",
            lambda e: json.dumps(
                dict(reversed(e.with_nonce("real").to_obj().items())),
                separators=(",", ":"),
            ).encode(),
        ],
        ids=["backslash", "escaped-utf8", "raw-utf8", "indent", "newline", "reordered"],
    )
    def test_other_bodies_are_loaded(self, render):
        oracle, service = _oracle(), _indexed()
        payload = render(INDEXED)
        outcome, loaded, decoded = _counted(service, payload)
        assert (loaded, decoded) == (1, 0)
        assert outcome == _outcome(oracle, payload)
        assert outcome[3] == ProofEnvelope.from_bytes(payload).nullifier

    @pytest.mark.parametrize(
        "render",
        [
            lambda e, nonce: e.with_nonce(nonce).to_bytes() + b"\n",
            lambda e, nonce: json.dumps(
                dict(reversed(e.with_nonce(nonce).to_obj().items())),
                separators=(",", ":"),
            ).encode(),
        ],
        ids=["newline", "reordered"],
    )
    def test_non_canonical_bytes_are_not_indexed(self, render):
        service = CertificationService()
        service.submit(render(INDEXED, "first"))
        for nonce in ("second", "third"):
            outcome, loaded, decoded = _counted(service, render(INDEXED, nonce))
            assert (loaded, decoded) == (1, 0)
            assert outcome[3] == INDEXED.with_nonce(nonce).nullifier

    def test_missing_key_is_not_indexed(self):
        marker = build_envelope("leader", n=10, seed=3, honest_certificates=False)
        service = _indexed(marker)

        def render(nonce: str) -> bytes:
            obj = marker.with_nonce(nonce).to_obj()
            del obj["certificates"]  # absent reads as None
            return canonical_bytes(obj)

        for nonce in ("first", "second"):
            outcome, loaded, decoded = _counted(service, render(nonce))
            assert (loaded, decoded) == (1, 0)
            assert outcome[3] == marker.with_nonce(nonce).nullifier

    def test_verdict_evicted_after_the_lookup(self):
        other = build_envelope("leader", n=10, seed=2)
        service = CertificationService(cache_size=1)
        service.submit(INDEXED.to_bytes())

        def admit_then_evict(payload):
            del service._admit  # one shot: back to the method
            admitted = service._admit(payload)
            assert admitted.payload is payload  # answered by the index
            service.submit(other)  # cache_size=1: evicts the verdict
            return admitted

        service._admit = admit_then_evict
        payload = INDEXED.with_nonce("evicted").to_bytes()
        with obs.collect("t") as metrics:
            result = service.submit(payload)
        assert not result.cache_hit
        assert metrics.counter("service.envelope.loaded") == 1
        assert metrics.counter("service.envelope.decoded") == 1
        expected = _oracle().submit(INDEXED.with_nonce("evicted"))
        assert (result.accepted, result.rejections, result.rejecting) == (
            expected.accepted,
            expected.rejections,
            expected.rejecting,
        )
        assert (result.body_hash, result.nullifier) == (
            expected.body_hash,
            expected.nullifier,
        )

    def test_mixed_stream_loads_only_cold_bodies(self):
        """Cold bodies then fresh-nonce resubmits, as HTTP clients send
        them: one JSON load per cold body, none per resubmit."""
        bodies = [
            build_envelope(name, n=10, seed=seed, corrupt=seed % 2)
            for seed, name in enumerate(("spanning-tree-ptr", "bfs-tree", "leader"))
        ]
        service = CertificationService()
        with obs.collect("t") as metrics:
            for index, envelope in enumerate(bodies):
                service.submit(envelope.to_bytes())
                for again, body in enumerate(bodies[: index + 1]):
                    service.submit(body.with_nonce(f"{index}-{again}").to_bytes())
        assert metrics.counter("service.envelope.loaded") == len(bodies)
        assert metrics.counter("service.envelope.decoded") == len(bodies)
        assert service.stats["cache_hits"] == 6

    def test_one_key_per_cached_verdict(self):
        service = CertificationService(cache_size=2)
        for seed in range(5):
            envelope = build_envelope("leader", n=10, seed=seed)
            service.submit(envelope.to_bytes())
            service.submit(envelope.with_nonce("again").to_bytes())
            assert set(service._wire_keys.values()) == set(service._cache)
        assert len(service._wire_keys) == 2


_NONCE_AT = wire_key(INDEXED.to_bytes())[1]


@settings(max_examples=60, deadline=None)
@given(
    nonce=st.text(max_size=6),
    where=st.one_of(
        st.none(),
        st.integers(0, 2_000),
        st.integers(_NONCE_AT - 12, _NONCE_AT + 12),
    ),
    byte=st.integers(0, 255),
)
def test_index_outcome_is_the_oracles(nonce, where, byte):
    """A fresh nonce, then at most one changed byte: the indexed service
    answers exactly as the oracle does, and so does the replay."""
    payload = INDEXED.with_nonce(nonce).to_bytes()
    if where is not None:
        where %= len(payload)
        payload = payload[:where] + bytes([byte]) + payload[where + 1 :]
    oracle, service = _oracle(), _indexed()
    for _ in range(2):
        assert _outcome(service, payload) == _outcome(oracle, payload)
