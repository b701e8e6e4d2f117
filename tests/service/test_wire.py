"""Wire bodies: part hashes from the loaded JSON, decodes only on a miss.

:class:`~repro.service.envelope.WireBody` hashes a body's raw parts
without decoding them.  These tests pin what makes that sound: the raw
body hash of every canonical body equals the decoded one, a
non-canonical body is served exactly like its canonical twin, a
resubmitted body is served from the cache with no decode at all, and
the replay and graph-hash checks hold on both paths.
"""

from __future__ import annotations

import json

import pytest

from repro.core import catalog
from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.graph import Graph
from repro.graphs.serialize import graph_from_obj, graph_to_obj, parse_graph_obj
from repro.obs import metrics as obs
from repro.service import CertificationService, ProofEnvelope, build_envelope
from repro.service import envelope as envelope_module
from repro.service.envelope import WireBody
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
