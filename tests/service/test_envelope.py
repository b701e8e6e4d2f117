"""Canonical serialization: exact round trips, stable bytes, anti-replay.

The service's trust chain starts here: equal objects must serialize to
equal bytes (hashes are only meaningful if so), and every byte form must
parse back to an equal object (verdicts served on parsed envelopes are
only meaningful if so).  These are property tests over generated graph
and value zoos, not example checks.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.arrays import CertificateColumns
from repro.core.labeling import Labeling
from repro.errors import CanonicalError, EnvelopeError, ReplayError
from repro.graphs.generators import (
    connected_gnp,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.serialize import graph_from_obj, graph_hash, graph_to_obj
from repro.graphs.weighted import weighted_copy
from repro.service.envelope import NullifierRegistry, ProofEnvelope
from repro.service.server import build_envelope
from repro.util.canonical import (
    canonical_bytes,
    decode_value,
    domain_hash,
    encode_value,
)
from repro.util.rng import make_rng

# ---------------------------------------------------------------------------
# Value codec.
# ---------------------------------------------------------------------------

#: Certificate/state shapes that appear across the catalog: ints, None,
#: tuples (pointer certs), frozensets (universal scheme's edge masks),
#: big ints (universal bitmasks), dicts, bytes, nested mixes.
VALUES = [
    None,
    True,
    False,
    0,
    1,
    -7,
    2**70,
    1.5,
    -0.0,
    "x",
    "",
    (),
    (1, 2),
    (0, None, ("nested", 3)),
    [1, 2, [3]],
    frozenset(),
    frozenset({1, 2, 3}),
    frozenset({(1, 2), (3, 4)}),
    {"a": 1, "b": (2, 3)},
    {1: "int-key", (2, 3): "tuple-key"},
    b"\x00\xffbytes",
    {"__pls__": "looks-like-a-tag"},
]


class TestValueCodec:
    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_round_trip_exact(self, value):
        decoded = decode_value(encode_value(value))
        assert type(decoded) is type(value)
        assert decoded == value

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_bytes_survive_json(self, value):
        payload = canonical_bytes(encode_value(value))
        assert decode_value(json.loads(payload)) == value

    def test_bool_int_distinct(self):
        # 1 == True, but the codec must keep the types apart.
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_unordered_containers_deterministic(self):
        a = canonical_bytes(encode_value(frozenset({3, 1, 2})))
        b = canonical_bytes(encode_value(frozenset({2, 3, 1})))
        assert a == b
        c = canonical_bytes(encode_value({"b": 1, "a": 2}))
        d = canonical_bytes(encode_value({"a": 2, "b": 1}))
        assert c == d

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), object(), {"k": float("nan")}],
        ids=["nan", "inf", "object", "nested-nan"],
    )
    def test_unrepresentable_rejected(self, value):
        with pytest.raises(CanonicalError):
            canonical_bytes(encode_value(value))

    @pytest.mark.parametrize(
        "obj",
        [
            {"__pls__": "set", "v": [{"__pls__": "list", "v": [1]}]},
            {"__pls__": "dict", "v": [1]},
            {"__pls__": "bytes", "v": "zz"},
            {"__pls__": "list", "v": 5},
            {"__pls__": "fset", "v": None},
        ],
        ids=["set-of-list", "dict-non-pair", "bad-hex", "list-int", "fset-none"],
    )
    def test_malformed_encodings_raise_canonical_error(self, obj):
        with pytest.raises(CanonicalError):
            decode_value(obj)

    def test_domain_separation(self):
        assert domain_hash("A", b"x") != domain_hash("B", b"x")
        # Domain/payload boundary cannot be shifted.
        assert domain_hash("AB", b"x") != domain_hash("A", b"Bx")


# ---------------------------------------------------------------------------
# Graph serialization.
# ---------------------------------------------------------------------------


def _graph_zoo():
    rng = make_rng(0xA11CE)
    isolated = Graph(5, [(0, 1), (2, 3)])  # node 4 isolated
    return {
        "empty": Graph(0),
        "single": Graph(1),
        "edgeless": Graph(4),
        "path": path_graph(6),
        "cycle": cycle_graph(5),
        "grid": grid_graph(3, 3),
        "star": star_graph(7),
        "tree": random_tree(12, rng),
        "gnp": connected_gnp(14, 0.3, rng),
        "isolated": isolated,
        "weighted": weighted_copy(connected_gnp(10, 0.35, rng), rng),
        "weighted-tree": weighted_copy(random_tree(9, rng), rng),
    }


GRAPHS = _graph_zoo()


class TestGraphSerialization:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_round_trip(self, name):
        graph = GRAPHS[name]
        back = graph_from_obj(graph_to_obj(graph))
        assert back.n == graph.n
        assert back.edges() == graph.edges()
        assert back.is_weighted == graph.is_weighted
        if graph.is_weighted:
            assert back.weights() == graph.weights()

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_hash_stable_and_discriminating(self, name):
        graph = GRAPHS[name]
        h = graph_hash(graph)
        assert h == graph_hash(graph_from_obj(graph_to_obj(graph)))
        others = {graph_hash(g) for k, g in GRAPHS.items() if k != name}
        assert h not in others

    def test_weights_change_hash(self):
        rng = make_rng(7)
        base = cycle_graph(6)
        assert graph_hash(base) != graph_hash(weighted_copy(base, rng))

    def test_golden_hashes(self):
        # Literal digests: cache keys must not move when the graph's
        # storage or the codec's internals change.
        tree = random_tree(50, make_rng(1))
        golden = {
            "cycle": (
                cycle_graph(6),
                "8aaa7dbf0d3588c10cf349d8205278a516d2c5f3def474469a72e9158e791d25",
            ),
            "tree": (
                tree,
                "9705a29ee4c5cc82b506ad148de2f4849484fff3e370a0f929636f0adf834fc1",
            ),
            "int-weighted": (
                weighted_copy(tree, make_rng(2), distinct=False),
                "025b8bc3f64fcbe8be7b0d933e2b1566ea89daf217a635c487295c00c1f765e9",
            ),
            "float-weighted": (
                tree.with_weights(lambda u, v: u / 4 + v / 8),
                "589a4806e273206a93dd9547ac3381bed266398f14625dac1799cc8334225aa7",
            ),
        }
        for name, (graph, digest) in golden.items():
            assert graph_hash(graph) == digest, name
        envelope = build_envelope("leader", n=32, seed=0)
        assert envelope.body_hash == (
            "f86ddbf3f57f525962df58d6df217782deb3f14b39f669d03da99f7d5f7164b8"
        )

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            [],
            {"format": "pls-graph/v0", "n": 1, "edges": [], "weights": None},
            {"format": "pls-graph/v1", "n": -1, "edges": [], "weights": None},
            {"format": "pls-graph/v1", "n": True, "edges": [], "weights": None},
            {"format": "pls-graph/v1", "n": 2, "edges": [[0]], "weights": None},
            {"format": "pls-graph/v1", "n": 2, "edges": [[0, 2]], "weights": None},
            {
                "format": "pls-graph/v1",
                "n": 2,
                "edges": [[0, 1]],
                "weights": [1.0, 2.0],
            },
        ],
        ids=["none", "list", "format", "neg-n", "bool-n", "arity", "range",
             "weights-misaligned"],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(CanonicalError):
            graph_from_obj(obj)


# ---------------------------------------------------------------------------
# Labeling serialization.
# ---------------------------------------------------------------------------


class TestLabelingSerialization:
    def test_round_trip_mixed_states(self):
        labeling = Labeling(
            {0: None, 1: 3, 2: (0, 5), 3: frozenset({1, 2}), 4: "s"}
        )
        back = Labeling.from_obj(labeling.to_obj())
        assert back == labeling
        assert canonical_bytes(back.to_obj()) == canonical_bytes(
            labeling.to_obj()
        )

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(CanonicalError):
            Labeling.from_obj([[0, None], [0, None]])

    def test_tuples_accepted(self):
        back = Labeling.from_obj(((0, 1), (1, {"__pls__": "fset", "v": [2]})))
        assert back == Labeling({0: 1, 1: frozenset({2})})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"0": 1}, "expected a list of [node, value] pairs, got dict"),
            ([[0, 1], [True, 2], [1]], "malformed [node, value] entry [True, 2]"),
            ([[0, 1], [1, 2, 3]], "malformed [node, value] entry [1, 2, 3]"),
            ([[0, 1], 5], "malformed [node, value] entry 5"),
            ([[0, 1], [1, 2], [0, 3], [0]], "duplicate entry for node 0"),
            (
                [[0, {"__pls__": "fset", "v": [1]}], [0, 3]],
                "duplicate entry for node 0",
            ),
        ],
        ids=[
            "not-a-list",
            "bool-node",
            "three",
            "scalar",
            "duplicate",
            "duplicate-mixed",
        ],
    )
    def test_first_bad_entry_named(self, obj, message):
        with pytest.raises(CanonicalError) as error:
            Labeling.from_obj(obj)
        assert str(error.value) == message
        with pytest.raises(EnvelopeError, match=re.escape(message)):
            ProofEnvelope.from_obj({**_envelope().to_obj(), "certificates": obj})


# ---------------------------------------------------------------------------
# Envelopes.
# ---------------------------------------------------------------------------


def _envelope(nonce="n0", certificates=None, graph=None):
    graph = graph or GRAPHS["grid"]
    labeling = Labeling.uniform(graph.nodes, None)
    return ProofEnvelope(
        scheme="bipartite",
        params={},
        graph=graph,
        labeling=labeling,
        certificates=certificates,
        nonce=nonce,
    )


class TestProofEnvelope:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_round_trip_every_graph(self, name):
        graph = GRAPHS[name]
        env = ProofEnvelope(
            scheme="s",
            params={"eps": 0.5},
            graph=graph,
            labeling=Labeling({v: (v, None) for v in graph.nodes}),
            certificates={v: v % 3 for v in graph.nodes},
            nonce="abc",
        )
        back = ProofEnvelope.from_bytes(env.to_bytes())
        assert back == env
        assert back.to_bytes() == env.to_bytes()
        assert back.body_hash == env.body_hash
        assert back.nullifier == env.nullifier

    @pytest.mark.parametrize("name", ["spanning-tree-ptr", "bfs-tree", "leader"])
    def test_tree_envelopes_carry_the_prover_columns(self, name):
        """Honest tree certificates travel as the prover returned them;
        the wire form and its decoded dict are the same envelope."""
        env = build_envelope(name, n=24, seed=3)
        assert isinstance(env.certificates, CertificateColumns)
        back = ProofEnvelope.from_bytes(env.to_bytes())
        assert back == env
        assert isinstance(back.certificates, dict)
        assert back.body_hash == env.body_hash

    def test_body_hash_ignores_nonce(self):
        a, b = _envelope("n1"), _envelope("n2")
        assert a.body_hash == b.body_hash
        assert a.nullifier != b.nullifier

    def test_body_hash_covers_certificates(self):
        graph = GRAPHS["grid"]
        honest = _envelope(certificates={v: 0 for v in graph.nodes})
        marker = _envelope(certificates=None)
        other = _envelope(certificates={v: 1 for v in graph.nodes})
        assert len({honest.body_hash, marker.body_hash, other.body_hash}) == 3

    def test_with_nonce_shares_part_hashes(self):
        env = _envelope("n1")
        _ = env.body_hash
        fresh = env.with_nonce("n2")
        assert fresh._hashes is env._hashes
        assert fresh.body_hash == env.body_hash

    def test_tampered_graph_binding_rejected(self):
        obj = _envelope().to_obj()
        obj["graph"]["edges"] = obj["graph"]["edges"][:-1]
        with pytest.raises(EnvelopeError):
            ProofEnvelope.from_obj(obj)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(format="pls-envelope/v0"),
            lambda o: o.update(scheme=7),
            lambda o: o.update(nonce=3),
            lambda o: o.update(params=[1, 2]),
            lambda o: o.update(labeling={"0": 1}),
            lambda o: o.update(certificates={"0": 1}),
        ],
        ids=["format", "scheme", "nonce", "params", "labeling", "certs"],
    )
    def test_malformed_sections_rejected(self, mutate):
        obj = _envelope(
            certificates={v: 0 for v in GRAPHS["grid"].nodes}
        ).to_obj()
        mutate(obj)
        with pytest.raises(EnvelopeError):
            ProofEnvelope.from_obj(obj)

    def test_not_json_rejected(self):
        with pytest.raises(EnvelopeError):
            ProofEnvelope.from_bytes(b"\xff not json")


class TestNullifierRegistry:
    def test_replay_rejected(self):
        registry = NullifierRegistry()
        env = _envelope("n1")
        registry.spend(env.nullifier)
        with pytest.raises(ReplayError):
            registry.spend(env.nullifier)
        # A fresh nonce is a different nullifier: spendable.
        registry.spend(env.with_nonce("n2").nullifier)

    def test_capacity_bounds_window(self):
        registry = NullifierRegistry(capacity=3)
        for i in range(5):
            registry.spend(f"null-{i}")
        assert len(registry) == 3
        assert not registry.seen("null-0")  # aged out of the window
        assert registry.seen("null-4")
        registry.spend("null-0")  # and therefore spendable again
