"""The certification service serves exactly the in-process verdicts.

The headline property is registry-wide: for every catalog scheme, a
served verdict (through envelope serialization, parsing, deterministic
rebuild, and ``scheme.run``) equals the per-node oracle ``decide()``
verdict node-for-node — honest and corrupted labelings alike.  Around
it: cache semantics, replay rejection, refusals that stand alone, and
parameter validation.
"""

from __future__ import annotations

import pytest

from repro.core import catalog
from repro.core.labeling import Configuration
from repro.core.verifier import decide
from repro.errors import ReplayError, ServiceError
from repro.graphs.generators import random_tree
from repro.obs import metrics as obs
from repro.service import (
    CertificationResult,
    CertificationService,
    ProofEnvelope,
    build_envelope,
)
from repro.service.server import _rng_seed
from repro.util.rng import make_rng


def _in_process_verdict(envelope: ProofEnvelope):
    """The per-node oracle's verdict, without the service in the loop."""
    spec = catalog.get(envelope.scheme)
    scheme = spec.build(
        graph=envelope.graph,
        rng=make_rng(_rng_seed(envelope.body_hash)),
        **spec.resolve_params(envelope.params),
    )
    config = Configuration.build(envelope.graph, envelope.labeling)
    certificates = envelope.certificates
    if certificates is None:
        certificates = scheme.prove(config)
    return decide(
        scheme.verify, config, certificates, scheme.visibility, scheme.radius
    )


@pytest.mark.parametrize("name", catalog.names())
class TestServedVerdictEquivalence:
    """Wire round trip + service pipeline == in-process decide()."""

    def test_honest_accepted(self, name):
        service = CertificationService()
        envelope = build_envelope(name, n=12, seed=5)
        wire = ProofEnvelope.from_bytes(envelope.to_bytes())
        result = service.submit(wire)
        verdict = _in_process_verdict(envelope)
        assert result.accepted
        assert verdict.all_accept
        assert result.rejections == len(verdict.rejects) == 0
        # Honest registers never trip the encoding: the served verdict
        # comes from the batched decider exactly when one is registered.
        assert (result.backend == "array") == catalog.get(name).batch

    def test_corrupted_verdicts_match(self, name):
        service = CertificationService()
        # Stale certificates over corrupted states: the configuration
        # the detection campaigns study.  Served and in-process verdicts
        # must agree node-for-node, accepted or not.
        envelope = build_envelope(name, n=12, seed=7, corrupt=3)
        result = service.submit(ProofEnvelope.from_bytes(envelope.to_bytes()))
        verdict = _in_process_verdict(envelope)
        assert result.accepted == verdict.all_accept
        assert result.rejections == len(verdict.rejects)
        assert list(result.rejecting) == sorted(verdict.rejects)[
            : len(result.rejecting)
        ]


class TestBatchedRebuild:
    """The envelope build path runs the vectorized marker — and the
    bytes it serves are identical to the dict oracle's."""

    @pytest.mark.parametrize(
        "name", ["spanning-tree-ptr", "bfs-tree", "leader", "spanning-tree-list"]
    )
    def test_envelope_bytes_independent_of_marker_backend(self, name, monkeypatch):
        with obs.collect("t") as collected:
            batched = build_envelope(name, n=32, seed=9)
        assert collected.counter("generate.batch") == 1, (
            "build_envelope must route through the batched marker"
        )
        # Disable the kernel registry and rebuild: same seed, same bytes.
        from repro.core import batch

        monkeypatch.setattr(batch, "_MARKERS", {})
        with obs.collect("t") as collected:
            reference = build_envelope(name, n=32, seed=9)
        assert collected.counter("generate.batch") == 0
        assert batched.to_bytes() == reference.to_bytes()

    def test_served_equals_in_process_on_batched_marker(self):
        service = CertificationService()
        envelope = build_envelope("spanning-tree-ptr", n=64, seed=11)
        result = service.submit(ProofEnvelope.from_bytes(envelope.to_bytes()))
        verdict = _in_process_verdict(envelope)
        assert result.accepted and verdict.all_accept


@pytest.mark.parametrize("name", ["spanning-tree-ptr", "bfs-tree", "leader"])
def test_in_process_cold_submit_decides_on_columns(name):
    """An envelope carrying the prover's certificate columns is decided
    on them: the service's configuration has an id column like the
    library's, so nothing is interned or materialized."""
    with obs.collect("t") as metrics:
        envelope = build_envelope(name, n=1000, graph=random_tree(1000))
        result = CertificationService().submit(envelope)
    assert metrics.counter("decide.batch.interned") == 0
    assert metrics.counter("columns.materialized") == 0
    spec = catalog.get(name)
    scheme = spec.build(
        graph=envelope.graph, rng=make_rng(_rng_seed(envelope.body_hash))
    )
    config = Configuration.build(envelope.graph, envelope.labeling)
    verdict = scheme.run(config, envelope.certificates)
    assert result.accepted and verdict.all_accept
    assert result.rejections == verdict.reject_count == 0
    assert result.backend == verdict.backend == "array"


class TestCacheSemantics:
    def test_fresh_nonce_hits_cache(self):
        service = CertificationService()
        envelope = build_envelope("spanning-tree-ptr", n=24, seed=1)
        with obs.collect("t") as metrics:
            cold = service.submit(envelope)
            hot = service.submit(envelope.with_nonce("fresh"))
        assert not cold.cache_hit and hot.cache_hit
        assert hot.accepted == cold.accepted
        assert hot.body_hash == cold.body_hash
        assert hot.nullifier != cold.nullifier
        assert metrics.counter("service.cache.hit") == 1
        assert metrics.counter("service.cache.miss") == 1
        # The hit ran no decider at all.
        assert hot.timings == {}

    def test_lru_evicts_oldest(self):
        service = CertificationService(cache_size=2)
        # Distinct sizes, not seeds: bipartite's grid sampler is
        # seed-independent, so only n changes the body hash.
        envelopes = [
            build_envelope("bipartite", n=n, seed=0) for n in (6, 8, 12)
        ]
        for envelope in envelopes:
            service.submit(envelope)
        assert not service.cached(envelopes[0].body_hash)
        assert service.cached(envelopes[2].body_hash)

    def test_replay_rejected_and_counted(self):
        service = CertificationService()
        envelope = build_envelope("bipartite", n=8, seed=2)
        service.submit(envelope)
        with obs.collect("t") as metrics:
            with pytest.raises(ReplayError):
                service.submit(envelope)
        assert metrics.counter("service.nullifier.rejected") == 1
        assert service.stats["replays_rejected"] == 1


class TestSubmitSequence:
    """One service, several submits in a row: a refused body stands
    alone, and its neighbours are decided as if it were not there."""

    def test_malformed_certificate_settles_alone(self):
        """A certificate payload that is not a canonical encoding is
        refused; the envelopes around it still get verdicts."""
        service = CertificationService()
        good = [
            build_envelope("bipartite", n=8, seed=seed) for seed in (3, 4)
        ]
        bad = build_envelope("bipartite", n=8, seed=5).to_obj()
        bad["certificates"][0][1] = {"__pls__": "set", "v": [{"__pls__": "list", "v": [1]}]}
        first = service.submit(good[0])
        with pytest.raises(ServiceError, match="malformed set encoding"):
            service.submit(bad)
        second = service.submit(good[1])
        for result, envelope in zip((first, second), good):
            assert result.accepted == _in_process_verdict(envelope).all_accept

    def test_repeated_body_is_decoded_once(self):
        service = CertificationService()
        envelope = build_envelope("spanning-tree-ptr", n=16, seed=7)
        a = envelope.with_nonce("a").to_bytes()
        b = envelope.with_nonce("b").to_bytes()
        with obs.collect("t") as metrics:
            results = [service.submit(a), service.submit(b)]
        assert metrics.counter("service.envelope.decoded") == 1
        assert not results[0].cache_hit and results[1].cache_hit

    def test_refused_bodies_balance_the_stats(self):
        service = CertificationService()
        good = build_envelope("bipartite", n=8, seed=6).to_bytes()
        with obs.collect("t") as metrics:
            with pytest.raises(ServiceError):
                service.submit(b"not json")
            service.submit(good)
            with pytest.raises(ServiceError):
                service.submit({"format": "x"})
        assert service.stats == {
            "submitted": 3,
            "cache_hits": 0,
            "cache_misses": 1,
            "replays_rejected": 0,
            "refused": 2,
        }
        assert metrics.counter("service.refused") == 2


class TestValidation:
    def test_unknown_scheme_rejected(self):
        service = CertificationService()
        envelope = build_envelope("bipartite", n=8, seed=3)
        obj = envelope.to_obj()
        obj["scheme"] = "no-such-scheme"
        with pytest.raises(ServiceError, match="unknown scheme"):
            service.submit(obj)

    def test_invalid_param_rejected(self):
        from repro.util.canonical import encode_value

        service = CertificationService()
        envelope = build_envelope("approx-tree-weight", n=10, seed=3)
        obj = envelope.to_obj()
        obj["params"] = encode_value({"eps": -1.0})
        with pytest.raises(ServiceError, match="eps"):
            service.submit(obj)

    def test_unknown_param_rejected(self):
        from repro.util.canonical import encode_value

        service = CertificationService()
        envelope = build_envelope("bipartite", n=8, seed=4)
        obj = envelope.to_obj()
        obj["params"] = encode_value({"bogus": 1})
        with pytest.raises(ServiceError, match="bogus"):
            service.submit(obj)
        # Refused at validate, after the cache lookup: a miss.
        assert service.stats["cache_misses"] == 1
        assert service.stats["refused"] == 0

    def test_labeling_graph_mismatch_rejected(self):
        service = CertificationService()
        a = build_envelope("bipartite", n=8, seed=5)
        b = build_envelope("bipartite", n=12, seed=5)
        obj = a.to_obj()
        obj["labeling"] = b.to_obj()["labeling"]
        with pytest.raises(ServiceError):
            service.submit(obj)

    def test_deterministic_results(self):
        # Same envelope content, two fresh services: identical verdicts
        # (the build rng is seeded from the body hash).
        envelope = build_envelope("leader", n=14, seed=6, corrupt=2)
        first = CertificationService().submit(envelope)
        second = CertificationService().submit(envelope)
        assert first.to_obj()["rejecting"] == second.to_obj()["rejecting"]
        assert first.body_hash == second.body_hash


class TestResultWireForm:
    def test_round_trip(self):
        result = CertificationService().submit(
            build_envelope("spanning-tree-ptr", n=16, seed=8, corrupt=2)
        )
        back = CertificationResult.from_obj(result.to_obj())
        assert back.accepted == result.accepted
        assert back.rejecting == result.rejecting
        assert back.body_hash == result.body_hash
