"""The batched array path must agree with the per-node oracle — always.

The contract (see :mod:`repro.core.batch`): ``scheme.run`` — the one
decision entry point — answers node-for-node identically to the
per-node verifier for *every* certificate assignment however malformed,
whichever backend it picks; inputs the array encoding cannot represent
faithfully fall back to the oracle (``verdict.backend == "views"``)
rather than risk a divergent answer.  These tests pin that contract
registry-wide: every catalog scheme, honest and corrupted and
adversarially junk-filled registers alike.
"""

from __future__ import annotations

import pytest

from repro.core import catalog
from repro.core.batch import supports_batch
from repro.core.verifier import Verdict, decide
from repro.obs import metrics as obs
from repro.util.rng import make_rng, spawn

#: Values an adversary might write into a register: type confusions the
#: int-code interning must keep faithful (1 == True == 1.0), huge ints
#: beyond the int64 columns, and values the encoding must refuse
#: (NaN, unhashables) — those must fall back, never misdecide.
JUNK = (
    None,
    True,
    False,
    0,
    1,
    -1,
    1.0,
    2**70,
    "x",
    (0, None, 0),
    (1, 2),
    frozenset(),
    frozenset({0, 1}),
    float("nan"),
    [0, 1],
)


def _fitted(spec, rng, n=10):
    if spec.kind == "universal":
        n = 8
    graph = spec.sample_graph(n, spawn(rng, 1))
    scheme = spec.build(graph=graph, rng=spawn(rng, 2))
    config = scheme.language.member_configuration(graph, rng=spawn(rng, 3))
    return scheme, config


def _oracle(scheme, config, certs):
    """The per-node dict-path verdict (no batch dispatch)."""
    return decide(scheme.verify, config, certs, scheme.visibility, scheme.radius)


def _assert_same(scheme, config, certs, *, require_batch=False):
    verdict = scheme.run(config, certs)
    if require_batch:
        assert verdict.backend == "array", f"{type(scheme).__name__} fell back"
    oracle = _oracle(scheme, config, certs)
    assert verdict.accepts == oracle.accepts
    assert verdict.rejects == oracle.rejects


@pytest.mark.parametrize("name", catalog.names())
class TestRegistryWideEquivalence:
    def test_honest_certificates(self, name):
        spec = catalog.get(name)
        rng = make_rng(hash((name, "honest")) & 0xFFFFFF)
        scheme, config = _fitted(spec, rng)
        certs = scheme.prove(config)
        # Honest registers never trip the encoding: a batch-capable
        # scheme must actually take the array path here.
        _assert_same(scheme, config, certs, require_batch=supports_batch(scheme))

    def test_corrupted_and_junk_registers(self, name):
        """Property: under random register vandalism, batch verdicts —
        when produced at all — are identical to the oracle's."""
        spec = catalog.get(name)
        rng = make_rng(hash((name, "fuzz")) & 0xFFFFFF)
        scheme, config = _fitted(spec, rng)
        if not supports_batch(scheme):
            pytest.skip("no vectorized decider registered")
        honest = dict(scheme.prove(config))
        n = config.graph.n
        for trial in range(8):
            certs = dict(honest)
            for _ in range(rng.randrange(1, 4)):
                victim = rng.randrange(n)
                if rng.random() < 0.3 and victim in certs:
                    del certs[victim]
                elif rng.random() < 0.5:
                    certs[victim] = rng.choice(JUNK)
                else:
                    # Structure-preserving vandalism: swap two nodes'
                    # certificates (stays well-formed, lands off-tree).
                    other = rng.randrange(n)
                    certs[victim], certs[other] = (
                        certs.get(other),
                        certs.get(victim),
                    )
            _assert_same(scheme, config, certs)

    def test_corrupted_states(self, name):
        spec = catalog.get(name)
        rng = make_rng(hash((name, "states")) & 0xFFFFFF)
        scheme, config = _fitted(spec, rng)
        if not supports_batch(scheme):
            pytest.skip("no vectorized decider registered")
        certs = scheme.prove(config)
        n = config.graph.n
        for trial in range(4):
            states = {v: config.state(v) for v in range(n)}
            for _ in range(rng.randrange(1, 3)):
                states[rng.randrange(n)] = rng.choice(JUNK)
            bad = config.with_labeling(states)
            _assert_same(scheme, bad, certs)

    def test_spec_batch_flag_matches_registry(self, name):
        """``list-schemes``' batch column reports exactly the schemes
        with a registered decider."""
        spec = catalog.get(name)
        rng = make_rng(hash((name, "flag")) & 0xFFFFFF)
        scheme, _config = _fitted(spec, rng)
        assert spec.batch == supports_batch(scheme)


class TestFallbackInputs:
    """Values the encoding must refuse — and refuse loudly, not wrongly."""

    def test_nan_certificate_falls_back_with_identical_verdict(self):
        rng = make_rng(3)
        scheme, config = _fitted(catalog.get("leader"), rng)
        certs = dict(scheme.prove(config))
        certs[0] = (float("nan"), None, 0)
        with obs.collect("t") as metrics:
            verdict = scheme.run(config, certs)
            # The fallback is charged once, and the oracle's own call is
            # the only decide.calls (the batched attempt charged none).
            assert metrics.counter("decide.batch.fallbacks") == 1
            assert metrics.counter("decide.calls") == 1
            assert metrics.counter("decide.batch") == 0
        assert verdict.backend == "views"
        assert verdict.rejects == _oracle(scheme, config, certs).rejects

    def test_huge_int_falls_back(self):
        rng = make_rng(4)
        scheme, config = _fitted(catalog.get("acyclic"), rng)
        certs = dict(scheme.prove(config))
        certs[1] = 2**70
        # An encoding may legitimately handle it; either way the verdict
        # is the oracle's.
        assert scheme.run(config, certs).rejects == _oracle(
            scheme, config, certs
        ).rejects

    def test_prebuilt_views_run_the_per_node_path(self):
        rng = make_rng(5)
        scheme, config = _fitted(catalog.get("spanning-tree-ptr"), rng)
        certs = scheme.prove(config)
        views = scheme.build_views(config, certs)
        with obs.collect("t") as metrics:
            verdict = scheme.run(config, certs, views=views)
            assert metrics.counter("decide.batch") == 0
        assert verdict.backend == "views"
        assert verdict == scheme.run(config, certs)


class TestEntryPointLedger:
    """``scheme.run`` charges the decide counters exactly once per call,
    on whichever backend answered."""

    def test_array_run_charges_the_batch_counters(self):
        rng = make_rng(7)
        scheme, config = _fitted(catalog.get("bfs-tree"), rng)
        certs = dict(scheme.prove(config))
        certs[0] = ("junk", 0)
        with obs.collect("t") as metrics:
            verdict = scheme.run(config, certs)
            counters = {
                name: metrics.counter(name)
                for name in (
                    "decide.calls",
                    "decide.rejections",
                    "decide.batch",
                    "decide.batch.nodes",
                    "decide.batch.fallbacks",
                )
            }
        assert verdict.backend == "array" and verdict.rejects
        assert counters == {
            "decide.calls": 1,
            "decide.rejections": len(verdict.rejects),
            "decide.batch": 1,
            "decide.batch.nodes": config.graph.n,
            "decide.batch.fallbacks": 0,
        }

    def test_unsupported_scheme_runs_the_oracle_without_batch_counters(self):
        rng = make_rng(8)
        scheme, config = _fitted(catalog.get("mst"), rng)
        assert not supports_batch(scheme)
        with obs.collect("t") as metrics:
            verdict = scheme.run(config)
            assert metrics.counter("decide.calls") == 1
            assert metrics.counter("decide.batch") == 0
            assert metrics.counter("decide.batch.fallbacks") == 0
        assert verdict.backend == "views" and verdict.all_accept

    def test_backend_takes_no_part_in_equality(self):
        accepts, rejects = frozenset({0, 2}), frozenset({1})
        array = Verdict(accepts=accepts, rejects=rejects, backend="array")
        views = Verdict(accepts=accepts, rejects=rejects)
        assert views.backend == "views"
        assert array == views
        assert hash(array) == hash(views)


class TestColoringFullEquivalence:
    """The FULL-visibility coloring scheme has no catalog entry, so the
    registry sweep above misses its kernel; pin the same properties
    directly against the class."""

    def _instance(self, seed):
        from repro.graphs.generators import connected_gnp
        from repro.schemes.coloring import ColoringFullScheme

        rng = make_rng(seed)
        scheme = ColoringFullScheme()
        graph = connected_gnp(12, 0.3, rng)
        config = scheme.language.member_configuration(graph, rng=rng)
        return rng, scheme, config

    def test_honest_takes_array_path(self):
        _rng, scheme, config = self._instance(21)
        certs = scheme.prove(config)
        assert supports_batch(scheme)
        _assert_same(scheme, config, certs, require_batch=True)

    def test_corrupted_states_match_oracle(self):
        rng, scheme, config = self._instance(22)
        certs = scheme.prove(config)
        n = config.graph.n
        for _trial in range(8):
            states = {v: config.state(v) for v in range(n)}
            for _ in range(rng.randrange(1, 4)):
                states[rng.randrange(n)] = rng.choice(JUNK)
            _assert_same(scheme, config.with_labeling(states), certs)

    def test_float_state_clashes_like_the_oracle(self):
        # 2.0 == 2: a float neighbor state must collide with an int
        # color, exactly as per-node `!=` sees it.
        _rng, scheme, config = self._instance(23)
        v = next(iter(config.graph.neighbors(0)), None)
        if v is None:
            pytest.skip("node 0 isolated")
        states = {u: config.state(u) for u in config.graph.nodes}
        states[v] = float(states[0])
        _assert_same(scheme, config.with_labeling(states), scheme.prove(config))
