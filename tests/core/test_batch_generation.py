"""The vectorized generation path must agree with the dict oracle — always.

The contract (see :mod:`repro.core.batch_markers`): a marker kernel
consumes the rng stream exactly as the dict ``canonical_labeling`` does
and returns a bit-identical labeling — or raises the very same
exception; a prover kernel returns exactly ``scheme.prove``'s
certificate dict, junk states included.  These tests pin that contract
registry-wide, the same way ``test_batch_equivalence.py`` pins the
decider side.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import catalog
from repro.core.arrays import column_from_values
from repro.core.batch import (
    supports_batch_marker,
    supports_batch_prove,
    try_batch_member_configuration,
    try_batch_prove,
)
from repro.graphs import Graph
from repro.graphs.generators import random_tree
from repro.graphs.weighted import weighted_copy
from repro.util.rng import make_rng, spawn

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
    [0, 1],
)


def _generate_both(language, graph, rng):
    """(dict outcome, batched outcome): each a config or a raised error.

    Both paths start from identical rng clones; afterwards the clones
    must sit at the same stream position (checked by the caller drawing
    one float from each).
    """
    r_dict, r_batch = rng, copy.deepcopy(rng)
    try:
        dict_config = language._dict_member_configuration(graph, None, r_dict)
        dict_outcome = ("ok", dict_config)
    except Exception as error:  # noqa: BLE001 — the exception IS the outcome
        dict_outcome = ("err", error)
    try:
        config = try_batch_member_configuration(language, graph, rng=r_batch)
        if config is None:
            config = language._dict_member_configuration(graph, None, r_batch)
        batch_outcome = ("ok", config)
    except Exception as error:  # noqa: BLE001
        batch_outcome = ("err", error)
    return dict_outcome, batch_outcome, r_dict, r_batch


def _assert_same_outcome(dict_outcome, batch_outcome, r_dict, r_batch):
    assert dict_outcome[0] == batch_outcome[0], (dict_outcome, batch_outcome)
    if dict_outcome[0] == "err":
        assert type(dict_outcome[1]) is type(batch_outcome[1])
        assert str(dict_outcome[1]) == str(batch_outcome[1])
        return None
    dict_config, config = dict_outcome[1], batch_outcome[1]
    n = dict_config.graph.n
    # Bit-identical columns, not just equal dicts: same dtype choices
    # and the same Python types cell by cell.
    reference = column_from_values(map(dict_config.labeling.__getitem__, range(n)), n)
    batched = column_from_values(map(config.labeling.__getitem__, range(n)), n)
    assert reference.dtype == batched.dtype
    assert reference.tolist() == batched.tolist()
    assert list(map(type, reference.tolist())) == list(map(type, batched.tolist()))
    assert dict_config.ids == config.ids
    # Same rng stream position afterwards.
    assert r_dict.random() == r_batch.random()
    return dict_config


def _fitted(spec, rng, n):
    graph = spec.sample_graph(n, spawn(rng, 1))
    scheme = spec.build(graph=graph, rng=spawn(rng, 2))
    return scheme, graph


@pytest.mark.parametrize("name", catalog.names())
class TestRegistryWideGeneration:
    def test_same_seed_same_labeling(self, name):
        spec = catalog.get(name)
        n = 8 if spec.kind == "universal" else 16
        for salt in range(3):
            rng = make_rng(hash((name, "gen", salt)) & 0xFFFFFF)
            scheme, graph = _fitted(spec, rng, n)
            outcome = _generate_both(scheme.language, graph, spawn(rng, 3))
            _assert_same_outcome(*outcome)

    def test_tiny_instances(self, name):
        """n ∈ {0, 1}: the degenerate sizes where dict-path exceptions
        (empty randrange, missing uid) must replicate exactly."""
        spec = catalog.get(name)
        for n in (0, 1):
            rng = make_rng(hash((name, "tiny", n)) & 0xFFFFFF)
            try:
                graph = spec.sample_graph(n, spawn(rng, 1))
                scheme = spec.build(graph=graph, rng=spawn(rng, 2))
            except Exception:
                continue  # the spec itself rejects the size — not ours
            outcome = _generate_both(scheme.language, graph, spawn(rng, 3))
            _assert_same_outcome(*outcome)

    def test_prover_kernel_matches_dict_prover(self, name):
        spec = catalog.get(name)
        n = 8 if spec.kind == "universal" else 16
        rng = make_rng(hash((name, "prove")) & 0xFFFFFF)
        scheme, graph = _fitted(spec, rng, n)
        if not supports_batch_prove(scheme):
            pytest.skip("no vectorized prover registered")
        config = scheme.language.member_configuration(graph, rng=spawn(rng, 3))
        batched = try_batch_prove(scheme, config)
        assert batched is not None, "honest config must take the array path"
        assert dict(batched) == dict(scheme.prove(config))

    def test_prover_kernel_on_junk_states(self, name):
        """Certificates for vandalized configurations — the stale-prover
        inputs detection sessions feed — must match value-for-value, or
        the kernel must decline (never diverge, never crash)."""
        spec = catalog.get(name)
        n = 8 if spec.kind == "universal" else 16
        rng = make_rng(hash((name, "junk")) & 0xFFFFFF)
        scheme, graph = _fitted(spec, rng, n)
        if not supports_batch_prove(scheme):
            pytest.skip("no vectorized prover registered")
        config = scheme.language.member_configuration(graph, rng=spawn(rng, 3))
        fuzz = spawn(rng, 4)
        for _trial in range(8):
            states = {v: config.state(v) for v in range(graph.n)}
            for _ in range(fuzz.randrange(1, 4)):
                states[fuzz.randrange(graph.n)] = fuzz.choice(JUNK)
            bad = config.with_labeling(states)
            try:
                reference = ("ok", scheme.prove(bad))
            except Exception as error:  # noqa: BLE001
                reference = ("err", error)
            batched = try_batch_prove(scheme, bad)
            if batched is None:
                continue
            assert reference[0] == "ok", (
                f"dict prover raised {reference[1]!r} but kernel returned"
            )
            assert dict(batched) == dict(reference[1])

    def test_spec_generate_flag_matches_registry(self, name):
        """``list-schemes``' gen column reports exactly the languages
        with a registered marker kernel."""
        spec = catalog.get(name)
        rng = make_rng(hash((name, "flag")) & 0xFFFFFF)
        scheme, _graph = _fitted(spec, rng, 8)
        assert spec.generate == supports_batch_marker(scheme.language)


class TestAwkwardGraphs:
    """Shapes the samplers rarely produce: isolated nodes, disconnection,
    weights — where dict-path error behavior must replicate exactly."""

    DISCONNECTED = Graph(6, [(0, 1), (1, 2), (3, 4)])  # node 5 isolated

    def _check(self, name, graph, seed):
        spec = catalog.get(name)
        try:
            scheme = spec.build(graph=graph, rng=make_rng(seed))
        except Exception:
            pytest.skip("spec cannot be fitted to this graph")
        outcome = _generate_both(scheme.language, graph, make_rng(seed + 1))
        config = _assert_same_outcome(*outcome)
        if config is not None and supports_batch_prove(scheme):
            batched = try_batch_prove(scheme, config)
            if batched is not None:
                assert dict(batched) == dict(scheme.prove(config))

    @pytest.mark.parametrize("name", catalog.names())
    def test_isolated_node_graph(self, name):
        self._check(name, self.DISCONNECTED, seed=101)

    @pytest.mark.parametrize("name", catalog.names())
    def test_weighted_graph(self, name):
        graph = weighted_copy(random_tree(12, make_rng(7)), make_rng(8))
        self._check(name, graph, seed=202)

    def test_isolated_everything(self):
        graph = Graph(4, [])
        for name in ("leader", "independent-set", "dominating-set", "acyclic"):
            self._check(name, graph, seed=303)


class TestLargeInstanceDeterminism:
    """n = 10⁴ on the fast-path schemes: the sizes where a subtly wrong
    frontier order would first show up."""

    @pytest.mark.parametrize(
        "name", ["spanning-tree-ptr", "bfs-tree", "leader", "spanning-tree-list"]
    )
    def test_tree_10k(self, name):
        spec = catalog.get(name)
        rng = make_rng(hash((name, "10k")) & 0xFFFFFF)
        graph = random_tree(10_000, spawn(rng, 1))
        scheme = spec.build(graph=graph, rng=spawn(rng, 2))
        outcome = _generate_both(scheme.language, graph, spawn(rng, 3))
        config = _assert_same_outcome(*outcome)
        certs = try_batch_prove(scheme, config)
        assert certs is not None
        assert dict(certs) == dict(scheme.prove(config))


class TestBackendSelection:
    def test_views_backend_forces_dict_path(self):
        from repro.obs import metrics

        spec = catalog.get("leader")
        rng = make_rng(5)
        graph = spec.sample_graph(12, spawn(rng, 1))
        language = spec.build(graph=graph, rng=spawn(rng, 2)).language
        with metrics.collect("t") as collected:
            config = language._dict_member_configuration(
                graph, None, spawn(rng, 3)
            )
        assert collected.counter("generate.batch") == 0
        assert config.labeling.arrays is None

    def test_array_backend_requires_a_kernel(self):
        spec = catalog.get("mst")  # no marker kernel registered
        rng = make_rng(6)
        graph = spec.sample_graph(10, spawn(rng, 1))
        scheme = spec.build(graph=graph, rng=spawn(rng, 2))
        assert not supports_batch_marker(scheme.language)
        assert (
            try_batch_member_configuration(
                scheme.language, graph, rng=spawn(rng, 3)
            )
            is None
        )

    def test_auto_backend_takes_the_array_path(self):
        from repro.obs import metrics

        spec = catalog.get("spanning-tree-ptr")
        rng = make_rng(8)
        graph = spec.sample_graph(16, spawn(rng, 1))
        language = spec.build(graph=graph, rng=spawn(rng, 2)).language
        with metrics.collect("t") as collected:
            language.member_configuration(graph, rng=spawn(rng, 3))
        assert collected.counter("generate.batch") == 1
