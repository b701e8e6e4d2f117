"""The column path must agree with the dict path — always.

Marker kernels hand their state column to a column-backed
:class:`~repro.core.labeling.Configuration`, the tree provers
(``spanning-tree-ptr``, ``bfs-tree``, ``leader``) return
:class:`~repro.core.arrays.CertificateColumns`, and the deciders read
both without interning.  These tests pin that every view of those
columns — the materialized dicts, the verdicts, equality, hashing and
pickling — is exactly what the dict path produces, over the same
families and sizes ``test_batch_generation.py`` uses.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import catalog
from repro.core.arrays import ArrayLabeling, CertificateColumns
from repro.core.batch import batch_prove, try_batch_prove
from repro.core.labeling import Labeling
from repro.core.verifier import Verdict, decide
from repro.graphs import Graph
from repro.graphs.generators import random_tree
from repro.graphs.weighted import weighted_copy
from repro.obs import metrics as obs
from repro.util.idspace import permuted_ids, random_ids
from repro.util.rng import make_rng, spawn

TREE_SCHEMES = ("spanning-tree-ptr", "bfs-tree", "leader")


def _oracle(scheme, config, certificates):
    return decide(
        scheme.verify, config, certificates, scheme.visibility, scheme.radius
    )


def _instance(name, graph, seed, ids=None):
    """``(scheme, config, certificates)`` off the batched marker/prover."""
    rng = make_rng(seed)
    scheme = catalog.get(name).build(graph=graph, rng=spawn(rng, 1))
    config = scheme.language.member_configuration(graph, ids=ids, rng=spawn(rng, 2))
    certificates = try_batch_prove(scheme, config)
    assert isinstance(certificates, CertificateColumns)
    return scheme, config, certificates


def _graphs(name):
    """The generation suite's families: the spec's sampler at n = 16,
    tiny paths, a disconnected graph with an isolated node, a weighted
    tree, and a random tree at n = 10⁴."""
    yield "sampled-16", catalog.get(name).sample_graph(16, make_rng(11))
    yield "path-1", Graph(1, [])
    yield "path-2", Graph(2, [(0, 1)])
    yield "weighted-12", weighted_copy(random_tree(12, make_rng(7)), make_rng(8))
    yield "tree-10k", random_tree(10_000, make_rng(12))
    if name == "leader":  # the tree languages have no member here
        yield "disconnected", Graph(6, [(0, 1), (1, 2), (3, 4)])


def _assert_run_matches(scheme, config, certificates):
    verdict = scheme.run(config, certificates)
    assert verdict.backend == "array"
    as_dict = scheme.run(config, dict(certificates))
    oracle = _oracle(scheme, config, dict(certificates))
    assert verdict == as_dict == oracle
    assert verdict.reject_count == len(oracle.rejects)
    assert verdict.all_accept == oracle.all_accept
    return verdict


@pytest.mark.parametrize("name", TREE_SCHEMES)
class TestCertificateColumns:
    def test_materialized_columns_equal_prove(self, name):
        for label, graph in _graphs(name):
            scheme, config, certificates = _instance(name, graph, seed=len(label))
            assert len(certificates) == graph.n
            assert list(certificates) == list(range(graph.n))
            assert dict(certificates) == scheme.prove(config), label
            assert certificates == scheme.prove(config)

    def test_run_equals_dict_run_and_oracle(self, name):
        for label, graph in _graphs(name):
            scheme, config, certificates = _instance(name, graph, seed=len(label))
            verdict = _assert_run_matches(scheme, config, certificates)
            assert verdict.all_accept == (label != "disconnected"), label

    def test_perturbed_columns_match_the_oracle(self, name):
        """Well-typed but wrong int64 certificates (bad roots, parents,
        negative or off-by-k distances) still decode raw, and decide as
        the per-node oracle does."""
        graph = random_tree(50, make_rng(61))
        scheme, config, certificates = _instance(name, graph, seed=7)
        arrays, rng = certificates.arrays, np.random.default_rng(62)
        for _trial in range(8):
            fields = {f: arrays.column(f).copy() for f in arrays.fields}
            for column in fields.values():
                victims = rng.choice(graph.n, size=3, replace=False)
                column[victims] = rng.integers(-2, graph.n + 2, size=3)
            junk = CertificateColumns(ArrayLabeling(graph.n, fields))
            verdict = scheme.run(config, junk)
            assert verdict.backend == "array"
            assert verdict == _oracle(scheme, config, dict(junk))

    def test_under_corrupted_states(self, name):
        graph = random_tree(60, make_rng(21))
        scheme, config, certificates = _instance(name, graph, seed=3)
        rng = make_rng(4)
        for _trial in range(6):
            bad = scheme.language.corrupted_configuration(
                graph, rng.randrange(1, 5), rng=spawn(rng, _trial)
            )
            stale = config.with_labeling(bad.labeling)
            assert stale.id_column is config.id_column
            verdict = _assert_run_matches(scheme, stale, certificates)
            assert verdict.rejects, "a corrupted register must be caught"

    @pytest.mark.parametrize(
        "policy", ["permuted", "random", "past-62-bits"], ids=str
    )
    def test_under_other_ids(self, name, policy):
        graph = random_tree(40, make_rng(31))
        nodes = list(graph.nodes)
        ids = {
            "permuted": lambda: permuted_ids(nodes, make_rng(32)),
            "random": lambda: random_ids(nodes, 10**9, make_rng(33)),
            "past-62-bits": lambda: {v: 2**62 + 7 * v + 1 for v in nodes},
        }[policy]()
        scheme, config, certificates = _instance(name, graph, seed=5, ids=ids)
        assert config.ids == ids
        assert dict(certificates) == scheme.prove(config)
        assert _assert_run_matches(scheme, config, certificates).all_accept
        # A certificate naming someone else's uid as root is still caught.
        swapped = dict(certificates)
        swapped[0] = (ids[1],) + swapped[0][1:]
        assert scheme.run(config, swapped) == _oracle(scheme, config, swapped)


@pytest.mark.parametrize("name", ("spanning-tree-ptr", "bfs-tree"))
class TestDistanceHandOff:
    """The pointer marker leaves its BFS distances on the CSR for one
    prover; whichever config comes next, the provers equal the dict
    prover, and only the marker's own root reuses the distances."""

    def _prove(self, scheme, config):
        with obs.collect("t") as metrics:
            certificates = batch_prove(scheme, config)
        assert dict(certificates) == scheme.prove(config)
        return metrics.counter("traversal.sweeps")

    def test_provers_equal_the_dict_prover(self, name):
        graph = random_tree(3_000, make_rng(71))
        csr = graph.csr()
        scheme = catalog.get(name).build(graph=graph, rng=make_rng(72))
        language = scheme.language
        first = language.member_configuration(graph, rng=make_rng(73))
        assert len(csr.dist_handoff) == 1
        assert self._prove(scheme, first) == 0  # the marker's distances
        assert not csr.dist_handoff
        assert self._prove(scheme, first) == 1  # consumed: traverse again
        # Another root on the same graph replaces the entry; the first
        # config's root misses it and the slot is emptied.
        other = language.member_configuration(graph, rng=make_rng(74))
        assert dict(first.labeling) != dict(other.labeling)
        assert self._prove(scheme, first) == 1
        assert self._prove(scheme, other) == 1
        for seed in range(6):
            bad = language.corrupted_configuration(
                graph, seed + 1, rng=make_rng(80 + seed)
            )
            assert len(csr.dist_handoff) == 1
            sweeps = self._prove(scheme, bad)
            assert not csr.dist_handoff
            if name == "spanning-tree-ptr":
                # On a tree every changed pointer breaks the check.
                assert sweeps == 1


@pytest.mark.parametrize("name", TREE_SCHEMES)
def test_oriented_tree_and_its_tuple_built_twin_agree(name):
    """The marker and provers traverse a ``random_tree`` by its kept
    orientation and a tuple-built copy by frontier sweeps; configs,
    certificates and verdicts are the same, honest or corrupted."""
    graph = random_tree(2_000, make_rng(61))
    twin = Graph(graph.n, graph.edges())
    assert graph.csr().orientation is not None and twin.csr().orientation is None
    seen = []
    for g in (graph, twin):
        scheme, config, certificates = _instance(name, g, seed=62)
        outcome = [dict(config.labeling), dict(certificates)]
        outcome.append(scheme.run(config, certificates))
        for seed in (1, 3):
            bad = scheme.language.corrupted_configuration(g, seed, rng=make_rng(seed))
            reproved = batch_prove(scheme, bad)
            outcome += [dict(reproved), scheme.run(bad, reproved)]
            outcome.append(scheme.run(bad, certificates).rejects)
        seen.append(outcome)
    assert seen[0] == seen[1]
    assert seen[0][2].all_accept and seen[0][5]


#: Bytes per node a tree decider may allocate beyond its inputs: the
#: per-node code columns, plus entry gathers made a run at a time.  Two
#: live 2m-long int64 gathers read 60-76 bytes per node here.
DECIDER_SCRATCH_PER_NODE = 56


@pytest.mark.parametrize("name", TREE_SCHEMES)
def test_decider_scratch_is_per_node(name):
    n = 100_000
    scheme, config, certificates = _instance(name, random_tree(n, make_rng(13)), 14)
    scheme.run(config, certificates)  # so only the decider's own work is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdict = scheme.run(config, certificates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.backend == "array" and verdict.all_accept
    assert (peak - before) / n <= DECIDER_SCRATCH_PER_NODE


class TestColumnBackedConfiguration:
    def _pair(self, name, n=30):
        graph = random_tree(n, make_rng(41))
        scheme = catalog.get(name).build(graph=graph, rng=make_rng(42))
        columns = scheme.language.member_configuration(graph, rng=make_rng(43))
        dicts = scheme.language._dict_member_configuration(
            graph, None, make_rng(43)
        )
        return columns, dicts

    @pytest.mark.parametrize("name", TREE_SCHEMES + ("acyclic", "independent-set"))
    def test_equal_hash_and_pickle_like_dict_built(self, name):
        columns, dicts = self._pair(name)
        assert columns.labeling.arrays is not None
        assert dicts.labeling.arrays is None
        # Pickles are byte-identical to the dict-built ones, and read
        # back as dict-built objects.
        assert pickle.dumps(columns.labeling) == pickle.dumps(dicts.labeling)
        assert pickle.dumps(columns) == pickle.dumps(dicts)
        back = pickle.loads(pickle.dumps(columns))
        assert back == dicts and back.labeling.arrays is None
        assert columns == dicts and columns.labeling == dicts.labeling
        assert columns.ids == dicts.ids and repr(columns) == repr(dicts)
        # Neither form is hashable: a labeling is a mutable-looking Mapping.
        for obj in (columns, dicts, columns.labeling, dicts.labeling):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)

    def test_with_labeling_keeps_the_id_column(self):
        columns, dicts = self._pair("leader")
        states = dict(columns.labeling)
        derived = columns.with_labeling(states)
        assert derived.id_column is columns.id_column
        assert derived == dicts.with_labeling(states)

    def test_materialization_is_charged_once(self):
        columns, _ = self._pair("bfs-tree", n=25)
        with obs.collect("t") as metrics:
            assert len(columns.labeling) == 25
            list(columns.labeling)
            assert metrics.counter("columns.materialized") == 0
            columns.labeling[3]
            columns.labeling[4]
            columns.ids[0]
        assert metrics.counter("columns.materialized") == 50


@pytest.mark.parametrize("name", TREE_SCHEMES)
class TestCostCounters:
    def test_honest_pipeline_interns_and_materializes_nothing(self, name):
        graph = random_tree(10_000, make_rng(51))
        scheme = catalog.get(name).build(graph=graph, rng=make_rng(52))
        with obs.collect("t") as metrics:
            config = scheme.language.member_configuration(graph, rng=make_rng(53))
            certificates = batch_prove(scheme, config)
            verdict = scheme.run(config, certificates)
            assert verdict.all_accept and verdict.backend == "array"
        assert metrics.counter("columns.materialized") == 0
        assert metrics.counter("decide.batch.interned") == 0
        assert metrics.counter("decide.batch") == 1
        with obs.collect("t") as metrics:
            as_dict = scheme.run(config, dict(certificates))
        assert metrics.counter("decide.batch.interned") > 0
        assert as_dict == verdict

    def test_pipeline_op_traverses_the_graph_once(self, name):
        """Sample -> verdict sweeps the graph once: the leader prover's
        BFS, or the pointer marker's, whose distances its prover reuses.
        On a random tree that sweep is a re-root plus pointer doubling
        with no frontier layer; a tuple-built copy of the same tree has
        no orientation and walks every layer."""
        n = 10_000

        def op(make_graph):
            with obs.collect("t") as metrics:
                graph = make_graph()
                scheme = catalog.get(name).build(graph=graph, rng=make_rng(55))
                config = scheme.language.member_configuration(graph, rng=make_rng(55))
                certificates = batch_prove(scheme, config)
                assert scheme.run(config, certificates).all_accept
            assert metrics.counter("traversal.sweeps") == 1
            depth = int(certificates.arrays.column("dist").max())
            levels = metrics.counter("traversal.levels")
            return depth, levels, metrics.counter("traversal.rounds")

        tree = random_tree(n, make_rng(54))
        depth, levels, rounds = op(lambda: random_tree(n, make_rng(54)))
        assert levels == 0 and 0 < rounds <= n.bit_length()
        assert op(lambda: Graph(n, tree.edges())) == (depth, depth, 0)


class TestMaskVerdict:
    def test_matches_the_views_verdict(self):
        mask = np.array([True, False, True, True, False])
        verdict = Verdict.from_mask(mask)
        views = Verdict(accepts=frozenset({0, 2, 3}), rejects=frozenset({1, 4}))
        assert verdict.backend == "array"
        assert verdict.reject_count == 2 and not verdict.all_accept
        assert "accepts" not in verdict.__dict__  # built on first read
        assert repr(verdict) == repr(views) == "Verdict(accept=3, reject=2)"
        assert verdict == views and hash(verdict) == hash(views)
        assert verdict.accepts == {0, 2, 3} and verdict.rejects == {1, 4}
        assert pickle.loads(pickle.dumps(verdict)) == views

    def test_all_accept(self):
        verdict = Verdict.from_mask(np.ones(4, dtype=bool))
        assert verdict.all_accept and verdict.reject_count == 0
        assert verdict.rejects == frozenset()


class TestNullableColumn:
    def _arrays(self):
        return ArrayLabeling.from_column(
            np.array([3, 0, 1, 0], dtype=np.int64),
            nulls=np.array([False, True, False, True]),
        )

    def test_values_and_labeling(self):
        arrays = self._arrays()
        assert arrays.values("state") == [3, None, 1, None]
        labeling = Labeling.from_arrays(arrays)
        assert labeling == Labeling({0: 3, 1: None, 2: 1, 3: None})

    def test_frozen_columns_refuse_writes(self):
        arrays = self._arrays().freeze()
        with pytest.raises(ValueError):
            arrays.column("state")[0] = 1
        with pytest.raises(ValueError):
            arrays.nulls("state")[0] = True


class TestRawDecoderBounds:
    def test_distances_past_62_bits_take_the_interned_path(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        scheme, config, _ = _instance("bfs-tree", graph, seed=6)
        huge = 2**62 + 1
        arrays = ArrayLabeling(
            3,
            {
                "root_uid": np.array([1, 1, 1]),
                "dist": np.array([huge, huge + 1, huge + 2]),
            },
        )
        certificates = CertificateColumns(arrays)
        verdict = scheme.run(config, certificates)
        assert verdict.backend == "views"  # the interned path falls back
        assert verdict == _oracle(scheme, config, dict(certificates))
