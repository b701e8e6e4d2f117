"""Tests for labelings and configurations."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import catalog
from repro.core.batch import batch_prove
from repro.core.labeling import Configuration, Labeling
from repro.core.verifier import decide
from repro.errors import IdentityError, LabelingError
from repro.graphs.generators import path_graph, random_tree
from repro.obs import metrics as obs
from repro.util.idspace import contiguous_ids
from repro.util.rng import make_rng


class TestLabelingBasics:
    def test_mapping_protocol(self):
        lab = Labeling({0: "a", 1: "b"})
        assert lab[0] == "a"
        assert len(lab) == 2
        assert set(lab) == {0, 1}

    def test_missing_node_raises(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1})[5]

    def test_uniform(self):
        lab = Labeling.uniform(range(3), 7)
        assert all(lab[v] == 7 for v in range(3))

    def test_with_state_is_persistent(self):
        lab = Labeling({0: 1, 1: 2})
        new = lab.with_state(0, 99)
        assert lab[0] == 1
        assert new[0] == 99

    def test_with_state_unknown_node(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).with_state(7, 0)

    def test_with_states_bulk(self):
        lab = Labeling({0: 1, 1: 2, 2: 3}).with_states({0: 9, 2: 9})
        assert (lab[0], lab[1], lab[2]) == (9, 2, 9)

    def test_equality(self):
        assert Labeling({0: 1}) == Labeling({0: 1})
        assert Labeling({0: 1}) != Labeling({0: 2})


_states = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=5),
    min_size=1,
    max_size=10,
)


class TestHammingDistance:
    def test_identity(self):
        lab = Labeling({0: 1, 1: 2})
        assert lab.hamming_distance(lab) == 0

    @given(_states, st.integers(min_value=0, max_value=5))
    def test_symmetry(self, states, bump):
        a = Labeling(states)
        keys = sorted(states)
        b = a.with_state(keys[0], states[keys[0]] + bump)
        assert a.hamming_distance(b) == b.hamming_distance(a)

    @settings(max_examples=50)
    @given(_states, st.data())
    def test_triangle_inequality(self, states, data):
        keys = sorted(states)
        a = Labeling(states)
        b = Labeling({k: data.draw(st.integers(0, 5)) for k in keys})
        c = Labeling({k: data.draw(st.integers(0, 5)) for k in keys})
        assert a.hamming_distance(c) <= a.hamming_distance(b) + b.hamming_distance(c)

    def test_counts_differences(self):
        a = Labeling({0: 1, 1: 2, 2: 3})
        b = Labeling({0: 1, 1: 9, 2: 9})
        assert a.hamming_distance(b) == 2

    def test_mismatched_nodes(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).hamming_distance(Labeling({1: 1}))


class TestCorruption:
    def test_corrupts_exact_count(self):
        lab = Labeling({v: 0 for v in range(10)})
        corrupted = lab.corrupted(make_rng(1), 3, lambda v, s, r: s + 1)
        assert lab.hamming_distance(corrupted) == 3

    def test_too_many(self):
        with pytest.raises(LabelingError):
            Labeling({0: 1}).corrupted(make_rng(1), 2, lambda v, s, r: s)

    def test_max_state_bits(self):
        lab = Labeling({0: 0, 1: (1, 2, 3)})
        assert lab.max_state_bits() > 0


class TestConfiguration:
    def test_build_defaults(self):
        g = path_graph(3)
        config = Configuration.build(g)
        assert config.n == 3
        assert config.state(0) is None
        assert config.ids == {0: 1, 1: 2, 2: 3}

    def test_uid_lookup(self):
        config = Configuration.build(path_graph(2), ids={0: 10, 1: 20})
        assert config.uid(1) == 20
        assert config.node_of_uid(10) == 0
        with pytest.raises(LabelingError):
            config.node_of_uid(99)

    def test_labeling_must_cover_graph(self):
        with pytest.raises(LabelingError):
            Configuration.build(path_graph(3), {0: 1})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(IdentityError):
            Configuration.build(path_graph(2), ids={0: 1, 1: 1})

    def test_with_labeling(self):
        config = Configuration.build(path_graph(2), {0: "a", 1: "b"})
        new = config.with_labeling({0: "x", 1: "y"})
        assert new.state(0) == "x"
        assert config.state(0) == "a"
        assert new.ids == config.ids

    def test_with_ids(self):
        config = Configuration.build(path_graph(2))
        new = config.with_ids({0: 5, 1: 6})
        assert new.uid(0) == 5


class TestIdStore:
    """Every configuration keeps its ids as one read-only column."""

    IDS = {0: 7, 1: 3, 2: 11, 3: 5}

    def test_default_ids_are_the_contiguous_ids(self):
        graph = path_graph(4)
        default = Configuration.build(graph)
        given = Configuration.build(graph, ids=contiguous_ids(list(graph.nodes)))
        assert default == given and default.ids == given.ids
        for config in (default, given):
            assert config.id_column.dtype == np.int64
            assert not config.id_column.flags.writeable

    def test_build_equals_from_columns(self):
        graph = path_graph(4)
        labeling = Labeling.uniform(graph.nodes, None)
        built = Configuration.build(graph, labeling, ids=self.IDS)
        column = Configuration.from_columns(graph, labeling, np.array([7, 3, 11, 5]))
        assert built == column and built.ids == column.ids == self.IDS
        assert built.id_column.tolist() == [7, 3, 11, 5]

    @pytest.mark.parametrize(
        "ids", [None, IDS, {v: 2**63 + v for v in range(4)}], ids=str
    )
    def test_pickle_round_trip(self, ids):
        states = {v: v % 2 for v in range(4)}
        config = Configuration.build(path_graph(4), states, ids=ids)
        back = pickle.loads(pickle.dumps(config))
        assert back == config and back.ids == config.ids
        assert back.id_column.dtype == config.id_column.dtype
        assert not back.id_column.flags.writeable

    @pytest.mark.parametrize(
        "ids",
        [{0: 1, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 1, 2: 2, 3: 3}, {0: -5, 1: 1, 2: 2, 3: 3}],
        ids=["duplicate", "zero", "negative"],
    )
    def test_bad_ids_raise_when_built(self, ids):
        graph = path_graph(4)
        with pytest.raises(IdentityError):
            Configuration.build(graph, ids=ids)
        with pytest.raises(IdentityError):
            Configuration.build(graph).with_ids(ids)

    def test_the_ids_dict_is_derived_once(self):
        config = Configuration.build(path_graph(4), ids=self.IDS)
        with obs.collect("t") as metrics:
            assert config.uid(2) == 11 and config.node_of_uid(5) == 3
            assert config.ids == self.IDS
        assert metrics.counter("columns.materialized") == 4

    @pytest.mark.parametrize("name", ["spanning-tree-ptr", "bfs-tree", "leader"])
    def test_ids_past_63_bits_decide_like_the_views_oracle(self, name):
        graph = random_tree(20, make_rng(5))
        ids = {v: 2**63 + 3 * v + 1 for v in graph.nodes}
        scheme = catalog.get(name).build(graph=graph, rng=make_rng(6))
        config = scheme.language.member_configuration(graph, ids=ids, rng=make_rng(7))
        assert config.id_column.dtype == object and config.ids == ids
        certificates = batch_prove(scheme, config)
        assert dict(certificates) == scheme.prove(config)
        swapped = {**certificates, 4: (ids[9],) + certificates[4][1:]}
        for certs in (certificates, swapped):
            oracle = decide(
                scheme.verify, config, certs, scheme.visibility, scheme.radius
            )
            assert scheme.run(config, certs) == oracle
        assert scheme.run(config, certificates).all_accept

    def test_with_labeling_keeps_and_with_ids_replaces_the_column(self):
        config = Configuration.build(path_graph(4), ids=self.IDS)
        relabeled = config.with_labeling({v: "x" for v in range(4)})
        assert relabeled.id_column is config.id_column
        renamed = config.with_ids({0: 1, 1: 2, 2: 9, 3: 4})
        assert renamed.labeling is config.labeling
        assert renamed.id_column.tolist() == [1, 2, 9, 4]
        assert config.id_column.tolist() == [7, 3, 11, 5]
