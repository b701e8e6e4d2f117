"""Sensitivity measurement, the rejection decider, and the FF17 repair."""

from __future__ import annotations

import math

import pytest

from repro.core import catalog
from repro.errors import SchemeError
from repro.errorsensitive import (
    FAR_PATTERNS,
    RejectionCounter,
    count_rejections,
    error_sensitivity_report,
    measure_scheme_sensitivity,
    min_rejections,
)
from repro.errorsensitive.report import _pointer_mix_pattern
from repro.graphs.generators import connected_gnp
from repro.util.rng import make_rng, spawn


class TestRejectionCounter:
    @pytest.mark.parametrize("name", ["spanning-tree-ptr", "coarse-acyclic",
                                      "es-spanning-tree"])
    def test_counter_matches_full_reverification(self, name):
        """The reuse path must agree with a from-scratch run — including
        for radius > 1 schemes, whose refresh balls are wider."""
        spec = catalog.get(name)
        rng = make_rng(11)
        graph = spec.sample_graph(14, spawn(rng, 1))
        scheme = spec.build(graph=graph, rng=spawn(rng, 2))
        member = scheme.language.member_configuration(graph, rng=spawn(rng, 3))
        counter = RejectionCounter(scheme, member)
        for seed in range(5):
            corrupted = member.labeling.corrupted(
                spawn(rng, 20 + seed), 1 + seed % 3,
                scheme.language.random_corruption,
            )
            fast = counter.count(corrupted)
            full = scheme.run(
                member.with_labeling(corrupted),
                certificates=counter.certificates,
            ).reject_count
            assert fast == full

    def test_explicit_changed_set_is_validated(self):
        scheme = catalog.build("leader")
        graph = connected_gnp(8, 0.4, make_rng(1))
        member = scheme.language.member_configuration(graph, rng=make_rng(2))
        counter = RejectionCounter(scheme, member)
        flipped = {v: not member.state(v) for v in graph.nodes}
        with pytest.raises(SchemeError):
            counter.count(flipped, changed=[0])

    def test_count_rejections_counts_honest_member_as_zero(self):
        scheme = catalog.build("leader")
        graph = connected_gnp(10, 0.3, make_rng(3))
        member = scheme.language.member_configuration(graph, rng=make_rng(4))
        assert count_rejections(scheme, member) == 0

    def test_min_rejections_never_exceeds_honest_count(self):
        scheme = catalog.build("spanning-tree-ptr")
        graph = connected_gnp(12, 0.3, make_rng(5))
        bad = scheme.language.corrupted_configuration(graph, 2, rng=make_rng(6))
        outcome = min_rejections(scheme, bad, rng=make_rng(7), trials=10)
        assert 1 <= outcome.min_rejects <= count_rejections(scheme, bad)


class TestPointerMixPattern:
    def test_pattern_distance_is_half_the_path(self):
        config, distance, related = _pointer_mix_pattern(24, make_rng(1))
        assert distance == 12
        language = catalog.build("spanning-tree-ptr").language
        assert not language.is_member(config)
        for member in related:
            assert language.is_member(member)

    def test_honest_certificates_leave_one_rejection(self):
        """The FF17 collapse: Theta(n) edits, a single rejecting node."""
        config, distance, _ = _pointer_mix_pattern(24, make_rng(1))
        scheme = catalog.build("spanning-tree-ptr")
        assert count_rejections(scheme, config) == 1
        assert distance >= 12  # far, yet quiet

    def test_pattern_is_registered_for_the_pointer_scheme(self):
        assert "spanning-tree-ptr" in FAR_PATTERNS


class TestMeasurement:
    def test_pointer_scheme_is_classified_not_error_sensitive(self):
        sensitivity = measure_scheme_sensitivity(
            "spanning-tree-ptr", n=16, distances=(2, 4),
            samples_per_distance=1, attack_trials=8, rng=make_rng(21),
        )
        assert sensitivity.classification == "not-error-sensitive"
        assert sensitivity.beta < 0.2
        assert sensitivity.matches_declaration
        kinds = {s.kind for s in sensitivity.samples}
        assert "pattern" in kinds

    def test_repair_is_classified_error_sensitive(self):
        sensitivity = measure_scheme_sensitivity(
            "es-spanning-tree", n=16, distances=(1, 4),
            samples_per_distance=1, attack_trials=8, rng=make_rng(22),
        )
        assert sensitivity.classification == "error-sensitive"
        assert sensitivity.beta >= 0.2
        assert sensitivity.matches_declaration

    def test_gap_schemes_skip_dont_care_bursts(self):
        sensitivity = measure_scheme_sensitivity(
            "approx-vertex-cover", n=16, distances=(1, 8),
            samples_per_distance=2, attack_trials=8, rng=make_rng(23),
        )
        # Every sample that was kept obliged a rejection (a genuine
        # no-instance), and each saw at least one rejecting node.
        for sample in sensitivity.samples:
            assert sample.min_rejects >= 1

    def test_report_covers_requested_names_without_mismatches(self):
        report = error_sensitivity_report(
            names=("spanning-tree-ptr", "es-spanning-tree"),
            n=16, distances=(2, 4), samples_per_distance=1,
            attack_trials=8, rng=make_rng(24),
        )
        assert set(report.classified) == {"spanning-tree-ptr", "es-spanning-tree"}
        assert report.classified["spanning-tree-ptr"] == "not-error-sensitive"
        assert report.classified["es-spanning-tree"] == "error-sensitive"
        assert report.mismatches == []
        assert report.entry("es-spanning-tree").declared is True
        with pytest.raises(SchemeError):
            report.entry("nope")

    def test_isolated_equals_infinity_guard(self):
        """β̂ of math.inf is never produced: min over empty sample sets
        is 0.0 (regression guard for the report's default)."""
        from repro.errorsensitive.report import SchemeSensitivity

        empty = SchemeSensitivity(
            scheme="x", declared=None, samples=(), skipped=0
        )
        assert empty.beta == 0.0 and not math.isinf(empty.beta)


class TestRepairScheme:
    def test_builds_from_the_catalog_with_metadata(self):
        spec = catalog.get("es-spanning-tree")
        assert spec.error_sensitive is True
        assert catalog.get("spanning-tree-ptr").error_sensitive is False
        scheme = catalog.build("es-spanning-tree")
        assert scheme.name == "es-spanning-tree"

    def test_complete_and_detects_corruption(self):
        scheme = catalog.build("es-spanning-tree")
        graph = connected_gnp(16, 0.25, make_rng(31))
        member = scheme.language.member_configuration(graph, rng=make_rng(32))
        assert scheme.run(member).all_accept
        bad = scheme.language.corrupted_configuration(graph, 2, rng=make_rng(33))
        assert not scheme.run(bad).all_accept

    def test_mix_pattern_is_harmless_after_reencoding(self):
        """The glued-orientations construction that breaks the pointer
        scheme lists every path edge under the list encoding — which is
        again a spanning tree, i.e. the repair dissolves the far-but-
        quiet configuration instead of mis-accepting it."""
        from repro.core.labeling import Configuration
        from repro.graphs.generators import path_graph

        n = 12
        graph = path_graph(n)
        scheme = catalog.build("es-spanning-tree")
        both = {
            v: frozenset(range(graph.degree(v))) for v in graph.nodes
        }
        mixed = Configuration.build(graph, both)
        assert scheme.language.is_member(mixed)


class TestExperimentTable:
    def test_es_experiment_rows_and_notes(self):
        from repro.analysis.experiments import experiment_es_sensitivity

        result = experiment_es_sensitivity(
            n=16, distances=(2, 4), samples_per_distance=1,
            attack_trials=8,
            names=("spanning-tree-ptr", "es-spanning-tree"),
        )
        col = result.headers.index
        schemes = {row[col("scheme")] for row in result.rows}
        assert schemes == {"spanning-tree-ptr", "es-spanning-tree"}
        assert any("FF17 negative demonstrated: spanning-tree-ptr" in note
                   for note in result.notes)
        assert any("FF17 repair demonstrated" in note for note in result.notes)
        assert any("declaration mismatches: none" in note
                   for note in result.notes)
