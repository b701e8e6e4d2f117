"""Tests for the scheme base class, honest certificates and their sizes."""

from __future__ import annotations

import pytest

from repro.core.arrays import CertificateColumns
from repro.core.batch import batch_prove
from repro.errors import SchemeError
from repro.graphs.generators import path_graph, random_tree
from repro.obs import metrics as obs
from repro.schemes.agreement import AgreementLanguage, AgreementScheme
from repro.schemes.spanning_tree import SpanningTreePointerScheme
from repro.util.rng import make_rng


class TestAssignment:
    def test_sizes(self):
        scheme = AgreementScheme(AgreementLanguage(domain=1 << 20))
        config = scheme.language.member_configuration(path_graph(4), rng=make_rng(1))
        certificates = batch_prove(scheme, config)
        assert set(certificates) == set(config.graph.nodes)
        sizes = [scheme.certificate_bits(c) for c in certificates.values()]
        assert scheme.proof_bits(certificates) == (max(sizes), sum(sizes))
        assert min(sizes) > 0

    def test_prover_must_cover_all_nodes(self):
        class Sloppy(AgreementScheme):
            def prove(self, config):
                certs = super().prove(config)
                certs.pop(0)
                return certs

        scheme = Sloppy()
        config = scheme.language.member_configuration(path_graph(3))
        with pytest.raises(SchemeError, match="skipped nodes"):
            batch_prove(scheme, config)
        with pytest.raises(SchemeError, match="skipped nodes"):
            scheme.proof_size_bits(config)

    def test_kernel_columns_are_not_materialized(self):
        scheme = SpanningTreePointerScheme()
        config = scheme.language.member_configuration(
            random_tree(64, make_rng(3)), rng=make_rng(4)
        )
        with obs.collect("t") as metrics:
            certificates = batch_prove(scheme, config)
            assert isinstance(certificates, CertificateColumns)
            assert metrics.counter("prove.batch") == 1
            assert metrics.counter("columns.materialized") == 0

    def test_run_with_custom_certificates(self):
        scheme = AgreementScheme()
        config = scheme.language.member_configuration(path_graph(3))
        verdict = scheme.run(config, certificates={v: 999 for v in range(3)})
        # Certificates disagree with the states, so everyone rejects.
        assert verdict.reject_count == 3

    def test_proof_size_bits(self):
        scheme = SpanningTreePointerScheme()
        config = scheme.language.member_configuration(path_graph(8), rng=make_rng(2))
        certificates = batch_prove(scheme, config)
        assert scheme.proof_size_bits(config) == max(
            scheme.certificate_bits(c) for c in certificates.values()
        )

    def test_repr(self):
        scheme = SpanningTreePointerScheme()
        assert "spanning-tree-ptr" in repr(scheme)
