#!/usr/bin/env python3
"""Quickstart: certify a spanning tree and catch a corruption.

Walks through the full proof-labeling-scheme loop on one graph:

1. build a random connected network;
2. label it with a legal spanning tree (parent pointers);
3. run the prover to get the Θ(log n) certificates;
4. run the one-round verifier — every node accepts;
5. corrupt two pointers and watch nodes reject, under both the stale
   honest certificates and a budgeted adversary trying to hide it.

Run: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro import SpanningTreePointerScheme, connected_gnp, make_rng
from repro.core.soundness import attack


def main() -> None:
    rng = make_rng(2025)
    graph = connected_gnp(24, 0.15, rng)
    scheme = SpanningTreePointerScheme()
    print(f"network: {graph!r}, scheme: {scheme.name} ({scheme.size_bound})")

    # A legal configuration and the size of its certificates.
    config = scheme.language.member_configuration(graph, rng=rng)
    print(f"proof size: {scheme.proof_size_bits(config)} bits per node "
          f"(log2 n = {graph.n.bit_length() - 1})")

    verdict = scheme.run(config)
    print(f"verification on the legal tree: all accept = {verdict.all_accept}")

    # Corrupt two pointers of *this* tree (retry if the corruption
    # happens to produce another legal tree).
    language = scheme.language
    while True:
        corrupted = config.labeling.corrupted(rng, 2, language.random_corruption)
        bad = config.with_labeling(corrupted)
        if not language.is_member(bad):
            break
    distance = config.labeling.hamming_distance(bad.labeling)
    stale = scheme.run(bad)  # stale honest certificates
    print(f"after corrupting {distance} states: "
          f"{stale.reject_count} nodes reject with honest certificates")

    # An adversary tries to craft certificates that hide the corruption.
    result = attack(scheme, bad, rng=rng, trials=100, related=[config])
    print(f"adversary ({result.evaluations} assignments tried): "
          f"fooled = {result.fooled}, best it managed = "
          f"{result.min_rejects} rejecting node(s)")
    assert not result.fooled, "soundness violation!"
    print("soundness holds: every assignment leaves a rejecting node")


if __name__ == "__main__":
    main()
