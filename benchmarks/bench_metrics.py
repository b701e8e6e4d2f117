"""Deterministic cost-unit benchmarks and the committed perf ratchet.

Every cell measures one scheme at one size in the flight recorder's
deterministic counters (:mod:`repro.obs`) — never wall clock:

* ``views.built`` — LocalView constructions for a full certify (view
  build + decide over prebuilt views) plus one incremental resweep
  after a single-node change (``refresh_views`` over the node's ball).
  This is the audited unit of every incremental-engine claim, so the
  ratchet guards both the from-scratch cost and the reuse path.
* ``messages.sent`` — delivered messages of one distributed
  verification round (:func:`repro.local.verification_round.
  distributed_verification`) under the same seeded instance.

Graphs come from each spec's own sampler under a cell-deterministic
seed, so the measured numbers are bit-stable across runs and machines.

The committed snapshots are ``benchmarks/results/BENCH_views.json``
and ``benchmarks/results/BENCH_messages.json``.  Their grid and the 10%
tolerance are declared in :mod:`ratchet`: ``--check`` fails a cell more
than 10% above its committed value, so a cost regression in the audited
unit is either fixed or justified and rewritten with ``--write`` in the
same change.  A cell below its snapshot passes with a note; ``--write``
ratchets it down.

Usage::

    PYTHONPATH=src python benchmarks/bench_metrics.py --check
    PYTHONPATH=src python benchmarks/bench_metrics.py --write
"""

from __future__ import annotations

import sys
import zlib

import ratchet
from repro.core import catalog
from repro.local.verification_round import distributed_verification
from repro.obs import metrics as obs
from repro.util.rng import make_rng


def _cell_seed(name: str, n: int) -> int:
    """Deterministic per-cell seed (crc32, not ``hash`` — that's salted)."""
    return zlib.crc32(f"{name}:{n}".encode()) & 0x7FFFFFFF


def measure_cell(name: str, n: int) -> dict[str, int]:
    """Deterministic counters for one (scheme, n) cell."""
    spec = catalog.get(name)
    rng = make_rng(_cell_seed(name, n))
    graph = spec.sample_graph(n, rng)
    scheme = catalog.build(name, graph=graph, rng=rng)
    config = scheme.language.member_configuration(graph, rng=rng)
    certificates = scheme.prove(config)

    with obs.collect("bench.views", scheme=name, n=n) as view_metrics:
        views = scheme.build_views(config, certificates)
        scheme.run(config, certificates, views=views)
        # Incremental resweep: one node "changes", only its ball rebuilds.
        victim = min(graph.nodes)
        refreshed = scheme.refresh_views(
            config, certificates, views, [victim]
        )
        scheme.run(config, certificates, views=refreshed)

    with obs.collect("bench.messages", scheme=name, n=n) as message_metrics:
        distributed_verification(scheme, config, certificates)

    return {
        "views.built": int(view_metrics.counter("views.built")),
        "messages.sent": int(message_metrics.counter("messages.sent")),
    }


def measure_all() -> dict[str, dict[str, dict[str, int]]]:
    """``{grid: {scheme: {str(n): value}}}`` over the whole grid."""
    grids: dict[str, dict[str, dict[str, int]]] = {"views": {}, "messages": {}}
    for name in ratchet.COST_SCHEMES:
        cells = {str(n): measure_cell(name, n) for n in ratchet.COST_SIZES}
        for grid, metric in (("views", "views.built"), ("messages", "messages.sent")):
            grids[grid][name] = {n: cell[metric] for n, cell in cells.items()}
    return grids


if __name__ == "__main__":
    sys.exit(ratchet.main((ratchet.VIEWS, ratchet.MESSAGES), measure_all))
