"""Large-n certify wall clock and its committed ceiling.

The array-native core exists for one headline number per layer:

* **certify** — one full verification round (``scheme.run`` over honest
  certificates, dispatching to the batched CSR decider) on
  ``random_tree`` instances up to n = 100 000;
* **endtoend** — the whole pipeline per instance — vectorized
  ``member_configuration`` (the batched marker), batched ``prove``, and
  the verification round — up to n = 1 000 000, which is the size the
  generation layer was vectorized for.

Wall clock is machine-dependent, so unlike the deterministic counter
ratchet (:mod:`bench_metrics`) the committed snapshot at
``benchmarks/results/BENCH_wallclock.json`` is a *ceiling*, not a
bit-stable value.  Its grids and bounds are declared in :mod:`ratchet`:
``--check`` fails a cell only when it is slower than 4x its committed
value *and* than the 0.5 s noise floor, or slower than the paper-facing
absolute ceiling for its grid (10 s for a verification round at
n = 100 000; 60 s for the full pipeline at n = 1 000 000).  Faster runs
always pass.  ``--write`` measures every cell and rewrites the snapshot
with this machine's timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --check
    PYTHONPATH=src python benchmarks/bench_wallclock.py --write
    PYTHONPATH=src python benchmarks/bench_wallclock.py --check --json-out measured
"""

from __future__ import annotations

import sys
import time
import zlib

import ratchet
from repro.core import catalog
from repro.core.batch import batch_prove, supports_batch, supports_batch_marker
from repro.graphs.generators import random_tree
from repro.util.rng import make_rng

#: Timing repetitions per cell; the minimum is recorded.
REPS = 3
#: The pipeline is slower per rep than a bare verification round, so
#: fewer repetitions keep --check affordable in CI.
E2E_REPS = 2


def _cell_seed(name: str, n: int) -> int:
    return zlib.crc32(f"wallclock:{name}:{n}".encode()) & 0x7FFFFFFF


def measure_cell(name: str, n: int) -> float:
    """Best-of-``REPS`` seconds for one full verification round."""
    spec = catalog.get(name)
    rng = make_rng(_cell_seed(name, n))
    graph = random_tree(n, rng)
    scheme = spec.build(graph=graph, rng=rng)
    if not supports_batch(scheme):
        raise SystemExit(f"{name}: no batched decider — wall-clock grid is stale")
    config = scheme.language.member_configuration(graph, rng=rng)
    certificates = batch_prove(scheme, config)
    graph.csr()  # cache the CSR mirror: build cost is per graph, not per run
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        verdict = scheme.run(config, certificates)
        best = min(best, time.perf_counter() - start)
        if not verdict.all_accept:
            raise SystemExit(f"{name} n={n}: honest certificates rejected")
    return round(best, 4)


def measure_e2e_cell(name: str, n: int) -> float:
    """Best-of-``E2E_REPS`` seconds for generate + prove + decide.

    The graph (and its CSR mirror) is built once outside the timed
    region: this grid ratchets the pipeline from a sampled instance to
    its verdict, so sampling is not in it.  ``random_tree`` is loop-free
    (a vectorized Prüfer decode, about 0.3-0.4 s at n = 10^6), and
    ``perfbench/run.py`` times it as its own ``graphs.random_tree_s``
    layer.
    Each rep restarts the rng so every rep generates the identical
    configuration.
    """
    spec = catalog.get(name)
    graph = random_tree(n, make_rng(_cell_seed(name, n)))
    scheme = spec.build(graph=graph, rng=make_rng(_cell_seed(name, n)))
    if not supports_batch_marker(scheme.language):
        raise SystemExit(f"{name}: no batched marker — end-to-end grid is stale")
    graph.csr()
    best = float("inf")
    for _rep in range(E2E_REPS):
        rng = make_rng(_cell_seed(name, n) + 1)
        start = time.perf_counter()
        config = scheme.language.member_configuration(graph, rng=rng)
        certificates = batch_prove(scheme, config)
        verdict = scheme.run(config, certificates)
        best = min(best, time.perf_counter() - start)
        if not verdict.all_accept:
            raise SystemExit(f"{name} n={n}: end-to-end round rejected")
    return round(best, 4)


def measure_all() -> dict[str, dict[str, dict[str, float]]]:
    """Both grids, as ``{"certify": {...}, "endtoend": {...}}``."""
    grids: dict[str, dict[str, dict[str, float]]] = {"certify": {}, "endtoend": {}}
    for grid, sizes, measure in (
        ("certify", ratchet.CERTIFY_SIZES, measure_cell),
        ("endtoend", ratchet.ENDTOEND_SIZES, measure_e2e_cell),
    ):
        for name in ratchet.WALLCLOCK_SCHEMES:
            grids[grid][name] = {}
            for n in sizes:
                seconds = grids[grid][name][str(n)] = measure(name, n)
                print(f"measured {grid} {name} n={n}: {seconds:.3f}s")
    return grids


if __name__ == "__main__":
    sys.exit(ratchet.main((ratchet.WALLCLOCK,), measure_all))
