"""Certification-service wall clock: cold submits vs the cached hot path.

The service exists for one operational claim: a configuration that has
been certified once is re-certified without decider work — a
resubmission under a fresh nonce hits the verdict LRU and runs **no
decider at all**.  In-process that costs O(1) (the memoised part
hashes); over the wire, canonical bytes under a fresh nonce cost one
SHA-256 over the body with no JSON load (the wire-key index), and other
bodies are loaded and hashed, with no decode.  This benchmark measures
all three on the headline workload (``spanning-tree-ptr`` on
``random_tree`` instances up to n = 100 000):

``cold_s``
    One full cold submission of an in-process envelope: parameter
    validation, nullifier spend, deterministic scheme rebuild, and the
    batched array decider.  ``build_envelope`` hands the envelope the
    prover's ``CertificateColumns``, so this cell does not exercise the
    wire's decoded-dict intake.  Every rep asserts zero
    ``decide.batch.interned``: the certificates and the configuration's
    id column decode with no per-node work, a fall-back to the
    interning loop (about 0.2 s against 0.01 s at n = 100 000) that
    the ratio check could miss under its noise floor.
``cached_s``
    The same envelope resubmitted under a fresh nonce.  The measurement
    asserts — via the ``service.cache.hit`` and ``decide.calls``
    counters — that the verdict came from the LRU with zero decider
    work, and the committed cell pins the O(1) claim: the ceiling is
    absolute and size-independent.
``wire_cached_s``
    The same resubmission as wire bytes through ``submit(bytes)``, the
    path every HTTP request takes.  It asserts a ``service.cache.hit``
    with zero ``service.envelope.decoded``.  The first rep loads and
    hashes the body (the cold submit was an in-process envelope, which
    indexes no wire key) and so indexes it; every later rep asserts
    zero ``service.envelope.loaded`` — answered from the wire key.

Correctness is asserted inline before any timing is recorded: the cold
served verdict must match the in-process ``decide()`` verdict
node-for-node (honest accepted; corrupted rejections identical).

Like :mod:`bench_wallclock`, the committed snapshot at
``benchmarks/results/BENCH_service.json`` is a *ceiling*: ``--check``
fails only on cells slower than ``HEADROOM`` x committed (and past the
noise floor), or past the absolute ceilings.  Faster runs always pass;
``--write`` re-anchors.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --check
    PYTHONPATH=src python benchmarks/bench_service.py --write
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import zlib
from typing import Any, Mapping

from repro.core import catalog
from repro.core.labeling import Configuration
from repro.core.verifier import decide
from repro.graphs.generators import random_tree
from repro.obs import metrics as obs
from repro.service import CertificationService, build_envelope
from repro.service.server import _rng_seed
from repro.util.rng import make_rng

ROOT = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = ROOT / "results"
SNAPSHOT_PATH = RESULTS_DIR / "BENCH_service.json"

SCHEMA = "bench-service/v1"
SCHEME = "spanning-tree-ptr"
SIZES = (10_000, 100_000)
METRICS = ("cold_s", "cached_s", "wire_cached_s")
#: Ratio ceiling against the committed snapshot (wall clock is noisy).
HEADROOM = 4.0
#: Cells faster than this are never failed on ratio alone.
NOISE_FLOOR_S = 0.25
#: Absolute ceiling for a cold n=100 000 submission.
COLD_CEILING_S = 20.0
#: Absolute, size-independent ceiling for the hot path — this *is* the
#: O(1) claim: the same bound applies at every n.
CACHED_CEILING_S = 0.05
#: Absolute ceiling for a wire resubmission (one SHA-256 over the body).
WIRE_CACHED_CEILING_S = 5.0
#: Timing repetitions per cell; the minimum is recorded.
REPS = 3


def _cell_seed(n: int) -> int:
    return zlib.crc32(f"service:{SCHEME}:{n}".encode()) & 0x7FFFFFFF


def _assert_cold_matches_in_process(envelope, result) -> None:
    """The served verdict must equal the per-node oracle decide() on the
    same rebuild, and ``scheme.run`` must still take the array path."""
    spec = catalog.get(envelope.scheme)
    scheme = spec.build(
        graph=envelope.graph,
        rng=make_rng(_rng_seed(envelope.body_hash)),
        **spec.resolve_params(envelope.params),
    )
    config = Configuration.build(envelope.graph, envelope.labeling)
    certificates = envelope.certificates
    if scheme.run(config, certificates).backend != "array":
        raise SystemExit(f"{SCHEME}: batched decider fell back — grid stale")
    verdict = decide(
        scheme.verify, config, certificates, scheme.visibility, scheme.radius
    )
    if result.accepted != verdict.all_accept or result.rejections != len(
        verdict.rejects
    ):
        raise SystemExit(
            f"{SCHEME}: served verdict diverges from in-process decide()"
        )


def measure_cell(n: int) -> dict[str, float]:
    """(cold_s, cached_s) for one n, with inline correctness assertions."""
    seed = _cell_seed(n)
    # The scheme's own sampler is a G(n, p) pair loop — fine for the
    # catalog's sweep sizes, quadratic at n = 1e5.  The headline rides
    # the same random_tree family as bench_wallclock.
    graph = random_tree(n, make_rng(seed))
    envelope = build_envelope(SCHEME, n=n, seed=seed, graph=graph)
    service = CertificationService()

    cold = float("inf")
    for rep in range(REPS):
        fresh = CertificationService() if rep else service
        probe = envelope.with_nonce(f"cold-{rep}") if rep else envelope
        with obs.collect("bench") as metrics:
            start = time.perf_counter()
            result = fresh.submit(probe)
            cold = min(cold, time.perf_counter() - start)
        if result.cache_hit or not result.accepted:
            raise SystemExit(f"{SCHEME} n={n}: cold submit not cold/accepted")
        if metrics.counter("decide.batch.interned") != 0:
            raise SystemExit(f"{SCHEME} n={n}: cold decide interned values")
        if rep == 0:
            _assert_cold_matches_in_process(envelope, result)

    cached = float("inf")
    for rep in range(REPS):
        probe = envelope.with_nonce(f"hot-{rep}")
        with obs.collect("bench") as metrics:
            start = time.perf_counter()
            result = service.submit(probe)
            cached = min(cached, time.perf_counter() - start)
        if not result.cache_hit:
            raise SystemExit(f"{SCHEME} n={n}: resubmission missed the cache")
        if metrics.counter("service.cache.hit") != 1:
            raise SystemExit(f"{SCHEME} n={n}: cache.hit counter not charged")
        if metrics.counter("decide.calls") != 0:
            raise SystemExit(f"{SCHEME} n={n}: hot path ran decider work")

    wire_cached = float("inf")
    for rep in range(REPS):
        payload = envelope.with_nonce(f"wire-{rep}").to_bytes()
        with obs.collect("bench") as metrics:
            start = time.perf_counter()
            result = service.submit(payload)
            wire_cached = min(wire_cached, time.perf_counter() - start)
        if not result.cache_hit or metrics.counter("service.cache.hit") != 1:
            raise SystemExit(f"{SCHEME} n={n}: wire resubmission missed the cache")
        if metrics.counter("service.envelope.decoded") != 0:
            raise SystemExit(f"{SCHEME} n={n}: wire resubmission was decoded")
        if rep and metrics.counter("service.envelope.loaded") != 0:
            raise SystemExit(f"{SCHEME} n={n}: indexed wire resubmission was loaded")
    return {
        "cold_s": round(cold, 4),
        "cached_s": round(cached, 6),
        "wire_cached_s": round(wire_cached, 4),
    }


def measure_all() -> dict[str, dict[str, float]]:
    grid: dict[str, dict[str, float]] = {m: {} for m in METRICS}
    for n in SIZES:
        cell = measure_cell(n)
        for metric in METRICS:
            grid[metric][str(n)] = cell[metric]
        print(
            f"measured {SCHEME} n={n}: cold {cell['cold_s']:.3f}s, "
            f"cached {cell['cached_s'] * 1e3:.2f}ms, "
            f"wire cached {cell['wire_cached_s'] * 1e3:.1f}ms"
        )
    return grid


def snapshot(cells: Mapping[str, Mapping[str, float]]) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "scheme": SCHEME,
        "headroom": HEADROOM,
        "noise_floor_s": NOISE_FLOOR_S,
        "cold_ceiling_s": COLD_CEILING_S,
        "cached_ceiling_s": CACHED_CEILING_S,
        "wire_cached_ceiling_s": WIRE_CACHED_CEILING_S,
        "sizes": list(SIZES),
        "metrics": {m: dict(cells[m]) for m in sorted(cells)},
    }


def compare(
    committed: Mapping[str, Any], measured: Mapping[str, Mapping[str, float]]
) -> list[str]:
    """Failure messages (empty = within every ceiling)."""
    headroom = float(committed.get("headroom", HEADROOM))
    floor = float(committed.get("noise_floor_s", NOISE_FLOOR_S))
    ceilings = {
        "cold_s": float(committed.get("cold_ceiling_s", COLD_CEILING_S)),
        "cached_s": float(committed.get("cached_ceiling_s", CACHED_CEILING_S)),
        "wire_cached_s": float(
            committed.get("wire_cached_ceiling_s", WIRE_CACHED_CEILING_S)
        ),
    }
    failures: list[str] = []
    old_cells = {
        (metric, n): value
        for metric, sizes in committed.get("metrics", {}).items()
        for n, value in sizes.items()
    }
    new_cells = {
        (metric, n): value
        for metric, sizes in measured.items()
        for n, value in sizes.items()
    }
    for key in sorted(old_cells.keys() - new_cells.keys()):
        failures.append(f"service: committed cell {key} no longer measured")
    for key in sorted(new_cells.keys() - old_cells.keys()):
        failures.append(f"service: new cell {key} missing from the snapshot")
    for key in sorted(old_cells.keys() & new_cells.keys()):
        old, new = old_cells[key], new_cells[key]
        metric, n = key
        ceiling = ceilings.get(metric, COLD_CEILING_S)
        if new > ceiling:
            failures.append(
                f"service: {metric} n={n} took {new:.4f}s > absolute "
                f"ceiling {ceiling:g}s"
            )
        elif new > floor and new > old * headroom:
            failures.append(
                f"service: {metric} n={n} took {new:.4f}s > {headroom:.0f}x "
                f"the committed {old:.4f}s"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--write", action="store_true", help="measure and commit the snapshot"
    )
    action.add_argument(
        "--check", action="store_true", help="measure and compare to the snapshot"
    )
    args = parser.parse_args(argv)

    grid = measure_all()
    if args.write:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(
            json.dumps(snapshot(grid), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {SNAPSHOT_PATH.relative_to(ROOT.parent)}")
        return 0

    if not SNAPSHOT_PATH.is_file():
        print(
            f"FAIL {SNAPSHOT_PATH.name}: missing — run bench_service.py --write",
            file=sys.stderr,
        )
        return 1
    committed = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    failures = compare(committed, grid)
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    largest = str(max(SIZES))
    print(
        f"ok: cold n={largest} {grid['cold_s'][largest]:.2f}s; cached "
        f"{grid['cached_s'][largest] * 1e3:.2f}ms (O(1) ceiling "
        f"{CACHED_CEILING_S * 1e3:.0f}ms at every n); wire cached "
        f"{grid['wire_cached_s'][largest] * 1e3:.1f}ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
