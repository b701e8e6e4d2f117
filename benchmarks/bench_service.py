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
``benchmarks/results/BENCH_service.json`` is a *ceiling*, declared in
:mod:`ratchet`: ``--check`` fails only on cells slower than 4x
committed (and past the 0.25 s noise floor), or past the absolute
ceilings (20 s cold, 50 ms cached at every n, 5 s wire cached).  Faster
runs always pass; ``--write`` measures every cell and rewrites it.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --check
    PYTHONPATH=src python benchmarks/bench_service.py --write
"""

from __future__ import annotations

import sys
import time
import zlib

import ratchet
from repro.core import catalog
from repro.core.labeling import Configuration
from repro.core.verifier import decide
from repro.graphs.generators import random_tree
from repro.obs import metrics as obs
from repro.service import CertificationService, build_envelope
from repro.service.server import _rng_seed
from repro.util.rng import make_rng

SCHEME = ratchet.SERVICE.header["scheme"]
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


def measure_all() -> dict[str, dict[str, dict[str, float]]]:
    grid: dict[str, dict[str, float]] = {}
    for n in ratchet.SERVICE_SIZES:
        cell = measure_cell(n)
        for metric, seconds in cell.items():
            grid.setdefault(metric, {})[str(n)] = seconds
        print(
            f"measured {SCHEME} n={n}: cold {cell['cold_s']:.3f}s, "
            f"cached {cell['cached_s'] * 1e3:.2f}ms, "
            f"wire cached {cell['wire_cached_s'] * 1e3:.1f}ms"
        )
    return {"service": grid}


if __name__ == "__main__":
    sys.exit(ratchet.main((ratchet.SERVICE,), measure_all))
