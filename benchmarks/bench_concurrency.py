"""Serial vs threaded front-end throughput: the concurrency ceiling.

PR "thread-safe observability + concurrent certification front end"
made the HTTP server a :class:`~http.server.ThreadingHTTPServer`.  The
claim worth a committed ceiling is operational, not a speedup boast:
pushing a workload through the threaded front end with several
keep-alive clients must (a) decide every envelope correctly with a
balanced stats ledger, and (b) stay inside a wall-clock ceiling on
both the serial and the concurrent path — a lock-contention regression
(say, the obs root lock serializing whole submits, or the gate turning
into a convoy) shows up here as a threaded cell blowing past its
committed time.

Two workloads, each timed end-to-end over real HTTP round trips:

``cold``
    :data:`COLD_ENVELOPES` distinct envelopes, every one a full
    validate/rebuild/decide, submitted by 1 client vs
    :data:`CLIENT_THREADS` concurrent clients (disjoint slices).
``cached``
    One body certified once, then :data:`CACHED_RESUBMITS` fresh-nonce
    resubmissions — the O(1) hot path, where wall clock is dominated by
    HTTP round trips and the locks this PR added.

Correctness is asserted inline before any timing is recorded: every
verdict accepted, zero replays, ``server.errors`` empty, and the stats
ledger exactly balanced (hits + misses == submits).

Like the sibling benchmarks, the committed snapshot at
``benchmarks/results/BENCH_concurrency.json`` is a *ceiling*, declared
in :mod:`ratchet` with the workload sizes above: ``--check`` fails only
on cells slower than 4x committed (past the 0.25 s noise floor) or past
the 30 s absolute ceiling.  Faster runs always pass; ``--write``
measures every cell and rewrites it.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrency.py --check
    PYTHONPATH=src python benchmarks/bench_concurrency.py --write
"""

from __future__ import annotations

import sys
import threading
import time

import ratchet
from repro.graphs.generators import random_tree
from repro.service import CertificationService, build_envelope
from repro.service.client import CertifyClient
from repro.service.httpd import make_server
from repro.util.rng import make_rng

_HEADER = ratchet.CONCURRENCY.header
SCHEME = _HEADER["scheme"]
N = _HEADER["n"]
#: Concurrent keep-alive clients on the threaded path.
CLIENT_THREADS = _HEADER["client_threads"]
#: Distinct bodies in the ``cold`` workload.
COLD_ENVELOPES = _HEADER["cold_envelopes"]
#: Fresh-nonce resubmissions in the ``cached`` workload.
CACHED_RESUBMITS = _HEADER["cached_resubmits"]
#: Timing repetitions per cell; the minimum is recorded.
REPS = 3


def _cold_payloads(tag: str) -> list[bytes]:
    # explicit per-seed random trees: some catalog samplers are
    # deterministic in the seed, and cold means every body must miss
    # the verdict cache
    return [
        build_envelope(
            SCHEME,
            n=N,
            seed=100 + index,
            nonce=f"{tag}-{index}",
            graph=random_tree(N, make_rng(100 + index)),
        ).to_bytes()
        for index in range(COLD_ENVELOPES)
    ]


def _timed_run(
    payloads: list[bytes],
    clients: int,
    warm: bytes | None = None,
    expect_hits: int = 0,
) -> float:
    """Wall seconds to push ``payloads`` through a fresh threaded server.

    ``clients`` keep-alive clients split the payloads round-robin
    (1 = the serial baseline).  ``warm`` is submitted once before the
    clock starts (priming the verdict cache); ``expect_hits`` pins how
    many of the timed submissions must be served from it.
    """
    service = CertificationService()
    server = make_server(port=0, service=service, max_inflight=clients + 4)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = "http://%s:%d" % server.server_address[:2]
    try:
        if warm is not None:
            with CertifyClient(url) as client:
                if not client.submit(warm).accepted:
                    raise SystemExit("concurrency: warmup envelope rejected")
        slices = [payloads[index::clients] for index in range(clients)]
        failures: list[str] = []
        barrier = threading.Barrier(clients + 1)

        def make_worker(chunk: list[bytes]):
            def worker() -> None:
                try:
                    with CertifyClient(url) as client:
                        barrier.wait()
                        for payload in chunk:
                            if not client.submit(payload).accepted:
                                failures.append("verdict rejected")
                except Exception as error:  # pragma: no cover - on failure
                    failures.append(repr(error))

            return worker

        threads = [
            threading.Thread(target=make_worker(chunk)) for chunk in slices
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if failures:
            raise SystemExit(f"concurrency: {failures[0]}")
        if server.errors:
            raise SystemExit(f"concurrency: handler error {server.errors[0]}")
        stats = service.metrics()["stats"]
        submitted = len(payloads) + (1 if warm is not None else 0)
        if stats["submitted"] != submitted or stats["replays_rejected"]:
            raise SystemExit(
                f"concurrency: ledger counted {stats['submitted']} submits "
                f"({stats['replays_rejected']} replays), expected {submitted}"
            )
        if stats["cache_hits"] + stats["cache_misses"] != submitted:
            raise SystemExit("concurrency: hits + misses != submits")
        if stats["cache_hits"] != expect_hits:
            raise SystemExit(
                f"concurrency: {stats['cache_hits']} cache hits, "
                f"expected {expect_hits}"
            )
        return elapsed
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def measure_cell(workload: str) -> dict[str, float]:
    serial = threaded = float("inf")
    for rep in range(REPS):
        if workload == "cold":
            serial = min(
                serial, _timed_run(_cold_payloads(f"s{rep}"), clients=1)
            )
            threaded = min(
                threaded,
                _timed_run(_cold_payloads(f"t{rep}"), clients=CLIENT_THREADS),
            )
        else:
            base = build_envelope(SCHEME, n=N, seed=77)
            hot = [
                base.with_nonce(f"{rep}-{index}").to_bytes()
                for index in range(CACHED_RESUBMITS)
            ]
            kwargs = dict(warm=base.to_bytes(), expect_hits=CACHED_RESUBMITS)
            serial = min(serial, _timed_run(hot, clients=1, **kwargs))
            threaded = min(
                threaded, _timed_run(hot, clients=CLIENT_THREADS, **kwargs)
            )
    return {"serial_s": round(serial, 4), "threaded_s": round(threaded, 4)}


def measure_all() -> dict[str, dict[str, dict[str, float]]]:
    grid: dict[str, dict[str, float]] = {"serial_s": {}, "threaded_s": {}}
    for workload in ratchet.CONCURRENCY_WORKLOADS:
        cell = measure_cell(workload)
        for metric in grid:
            grid[metric][workload] = cell[metric]
        count = COLD_ENVELOPES if workload == "cold" else CACHED_RESUBMITS
        print(
            f"measured {workload}: serial {cell['serial_s']:.3f}s "
            f"({count / cell['serial_s']:.0f}/s), threaded x{CLIENT_THREADS} "
            f"{cell['threaded_s']:.3f}s ({count / cell['threaded_s']:.0f}/s)"
        )
    return {"concurrency": grid}


if __name__ == "__main__":
    sys.exit(ratchet.main((ratchet.CONCURRENCY,), measure_all))
