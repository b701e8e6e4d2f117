"""Service workload: wire bytes -> verdict over real HTTP.

``service-mixed-10k``
    The server (``perfbench/serve.py``: ``repro serve`` with its
    defaults) runs in its own process.  :data:`CLIENTS` keep-alive
    :class:`~repro.service.client.CertifyClient` connections drive it in
    a closed loop, each sending only its own stream: groups of one cold
    body followed by :data:`RESUBMITS` fresh-nonce resubmits of bodies
    this client has already had answered, one of each scheme once the
    client has one (a ``leader`` body is about 23% larger than the
    others, so a seed-chosen mix would move the latencies).  One cold body in
    :data:`CORRUPT_EVERY` has corrupted registers.  Bodies are
    ``random_tree(10^4)`` instances rotating over the library's schemes;
    every stream has fewer distinct bodies than the 256-entry verdict
    cache, so the hit ratio is 3/4 by construction.

Payloads are generated in set-up; the server receives only bytes.  Every
served verdict must equal the in-process expectation fixed before the
timed phase, and the server's own ledger must balance.  The traced run
adds an in-process replay of the first :data:`REPLAY_GROUPS` groups of
each stream, which splits a request into codec, hashing and submit time.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ServiceError, ServiceUnavailableError
from repro.graphs.generators import random_tree
from repro.service import CertificationService, build_envelope
from repro.service.client import CertifyClient
from repro.service.envelope import ProofEnvelope
from repro.util.rng import make_rng

from perfbench.harness import (
    GateError,
    Outcome,
    Pairs,
    Tracer,
    check_coverage,
    derive_seed,
    layer_medians,
    ledger_counts,
    ledger_delta,
    median,
    median_total,
    tail,
)
from perfbench.library import SCHEMES

SERVICE_N = 10_000
#: Concurrent keep-alive clients (the box has two cores).
CLIENTS = 2
#: Cold bodies per client stream; enough to outlast a 30 s run on a
#: quiet host (112 bodies in all, under the 256-entry verdict cache).
GROUPS = 56
#: Fresh-nonce resubmits after each cold body.
RESUBMITS = 3
#: One cold body in this many (the second of every run of four, so
#: the replayed prefix holds one) is corrupted ...
CORRUPT_EVERY = 4
#: ... in this many registers (``build_envelope(corrupt=...)``).
CORRUPTIONS = 3
#: Groups per stream the traced run replays in-process.
REPLAY_GROUPS = 2
#: Seconds allowed for the server process to start or stop.
SERVER_TIMEOUT_S = 60.0

SERVE_SCRIPT = Path(__file__).resolve().parent / "serve.py"


@dataclass
class Body:
    """One distinct envelope and its in-process expectation."""

    scheme: str
    nonce: str
    payload: bytes
    n: int
    envelope: ProofEnvelope | None
    #: Seconds this body took to generate (one unit of set-up).
    setup_s: float
    #: ``(accepted, rejections, body_hash)``, fixed before the timed phase.
    expected: tuple[bool, int, str] | None = None


@dataclass
class Request:
    client: int
    kind: str  # "cold" or "resubmit"
    body: Body
    payload: bytes


@dataclass
class Record:
    request: Request
    seconds: float
    outcome: Any  # a CertificationResult, or the exception raised


def _nonce(seed: int, *parts: Any) -> str:
    return f"{derive_seed(seed, 'nonce', *parts):032x}"


def with_nonce(body: Body, nonce: str) -> bytes:
    """``body``'s wire bytes under another nonce.

    The canonical form carries the nonce once, as a plain string field,
    so swapping that field gives exactly ``envelope.with_nonce(nonce)``
    rendered by ``to_bytes`` without re-encoding the whole envelope.
    """
    field = f'"nonce":"{body.nonce}"'.encode()
    if body.payload.count(field) != 1:
        raise GateError(f"nonce field of a {body.scheme} body is not unique")
    return body.payload.replace(field, f'"nonce":"{nonce}"'.encode())


def make_streams(
    seed: int, n: int, groups: int, tracer: Tracer
) -> list[list[list[Request]]]:
    """Per client, per group: the requests it sends, in order."""
    streams = []
    for client in range(CLIENTS):
        picks = make_rng(derive_seed(seed, "resubmits", client))
        bodies: list[Body] = []
        answered: dict[str, list[Body]] = {scheme: [] for scheme in SCHEMES}
        stream = []
        for index in range(groups):
            scheme = SCHEMES[(client * groups + index) % len(SCHEMES)]
            corrupt = CORRUPTIONS if index % CORRUPT_EVERY == 1 else 0
            nonce = _nonce(seed, client, index, 0)
            start = time.perf_counter()
            with tracer.span("graphs.random_tree"):
                graph = random_tree(
                    n, make_rng(derive_seed(seed, "graph", client, index))
                )
            envelope = build_envelope(
                scheme,
                n=n,
                seed=derive_seed(seed, "envelope", client, index),
                corrupt=corrupt,
                nonce=nonce,
                graph=graph,
            )
            with tracer.span("service.envelope.to_bytes"):
                payload = envelope.to_bytes()
            setup_s = time.perf_counter() - start
            bodies.append(Body(scheme, nonce, payload, n, envelope, setup_s))
            answered[scheme].append(bodies[-1])
            group = [Request(client, "cold", bodies[-1], payload)]
            for again in range(1, RESUBMITS + 1):
                pool = answered[SCHEMES[again % len(SCHEMES)]] or bodies
                body = pool[picks.randrange(len(pool))]
                resubmit = with_nonce(body, _nonce(seed, client, index, again))
                group.append(Request(client, "resubmit", body, resubmit))
            stream.append(group)
        streams.append(stream)
    return streams


def fix_expectations(streams: list[list[list[Request]]]) -> None:
    """Certify every distinct body in-process and pin its verdict."""
    service = CertificationService()
    for stream in streams:
        for group in stream:
            body = group[0].body
            result = service.submit(body.envelope)
            body.expected = (result.accepted, result.rejections, result.body_hash)
            body.envelope = None


def check_record(record: Record) -> bool:
    """False for a failed request; raise on a wrong served verdict."""
    outcome = record.outcome
    if isinstance(outcome, Exception):
        return False
    request = record.request
    served = (outcome.accepted, outcome.rejections, outcome.body_hash)
    if served != request.body.expected:
        raise GateError(
            f"served {request.kind} {request.body.scheme} verdict {served[:2]} "
            f"differs from the in-process {request.body.expected[:2]}"
        )
    if outcome.cache_hit != (request.kind == "resubmit"):
        raise GateError(f"{request.kind} request had cache_hit={outcome.cache_hit}")
    return True


# ---------------------------------------------------------------------------
# The server process and the closed-loop clients.
# ---------------------------------------------------------------------------


class ServerProcess:
    """``perfbench/serve.py`` in a child process; :meth:`stop` reports."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVE_SCRIPT)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("certification server exited before listening")
            self.url = f"http://127.0.0.1:{json.loads(line)['port']}"
            with CertifyClient(self.url, timeout=SERVER_TIMEOUT_S) as client:
                if not client.healthz():
                    raise RuntimeError("certification server is not healthy")
        except BaseException:
            self.kill()
            raise

    def stop(self) -> dict[str, Any]:
        """Shut the server down; its report (errors, ledger, peak memory)."""
        try:
            out, _ = self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class RetryCounter:
    """``CertifyClient``'s sleep hook: counts 429 retries, then sleeps."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, seconds: float) -> None:
        self.count += 1
        time.sleep(seconds)


def drive(client: Any, stream: list[list[Request]], deadline: float) -> list[Record]:
    """Closed loop over one stream, in whole groups, until ``deadline``."""
    records = []
    for group in stream:
        if time.perf_counter() >= deadline:
            break
        for request in group:
            start = time.perf_counter()
            try:
                outcome = client.submit(request.payload)
            except (ServiceError, OSError, http.client.HTTPException) as error:
                outcome = error
            records.append(Record(request, time.perf_counter() - start, outcome))
    return records


def http_phase(
    url: str, streams: list[list[list[Request]]], seconds: float
) -> tuple[list[Record], float, list[RetryCounter]]:
    """All clients at once; ``(records, wall seconds, retry counters)``."""
    start: list[float] = []
    barrier = threading.Barrier(
        CLIENTS, action=lambda: start.append(time.perf_counter())
    )
    results: list[list[Record]] = [[] for _ in range(CLIENTS)]
    ends = [0.0] * CLIENTS
    retries = [RetryCounter() for _ in range(CLIENTS)]
    crashes: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            with CertifyClient(url, sleep=retries[index]) as client:
                barrier.wait()
                results[index] = drive(client, streams[index], start[0] + seconds)
                ends[index] = time.perf_counter()
        except BaseException as error:  # re-raised by the main thread
            crashes.append(error)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    records = [record for result in results for record in result]
    return records, max(ends) - start[0], retries


def check_server(report: dict[str, Any], records: list[Record], failed: int) -> None:
    if report["errors"]:
        raise GateError(f"server handler errors: {report['errors'][:3]}")
    stats = report["stats"]
    if stats["replays_rejected"]:
        raise GateError(f"server rejected {stats['replays_rejected']} replays")
    if stats["cache_hits"] + stats["cache_misses"] != stats["submitted"]:
        raise GateError(f"server ledger does not balance: {stats}")
    if failed:
        return
    resubmits = sum(record.request.kind == "resubmit" for record in records)
    expected = (len(records), resubmits, len(records) - resubmits)
    counted = (stats["submitted"], stats["cache_hits"], stats["cache_misses"])
    if counted != expected:
        raise GateError(
            f"server counted (submits, hits, misses) {counted}, sent {expected}"
        )


def _latencies(records: list[Record], kind: str | None = None) -> list[float]:
    return [
        record.seconds
        for record in records
        if not isinstance(record.outcome, Exception)
        and (kind is None or record.request.kind == kind)
    ]


# ---------------------------------------------------------------------------
# The workload.
# ---------------------------------------------------------------------------


def replay(
    streams: list[list[list[Request]]], tracer: Tracer
) -> tuple[Pairs, list[Request], dict[str, int]]:
    """Submit the first groups of every stream in-process, twice each.

    Two fresh services see the same requests in the same order, one
    untraced and one inside spans, so their caches evolve identically.
    """
    prefix = [
        request
        for stream in streams
        for group in stream[:REPLAY_GROUPS]
        for request in group
    ]
    services = {False: CertificationService(), True: CertificationService()}
    pairs = Pairs(tracer)
    for request in prefix:
        def op(tr: Tracer, request: Request = request):
            with tr.span("service.envelope.from_bytes"):
                envelope = ProofEnvelope.from_bytes(request.payload)
            with tr.span("service.envelope.body_hash"):
                envelope.body_hash
            stage = "hit" if request.kind == "resubmit" else "cold"
            with tr.span(f"service.submit.{stage}"):
                return services[tr.enabled].submit(envelope)

        result = pairs.run(f"replay {request.kind}", op)
        check_record(Record(request, 0.0, result))
    return pairs, prefix, services[True].metrics()["stats"]


def service(
    seed: int,
    seconds: float,
    trace: bool,
    n: int = SERVICE_N,
    groups: int = GROUPS,
) -> Outcome:
    tracer = Tracer(trace)
    before = ledger_counts()
    streams = make_streams(seed, n, groups, tracer)
    setup_counts = ledger_delta(before)
    bodies = [group[0].body for stream in streams for group in stream]
    start = time.perf_counter()
    server = ServerProcess()
    setup_s = time.perf_counter() - start + median_total([b.setup_s for b in bodies])
    try:
        fix_expectations(streams)
        records, wall, retries = http_phase(server.url, streams, seconds)
    except BaseException:
        server.kill()
        raise
    report = server.stop()
    completed = [record for record in records if check_record(record)]
    failed = len(records) - len(completed)
    check_server(report, records, failed)

    latencies = _latencies(records)
    by_kind = {kind: _latencies(records, kind) for kind in ("cold", "resubmit")}
    notes = []
    for kind, values in by_kind.items():
        value, percentile = tail(values)
        notes.append(
            f"{kind}: p50 {median(values):.4f}s, p{percentile:.0f} {value:.4f}s "
            f"over {len(values)} requests"
        )
    if not trace:
        tail_value, percentile = tail(latencies)
        notes.append(f"op_tail_s is p{percentile:.0f} of {len(latencies)} requests")
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": median(latencies),
            "op_tail_s": tail_value,
            "nodes_per_s": len(completed) * n / wall,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        return Outcome(len(records), failed, metrics, notes)

    pairs, prefix, replay_stats = replay(streams, tracer)
    served = {id(record.request): record for record in completed}
    overheads = [
        served[id(request)].seconds - wall_s
        for request, wall_s in zip(prefix, pairs.walls)
        if id(request) in served
    ]
    cold_timings = [
        record.outcome.timings for record in completed if record.request.kind == "cold"
    ]
    counts = pairs.counts_over(len(prefix))
    wire_bytes = sum(len(request.payload) for request in prefix)
    unavailable = sum(
        isinstance(record.outcome, ServiceUnavailableError) for record in records
    )
    metrics = layer_medians(
        tracer,
        {
            "graphs.random_tree_s": "graphs.random_tree",
            "service.envelope.to_bytes_s": "service.envelope.to_bytes",
            "service.envelope.from_bytes_s": "service.envelope.from_bytes",
            "service.envelope.body_hash_s": "service.envelope.body_hash",
            "service.submit_s.cold": "service.submit.cold",
            "service.submit_s.hit": "service.submit.hit",
        },
    )
    metrics.update(
        {
            **{name: setup_counts[name] + counts[name] for name in counts},
            "service.validate_s": median(t["validate"] for t in cold_timings),
            "service.build_s": median(t["build"] for t in cold_timings),
            "service.decide_s": median(t["decide"] for t in cold_timings),
            "service.http_overhead_s": median(overheads),
            "service.cold_p50_s": median(by_kind["cold"]),
            "service.cold_tail_s": tail(by_kind["cold"])[0],
            "service.resubmit_p50_s": median(by_kind["resubmit"]),
            "service.resubmit_tail_s": tail(by_kind["resubmit"])[0],
            "wire_bytes_per_node": wire_bytes / sum(r.body.n for r in prefix),
            "cache_hit_ratio": replay_stats["cache_hits"] / replay_stats["submitted"],
            "http_429": sum(counter.count for counter in retries) + unavailable,
            "client_retries": sum(counter.count for counter in retries),
            "coverage.unattributed_s": check_coverage(tracer, "op"),
            "trace.overhead_s": median(pairs.overheads),
        }
    )
    return Outcome(len(records) + 2 * len(prefix), failed, metrics, notes, tracer)
