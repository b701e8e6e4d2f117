"""The threaded front end under contention: serial ≡ concurrent.

The certification service's one semantic promise under threading is
that concurrency changes *scheduling, never verdicts*: a workload
pushed through the threaded HTTP front end by many clients at once
must decide exactly what a serial in-process run decides, replay
protection must fire exactly once per duplicated nullifier no matter
which thread wins the race, and the stats ledger must balance.  These
tests pin that, plus the backpressure contract (429 + ``Retry-After``
under saturation, :class:`~repro.errors.ServiceUnavailableError` once
the client's retry budget is spent) and the rule that a vanished or
malformed client never takes a worker thread down with it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import ReplayError, ServiceError, ServiceUnavailableError
from repro.obs import metrics as obs
from repro.service import CertificationService, build_envelope
from repro.service.client import CertifyClient
from repro.service.httpd import make_server


#: ``CertificationService.stats`` key -> the obs counter it mirrors.
_STAT_COUNTERS = {
    "submitted": "service.submit",
    "cache_hits": "service.cache.hit",
    "cache_misses": "service.cache.miss",
    "replays_rejected": "service.nullifier.rejected",
    "refused": "service.refused",
}


@contextlib.contextmanager
def _serving(service, **kwargs):
    """A live threaded server around ``service``; yields its base URL."""
    server = make_server(port=0, service=service, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, "http://%s:%d" % server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _run_threads(workers):
    failures = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as error:  # pragma: no cover - on failure
                failures.append(error)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker thread deadlocked"
    if failures:
        raise failures[0]


def _submit_once(url, envelope):
    """One submit on a client of its own, closed once the reply is in."""
    with CertifyClient(url) as client:
        client.submit(envelope)


def _verdict(result) -> tuple:
    """The order-independent fields a verdict must be judged by.

    ``cache_hit`` and ``timings`` legitimately depend on scheduling;
    everything else must be identical however threads interleave.
    """
    return (
        result.scheme,
        result.n,
        result.accepted,
        result.rejections,
        result.rejecting,
        result.body_hash,
    )


class TestSerialConcurrentEquivalence:
    def _workload(self):
        """(distinct envelopes, submission list) — honest, corrupted,
        fresh-nonce resubmits, and verbatim replays, all deterministic.
        """
        distinct = [
            build_envelope("bipartite", n=8, seed=31),
            build_envelope("bipartite", n=10, seed=32, corrupt=2),
            build_envelope("leader", n=10, seed=33),
            build_envelope("leader", n=12, seed=34, corrupt=3),
            build_envelope("spanning-tree-ptr", n=12, seed=35),
            build_envelope("spanning-tree-ptr", n=14, seed=36, corrupt=2),
            build_envelope("agreement", n=9, seed=37),
        ]
        # same content under fresh nonces: distinct nullifiers, shared
        # body_hash — the cache-hit path under contention
        distinct += [
            distinct[0].with_nonce("fresh-a"),
            distinct[2].with_nonce("fresh-b"),
            distinct[4].with_nonce("fresh-c"),
        ]
        submissions = list(distinct)
        # verbatim duplicates: exactly one replay rejection each
        replayed = [distinct[0], distinct[3], distinct[5], distinct[8]]
        submissions += replayed
        random.Random(99).shuffle(submissions)
        return distinct, submissions, len(replayed)

    def test_threaded_run_matches_serial_run(self):
        distinct, submissions, n_replays = self._workload()

        # -- serial baseline: one envelope each, plain in-process submit
        serial_service = CertificationService()
        try:
            baseline = {
                envelope.nullifier: _verdict(serial_service.submit(envelope))
                for envelope in distinct
            }
        finally:
            serial_service.close()

        # -- concurrent run: the same multiset of submissions pushed
        # through the threaded HTTP front end by several clients at
        # once, mixing raising submits and settled submit_many calls
        outcomes: list[tuple[str, str, tuple | None]] = []
        sink_lock = threading.Lock()
        n_threads = 4
        chunks = [submissions[index::n_threads] for index in range(n_threads)]

        def make_single_worker(chunk, url, barrier):
            def worker():
                with CertifyClient(url) as client:
                    barrier.wait()
                    for envelope in chunk:
                        try:
                            result = client.submit(envelope)
                        except ReplayError:
                            record = (envelope.nullifier, "replay", None)
                        else:
                            record = (
                                envelope.nullifier, "ok", _verdict(result)
                            )
                        with sink_lock:
                            outcomes.append(record)

            return worker

        def make_many_worker(chunk, url, barrier):
            def worker():
                with CertifyClient(url) as client:
                    barrier.wait()
                    settled = client.submit_many(chunk)
                assert len(settled) == len(chunk)
                with sink_lock:
                    for envelope, outcome in zip(chunk, settled):
                        if isinstance(outcome, ReplayError):
                            outcomes.append(
                                (envelope.nullifier, "replay", None)
                            )
                        else:
                            assert not isinstance(outcome, ServiceError)
                            outcomes.append(
                                (envelope.nullifier, "ok", _verdict(outcome))
                            )

            return worker

        service = CertificationService()
        barrier = threading.Barrier(n_threads)
        before = {
            name: obs.counter_total(name) for name in _STAT_COUNTERS.values()
        }
        with _serving(service, max_inflight=8) as (server, url):
            _run_threads([
                (make_single_worker if index % 2 else make_many_worker)(
                    chunk, url, barrier
                )
                for index, chunk in enumerate(chunks)
            ])
            with CertifyClient(url) as client:
                stats = client.metrics()["stats"]
            assert not server.errors

        # -- equivalence: every submission produced an outcome; per
        # nullifier exactly one decided verdict (whichever thread won),
        # identical to the serial verdict, and every duplicate drew
        # exactly one replay rejection
        assert len(outcomes) == len(submissions)
        by_nullifier: dict[str, list] = {}
        for nullifier, kind, verdict in outcomes:
            by_nullifier.setdefault(nullifier, []).append((kind, verdict))
        assert set(by_nullifier) == set(baseline)
        replay_total = 0
        for envelope in distinct:
            records = by_nullifier[envelope.nullifier]
            decided = [v for kind, v in records if kind == "ok"]
            replays = [kind for kind, _ in records if kind == "replay"]
            assert len(decided) == 1, (
                f"nullifier {envelope.nullifier[:8]} decided "
                f"{len(decided)} times"
            )
            assert len(replays) == len(records) - 1
            assert decided[0] == baseline[envelope.nullifier]
            replay_total += len(replays)
        assert replay_total == n_replays

        # -- conservation: the stats ledger balances exactly
        assert stats["submitted"] == len(submissions)
        assert stats["replays_rejected"] == n_replays
        assert (
            stats["cache_hits"] + stats["cache_misses"]
            == stats["submitted"] - stats["replays_rejected"]
        )
        # each stats key is the root-ledger delta of its obs counter
        assert stats == {
            key: obs.counter_total(name) - before[name]
            for key, name in _STAT_COUNTERS.items()
        }


class TestWireKeyIndexUnderThreads:
    def test_resubmits_and_evictions_keep_one_key_per_verdict(self):
        """Threads resubmit canonical bytes under fresh nonces into a
        cache smaller than the set of bodies, so index lookups, fills
        and evictions interleave: every verdict and nullifier is the
        serial one, and the index keys exactly the cached verdicts."""
        names = ("leader", "bipartite", "spanning-tree-ptr", "bfs-tree")
        bodies = [
            build_envelope(name, n=10, seed=60 + index, corrupt=index % 2)
            for index, name in enumerate(names * 2)
        ]
        expected = {
            envelope.body_hash: _verdict(CertificationService().submit(envelope))
            for envelope in bodies
        }
        service = CertificationService(cache_size=3)
        served = []

        def worker(index):
            def run():
                rng = random.Random(index)
                for step in range(40):
                    envelope = rng.choice(bodies).with_nonce(f"{index}-{step}")
                    served.append((envelope, service.submit(envelope.to_bytes())))

            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([worker(index) for index in range(6)])
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == 240
        for envelope, result in served:
            assert _verdict(result) == expected[envelope.body_hash]
            assert result.nullifier == envelope.nullifier
        stats = service.stats
        assert stats["cache_hits"] + stats["cache_misses"] == 240
        assert stats["cache_hits"] > 0
        with service._lock:
            assert set(service._wire_key_of) == set(service._wire_keys.values())
            assert set(service._wire_key_of) <= set(service._cache)


class _BlockingService(CertificationService):
    """Holds every submit until released — makes saturation deterministic."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def submit(self, envelope):
        self.entered.set()
        assert self.release.wait(timeout=30), "blocking service never released"
        return super().submit(envelope)


class TestBackpressure:
    def test_saturation_yields_429_with_retry_after(self):
        service = _BlockingService()
        envelope = build_envelope("bipartite", n=8, seed=51)
        with _serving(service, max_inflight=1) as (server, url):
            accepted = []

            def occupant():
                with CertifyClient(url) as client:
                    accepted.append(client.submit(envelope).accepted)

            holder = threading.Thread(target=occupant)
            holder.start()
            try:
                assert service.entered.wait(timeout=10)
                # the one slot is taken: a raw POST must bounce with
                # 429 + Retry-After, not queue and not deadlock
                host, port = server.server_address[:2]
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    payload = envelope.with_nonce("other").to_bytes()
                    conn.request(
                        "POST", "/certify", body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 429
                    assert response.getheader("Retry-After") == "1"
                    assert response.getheader("Connection") == "close"
                    assert body["retry_after"] == 1
                finally:
                    conn.close()
                # GET routes bypass the gate: health and metrics stay
                # readable while the service is saturated
                with CertifyClient(url) as probe:
                    assert probe.healthz()
                    assert probe.metrics()["inflight"] == 1
            finally:
                service.release.set()
                holder.join(timeout=30)
            assert not holder.is_alive(), "admitted submission never settled"
            assert accepted == [True]  # the occupant's verdict survived

    def test_client_retry_budget_exhaustion_raises(self):
        service = _BlockingService()
        envelope = build_envelope("bipartite", n=8, seed=52)
        with _serving(service, max_inflight=1) as (_, url):
            holder = threading.Thread(target=_submit_once, args=(url, envelope))
            holder.start()
            try:
                assert service.entered.wait(timeout=10)
                sleeps: list[float] = []
                with CertifyClient(
                    url, retries=2, sleep=sleeps.append
                ) as client:
                    with pytest.raises(ServiceUnavailableError):
                        client.submit(envelope.with_nonce("x"))
                assert len(sleeps) == 2  # one wait per retry, then give up
                assert all(0 < wait <= 1.0 for wait in sleeps)
            finally:
                service.release.set()
                holder.join(timeout=30)

    def test_saturated_submit_many_settles_without_spending(self):
        """A spent 429 budget is one settled outcome per envelope, not a
        raise that would hide verdicts admitted earlier in the list; the
        refused envelopes were never admitted, so they decide later."""
        service = _BlockingService()
        occupant = build_envelope("bipartite", n=8, seed=54)
        envelopes = [
            build_envelope("leader", n=10, seed=55),
            build_envelope("bipartite", n=10, seed=56, corrupt=2),
        ]
        with _serving(service, max_inflight=1) as (_, url):
            holder = threading.Thread(target=_submit_once, args=(url, occupant))
            holder.start()
            try:
                assert service.entered.wait(timeout=10)
                with CertifyClient(url, retries=0) as client:
                    saturated = client.submit_many(envelopes)
                assert [type(outcome) for outcome in saturated] == [
                    ServiceUnavailableError, ServiceUnavailableError
                ]
            finally:
                service.release.set()
                holder.join(timeout=30)
            # default retry budget: the occupant's handler may release
            # its slot just after its reply reached the holder
            with CertifyClient(url) as client:
                decided = client.submit_many(envelopes)
        assert [(result.accepted, result.cache_hit) for result in decided] == [
            (True, False), (False, False)
        ]

    def test_client_retry_succeeds_once_capacity_frees(self):
        service = _BlockingService()
        envelope = build_envelope("bipartite", n=8, seed=53)
        with _serving(service, max_inflight=1) as (_, url):
            holder = threading.Thread(target=_submit_once, args=(url, envelope))
            holder.start()
            try:
                assert service.entered.wait(timeout=10)
                sleeps: list[float] = []

                def unblocking_sleep(wait: float) -> None:
                    # first 429: free the slot, then give the occupant
                    # a beat to finish before the retry
                    sleeps.append(wait)
                    service.release.set()
                    time.sleep(0.05)

                with CertifyClient(
                    url, retries=40, sleep=unblocking_sleep
                ) as client:
                    result = client.submit(envelope.with_nonce("y"))
                assert result.accepted
                assert sleeps, "the retry path was never exercised"
            finally:
                service.release.set()
                holder.join(timeout=30)


class TestDisconnects:
    def test_client_vanishing_mid_response_stays_quiet(self):
        # a client that RSTs after sending a full request must not
        # crash the handler thread, must not pollute server.errors,
        # and must leave the server fully serving
        service = _BlockingService()
        envelope = build_envelope("bipartite", n=8, seed=61)
        with _serving(service, max_inflight=4) as (server, url):
            host, port = server.server_address[:2]
            payload = envelope.to_bytes()
            sock = socket.create_connection((host, port), timeout=10)
            try:
                sock.sendall(
                    b"POST /certify HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                assert service.entered.wait(timeout=10)
            finally:
                # RST on close: the reply hits a dead peer immediately
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.close()
            service.release.set()
            # the doomed reply happens on its own thread; follow-up
            # traffic proves the server outlived it
            with CertifyClient(url) as client:
                assert client.healthz()
                result = client.submit(envelope.with_nonce("after"))
                assert result.accepted
            time.sleep(0.2)  # let the broken handler thread wind down
            assert not server.errors, list(server.errors)
